import math

import numpy as np
import pytest

from cbwsim.analytic import (
    GlassPlateFormula,
    GlassPlateModel,
    cbw_intensities,
    cbw_wavelength,
    expected_coincidence_fraction,
    glass_plate_opd,
    single_mzi_intensities,
)
from cbwsim.circuit import build_cbw_chain, output_intensities
from cbwsim.config import MAX_MODULES


def brute_force_coincidence_fraction(lam, p_upper, p_lower, k_max=12):
    """Direct pmf enumeration (test-local oracle, no series shortcuts)."""
    numerator = 0.0
    for k in range(2, k_max + 1):
        pmf = math.exp(-lam) * lam**k / math.factorial(k)
        numerator += pmf * (1.0 - p_upper**k - p_lower**k)
    return numerator / (1.0 - math.exp(-lam))


class TestSingleMzi:
    def test_dark_port_at_zero(self):
        pred = single_mzi_intensities(0.0, 2.0)
        assert pred.i_upper == 0.0 and pred.i_lower == 2.0

    def test_swap_at_pi(self):
        pred = single_mzi_intensities(np.pi, 2.0)
        assert abs(pred.i_upper - 2.0) < 1e-15 and abs(pred.i_lower) < 1e-15

    def test_balanced_at_half_pi(self):
        pred = single_mzi_intensities(np.pi / 2, 1.0)
        assert abs(pred.i_upper - 0.5) < 1e-15 and abs(pred.i_lower - 0.5) < 1e-15

    def test_rejects_negative_intensity(self):
        with pytest.raises(ValueError):
            single_mzi_intensities(0.0, -1.0)


# Each input is checked once, before routing, so the closed-form and the
# composition route (control phase 0.5) raise the same error.
@pytest.mark.parametrize("call, message", [
    (lambda: single_mzi_intensities(0.3, math.nan), "i0 must be a finite number"),
    (lambda: single_mzi_intensities(math.inf), "psi must be finite"),
    (lambda: single_mzi_intensities(np.array([0.1, math.nan])), "psi must be finite"),
    (lambda: cbw_intensities(math.inf, 0.0, 2), "psi must be finite"),
    (lambda: cbw_intensities(math.inf, math.pi, 2), "psi must be finite"),
    (lambda: cbw_intensities(math.inf, 0.5, 2), "psi must be finite"),
    (lambda: cbw_intensities(np.array([0.1, -math.inf]), 0.0, 3), "psi must be finite"),
    (lambda: cbw_intensities(np.array([0.1, -math.inf]), 0.5, 3), "psi must be finite"),
    (lambda: cbw_intensities(0.3, 0.0, 3, math.inf), "i0 must be a finite number"),
    (lambda: cbw_intensities(0.3, 0.5, 3, math.inf), "i0 must be a finite number"),
    (lambda: cbw_intensities(0.3, math.nan, 1), "phi must be finite"),
    (lambda: cbw_intensities(0.3, math.inf, 2), "phi must be finite"),
], ids=["mzi-nan-i0", "mzi-inf-psi", "mzi-nan-psi", "closed-inf-psi-0", "closed-inf-psi-pi",
        "composed-inf-psi", "closed-array-psi", "composed-array-psi", "closed-inf-i0",
        "composed-inf-i0", "nan-phi", "inf-phi"])
def test_non_finite_inputs_raise_the_same_error_on_both_routes(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestCascadeIntensities:
    def test_doubled_balanced_point(self):
        pred = cbw_intensities(np.pi / 4, 0.0, 2, 1.0)
        assert pred.branch == "closed-form"
        assert abs(pred.i_upper - 0.5) < 1e-15 and abs(pred.i_lower - 0.5) < 1e-15

    def test_symmetric_control_phase_is_flat(self):
        pred = cbw_intensities(1.234, np.pi, 2, 1.0)
        assert pred.branch == "closed-form"
        assert pred.i_upper == 1.0 and pred.i_lower == 0.0

    def test_tripled_chain_at_third_pi(self):
        pred = cbw_intensities(np.pi / 3, 0.0, 3, 1.0)
        assert pred.branch == "closed-form"
        assert abs(pred.i_upper - 1.0) < 1e-12 and abs(pred.i_lower) < 1e-12

    def test_control_phase_mod_two_pi_hits_closed_forms(self):
        doubled = cbw_intensities(0.3, 4 * np.pi, 2)
        c = np.cos(2 * 0.3)
        assert doubled.branch == "closed-form"
        assert (doubled.i_upper, doubled.i_lower) == ((1.0 + c) / 2.0, (1.0 - c) / 2.0)
        for phi in (3 * np.pi, -np.pi):
            frozen = cbw_intensities(0.3, phi, 2)
            assert frozen.branch == "closed-form"
            assert (frozen.i_upper, frozen.i_lower) == (1.0, 0.0)
        assert cbw_intensities(0.3, 0.5, 2).branch == "matrix-composition"

    def test_single_stage_ignores_control_phase(self):
        a = cbw_intensities(0.7, 0.0, 1)
        b = cbw_intensities(0.7, 2.1, 1)
        assert a.i_upper == b.i_upper and a.branch == "closed-form"

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_equals_matrix_composition_on_grid(self, m):
        psis = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        phis = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        ast_cache = {}
        for phi in phis:
            pred = cbw_intensities(psis, float(phi), m, 1.0)
            ast = ast_cache.setdefault(phi, build_cbw_chain(m, phi=float(phi)))
            up, lo = output_intensities(ast, {"psi": psis})
            assert np.max(np.abs(np.asarray(pred.i_upper) - up)) < 1e-12
            assert np.max(np.abs(np.asarray(pred.i_lower) - lo)) < 1e-12

    # The cosine law against composition at control phases 0 and pi, up to
    # the largest cascade the CLI accepts.
    @pytest.mark.parametrize("phi", [0.0, np.pi])
    @pytest.mark.parametrize("m", [3, 5, 8, 100, MAX_MODULES - 1, MAX_MODULES])
    def test_closed_form_equals_composition_up_to_max_modules(self, m, phi):
        psis = np.linspace(0, 2 * np.pi, 4001)
        pred = cbw_intensities(psis, phi, m, 1.0)
        assert pred.branch == "closed-form"
        up, lo = output_intensities(build_cbw_chain(m, phi=phi), {"psi": psis})
        assert np.max(np.abs(pred.i_upper - up)) < 1e-12
        assert np.max(np.abs(pred.i_lower - lo)) < 1e-12

    def test_energy_is_conserved_everywhere(self):
        psis = np.linspace(0, 2 * np.pi, 257)
        for m in (1, 2, 3):
            for phi in (0.0, np.pi / 2, np.pi, 1.1):
                pred = cbw_intensities(psis, phi, m, 2.0)
                total = np.asarray(pred.i_upper) + np.asarray(pred.i_lower)
                assert np.max(np.abs(total - 2.0)) < 1e-12

    def test_doubled_outputs_have_period_pi(self):
        psis = np.linspace(0, 2 * np.pi, 129)
        a = cbw_intensities(psis, 0.0, 2)
        b = cbw_intensities(psis + np.pi, 0.0, 2)
        assert np.max(np.abs(np.asarray(a.i_upper) - np.asarray(b.i_upper))) < 1e-12

    def test_single_outputs_have_period_two_pi_only(self):
        psis = np.linspace(0.1, 2 * np.pi, 64)
        base = np.asarray(single_mzi_intensities(psis).i_upper)
        pi_shift = np.asarray(single_mzi_intensities(psis + np.pi).i_upper)
        full_shift = np.asarray(single_mzi_intensities(psis + 2 * np.pi).i_upper)
        assert np.max(np.abs(base - full_shift)) < 1e-12
        assert np.max(np.abs(base - pi_shift)) > 0.5


class TestWavelength:
    def test_doubled(self):
        assert abs(cbw_wavelength(2, 532e-9) - 266e-9) < 1e-18

    def test_classical_single_stage(self):
        assert cbw_wavelength(1, 532e-9) == 532e-9

    def test_tripled(self):
        assert abs(cbw_wavelength(3, 532e-9) - 177.33e-9) < 5e-12

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            cbw_wavelength(0, 532e-9)
        with pytest.raises(ValueError):
            cbw_wavelength(2, 0.0)


DEG = np.pi / 180.0


class TestGlassPlate:
    def test_both_formulas_agree_at_normal_incidence(self):
        for formula in GlassPlateFormula:
            model = GlassPlateModel(formula, 1e-3, 1.5)
            assert abs(glass_plate_opd(model, 0.0) - 0.5e-3) < 1e-18

    def test_snell_corrected_slope_near_six_microns_per_degree(self):
        model = GlassPlateModel(GlassPlateFormula.SNELL_CORRECTED, 1e-3, 1.5)
        h = 1e-7
        slope = (glass_plate_opd(model, 45 * DEG + h) - glass_plate_opd(model, 45 * DEG - h)) / (2 * h)
        per_degree = slope * DEG
        assert 5e-6 < per_degree < 7e-6
        fringes = per_degree / 532e-9
        assert 10.0 < fringes < 12.0

    def test_published_formula_gives_37_microns_per_degree(self):
        # Regression pinning the documented discrepancy: the published
        # expression tunes ~6x faster than the refraction-corrected one.
        model = GlassPlateModel(GlassPlateFormula.PAPER_FORMULA, 1e-3, 1.5)
        h = 1e-7
        slope = (glass_plate_opd(model, 45 * DEG + h) - glass_plate_opd(model, 45 * DEG - h)) / (2 * h)
        per_degree = slope * DEG
        assert abs(per_degree - 37.0e-6) < 0.5e-6

    def test_published_formula_strictly_above_corrected_for_tilt(self):
        paper = GlassPlateModel(GlassPlateFormula.PAPER_FORMULA, 1e-3, 1.5)
        snell = GlassPlateModel(GlassPlateFormula.SNELL_CORRECTED, 1e-3, 1.5)
        thetas = np.linspace(1 * DEG, 80 * DEG, 60)
        gap = glass_plate_opd(paper, thetas) - glass_plate_opd(snell, thetas)
        assert np.all(gap > 0)
        assert np.all(np.diff(gap) > 0)

    def test_angle_domain_enforced(self):
        model = GlassPlateModel()
        with pytest.raises(ValueError):
            glass_plate_opd(model, -0.01)
        with pytest.raises(ValueError):
            glass_plate_opd(model, np.pi / 2)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            GlassPlateModel(thickness=0.0)
        with pytest.raises(ValueError):
            GlassPlateModel(refractive_index=1.0)


class TestCoincidenceFraction:
    def test_reference_operating_point_is_about_one_percent(self):
        value = expected_coincidence_fraction(0.04, 0.5, 0.5)
        assert abs(value - 0.01) < 2e-4

    def test_degenerate_routing_never_coincides(self):
        assert expected_coincidence_fraction(0.5, 1.0, 0.0) == 0.0

    def test_matches_brute_force_enumeration(self):
        for lam, pu in [(0.04, 0.9), (0.04, 0.5), (0.2, 0.1), (1.0, 0.5), (3.0, 0.3)]:
            series = expected_coincidence_fraction(lam, pu, 1.0 - pu)
            brute = brute_force_coincidence_fraction(lam, pu, 1.0 - pu, k_max=40)
            assert abs(series - brute) < 1e-12

    def test_small_mean_limit_is_quarter_lambda(self):
        for lam in (0.01, 0.005, 0.001):
            value = expected_coincidence_fraction(lam, 0.5, 0.5)
            assert abs(value / (lam / 4.0) - 1.0) < 0.01

    def test_preconditions(self):
        with pytest.raises(ValueError):
            expected_coincidence_fraction(0.0, 0.5, 0.5)
        with pytest.raises(ValueError):
            expected_coincidence_fraction(0.1, 0.6, 0.5)
