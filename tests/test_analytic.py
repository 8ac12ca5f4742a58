import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cbwsim import circuit, optics
from cbwsim.analytic import (
    GlassPlateFormula,
    GlassPlateModel,
    cbw_intensities,
    cbw_wavelength,
    expected_coincidence_fraction,
    glass_plate_opd,
)
from cbwsim.circuit import MAX_MODULES, build_cbw_chain, output_intensities
from cbwsim.config import ScanConfig


def brute_force_coincidence_fraction(lam, p_upper, p_lower, k_max=12):
    """Direct pmf enumeration (test-local oracle, no series shortcuts)."""
    numerator = 0.0
    for k in range(2, k_max + 1):
        pmf = math.exp(-lam) * lam**k / math.factorial(k)
        numerator += pmf * (1.0 - p_upper**k - p_lower**k)
    return numerator / (1.0 - math.exp(-lam))


def decimal_coincidence_fraction(lam, p_upper, p_lower):
    """The thinned-Poisson closed form in 60-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 60
        lam, p_upper, p_lower = Decimal(lam), Decimal(p_upper), Decimal(p_lower)
        both = (1 - (-lam * p_upper).exp()) * (1 - (-lam * p_lower).exp())
        return both / (1 - (-lam).exp())


class TestSingleMzi:
    def test_dark_port_at_zero(self):
        pred = cbw_intensities(0.0, 0.0, 1, 2.0)
        assert pred.i_upper == 0.0 and pred.i_lower == 2.0

    def test_swap_at_pi(self):
        pred = cbw_intensities(np.pi, 0.0, 1, 2.0)
        assert abs(pred.i_upper - 2.0) < 1e-15 and abs(pred.i_lower) < 1e-15

    def test_balanced_at_half_pi(self):
        pred = cbw_intensities(np.pi / 2, 0.0, 1, 1.0)
        assert abs(pred.i_upper - 0.5) < 1e-15 and abs(pred.i_lower - 0.5) < 1e-15

    def test_rejects_negative_intensity(self):
        with pytest.raises(ValueError):
            cbw_intensities(0.0, 0.0, 1, -1.0)


# Each input is checked once, before routing, so the cosine law and the
# block power (control phase 0.5) raise the same error.
@pytest.mark.parametrize("call, message", [
    (lambda: cbw_intensities(0.3, 0.0, 1, math.nan), "i0 must be a finite number"),
    (lambda: cbw_intensities(math.inf, 0.0, 1), "psi must be finite"),
    (lambda: cbw_intensities(np.array([0.1, math.nan]), 0.0, 1), "psi must be finite"),
    (lambda: cbw_intensities(math.inf, 0.0, 2), "psi must be finite"),
    (lambda: cbw_intensities(math.inf, math.pi, 2), "psi must be finite"),
    (lambda: cbw_intensities(math.inf, 0.5, 2), "psi must be finite"),
    (lambda: cbw_intensities(np.array([0.1, -math.inf]), 0.0, 3), "psi must be finite"),
    (lambda: cbw_intensities(np.array([0.1, -math.inf]), 0.5, 3), "psi must be finite"),
    (lambda: cbw_intensities(0.3, 0.0, 3, math.inf), "i0 must be a finite number"),
    (lambda: cbw_intensities(0.3, 0.5, 3, math.inf), "i0 must be a finite number"),
    (lambda: cbw_intensities(0.3, math.nan, 1), "phi must be finite"),
    (lambda: cbw_intensities(0.3, math.inf, 2), "phi must be finite"),
    (lambda: cbw_intensities(0.3, 0.0, 2.5), "m must be a positive integer"),
    (lambda: cbw_intensities(0.3, math.pi, 2.5), "m must be a positive integer"),
    (lambda: cbw_intensities(0.3, 0.5, 2.5), "m must be a positive integer"),
    (lambda: cbw_intensities(0.3, 0.0, 3.0), "m must be a positive integer"),
    (lambda: cbw_intensities(0.3, 0.5, 3.0), "m must be a positive integer"),
    (lambda: cbw_intensities(0.3, 0.5, 0), "m must be a positive integer"),
    (lambda: cbw_wavelength(2.5, 532e-9), "m must be a positive integer"),
    (lambda: cbw_wavelength(2.0, 532e-9), "m must be a positive integer"),
], ids=["mzi-nan-i0", "mzi-inf-psi", "mzi-nan-psi", "closed-inf-psi-0", "closed-inf-psi-pi",
        "composed-inf-psi", "closed-array-psi", "composed-array-psi", "closed-inf-i0",
        "composed-inf-i0", "nan-phi", "inf-phi", "closed-fractional-m-0",
        "closed-fractional-m-pi", "composed-fractional-m", "closed-float-m",
        "composed-float-m", "composed-zero-m", "wavelength-fractional-m",
        "wavelength-float-m"])
def test_non_finite_inputs_raise_the_same_error_on_both_routes(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# One period, and the default 10.5-cycle sweep out to psi = 66 rad.
GRIDS = (np.linspace(0, 2 * np.pi, 4001), ScanConfig().psi_values())


def assert_matches_composition(m, phi):
    """``cbw_intensities`` is within 1e-12 of matrix composition on both grids."""
    for psis in GRIDS:
        pred = cbw_intensities(psis, phi, m, 1.0)
        up, lo = output_intensities(build_cbw_chain(m, phi=phi), {"psi": psis})
        assert np.max(np.abs(pred.i_upper - up)) < 1e-12
        assert np.max(np.abs(pred.i_lower - lo)) < 1e-12


def long_double_intensities(psi, phi, m):
    """Output intensities of the m-stage chain, propagated element by element
    in long double from the 50/50 beam splitter and phase shifters (a
    test-local reference that uses neither ``optics`` nor ``analytic``)."""
    psi = np.asarray(psi, dtype=np.longdouble)
    half = np.sqrt(np.longdouble(0.5))
    upper = np.ones_like(psi) + 0j
    lower = np.zeros_like(upper)

    def split(upper, lower):
        return half * (upper + 1j * lower), half * (1j * upper + lower)

    def shift(angle):
        return np.cos(angle) + 1j * np.sin(angle)

    for element in build_cbw_chain(m, phi="phi").elements:
        angle = psi if element.phase == "psi" else np.longdouble(phi)
        if element.kind is circuit.ElementKind.MZI:
            upper, lower = split(upper, lower)
        if element.arm is optics.Arm.UPPER:
            upper = upper * shift(angle)
        else:
            lower = lower * shift(angle)
        if element.kind is circuit.ElementKind.MZI:
            upper, lower = split(upper, lower)
    return np.abs(upper) ** 2, np.abs(lower) ** 2


class TestCascadeIntensities:
    def test_doubled_balanced_point(self):
        pred = cbw_intensities(np.pi / 4, 0.0, 2, 1.0)
        assert abs(pred.i_upper - 0.5) < 1e-15 and abs(pred.i_lower - 0.5) < 1e-15

    def test_symmetric_control_phase_is_flat(self):
        pred = cbw_intensities(1.234, np.pi, 2, 1.0)
        assert pred.i_upper == 1.0 and pred.i_lower == 0.0

    def test_tripled_chain_at_third_pi(self):
        pred = cbw_intensities(np.pi / 3, 0.0, 3, 1.0)
        assert abs(pred.i_upper - 1.0) < 1e-12 and abs(pred.i_lower) < 1e-12

    def test_control_phase_mod_two_pi_hits_closed_forms(self):
        doubled = cbw_intensities(0.3, 4 * np.pi, 2)
        c = np.cos(2 * 0.3)
        assert (doubled.i_upper, doubled.i_lower) == ((1.0 + c) / 2.0, (1.0 - c) / 2.0)
        for phi in (3 * np.pi, -np.pi):
            frozen = cbw_intensities(0.3, phi, 2)
            assert (frozen.i_upper, frozen.i_lower) == (1.0, 0.0)

    def test_single_stage_ignores_control_phase(self):
        a = cbw_intensities(0.7, 0.0, 1)
        b = cbw_intensities(0.7, 2.1, 1)
        assert a.i_upper == b.i_upper

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
    # the largest cascade the CLI accepts, on one period and on the default
    # 10.5-cycle sweep; the sweep reaches psi = 66 rad, where rounding
    # m * psi before the cosine would cost 3.4e-12 at m = 1000.
    @pytest.mark.parametrize("phi", [0.0, np.pi])
    @pytest.mark.parametrize("m", [3, 5, 8, 100, MAX_MODULES - 1, MAX_MODULES])
    def test_closed_form_equals_composition_up_to_max_modules(self, m, phi):
        assert_matches_composition(m, phi)

    @pytest.mark.parametrize("m", [3, 8, MAX_MODULES])
    def test_closed_form_keeps_the_argument_exact_at_any_magnitude(self, m):
        # m * psi is exact in long double (53 + 10 bits), so its cosine is a
        # reference without argument rounding.
        psis = np.array([-3.0, 65.97, 1e9, 1e15, 1e300, 1e305, 5e-324])
        pred = cbw_intensities(psis, 0.0, m, 1.0)
        reference = (-1) ** m * np.cos(np.longdouble(m) * psis.astype(np.longdouble))
        assert np.max(np.abs(2.0 * pred.i_upper - 1.0 - reference)) < 1e-15

    # The block power answers every control phase but 0 and pi; these lie
    # just outside the cosine law's routing tolerance (1e-9), or far from it.
    @pytest.mark.parametrize("phi", [2e-9, -2e-9, np.pi - 2e-9, np.pi + 2e-9, np.pi / 3])
    @pytest.mark.parametrize("m", [2, 3, 21, MAX_MODULES])
    def test_block_power_equals_composition_next_to_the_cosine_law(self, m, phi):
        assert_matches_composition(m, phi)

    @settings(max_examples=30, deadline=None)
    @given(phi=st.floats(allow_nan=False, allow_infinity=False), m=st.integers(1, MAX_MODULES))
    @example(phi=0.5, m=MAX_MODULES)
    @example(phi=-7.25, m=MAX_MODULES - 1)
    def test_equals_composition_at_random_control_phases(self, phi, m):
        assert_matches_composition(m, phi)

    @pytest.mark.parametrize("phi", [0.0, np.pi, 0.5, np.pi / 3, 4.0])
    @pytest.mark.parametrize("m", [2, 3, 21, MAX_MODULES])
    def test_both_routes_match_a_long_double_chain(self, m, phi):
        psis = np.array([0.0, 0.3, 2.0, 4.4, 65.9])
        ref_up, ref_lo = long_double_intensities(psis, phi, m)
        pred = cbw_intensities(psis, phi, m, 1.0)
        up, lo = output_intensities(build_cbw_chain(m, phi=phi), {"psi": psis})
        for upper, lower in ((pred.i_upper, pred.i_lower), (up, lo)):
            assert np.max(np.abs(upper - ref_up)) < 1e-12
            assert np.max(np.abs(lower - ref_lo)) < 1e-12

    def test_calls_no_matrix_engine(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("analytic called the matrix engine")

        for module, name in ((optics, "compose"), (optics, "mzi"), (optics, "phase_element"),
                             (circuit, "output_intensities"), (circuit, "evaluate_chain")):
            monkeypatch.setattr(module, name, refuse)
        psis = np.linspace(0, 2 * np.pi, 64)
        for phi in (0.5, np.pi / 3):
            for m in (2, 3, MAX_MODULES):
                pred = cbw_intensities(psis, phi, m, 2.0)
                assert np.max(np.abs(pred.i_upper + pred.i_lower - 2.0)) < 1e-12

    def test_numpy_integer_order_takes_the_same_route(self):
        for phi in (0.0, np.pi, 0.5):
            assert cbw_intensities(0.3, phi, np.int64(3)) == cbw_intensities(0.3, phi, 3)

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
        base = np.asarray(cbw_intensities(psis, 0.0, 1).i_upper)
        pi_shift = np.asarray(cbw_intensities(psis + np.pi, 0.0, 1).i_upper)
        full_shift = np.asarray(cbw_intensities(psis + 2 * np.pi, 0.0, 1).i_upper)
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


# A non-finite input to a helper is refused, naming the argument.
@pytest.mark.parametrize("call, name", [
    (lambda: GlassPlateModel(thickness=math.nan), "thickness"),
    (lambda: GlassPlateModel(thickness=math.inf), "thickness"),
    (lambda: GlassPlateModel(refractive_index=math.inf), "refractive_index"),
    (lambda: GlassPlateModel(refractive_index=math.nan), "refractive_index"),
    (lambda: glass_plate_opd(GlassPlateModel(), math.nan), "theta"),
    (lambda: glass_plate_opd(GlassPlateModel(), np.array([0.1, math.nan])), "theta"),
    (lambda: cbw_wavelength(2, math.nan), "lambda0"),
    (lambda: cbw_wavelength(2, math.inf), "lambda0"),
], ids=["nan-thickness", "inf-thickness", "inf-index", "nan-index", "nan-theta",
        "nan-in-theta-array", "nan-lambda0", "inf-lambda0"])
def test_non_finite_helper_inputs_are_refused_by_name(call, name):
    with pytest.raises(ValueError, match=f"^{name} "):
        call()


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
        # These sum to 1, so only the range check can refuse them.
        with pytest.raises(ValueError, match=r"^routing probabilities must lie in \[0, 1\]$"):
            expected_coincidence_fraction(0.04, 1.5, -0.5)

    @pytest.mark.parametrize("p_upper", [1e-9, 0.3, 0.5])
    @pytest.mark.parametrize("lam", [1e-6, 1e-3, 0.04, 3.0, 745.0, 1e4])
    def test_matches_a_sixty_digit_reference(self, lam, p_upper):
        value = expected_coincidence_fraction(lam, p_upper, 1.0 - p_upper)
        reference = decimal_coincidence_fraction(lam, p_upper, 1.0 - p_upper)
        assert abs(Decimal(value) / reference - 1) <= Decimal("2e-15")

    @pytest.mark.parametrize("lam", [1e-6, 1e-3, 0.04, 0.3, 3.0, 745.0, 1e4])
    def test_balanced_outputs_give_tanh_quarter_lambda(self, lam):
        value = expected_coincidence_fraction(lam, 0.5, 0.5)
        assert value == pytest.approx(math.tanh(lam / 4.0), rel=2e-15)

    @pytest.mark.parametrize("lam", [1e-6, 0.04, 3.0, 1e4])
    def test_a_dark_port_gives_exactly_zero(self, lam):
        assert expected_coincidence_fraction(lam, 0.0, 1.0) == 0.0
        assert expected_coincidence_fraction(lam, 1.0, 0.0) == 0.0

    @pytest.mark.parametrize("lam", [math.nan, math.inf, 0.0, -1.0])
    def test_mean_must_be_finite_and_positive(self, lam):
        with pytest.raises(ValueError):
            expected_coincidence_fraction(lam, 0.5, 0.5)
