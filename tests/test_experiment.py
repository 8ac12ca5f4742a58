import numpy as np
import pytest

from cbwsim import experiment
from cbwsim.circuit import build_cbw_chain, output_intensities, parse_circuit
from cbwsim.config import NoiseModel, PztCalibration, ScanConfig, SourceMode, SourceModel, pzt_phase
from cbwsim.experiment import (
    AmbiguousPeriodError,
    InsufficientFringesError,
    count_fringes,
    dominant_period,
    estimate_sensitivity,
    find_extrema,
    fringe_stats,
    run_scan,
    visibility,
)

QUIET = NoiseModel()
CLASSICAL = SourceModel(mode=SourceMode.CLASSICAL_INTENSITY)


def classical_scan(points, modules, phi=0.0, cycles=None):
    cal = PztCalibration(cycles) if cycles else PztCalibration()
    return run_scan(
        ScanConfig(points=points, scan_duration=500.0, bin_duration=0.1,
                   calibration=cal, phi=phi, modules=modules),
        CLASSICAL, QUIET, seed=0)


class TestConfigValidation:
    def test_scan_timing_budget_enforced(self):
        with pytest.raises(ValueError):
            ScanConfig(points=5000, bin_duration=0.1, scan_duration=400.0)

    def test_minimum_points(self):
        with pytest.raises(ValueError):
            ScanConfig(points=1, bin_duration=0.1, scan_duration=10.0)

    def test_ramp_must_increase(self):
        with pytest.raises(ValueError):
            ScanConfig(points=10, bin_duration=0.1, scan_duration=10.0,
                       ramp_start=5.0, ramp_end=5.0)

    def test_noise_model_domains(self):
        with pytest.raises(ValueError):
            NoiseModel(dark_rate=-1.0)
        with pytest.raises(ValueError):
            NoiseModel(detector_efficiency=1.5)

    def test_calibration_must_be_positive(self):
        with pytest.raises(ValueError):
            PztCalibration(0.0)


class TestPztPhase:
    def test_zero_voltage(self):
        assert pzt_phase(0.0, PztCalibration(), 100.0) == 0.0

    def test_full_default_ramp_is_21_pi(self):
        assert abs(pzt_phase(100.0, PztCalibration(), 100.0) - 21.0 * np.pi) < 1e-12

    def test_half_ramp(self):
        assert abs(pzt_phase(50.0, PztCalibration(), 100.0) - 10.5 * np.pi) < 1e-12

    def test_linear_to_machine_precision(self):
        # Strict distributivity cannot hold in doubles; 2 ulps is the
        # attainable bound for one multiply per call.
        cal = PztCalibration()
        rng = np.random.default_rng(1)
        for _ in range(5000):
            a, b = rng.uniform(0, 50, 2)
            lhs = pzt_phase(a + b, cal, 100.0)
            rhs = pzt_phase(a, cal, 100.0) + pzt_phase(b, cal, 100.0)
            assert abs(lhs - rhs) <= 2 * np.spacing(max(abs(lhs), abs(rhs)))

    def test_vectorised_over_voltage(self):
        out = pzt_phase(np.array([0.0, 50.0, 100.0]), PztCalibration(), 100.0)
        np.testing.assert_allclose(out / np.pi, [0.0, 10.5, 21.0], atol=1e-13)


class TestRunScan:
    def test_classical_mode_dispatch(self):
        trace = classical_scan(256, modules=2)
        assert trace.mode is SourceMode.CLASSICAL_INTENSITY
        expected = (1.0 + np.cos(2 * trace.psi)) / 2.0
        assert np.max(np.abs(trace.singles_d1 - expected)) < 1e-12

    def test_photon_mode_dispatch(self):
        scan = ScanConfig(points=16, bin_duration=0.001, scan_duration=0.016)
        source = SourceModel(mean_photons_per_window=0.5, window_duration=1e-6)
        trace = run_scan(scan, source, QUIET, seed=4)
        assert trace.mode is SourceMode.PHOTON_COUNTING
        assert trace.singles_d1.dtype == np.int64

    def test_symmetric_control_phase_gives_flat_outputs(self):
        trace = classical_scan(128, modules=2, phi=np.pi)
        assert np.max(np.abs(trace.singles_d1 - 1.0)) < 1e-12
        assert np.max(np.abs(trace.singles_d2)) < 1e-12

    def test_explicit_circuit_override_wins(self):
        ast = parse_circuit("mzi C arm=lower phase=psi\ndetect a b\n")
        scan = ScanConfig(points=64, bin_duration=0.1, scan_duration=6.4,
                          modules=3, circuit=ast)
        trace = run_scan(scan, CLASSICAL, QUIET, seed=0)
        expected = (1.0 - np.cos(trace.psi)) / 2.0
        assert np.max(np.abs(trace.singles_d1 - expected)) < 1e-12


class TestFindExtrema:
    def test_clean_sinusoid_positions(self):
        psi = np.linspace(-1.0, 8 * np.pi - 1.0, 2000)
        maxima, minima = find_extrema(np.cos(psi), 0.2)
        assert len(maxima) == 4 and len(minima) == 4
        dpsi = psi[1] - psi[0]
        for (idx, _), target in zip(maxima, [0, 2 * np.pi, 4 * np.pi, 6 * np.pi]):
            assert abs(psi[idx] - target) <= 1.5 * dpsi
        for (idx, _), target in zip(minima, [np.pi, 3 * np.pi, 5 * np.pi, 7 * np.pi]):
            assert abs(psi[idx] - target) <= 1.5 * dpsi

    def test_constant_trace_raises(self):
        with pytest.raises(InsufficientFringesError):
            find_extrema(np.full(100, 3.3), 0.2)

    def test_noisy_sinusoid_same_extrema_count(self):
        psi = np.linspace(-1.0, 8 * np.pi - 1.0, 2000)
        noise = np.random.default_rng(0).normal(0.0, 0.01, psi.size)
        maxima, minima = find_extrema(np.cos(psi) + noise, 0.2)
        assert len(maxima) == 4 and len(minima) == 4

    def test_extrema_alternate_by_index(self):
        psi = np.linspace(0.3, 12 * np.pi + 0.3, 3000)
        maxima, minima = find_extrema(np.cos(psi), 0.2)
        merged = sorted([(i, +1) for i, _ in maxima] + [(i, -1) for i, _ in minima])
        kinds = [k for _, k in merged]
        assert all(a != b for a, b in zip(kinds, kinds[1:]))

    def test_endpoints_never_reported(self):
        psi = np.linspace(0.0, 6 * np.pi, 600)  # starts on a maximum
        maxima, minima = find_extrema(np.cos(psi), 0.2)
        indices = [i for i, _ in maxima] + [i for i, _ in minima]
        assert 0 not in indices and len(psi) - 1 not in indices

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            find_extrema(np.array([1.0, 2.0]), 0.2)
        with pytest.raises(ValueError):
            find_extrema(np.cos(np.linspace(0, 20, 100)), 0.0)
        with pytest.raises(ValueError):
            find_extrema(np.cos(np.linspace(0, 20, 100)), 1.0)


class TestVisibility:
    def test_full_fringe_is_exactly_one(self):
        psi = np.linspace(0.0, 8 * np.pi, 1601)  # grid hits extrema exactly
        values = (1.0 - np.cos(psi)) / 2.0
        mean, std = visibility(values, 0.2)
        assert mean == 1.0
        assert std == 0.0

    def test_offset_fringe_value(self):
        psi = np.linspace(0.0, 8 * np.pi, 1601)
        values = 0.505 - 0.495 * np.cos(psi)  # swings 0.01 .. 1.0
        mean, _ = visibility(values, 0.2)
        assert abs(mean - 0.99 / 1.01) < 1e-12

    def test_noiseless_doubled_scan_visibility_is_one(self):
        # 4999 points puts grid points exactly on the fringe extrema.
        trace = classical_scan(4999, modules=2)
        mean, _ = visibility(trace.singles_d1, 0.2)
        assert abs(mean - 1.0) < 1e-9

    def test_propagates_insufficient_fringes(self):
        with pytest.raises(InsufficientFringesError):
            visibility(np.ones(50), 0.2)


class TestDominantPeriod:
    def test_plain_cosine(self):
        psi = np.linspace(0.0, 8 * np.pi, 4096, endpoint=False)
        period = dominant_period(np.cos(psi), psi)
        span = 4096 * (psi[1] - psi[0])
        assert abs(span / period - span / (2 * np.pi)) <= 1.0

    def test_doubled_chain_has_half_period(self):
        trace = classical_scan(4096, modules=2, cycles=10.0)
        period = dominant_period(trace.singles_d1, trace.psi)
        span = len(trace.psi) * (trace.psi[1] - trace.psi[0])
        assert abs(span / period - span / np.pi) <= 1.0

    def test_tripled_chain_has_third_period(self):
        trace = classical_scan(4096, modules=3, cycles=10.0)
        period = dominant_period(trace.singles_d1, trace.psi)
        span = len(trace.psi) * (trace.psi[1] - trace.psi[0])
        assert abs(span / period - span / (2 * np.pi / 3)) <= 1.0

    def test_two_equal_tones_are_ambiguous(self):
        psi = np.linspace(0.0, 8 * np.pi, 2048, endpoint=False)
        with pytest.raises(AmbiguousPeriodError):
            dominant_period(np.cos(psi) + np.cos(3 * psi), psi)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_period_times_m_is_two_pi(self, m):
        trace = classical_scan(4096, modules=m, cycles=10.0)
        period = dominant_period(trace.singles_d1, trace.psi)
        span = len(trace.psi) * (trace.psi[1] - trace.psi[0])
        assert abs(span / period - span / (2 * np.pi / m)) <= 1.0

    def test_non_uniform_grid_rejected(self):
        psi = np.linspace(0.0, 8 * np.pi, 512) ** 1.01
        with pytest.raises(ValueError):
            dominant_period(np.cos(psi), psi)


class TestCountFringes:
    def test_singles_cycles_on_full_default_ramp(self):
        trace = classical_scan(5000, modules=1)
        assert count_fringes(trace.singles_d1, 0.2) == 10.5

    def test_coincidence_fringes_on_full_default_ramp(self):
        trace = classical_scan(5000, modules=1)
        product = trace.singles_d1 * trace.singles_d2  # AND-rate expectation
        assert count_fringes(product, 0.2) == 21.0


class TestFringeStats:
    def test_composite_report(self):
        trace = classical_scan(4096, modules=2, cycles=10.0)
        stats = fringe_stats(trace.singles_d1, trace.psi, 0.2)
        assert stats.visibility_mean > 0.999
        assert 0.0 <= stats.visibility_std < 0.01
        assert abs(stats.dominant_period - np.pi) < 0.01
        assert len(stats.maxima) >= 19 and len(stats.minima) >= 19

    def test_single_pass_matches_the_separate_functions(self, monkeypatch):
        trace = classical_scan(4096, modules=2, cycles=10.0)
        values = trace.singles_d1
        expected_vis = visibility(values, 0.2)
        expected_count = count_fringes(values, 0.2)
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return find_extrema(*args, **kwargs)

        monkeypatch.setattr(experiment, "find_extrema", counting)
        stats = fringe_stats(values, trace.psi, 0.2)
        assert len(calls) == 1
        assert (stats.visibility_mean, stats.visibility_std) == expected_vis
        assert stats.fringe_count == expected_count == 20.0


@pytest.fixture(scope="module")
def reports_1_to_5():
    return estimate_sensitivity(5, 100_000)


class TestSensitivity:
    def test_classical_baseline(self):
        (report,) = estimate_sensitivity(1, 50_000)
        assert abs(report.eta - 1.0) < 0.01
        assert abs(report.delta_phi - 1.0) < 0.01
        assert report.ratio_to_classical == 1.0

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_scaling_law(self, reports_1_to_5, m):
        report = reports_1_to_5[m - 1]
        assert abs(report.ratio_to_classical - 1.0 / m) < 0.01 / m
        assert abs(report.eta - m) < 0.01 * m

    def test_slope_location_reported(self):
        report = estimate_sensitivity(2, 40_000)[1]
        # steepest point of cos(2 psi) difference sits at odd multiples of pi/4
        distance = np.min(np.abs(report.max_slope_psi - np.arange(1, 8, 2) * np.pi / 4))
        assert distance < 1e-3

    def test_slope_location_is_the_first_peak(self, reports_1_to_5):
        step = 2 * np.pi / 100_000
        for report, expected in zip(reports_1_to_5,
                                    [np.pi / 2, np.pi / 4, np.pi / 2, np.pi / 8, np.pi / 10]):
            assert abs(report.max_slope_psi - expected) <= step

    # At control phase 0, I_upper - I_lower = (-1)^m cos(m psi), so on the
    # grid psi_k = k h the central difference peaks at
    # sin(m h)/h * max_k |sin(m psi_k)|.  The max_k factor matters where no
    # grid point sits on a slope peak (111590 points: sin(m h)/h alone is
    # off by ~1.2e-9 there).
    @pytest.mark.parametrize("grid_points, max_m", [(100_000, 8), (200_000, 8), (111_590, 3)])
    def test_eta_equals_the_central_difference_closed_form(self, grid_points, max_m):
        h = 2.0 * np.pi / grid_points
        psi = np.arange(grid_points) * h
        reports = estimate_sensitivity(max_m, grid_points)
        for m, report in enumerate(reports, start=1):
            expected = np.sin(m * h) / h * np.max(np.abs(np.sin(m * psi)))
            assert abs(report.eta - expected) < 1e-10

    def test_grid_must_resolve_each_period(self, monkeypatch):
        calls = []
        evaluate = experiment.circuit_mod.output_intensities
        monkeypatch.setattr(experiment.circuit_mod, "output_intensities",
                            lambda *a, **k: calls.append(a) or evaluate(*a, **k))
        # Every bound is checked before the first order is evaluated.
        for max_m, grid_points in [(5, 20_000), (0, 50_000), (30, 200_000), (3, 10**7)]:
            with pytest.raises(ValueError):
                estimate_sensitivity(max_m, grid_points)
        assert calls == []


def reference_slope(m, grid_points, uniform=True):
    """Peak slope and its first location through a fresh grid and ``np.gradient``.

    With ``uniform`` the gradient takes the grid's scalar step
    ``2*pi/grid_points``; without it, the sample points themselves.
    """
    psi = np.linspace(0.0, 2.0 * np.pi, grid_points, endpoint=False)
    upper, lower = output_intensities(build_cbw_chain(m, phi=0.0), {"psi": psi})
    spacing = 2.0 * np.pi / grid_points if uniform else psi
    slope = np.abs(np.gradient(upper - lower, spacing))
    peak = float(np.max(slope))
    return peak, float(psi[int(np.argmax(slope >= (1.0 - 1e-9) * peak))])


class TestSlopeKernel:
    """The sensitivity slope against fresh ``np.gradient`` routes as the oracle."""

    # The slope takes ``2*pi/grid_points`` as its spacing; that must be the
    # very float ``linspace`` steps the grid by, and the scalar-step gradient
    # must stay within rounding of the one on the sample points.  111590
    # points over 2*pi are exactly uniform, so there the two are bit-equal.
    @pytest.mark.parametrize("grid_points", [10_000, 100_000, 111_590, 123_457])
    def test_gradient_matches_numpy_on_the_sensitivity_grid(self, grid_points):
        psi, step = np.linspace(0.0, 2.0 * np.pi, grid_points, endpoint=False, retstep=True)
        assert step == 2.0 * np.pi / grid_points
        upper, lower = output_intensities(build_cbw_chain(3, phi=0.0), {"psi": psi})
        diff = upper - lower
        by_step, by_points = np.gradient(diff, step), np.gradient(diff, psi)
        if grid_points == 111_590:
            assert np.array_equal(by_step, by_points)
        np.testing.assert_allclose(by_step, by_points, rtol=0.0, atol=1e-10 * np.max(np.abs(by_points)))
        assert estimate_sensitivity(1, grid_points)[0].eta == reference_slope(1, grid_points)[0]

    # Each case draws a cascade order and a sensitivity grid size from
    # (seed, n), and checks the step premise on an n-point grid as well.
    @pytest.mark.parametrize("n", [2, 3, 4, 17, 1000])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradient_matches_numpy_on_random_grids(self, n, seed):
        assert np.linspace(0.0, 2.0 * np.pi, n, endpoint=False, retstep=True)[1] == 2.0 * np.pi / n
        rng = np.random.default_rng([seed, n])
        m = int(rng.integers(1, 6))
        grid_points = int(rng.integers(10_000 * m, 120_000))
        report = estimate_sensitivity(m, grid_points)[-1]
        assert (report.eta, report.max_slope_psi) == reference_slope(m, grid_points)
        eta, psi_at_peak = reference_slope(m, grid_points, uniform=False)
        assert report.max_slope_psi == psi_at_peak
        assert abs(report.eta - eta) <= 1e-10 * eta

    # 111590 points over 2*pi are exactly uniform, so there the sample-point
    # gradient equals the scalar-step one; the other sizes are not.
    @pytest.mark.parametrize("grid_points", [50_000, 111_590])
    def test_reports_equal_the_unoptimised_route(self, grid_points):
        eta_1, _ = reference_slope(1, grid_points)
        for m, report in enumerate(estimate_sensitivity(5, grid_points), start=1):
            eta, psi_at_peak = reference_slope(m, grid_points)
            assert report.m == m
            assert (report.eta, report.max_slope_psi) == (eta, psi_at_peak)
            assert report.delta_phi == 1.0 / eta
            assert report.ratio_to_classical == (1.0 / eta) / (1.0 / eta_1)
        if grid_points == 111_590:
            assert reference_slope(3, grid_points, uniform=False) == reference_slope(3, grid_points)

    @pytest.mark.parametrize("grid_points", [50_000, 100_000, 123_457])
    def test_within_1e_10_of_the_sample_point_gradient(self, grid_points):
        eta_1, _ = reference_slope(1, grid_points, uniform=False)
        for m, report in enumerate(estimate_sensitivity(5, grid_points), start=1):
            eta, psi_at_peak = reference_slope(m, grid_points, uniform=False)
            assert report.max_slope_psi == psi_at_peak
            assert abs(report.eta - eta) <= 1e-10 * eta
            assert abs(report.delta_phi - 1.0 / eta) <= 1e-10 / eta
            assert abs(report.ratio_to_classical - eta_1 / eta) <= 1e-10 * eta_1 / eta
