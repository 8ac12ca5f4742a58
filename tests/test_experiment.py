import math
import re
import tracemalloc

import numpy as np
import pytest

from cbwsim import _chunks, experiment
from cbwsim.circuit import build_cbw_chain, output_intensities, parse_circuit
from cbwsim.config import (
    DEFAULT_CYCLES_PER_RAMP,
    ConfigError,
    NoiseModel,
    ScanConfig,
    SourceMode,
    SourceModel,
    pzt_phase,
)
from cbwsim.experiment import (
    AmbiguousPeriodError,
    InsufficientFringesError,
    dominant_period,
    estimate_sensitivity,
    find_extrema,
    fringe_stats,
)
from cbwsim.montecarlo import simulate_classical_trace, simulate_scan_counts

QUIET = NoiseModel()
BLOCK = _chunks.FOLD_POINTS


def classical_scan(points, modules, phi=0.0, cycles=DEFAULT_CYCLES_PER_RAMP):
    return simulate_classical_trace(
        ScanConfig(points=points, scan_duration=500.0, bin_duration=0.1,
                   cycles_per_ramp=cycles, phi=phi, circuit=build_cbw_chain(modules)),
        QUIET, seed=0)


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
            ScanConfig(cycles_per_ramp=0.0)

    @pytest.mark.parametrize("fields, message", [
        (dict(cycles_per_ramp=-1.0), "cycles_per_ramp must be positive"),
        (dict(cycles_per_ramp=np.nan), "cycles_per_ramp must be a finite number"),
        (dict(points=10.5, scan_duration=2.0, bin_duration=0.1), "points must be an integer, got 10.5"),
    ])
    def test_scan_settings_checked_by_field(self, fields, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            ScanConfig(**fields)

    # Zero points are allowed only over zero seconds, and every other check
    # still runs for that empty scan.
    @pytest.mark.parametrize("fields, message", [
        (dict(points=0), "at least 2 points, or 0 with scan_duration 0"),
        (dict(points=0, scan_duration=0.0, bin_duration=-1.0, ramp_end=-5.0),
         "bin_duration must be positive"),
        (dict(points=0, scan_duration=0.0, ramp_start=10.0, ramp_end=1.0),
         "ramp_end must exceed ramp_start"),
    ], ids=["points-without-zero-duration", "negative-bin", "falling-ramp"])
    def test_empty_scan_is_checked_like_any_other(self, fields, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            ScanConfig(**fields)

    def test_empty_scan_bin_must_hold_whole_windows(self):
        scan = ScanConfig(points=0, scan_duration=0.0, bin_duration=3e-9)
        with pytest.raises(ConfigError, match="must be an integer multiple of window_duration"):
            simulate_scan_counts(scan, SourceModel(), QUIET, seed=0)


class TestPztPhase:
    def test_zero_voltage(self):
        assert pzt_phase(0.0, DEFAULT_CYCLES_PER_RAMP, 100.0) == 0.0

    def test_full_default_ramp_is_21_pi(self):
        assert abs(pzt_phase(100.0, DEFAULT_CYCLES_PER_RAMP, 100.0) - 21.0 * np.pi) < 1e-12

    def test_half_ramp(self):
        assert abs(pzt_phase(50.0, DEFAULT_CYCLES_PER_RAMP, 100.0) - 10.5 * np.pi) < 1e-12

    def test_linear_to_machine_precision(self):
        # Strict distributivity cannot hold in doubles; 2 ulps is the
        # attainable bound for one multiply per call.
        cal = DEFAULT_CYCLES_PER_RAMP
        rng = np.random.default_rng(1)
        for _ in range(5000):
            a, b = rng.uniform(0, 50, 2)
            lhs = pzt_phase(a + b, cal, 100.0)
            rhs = pzt_phase(a, cal, 100.0) + pzt_phase(b, cal, 100.0)
            assert abs(lhs - rhs) <= 2 * np.spacing(max(abs(lhs), abs(rhs)))

    def test_vectorised_over_voltage(self):
        out = pzt_phase(np.array([0.0, 50.0, 100.0]), DEFAULT_CYCLES_PER_RAMP, 100.0)
        np.testing.assert_allclose(out / np.pi, [0.0, 10.5, 21.0], atol=1e-13)

    def test_ramp_span_must_be_positive(self):
        with pytest.raises(ConfigError, match="^ramp_span must be positive$"):
            pzt_phase(1.0, 10.5, 0.0)


class TestScanSimulators:
    def test_classical_trace_records_powers(self):
        trace = classical_scan(256, modules=2)
        assert trace.mode is SourceMode.CLASSICAL_INTENSITY
        expected = (1.0 + np.cos(2 * trace.psi)) / 2.0
        assert np.max(np.abs(trace.singles_d1 - expected)) < 1e-12

    def test_photon_scan_records_counts(self):
        scan = ScanConfig(points=16, bin_duration=0.001, scan_duration=0.016)
        source = SourceModel(mean_photons_per_window=0.5, window_duration=1e-6)
        trace = simulate_scan_counts(scan, source, QUIET, seed=4)
        assert trace.mode is SourceMode.PHOTON_COUNTING
        assert trace.singles_d1.dtype == np.int64

    def test_symmetric_control_phase_gives_flat_outputs(self):
        trace = classical_scan(128, modules=2, phi=np.pi)
        assert np.max(np.abs(trace.singles_d1 - 1.0)) < 1e-12
        assert np.max(np.abs(trace.singles_d2)) < 1e-12

    def test_explicit_circuit_is_the_chain_that_runs(self):
        ast = parse_circuit("mzi C arm=lower phase=psi\ndetect a b\n")
        scan = ScanConfig(points=64, bin_duration=0.1, scan_duration=6.4, circuit=ast)
        trace = simulate_classical_trace(scan, QUIET, seed=0)
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

    def test_monotonic_trace_raises(self):
        message = "^fewer than one maximum and one minimum found$"
        for ramp in (np.linspace(0.0, 1.0, 100), np.linspace(1.0, 0.0, 100)):
            with pytest.raises(InsufficientFringesError, match=message):
                find_extrema(ramp, 0.2)

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
        stats = fringe_stats(values, psi, 0.2)
        assert stats.visibility_mean == 1.0
        assert stats.visibility_std == 0.0

    def test_offset_fringe_value(self):
        psi = np.linspace(0.0, 8 * np.pi, 1601)
        values = 0.505 - 0.495 * np.cos(psi)  # swings 0.01 .. 1.0
        stats = fringe_stats(values, psi, 0.2)
        assert abs(stats.visibility_mean - 0.99 / 1.01) < 1e-12

    def test_noiseless_doubled_scan_visibility_is_one(self):
        # 4999 points puts grid points exactly on the fringe extrema.
        trace = classical_scan(4999, modules=2)
        stats = fringe_stats(trace.singles_d1, trace.psi, 0.2)
        assert abs(stats.visibility_mean - 1.0) < 1e-9

    def test_propagates_insufficient_fringes(self):
        with pytest.raises(InsufficientFringesError):
            fringe_stats(np.ones(50), np.arange(50.0), 0.2)

    @pytest.mark.parametrize("offset, lowest", [(0.0, "-1.0"), (-0.5, "-1.5")],
                             ids=["zero-mean", "negative-offset"])
    def test_negative_trace_is_refused(self, offset, lowest):
        # (max - min) / (max + min) divides by zero on a zero-mean cosine and
        # reads -2 on one shifted down by 0.5; neither is a visibility.
        psi = np.linspace(0.0, 8 * np.pi, 1601)
        with pytest.raises(ValueError, match=re.escape(
                f"fringe visibility needs a non-negative trace, got minimum {lowest}")):
            fringe_stats(np.cos(psi) + offset, psi)


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

    def test_a_second_tone_just_outside_the_lobe_is_ambiguous(self):
        # The lobe of bin 48 is bins 40-56; a half-height tone at bin 57 competes.
        psi = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)
        with pytest.raises(AmbiguousPeriodError):
            dominant_period(np.cos(48 * psi) + 0.5 * np.cos(57 * psi), psi)

    @pytest.mark.parametrize("seed", range(10))
    def test_noise_alone_has_no_period(self, seed):
        # White noise, and shot noise alone: flat-rate counts with no fringe.
        rng = np.random.default_rng(seed)
        psi = np.linspace(0.0, 20 * np.pi, 5000, endpoint=False)
        for values in (rng.normal(size=5000), rng.poisson(5.0, size=5000)):
            with pytest.raises(AmbiguousPeriodError):
                dominant_period(values, psi)

    def test_non_uniform_grid_rejected(self):
        psi = np.linspace(0.0, 8 * np.pi, 512) ** 1.01
        with pytest.raises(ValueError):
            dominant_period(np.cos(psi), psi)

    def test_fewer_than_eight_bins_rejected(self):
        psi = np.arange(7.0)
        with pytest.raises(ValueError, match=r"^need matching 1-D trace and phase arrays \(>= 8 bins\)$"):
            dominant_period(np.cos(psi), psi)


class TestCountFringes:
    def test_singles_cycles_on_full_default_ramp(self):
        trace = classical_scan(5000, modules=1)
        assert fringe_stats(trace.singles_d1, trace.psi, 0.2).fringe_count == 10.5

    def test_coincidence_fringes_on_full_default_ramp(self):
        trace = classical_scan(5000, modules=1)
        product = trace.singles_d1 * trace.singles_d2  # AND-rate expectation
        assert fringe_stats(product, trace.psi, 0.2).fringe_count == 21.0


class TestFringeStats:
    def test_composite_report(self):
        trace = classical_scan(4096, modules=2, cycles=10.0)
        stats = fringe_stats(trace.singles_d1, trace.psi, 0.2)
        assert stats.visibility_mean > 0.999
        assert 0.0 <= stats.visibility_std < 0.01
        assert abs(stats.dominant_period_rad - np.pi) < 0.01
        assert len(stats.maxima) >= 19 and len(stats.minima) >= 19

    def test_single_pass_matches_the_extrema(self, monkeypatch):
        trace = classical_scan(4096, modules=2, cycles=10.0)
        values = trace.singles_d1
        maxima, minima = find_extrema(values, 0.2)
        # Adjacent extrema alternate, so each pair is one maximum and one minimum.
        extrema = sorted(maxima + minima)
        pairs = [(max(a, b) - min(a, b)) / (a + b)
                 for (_, a), (_, b) in zip(extrema, extrema[1:])]
        expected_vis = (float(np.mean(pairs)), float(np.std(pairs, ddof=1)))
        expected_count = (len(maxima) + len(minima) + 1) / 2
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return find_extrema(*args, **kwargs)

        monkeypatch.setattr(experiment, "find_extrema", counting)
        stats = fringe_stats(values, trace.psi, 0.2)
        assert len(calls) == 1
        assert (stats.maxima, stats.minima) == (tuple(maxima), tuple(minima))
        assert (stats.visibility_mean, stats.visibility_std) == expected_vis
        assert stats.fringe_count == expected_count == 20.0
        assert stats.dominant_period_rad == dominant_period(values, trace.psi)


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

    def test_delta_phi_must_be_positive(self):
        with pytest.raises(ValueError, match="^delta_phi must be positive$"):
            experiment.SensitivityReport(1, 1.0, 0.0, 1.0, 0.0)

    def test_grid_must_resolve_each_period(self, monkeypatch):
        calls = []
        evaluate = experiment.circuit_mod.output_intensities
        monkeypatch.setattr(experiment.circuit_mod, "output_intensities",
                            lambda *a, **k: calls.append(a) or evaluate(*a, **k))
        # Every bound is checked before the first order is evaluated.
        for max_m, grid_points in [(5, 20_000), (0, 50_000), (30, 200_000), (3, 10**7)]:
            with pytest.raises(ValueError):
                estimate_sensitivity(max_m, grid_points)
        for max_m, grid_points in [(2, 50_000.0), (2, 50_000.5), (2.0, 50_000), (1.5, 50_000)]:
            with pytest.raises(ValueError, match="^(max_m|grid_points) must be an integer, got "):
                estimate_sensitivity(max_m, grid_points)
        assert calls == []

    def test_each_block_is_one_fold_through_every_traced_span(self, monkeypatch):
        # The traced cascade-sweep benchmark requires these spans; the one
        # fold over the max_m-stage chain must still pass through each of
        # them.  It binds the control phase once per sweep and builds one
        # MZI stack per block: the upper-arm stages read the lower-arm stack
        # anti-transposed.  A second identical sweep makes the same calls,
        # as the traced benchmark checks, so nothing is kept between calls.
        calls = {}

        def count(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)

        count(experiment.circuit_mod, "output_intensities")
        for name in ("mzi", "phase_element", "compose", "apply"):
            count(experiment.circuit_mod.optics, name)
        blocks = math.ceil(50_000 / BLOCK)
        sweeps = []
        for _ in range(2):
            calls.clear()
            assert len(estimate_sensitivity(5, 50_000)) == 5
            assert calls["output_intensities"] == 1 and calls["mzi"] == blocks
            assert calls["phase_element"] == 1
            assert min(calls["compose"], calls["apply"]) >= 1
            sweeps.append(dict(calls))
        assert sweeps[0] == sweeps[1]

    # The sweep holds one block's fold (one 0.5 MB MZI stack, read by both
    # arms, and a 0.25 MB field column at 8192 points), each order's dI
    # over one block and its central differences: ~1.9 MB at (5, 1e5) and
    # at (5, 1e6), ~3.9 MB at (20, 2e5) and ~8.1 MB at (50, 5e5); a second
    # stack for the upper arm added 0.5 MB to each.  Keeping every
    # order's dI over the whole grid until the last block peaked at 7.6,
    # 72, 39 and 216 MB; folding the whole grid at once held two 6.4 MB
    # MZI stacks and a 3.2 MB field column (~20 MB) at 1e5 points.
    def test_the_fold_carries_no_product_stack(self):
        assert traced_peak(estimate_sensitivity, 5, 100_000) <= 4e6

    @pytest.mark.parametrize("max_m, grid_points, bound", [
        (5, 1_000_000, 4e6),
        (20, 200_000, 6e6),
        (50, 500_000, 12e6),
    ], ids=["5-orders-at-the-cap", "20-orders", "50-orders"])
    def test_the_sweep_holds_one_block(self, max_m, grid_points, bound):
        assert traced_peak(estimate_sensitivity, max_m, grid_points) <= bound


def traced_peak(function, *args) -> int:
    """Traced peak bytes allocated while ``function(*args)`` runs."""
    tracemalloc.start()
    try:
        function(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
    @pytest.mark.parametrize("grid_points", [50_000, 100_000, 111_590])
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

    # The grid is folded in the blocks of _chunks.fold_blocks; the block
    # edges must not show in any order.  The first case patches the block
    # wider than the grid (every valid grid is wider than the real block),
    # the sixth narrow and odd, so that the final block is a ragged tail.  On
    # 1e5 points the first peaks of orders 1..5 sit at indices 25000, 12500,
    # 25000, 6250 and 5000: blocks of 6250 start on those of orders 1..4,
    # and the first block of 12501 ends on order 2's.  Blocks of 6250 leave
    # one point of 100001 past the last, which joins the block before it.
    # The last two cases fold the smallest block, two points (a block of 1
    # is cut as 2), with the grid point on either side of it.
    @pytest.mark.parametrize("block, grid_points, max_m", [
        (20_000, 10_000, 1),
        (BLOCK, 3 * BLOCK, 2),
        (BLOCK, 4 * BLOCK + 1, 3),
        (BLOCK, 111_590, 3),
        (BLOCK, 123_457, 5),
        (997, 20_000, 2),
        (6_250, 100_000, 5),
        (12_501, 100_000, 2),
        (6_250, 100_001, 5),
        (1, 10_000, 1),
        (2, 10_001, 1),
    ], ids=["shorter-than-a-block", "3-blocks", "4-blocks-plus-1", "111590", "123457",
            "ragged-tail", "peaks-on-block-starts", "peak-on-a-block-end", "lone-last-point",
            "smallest-block", "smallest-block-lone-last-point"])
    def test_block_edges_keep_every_order_bits(self, monkeypatch, block, grid_points, max_m):
        monkeypatch.setattr(_chunks, "FOLD_POINTS", block)
        reports = estimate_sensitivity(max_m, grid_points)
        assert [(r.eta, r.max_slope_psi) for r in reports] == [
            reference_slope(m, grid_points) for m in range(1, max_m + 1)]

    @pytest.mark.parametrize("grid_points", [50_000, 100_000, 123_457])
    def test_within_1e_10_of_the_sample_point_gradient(self, grid_points):
        eta_1, _ = reference_slope(1, grid_points, uniform=False)
        for m, report in enumerate(estimate_sensitivity(5, grid_points), start=1):
            eta, psi_at_peak = reference_slope(m, grid_points, uniform=False)
            assert report.max_slope_psi == psi_at_peak
            assert abs(report.eta - eta) <= 1e-10 * eta
            assert abs(report.delta_phi - 1.0 / eta) <= 1e-10 / eta
            assert abs(report.ratio_to_classical - eta_1 / eta) <= 1e-10 * eta_1 / eta


def crafted_rows(grid_points, rows):
    """Rows of dI whose slopes peak where asked, one row per list of peaks.

    A row holds the grid's points and one more on either side, so grid
    point ``k`` is its entry ``k + 1``.  It is the running sum of
    quarter-integer increments, so its differences are exact.  A peak
    ``(k, v)`` sets the two increments around grid point ``k`` to ``v``, so
    the central difference there is ``v / step``, and its neighbours' at
    most ``(|v| + 0.5) / (2 step)``.  Peaks must be at least four points
    apart.
    """
    background = ((np.arange(grid_points + 1) * 7) % 5 - 2) * 0.25
    out = []
    for peaks in rows:
        increments = background.copy()
        for k, v in peaks:
            increments[k:k + 2] = v
        out.append(np.concatenate([[0.0], np.cumsum(increments)]))
    return out


class TestPeakReduction:
    """Each block's slopes, reduced as it is folded, against ``np.gradient`` on the whole row."""

    GRID = 30_000
    CASES = {
        "ties-in-different-blocks": [
            ([(1500, 4.0), (4500, 4.0), (28_000, 4.0)], 1500),
            ([(999, -4.0), (2000, 4.0)], 999),
            ([(1000, 4.0), (7000, -4.0)], 1000),
        ],
        "later-within-1e-9": [
            ([(700, 3.0), (12_000, 3.0 * (1 + 5e-10))], 700),
            ([(0, 3.0), (15_000, 3.0 * (1 + 9e-10))], 0),
            ([(2999, 3.0), (29_999, -3.0 * (1 + 5e-10))], 2999),
        ],
        "later-beyond-1e-9": [
            ([(700, 3.0), (12_000, 3.0 * (1 + 2e-9))], 12_000),
            ([(0, 3.0), (29_999, 3.0 * (1 + 2e-9))], 29_999),
            ([(5, 1.0), (3000, 2.0), (9999, -3.0), (20_000, 4.0)], 20_000),
        ],
        "grid-edges": [
            ([(0, 5.0), (29_999, 5.0)], 0),
            ([(100, 4.0), (29_999, -5.0)], 29_999),
            ([(10, 6.0), (5998, 5.0), (29_999, 6.0)], 10),
        ],
    }

    # Blocks of 1000 end on 999, 2999 and 9999 and start on 1000 and 20000;
    # blocks of 2999 start on 2999 and 5998 and leave a 10-point tail.
    @pytest.mark.parametrize("block", [1000, 2999])
    @pytest.mark.parametrize("case", CASES)
    def test_reduction_matches_the_gradient_on_crafted_rows(self, monkeypatch, case, block):
        peaks, expected = zip(*self.CASES[case])
        rows = crafted_rows(self.GRID, peaks)
        psi, step = np.linspace(0.0, 2.0 * np.pi, self.GRID, endpoint=False, retstep=True)
        folded = [0]

        # Each block's psi reaches one point past it on either side.
        def output_intensities(chain, bindings, stages):
            assert stages
            for block_psi in bindings["psi"]:
                start = folded[0]
                folded[0] += len(block_psi) - 2
                assert np.array_equal(block_psi[1:-1], psi[start:folded[0]])
                assert (block_psi[0], block_psi[-1]) == ((start - 1) * step, folded[0] * step)
                yield iter([(row[start:folded[0] + 2], np.zeros(len(block_psi))) for row in rows])

        monkeypatch.setattr(_chunks, "FOLD_POINTS", block)
        monkeypatch.setattr(experiment.circuit_mod, "output_intensities", output_intensities)
        reports = estimate_sensitivity(len(rows), self.GRID)
        assert folded[0] == self.GRID
        for report, row, index in zip(reports, rows, expected):
            slope = np.abs(np.gradient(row[1:-1], step))
            eta = float(np.max(slope))
            first = int(np.argmax(slope >= (1.0 - 1e-9) * eta))
            assert first == index
            assert (report.eta, report.max_slope_psi) == (eta, float(psi[first]))
