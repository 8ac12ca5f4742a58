import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from cbwsim import _chunks, montecarlo
from cbwsim._chunks import CHUNK_ROWS
from cbwsim.analytic import cbw_intensities, expected_coincidence_fraction
from cbwsim.circuit import (
    CircuitAst,
    ElementKind,
    ElementNode,
    UnboundParameterError,
    build_cbw_chain,
    output_intensities,
    parse_circuit,
)
from cbwsim.config import (
    LAB_NOISE,
    ConfigError,
    NoiseModel,
    ScanConfig,
    SourceMode,
    SourceModel,
)
from cbwsim.montecarlo import (
    CountTrace,
    coincidence_fraction,
    route_photons,
    sample_window,
    scan_trace,
    simulate_classical_trace,
    simulate_scan_counts,
)
from cbwsim.optics import Arm

QUIET = NoiseModel()


def fixed_probability_circuit(p_upper):
    """Single MZI with a literal phase chosen so the upper output carries p_upper."""
    psi = float(np.arccos(1.0 - 2.0 * p_upper))
    element = ElementNode(ElementKind.MZI, Arm.LOWER, psi, "C1")
    return CircuitAst(1.0, (element,), ("gamma", "delta"))


def photon_source(lam, window=1e-8):
    return SourceModel(mean_photons_per_window=lam, window_duration=window)


def fixed_scan(circuit, points, bin_duration, scan_duration=None):
    return ScanConfig(
        points=points,
        bin_duration=bin_duration,
        scan_duration=scan_duration if scan_duration is not None else points * bin_duration,
        circuit=circuit,
    )


class TestSampleWindow:
    def test_deterministic_for_a_seed(self):
        a = [sample_window(0.3, np.random.default_rng(5)) for _ in range(100)]
        rng = np.random.default_rng(5)
        b = [sample_window(0.3, rng) for _ in range(1)]
        assert a[0] == b[0]
        rng1, rng2 = np.random.default_rng(9), np.random.default_rng(9)
        assert [sample_window(1.7, rng1) for _ in range(500)] == \
               [sample_window(1.7, rng2) for _ in range(500)]

    def test_vacuum_probability_matches_poisson_pmf(self):
        rng = np.random.default_rng(101)
        n = 2_000_000
        zeros = sum(1 for _ in range(n) if sample_window(0.04, rng) == 0)
        assert abs(zeros / n - np.exp(-0.04)) < 5e-4

    def test_mean_within_three_sigma(self):
        rng = np.random.default_rng(55)
        n = 200_000
        for lam in (0.04, 0.5, 3.0):
            draws = [sample_window(lam, rng) for _ in range(n)]
            assert abs(np.mean(draws) - lam) < 3.0 * np.sqrt(lam / n)

    def test_rejects_nonpositive_mean(self):
        with pytest.raises(ValueError):
            sample_window(0.0, np.random.default_rng(0))

    @pytest.mark.parametrize("lam", [800.0, np.inf, np.nan])
    def test_rejects_a_mean_whose_vacuum_probability_is_not_a_normal_double(self, lam):
        # exp(-800) underflows to 0, so the search would never reach u.
        with pytest.raises(ValueError, match="lam"):
            sample_window(lam, np.random.default_rng(0))


class TestRoutePhotons:
    def test_empty_window_fires_nothing(self):
        assert route_photons(0, 0.5, 1.0, np.random.default_rng(0)) == (False, False)

    def test_single_photon_all_upper(self):
        assert route_photons(1, 1.0, 1.0, np.random.default_rng(0)) == (True, False)

    def test_two_photons_balanced_coincide_half_the_time(self):
        rng = np.random.default_rng(42)
        n = 100_000
        both = sum(1 for _ in range(n) if route_photons(2, 0.5, 1.0, rng) == (True, True))
        assert abs(both / n - 0.5) < 3.0 * np.sqrt(0.25 / n)

    def test_zero_efficiency_detects_nothing(self):
        rng = np.random.default_rng(1)
        assert route_photons(50, 0.5, 0.0, rng) == (False, False)

    def test_parameter_domains(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            route_photons(1, 1.2, 1.0, rng)
        with pytest.raises(ValueError):
            route_photons(1, 0.5, -0.1, rng)


class TestSimulateScanCounts:
    def test_trace_invariants_and_shapes(self):
        trace = simulate_scan_counts(
            ScanConfig(points=64, bin_duration=0.001, scan_duration=0.064),
            photon_source(0.2, 1e-6), QUIET, seed=3)
        assert len(trace) == 64
        trace.validate()
        assert np.all(trace.coincidences <= np.minimum(trace.singles_d1, trace.singles_d2))
        assert trace.mode is SourceMode.PHOTON_COUNTING

    @pytest.mark.parametrize("intensity", [0.0, -0.0, 5e-324, 2.5, 1e308, np.finfo(float).max])
    def test_routing_does_not_depend_on_the_source_intensity(self, intensity):
        # The lab drift walk scales both outputs; at the largest double it
        # used to overflow their sum and skew the routing.
        scan = ScanConfig(points=64, bin_duration=0.001, scan_duration=0.064)
        unit = simulate_scan_counts(scan, photon_source(0.3, 1e-6), LAB_NOISE, seed=3)
        scaled = simulate_scan_counts(
            replace(scan, circuit=replace(scan.circuit, source_intensity=intensity)),
            photon_source(0.3, 1e-6), LAB_NOISE, seed=3)
        for field in ("singles_d1", "singles_d2", "coincidences"):
            np.testing.assert_array_equal(getattr(scaled, field), getattr(unit, field))

    def test_windows_per_bin_cap(self):
        # window_duration 1 s makes bin_duration the exact window count.
        source = photon_source(0.04, 1.0)
        cap = montecarlo.MAX_WINDOWS_PER_BIN
        assert cap == 2**53
        trace = simulate_scan_counts(
            ScanConfig(points=2, bin_duration=float(cap), scan_duration=2.0 * cap),
            source, QUIET, seed=1)
        assert trace.meta["windows_per_bin"] == cap
        assert np.all(trace.singles_d1 + trace.singles_d2 - trace.coincidences <= cap)
        above = float(cap) + 2.0  # the next double after 2**53
        with pytest.raises(ConfigError, match=r"2\*\*53"):
            simulate_scan_counts(
                ScanConfig(points=2, bin_duration=above, scan_duration=2.0 * above),
                source, QUIET, seed=1)

    def test_seed_determinism_and_worker_independence(self):
        scan = ScanConfig(points=40, bin_duration=0.001, scan_duration=0.04)
        noise = NoiseModel(phase_jitter_sigma=0.05, intensity_drift_fraction=0.02, dark_rate=100.0)
        kwargs = dict(scan=scan, source=photon_source(0.3, 1e-6), noise=noise, seed=77)
        a = simulate_scan_counts(**kwargs)
        b = simulate_scan_counts(**kwargs)
        c = simulate_scan_counts(**kwargs)
        for field in ("singles_d1", "singles_d2", "coincidences", "psi", "voltage", "time"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
            np.testing.assert_array_equal(getattr(a, field), getattr(c, field))

    def test_singles_rate_matches_thinned_poisson(self):
        # Noise off, efficiency 1: windows fire as Bernoulli(1 - exp(-lam*p)).
        lam, windows, points = 0.05, 10_000, 128
        scan = ScanConfig(points=points, bin_duration=1e-2, scan_duration=points * 1e-2,
                          circuit=build_cbw_chain(1))
        trace = simulate_scan_counts(scan, photon_source(lam, 1e-6), QUIET, seed=11)
        p_upper = (1.0 - np.cos(trace.psi)) / 2.0
        for observed, p in ((trace.singles_d1, p_upper), (trace.singles_d2, 1.0 - p_upper)):
            q = 1.0 - np.exp(-lam * p)
            expected = windows * q
            sigma = np.sqrt(np.maximum(windows * q * (1.0 - q), 1e-12))
            z = (observed - expected) / sigma
            assert np.max(np.abs(z)) < 5.0
            assert abs(np.sum(observed) - np.sum(expected)) < 3.0 * np.sqrt(np.sum(sigma**2))

    @pytest.mark.parametrize("lam", [0.01, 0.04, 0.2])
    @pytest.mark.parametrize("p_upper", [0.1, 0.5, 0.9])
    def test_coincidence_fraction_matches_oracle(self, lam, p_upper):
        windows_per_bin = 500_000 if lam > 0.02 else 2_000_000
        scan = fixed_scan(fixed_probability_circuit(p_upper), points=4,
                          bin_duration=windows_per_bin * 1e-8)
        trace = simulate_scan_counts(scan, photon_source(lam), QUIET, seed=29)
        fraction = coincidence_fraction(trace)
        expected = expected_coincidence_fraction(lam, p_upper, 1.0 - p_upper)
        union = float(trace.singles_d1.sum() + trace.singles_d2.sum() - trace.coincidences.sum())
        sigma = np.sqrt(expected * (1.0 - expected) / union)
        assert abs(fraction - expected) < 3.0 * sigma

    def test_symmetric_chain_has_no_true_coincidences(self):
        # Control phase pi routes all light to one port: only dark counts
        # could coincide, and they are off here.
        scan = ScanConfig(points=32, bin_duration=0.001, scan_duration=0.032, phi=np.pi)
        trace = simulate_scan_counts(scan, photon_source(0.5, 1e-6), QUIET, seed=13)
        assert np.all(trace.coincidences == 0)
        assert np.all(trace.singles_d2 == 0)
        assert np.all(trace.singles_d1 > 0)

    @pytest.mark.parametrize("p_upper", [0.0, 1.0])
    def test_a_port_without_light_never_fires(self, p_upper):
        scan = fixed_scan(fixed_probability_circuit(p_upper), points=8, bin_duration=1e-3)
        trace = simulate_scan_counts(scan, photon_source(0.5, 1e-6), QUIET, seed=5)
        dark, lit = (trace.singles_d1, trace.singles_d2) if p_upper == 0.0 else (trace.singles_d2, trace.singles_d1)
        assert np.all(dark == 0) and np.all(trace.coincidences == 0)
        assert np.all(lit > 0)

    def test_a_bin_whose_drift_is_clipped_to_zero_counts_nothing(self):
        # The classical trace of the same seed draws the same drift walk, so
        # its zero-power bins are the bins whose drift was clipped to 0.
        scan = ScanConfig(points=200, bin_duration=1e-3, scan_duration=0.2)
        noise = NoiseModel(intensity_drift_fraction=3.0)
        classical = simulate_classical_trace(scan, noise, seed=4)
        clipped = classical.singles_d1 + classical.singles_d2 == 0
        assert clipped.any() and not clipped.all()
        trace = simulate_scan_counts(scan, photon_source(0.5, 1e-6), noise, seed=4)
        for field in ("singles_d1", "singles_d2", "coincidences"):
            assert np.all(getattr(trace, field)[clipped] == 0)

    def test_dark_counts_fire_dark_port(self):
        scan = ScanConfig(points=32, bin_duration=0.001, scan_duration=0.032, phi=np.pi)
        noisy = NoiseModel(dark_rate=5000.0)
        trace = simulate_scan_counts(scan, photon_source(0.5, 1e-6), noisy, seed=13)
        assert trace.singles_d2.sum() > 0

    def test_bin_must_be_integer_multiple_of_window(self):
        scan = ScanConfig(points=4, bin_duration=0.0015, scan_duration=0.006,
                          circuit=build_cbw_chain(1))
        with pytest.raises(ConfigError):
            simulate_scan_counts(scan, photon_source(0.1, 1e-3 / 1.5001), QUIET, seed=0)

    def test_overflowing_photon_mean_names_the_source_field(self):
        # The drift walk rises above 1 and carries the largest double past
        # the range; the error must come before numpy warns about it.
        scan = ScanConfig(points=50, bin_duration=0.1, scan_duration=5.0)
        source = photon_source(np.finfo(float).max, 1e-8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="^mean_photons_per_window 1.7976931348623157e"
                                                  r"\+308 overflows the detected photon mean$"):
                simulate_scan_counts(scan, source, NoiseModel(intensity_drift_fraction=0.01), seed=0)

    def test_mean_overflowing_with_dark_counts_fires_every_window(self):
        scan = ScanConfig(points=8, bin_duration=1.0, scan_duration=8.0)
        source = photon_source(1.7e308, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = simulate_scan_counts(scan, source, NoiseModel(dark_rate=1.7e308), seed=0)
        assert np.all(trace.coincidences == 1)


# Upper 0.1% point of the chi-square distribution with 3 degrees of freedom
# (four window outcomes).
CHI2_3DOF_P001 = 16.266


def chi_square(observed, expected):
    return float(np.sum((observed - expected) ** 2 / expected))


class TestSamplerMatchesOracle:
    """Bin totals from the scan sampler against the per-window scalar model.

    Efficiency below 1 and dark counts on, so photon loss and dark counts
    both enter the four window outcomes (both, d1 only, d2 only, neither).
    """

    LAM, P_UPPER, EFFICIENCY = 0.8, 0.3, 0.7
    WINDOW, DARK_RATE = 1e-6, 5e4  # p_dark = 0.05 per window and detector

    def sampled(self, points, windows, seed):
        scan = fixed_scan(fixed_probability_circuit(self.P_UPPER), points=points,
                          bin_duration=windows * self.WINDOW)
        noise = NoiseModel(dark_rate=self.DARK_RATE, detector_efficiency=self.EFFICIENCY)
        return simulate_scan_counts(scan, photon_source(self.LAM, self.WINDOW), noise, seed=seed)

    def firing_probabilities(self):
        p_dark = self.DARK_RATE * self.WINDOW
        detected = self.LAM * self.EFFICIENCY
        q1 = 1.0 - np.exp(-(detected * self.P_UPPER + p_dark))
        q2 = 1.0 - np.exp(-(detected * (1.0 - self.P_UPPER) + p_dark))
        return q1, q2

    def oracle_outcomes(self, windows, rng):
        p_dark = self.DARK_RATE * self.WINDOW
        counts = np.zeros(4, dtype=np.int64)
        for _ in range(windows):
            d1, d2 = route_photons(sample_window(self.LAM, rng), self.P_UPPER, self.EFFICIENCY, rng)
            dark1, dark2 = sample_window(p_dark, rng), sample_window(p_dark, rng)
            d1, d2 = d1 or dark1 > 0, d2 or dark2 > 0
            counts[2 * (not d1) + (not d2)] += 1
        return counts

    def test_window_outcomes_match_scalar_oracle(self):
        oracle = self.oracle_outcomes(200_000, np.random.default_rng(2024))
        windows = 250_000
        trace = self.sampled(points=4, windows=windows, seed=31)
        c, d1, d2 = trace.coincidences.sum(), trace.singles_d1.sum(), trace.singles_d2.sum()
        sampled = np.array([c, d1 - c, d2 - c, 4 * windows - d1 - d2 + c])

        # The oracle follows the closed-form outcome probabilities ...
        q1, q2 = self.firing_probabilities()
        pvals = np.array([q1 * q2, q1 * (1 - q2), (1 - q1) * q2, (1 - q1) * (1 - q2)])
        assert chi_square(oracle, oracle.sum() * pvals) < CHI2_3DOF_P001

        # ... and the sampler's outcome frequencies are homogeneous with it.
        table = np.array([oracle, sampled], dtype=float)
        expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / table.sum()
        assert chi_square(table, expected) < CHI2_3DOF_P001

    def test_bin_moments_match_multinomial_closed_form(self):
        bins, windows = 20_000, 2_000
        trace = self.sampled(points=bins, windows=windows, seed=47)
        q1, q2 = self.firing_probabilities()
        c = q1 * q2
        d1 = trace.singles_d1.astype(float)
        coinc = trace.coincidences.astype(float)
        for observed, p in ((d1, q1), (trace.singles_d2.astype(float), q2), (coinc, c)):
            mean, var = windows * p, windows * p * (1.0 - p)
            assert abs(observed.mean() - mean) < 5.0 * np.sqrt(var / bins)
            assert abs(observed.var(ddof=1) - var) < 5.0 * var * np.sqrt(2.0 / (bins - 1))
        # cov(d1, coinc) = var(both) + cov(d1 only, both) = W c (1 - c) - W q1 (1 - q2) c
        cov = windows * c * (1.0 - q1)
        var_d1, var_c = windows * q1 * (1.0 - q1), windows * c * (1.0 - c)
        observed_cov = np.cov(d1, coinc)[0, 1]
        assert abs(observed_cov - cov) < 5.0 * np.sqrt((var_d1 * var_c + cov**2) / bins)


class TestSimulateClassical:
    def test_noiseless_matches_closed_form_exactly(self):
        scan = ScanConfig(points=512, bin_duration=0.1, scan_duration=51.2)
        trace = simulate_classical_trace(scan, QUIET, seed=0)
        expected = (1.0 + np.cos(2.0 * trace.psi)) / 2.0
        assert np.max(np.abs(trace.singles_d1 - expected)) < 1e-12
        assert np.max(np.abs(trace.singles_d2 - (1.0 - expected))) < 1e-12
        assert np.all(trace.coincidences == 0)
        assert trace.mode is SourceMode.CLASSICAL_INTENSITY

    @pytest.mark.parametrize("intensity", [0.0, -0.0, 5e-324, 2.5, 1e308])
    def test_powers_are_the_unit_powers_times_the_source_intensity(self, intensity):
        scan = ScanConfig(points=64, bin_duration=0.1, scan_duration=6.4)
        unit = simulate_classical_trace(scan, LAB_NOISE, seed=2)
        scaled = simulate_classical_trace(
            replace(scan, circuit=replace(scan.circuit, source_intensity=intensity)),
            LAB_NOISE, seed=2)
        for field in ("singles_d1", "singles_d2"):
            expected = abs(intensity) * getattr(unit, field)
            assert getattr(scaled, field).tobytes() == expected.tobytes()

    def test_zero_duration_scan_is_empty(self):
        scan = ScanConfig(points=0, scan_duration=0.0)
        trace = simulate_classical_trace(scan, QUIET, seed=0)
        assert len(trace) == 0

    def test_normalized_classical_agrees_with_photon_expectation(self):
        # Born-rule equivalence: the classical powers predict the photon
        # counting rates bin by bin within statistics.
        lam, windows, points = 0.5, 20_000, 128
        scan = ScanConfig(points=points, bin_duration=2e-2, scan_duration=points * 2e-2)
        classical = simulate_classical_trace(scan, QUIET, seed=1)
        photon = simulate_scan_counts(scan, photon_source(lam, 1e-6), QUIET, seed=8)
        p_gamma = classical.singles_d1 / (classical.singles_d1 + classical.singles_d2)
        for observed, p in ((photon.singles_d1, p_gamma), (photon.singles_d2, 1.0 - p_gamma)):
            q = 1.0 - np.exp(-lam * p)
            sigma = np.sqrt(np.maximum(windows * q * (1.0 - q), 1e-12))
            z = (observed - windows * q) / sigma
            assert np.max(np.abs(z)) < 3.0


class TestScanChain:
    def test_the_default_circuit_is_the_two_stage_cascade(self):
        assert ScanConfig(phi=0.7).circuit == build_cbw_chain(2)
        circuit = fixed_probability_circuit(0.3)
        assert ScanConfig(circuit=circuit).circuit is circuit

    def test_the_trace_records_the_chain_it_ran(self):
        scan = ScanConfig(points=8, bin_duration=0.001, scan_duration=0.008,
                          circuit=build_cbw_chain(3), phi=0.4)
        trace = simulate_classical_trace(scan, QUIET, seed=0)
        assert trace.meta["scan"].circuit == build_cbw_chain(3)
        assert trace.meta["scan"].phi == 0.4
        expected = cbw_intensities(trace.psi, 0.4, 3)
        np.testing.assert_allclose(trace.singles_d1, expected.i_upper, rtol=0, atol=1e-12)
        np.testing.assert_allclose(trace.singles_d2, expected.i_lower, rtol=0, atol=1e-12)


    def test_the_chain_is_read_as_undrifted_unit_input_powers(self):
        scan = ScanConfig(points=64, bin_duration=1e-3, scan_duration=0.064, phi=0.7)
        _, drift, blocks, _ = montecarlo._scan_chain(scan, NoiseModel(intensity_drift_fraction=0.5), seed=3)
        _, quiet_drift, quiet_blocks, _ = montecarlo._scan_chain(scan, QUIET, seed=3)
        assert not np.array_equal(drift, quiet_drift)
        for (rows, (upper, lower)), (quiet_rows, quiet_pair) in zip(blocks, quiet_blocks, strict=True):
            assert rows == quiet_rows
            assert np.array_equal(upper, quiet_pair[0]) and np.array_equal(lower, quiet_pair[1])
            np.testing.assert_allclose(upper + lower, 1.0, rtol=0, atol=1e-12)


TRACE_FIELDS = ("bin_index", "time", "voltage", "psi", "singles_d1", "singles_d2", "coincidences")

# A chain that reads no psi: literal MZI phases, the control phase bound.
PSI_LESS = parse_circuit("source intensity=2.5\nmzi C1 arm=lower phase=0.7\n"
                         "phase arm=upper value=phi\nmzi W2 arm=upper phase=1.3\ndetect a b\n")

# (circuit, phi, noise) of the scans whose blocks are checked at their seams.
BLOCK_CASES = [
    *[(build_cbw_chain(m), phi, LAB_NOISE) for m in range(1, 6) for phi in (0.0, 1.1)],
    (build_cbw_chain(2), 1.1, QUIET),
    (build_cbw_chain(5), 0.0, QUIET),
    (build_cbw_chain(3, source_intensity=2.5), 1.1, LAB_NOISE),
    (PSI_LESS, 1.1, LAB_NOISE),
]
BLOCK_IDS = [*[f"m{m}-phi{phi}" for m in range(1, 6) for phi in (0.0, 1.1)],
             "m2-phi1.1-quiet", "m5-phi0.0-quiet", "intensity-2.5", "psi-less"]

SIMULATORS = {
    "photon": lambda scan, noise: simulate_scan_counts(scan, photon_source(0.3, 1e-6), noise, seed=9),
    "classical": lambda scan, noise: simulate_classical_trace(scan, noise, seed=9),
}


def block_scan(circuit, phi, points):
    return ScanConfig(points=points, bin_duration=1e-3, scan_duration=points * 1e-3,
                      circuit=circuit, phi=phi)


def trace_bits(trace):
    return [(getattr(trace, f).dtype, getattr(trace, f).tobytes()) for f in TRACE_FIELDS]


class TestBlockedScan:
    """The simulators fold the chain and draw the counts in the blocks of
    ``_chunks.fold_blocks``; the block size changes no bit of a trace."""

    # Blocks of one bin, of a few bins and of half the default, on scans
    # that leave a last bin over (302 = 43 * 7 + 1) or not; the last scan
    # also spans the default's seam at 8192 bins.
    @pytest.mark.parametrize("block, points", [(1, 300), (7, 300), (7, 302), (4096, 2 * 4096 + 1),
                                               (4096, 2 * 4096 + 11)],
                             ids=["block-1", "block-7", "block-7-lone-bin", "block-4096-lone-bin",
                                  "block-4096"])
    @pytest.mark.parametrize("simulator", list(SIMULATORS))
    @pytest.mark.parametrize("circuit, phi, noise", BLOCK_CASES, ids=BLOCK_IDS)
    def test_the_block_size_changes_no_bit(self, monkeypatch, simulator, block, points,
                                           circuit, phi, noise):
        scan = block_scan(circuit, phi, points)
        expected = SIMULATORS[simulator](scan, noise)
        monkeypatch.setattr(_chunks, "FOLD_POINTS", block)
        assert trace_bits(SIMULATORS[simulator](scan, noise)) == trace_bits(expected)

    @pytest.mark.parametrize("block", [1, 7, 4096])
    @pytest.mark.parametrize("simulator", list(SIMULATORS))
    def test_the_empty_scan_is_empty_in_any_block(self, monkeypatch, simulator, block):
        scan = ScanConfig(points=0, scan_duration=0.0)
        expected = SIMULATORS[simulator](scan, LAB_NOISE)
        monkeypatch.setattr(_chunks, "FOLD_POINTS", block)
        trace = SIMULATORS[simulator](scan, LAB_NOISE)
        assert len(trace) == 0 and trace_bits(trace) == trace_bits(expected)

    # The oracle: the non-stage route, which composes the whole chain's
    # (N, 2, 2) product, over every jittered phase at once.
    @pytest.mark.parametrize("block", [7, None], ids=["block-7", "default-block"])
    @pytest.mark.parametrize("circuit, phi, noise", BLOCK_CASES, ids=BLOCK_IDS)
    def test_powers_have_the_bits_of_the_whole_chain(self, monkeypatch, block, circuit, phi, noise):
        if block is not None:
            monkeypatch.setattr(_chunks, "FOLD_POINTS", block)
        scan = block_scan(circuit, phi, 8192 + 1)
        psi, _, blocks, _ = montecarlo._scan_chain(scan, noise, seed=4)
        jitter_ss, drift_ss, _ = np.random.SeedSequence(4).spawn(3)
        jitter, _ = montecarlo._noise_walks(noise, scan, jitter_ss, drift_ss)
        oracle = [np.broadcast_to(want, psi.shape) for want in output_intensities(
            replace(circuit, source_intensity=1.0), {"psi": psi + jitter, "phi": phi})]
        pairs = list(blocks)
        assert [rows for rows, _ in pairs] == _chunks.fold_blocks(scan.points)
        for rows, pair in pairs:
            for got, want in zip(pair, oracle, strict=True):
                # A chain that reads no psi gives each block one power per port.
                got = np.broadcast_to(got, want[rows].shape)
                assert got.dtype == np.float64
                assert np.array_equal(got.view(np.uint64), want[rows].view(np.uint64))

    # numpy runs a one-element array through its contiguous loops, which
    # can round the MZI's cos and sin otherwise than a longer block does.
    @pytest.mark.parametrize("block", [1, 2, 7, 8192])
    @pytest.mark.parametrize("points", [0, 1, 2, 3, 7, 8, 14, 15, 8192, 8193, 8194])
    def test_blocks_cover_the_scan_with_no_lone_bin(self, monkeypatch, block, points):
        monkeypatch.setattr(_chunks, "FOLD_POINTS", block)
        blocks = _chunks.fold_blocks(points)
        assert [i for rows in blocks for i in range(rows.start, rows.stop)] == list(range(points))
        assert all(rows.stop - rows.start >= min(2, points) for rows in blocks)
        assert all(rows.stop - rows.start <= max(2, block) + 1 for rows in blocks)

    def test_photon_count_columns_are_arrays_of_their_own(self):
        trace = SIMULATORS["photon"](block_scan(build_cbw_chain(2), 0.0, 8192 + 11), LAB_NOISE)
        for column in (trace.singles_d1, trace.singles_d2, trace.coincidences):
            assert column.base is None and column.dtype == np.int64


class TestSimulatorMemory:
    """Traced peak of each simulator beside the trace it returns, at 2e5 bins.

    The scan-long arrays beside the trace (the noise walks, the detected
    mean) are freed before the trace's axes are built.  The photon path
    has no port-power array: its draw takes each block's powers as the
    fold yields them, and a classical trace's power columns are the ones
    the fold fills.  So beside the trace a simulator holds one block at a
    time, as float64 words per bin of the block:

    * the fold: its 2x2 complex MZI stack (8), the field column and its
      update (8), the stage pair and the one before it (4) and the bin
      phases (1);
    * the draw: the Born ratio, the two firing probabilities and their
      temporaries (7), the four outcome probabilities and their stack (8)
      and the outcomes (4).

    That is under 32 words, 256 bytes, a bin of the block.  The trace's
    checks add ~20 bytes a row over 16 chunks of rows, and the seed
    sequence, generator and the trace's objects fit in 64 KiB.  One array
    kept over the scan would add at least 8 bytes a bin, 1.6 MB here.
    """

    POINTS = 200_000

    @staticmethod
    def peak_beside_trace(simulate) -> int:
        tracemalloc.start()
        try:
            trace = simulate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - sum(getattr(trace, f).nbytes for f in TRACE_FIELDS)

    @pytest.mark.parametrize("block", [1024, None], ids=["block-1024", "default-block"])
    @pytest.mark.parametrize("simulator", list(SIMULATORS))
    def test_the_peak_beside_the_trace_is_one_block(self, monkeypatch, simulator, block):
        if block is not None:
            monkeypatch.setattr(_chunks, "FOLD_POINTS", block)
        scan = block_scan(build_cbw_chain(2), 0.0, self.POINTS)
        bound = 256 * _chunks.FOLD_POINTS + 20 * 16 * CHUNK_ROWS + 64 * 1024
        assert self.peak_beside_trace(lambda: SIMULATORS[simulator](scan, LAB_NOISE)) <= bound


def analytic_sweep(scan):
    """The trace ``cbwsim analytic`` writes: the closed-form powers over the scan."""
    prediction = cbw_intensities(scan.psi_values(), 0.0, 2)
    return scan_trace(scan, SourceMode.CLASSICAL_INTENSITY, scan.psi_values(), prediction.i_upper,
                      prediction.i_lower, np.zeros(scan.points))


class TestScanTrace:
    def test_axes_come_from_the_scan(self):
        scan = ScanConfig(points=5, bin_duration=0.1, scan_duration=0.5)
        psi = scan.psi_values()
        trace = scan_trace(scan, SourceMode.CLASSICAL_INTENSITY, psi, np.ones(5), np.zeros(5),
                           np.zeros(5), 7, note="x")
        np.testing.assert_array_equal(trace.bin_index, np.arange(5))
        assert trace.bin_index.dtype == np.int64
        np.testing.assert_array_equal(trace.time, scan.times())
        np.testing.assert_array_equal(trace.voltage, scan.voltages())
        assert trace.psi is psi and trace.seed == 7
        assert trace.meta == {"scan": scan, "note": "x"}

    @pytest.mark.parametrize("d1, coinc, message", [
        (np.ones(4), np.zeros(5), "mismatched lengths"),
        (np.full(5, np.nan), np.zeros(5), "non-finite"),
        (np.ones(5), np.full(5, 2), "coincidences exceed singles"),
    ])
    def test_the_trace_is_validated(self, d1, coinc, message):
        scan = ScanConfig(points=5, bin_duration=0.1, scan_duration=0.5)
        with pytest.raises(ValueError, match=message):
            scan_trace(scan, SourceMode.PHOTON_COUNTING, scan.psi_values(), d1, np.ones(5), coinc)

    # The CSV writes bin indices and photon counts through int64, so a value
    # that is not a whole number within int64 would be written as another
    # number; the trace is refused instead, naming the field.
    @pytest.mark.parametrize("d1, d2, coinc, field", [
        ([3.7, 2, 1], [4, 4, 4], [0.9, 0, 0], "singles_d1"),
        ([3, 2, 1], [4, 4, 4], [0.9, 0, 0], "coincidences"),
        ([3, 2, 1], [4, 4.5, 4], [0, 0, 0], "singles_d2"),
        ([3, 2, 2.0**63], [4, 4, 2.0**63], [0, 0, 0], "singles_d1"),
        ([3, 2, 1], np.array([4, 4, 2**63], dtype=np.uint64), [0, 0, 0], "singles_d2"),
    ])
    def test_photon_counts_must_be_int64_whole_numbers(self, d1, d2, coinc, field):
        scan = ScanConfig(points=3, bin_duration=0.1, scan_duration=0.3)
        with pytest.raises(ValueError, match=f"^{field} must hold whole numbers within int64$"):
            scan_trace(scan, SourceMode.PHOTON_COUNTING, scan.psi_values(), np.asarray(d1),
                       np.asarray(d2), np.asarray(coinc))

    @pytest.mark.parametrize("mode", list(SourceMode))
    def test_bin_index_must_be_whole_numbers_in_both_modes(self, mode):
        trace = scan_trace(ScanConfig(points=3, bin_duration=0.1, scan_duration=0.3), mode,
                           np.zeros(3), np.ones(3), np.ones(3), np.zeros(3))
        trace.bin_index = np.array([0.0, 1.5, 2.0])
        with pytest.raises(ValueError, match="^bin_index must hold whole numbers within int64$"):
            trace.validate()

    def test_whole_float_counts_and_fractional_powers_pass(self):
        scan = ScanConfig(points=3, bin_duration=0.1, scan_duration=0.3)
        scan_trace(scan, SourceMode.PHOTON_COUNTING, scan.psi_values(), np.array([3.0, 2.0, 1.0]),
                   np.array([4.0, 4.0, 2.0**62]), np.array([1.0, 0.0, 0.0]))
        scan_trace(scan, SourceMode.CLASSICAL_INTENSITY, scan.psi_values(), np.array([3.7, 0.5, 1e-300]),
                   np.array([0.25, 4.0, 2.0**70]), np.zeros(3))

    @pytest.mark.parametrize("points", [2, CHUNK_ROWS * 16 + 1, CHUNK_ROWS * 40])
    @pytest.mark.parametrize("simulate", [
        lambda scan: simulate_scan_counts(scan, photon_source(0.3, 1e-6), LAB_NOISE, seed=2),
        lambda scan: simulate_classical_trace(scan, LAB_NOISE, seed=2),
        lambda scan: analytic_sweep(scan),
    ], ids=["photon", "classical", "analytic"])
    def test_every_simulator_output_validates(self, simulate, points):
        trace = simulate(ScanConfig(points=points, bin_duration=1e-3, scan_duration=points * 1e-3))
        trace.validate()
        assert len(trace) == points

    # Each check runs over every block before the next check starts, so the
    # first failing check is reported whatever block its row falls in.
    def test_checks_keep_their_order_across_blocks(self):
        n = CHUNK_ROWS * 16 + 5
        scan = ScanConfig(points=n, bin_duration=1e-3, scan_duration=n * 1e-3)
        d1, coinc = np.ones(n), np.zeros(n)
        d1[3] = -1.0
        psi = scan.psi_values()
        psi[-1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            scan_trace(scan, SourceMode.PHOTON_COUNTING, psi, d1, np.ones(n), coinc)
        coinc[2] = 0.5
        d1[3], d1[-1] = 1.0, -1.0
        with pytest.raises(ValueError, match="negative counts"):
            scan_trace(scan, SourceMode.PHOTON_COUNTING, scan.psi_values(), d1, np.ones(n), coinc)


class TestUnboundParameters:
    @pytest.mark.parametrize("simulate", [
        lambda scan, noise, seed: simulate_scan_counts(scan, photon_source(0.1, 1e-6), noise, seed),
        simulate_classical_trace,
    ], ids=["photon", "classical"])
    def test_every_unbound_name_raised_before_sampling(self, monkeypatch, simulate):
        ast = CircuitAst(1.0, (ElementNode(ElementKind.MZI, Arm.LOWER, "psi", "A"),
                               ElementNode(ElementKind.PHASE, Arm.UPPER, "theta"),
                               ElementNode(ElementKind.PHASE, Arm.UPPER, "phi"),
                               ElementNode(ElementKind.MZI, Arm.UPPER, "alpha", "B")), ("a", "b"))
        scan = ScanConfig(points=4, bin_duration=0.001, scan_duration=0.004, circuit=ast)

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the parameter check")

        monkeypatch.setattr(montecarlo, "_noise_walks", no_sampling)
        with pytest.raises(UnboundParameterError) as info:
            simulate(scan, QUIET, seed=0)
        assert info.value.names == ("alpha", "theta")
        assert str(info.value) == "unbound circuit parameters 'alpha', 'theta'"


class TestCoincidenceDoubling:
    def test_coincidence_fringe_frequency_is_twice_the_singles(self):
        # Doubled chain: singles go as cos(2 psi), AND-gate coincidences as
        # sin(2 psi)^2, i.e. twice the singles' fringe frequency.
        scan = ScanConfig(points=512, bin_duration=1e-2, scan_duration=5.12, cycles_per_ramp=5.0)
        trace = simulate_scan_counts(scan, photon_source(0.3, 1e-6), QUIET, seed=6)
        k_singles = int(np.argmax(np.abs(np.fft.rfft(trace.singles_d1 - trace.singles_d1.mean())[1:]))) + 1
        k_coinc = int(np.argmax(np.abs(np.fft.rfft(trace.coincidences - trace.coincidences.mean())[1:]))) + 1
        assert k_singles == 10
        assert k_coinc == 2 * k_singles


class TestCoincidenceFraction:
    def test_empty_trace_gives_zero(self):
        trace = CountTrace(
            mode=SourceMode.PHOTON_COUNTING,
            bin_index=np.zeros(0, dtype=np.int64), time=np.zeros(0), voltage=np.zeros(0),
            psi=np.zeros(0), singles_d1=np.zeros(0, dtype=np.int64),
            singles_d2=np.zeros(0, dtype=np.int64), coincidences=np.zeros(0, dtype=np.int64))
        assert coincidence_fraction(trace) == 0.0

    def test_validate_catches_impossible_counts(self):
        trace = CountTrace(
            mode=SourceMode.PHOTON_COUNTING,
            bin_index=np.array([0]), time=np.array([0.0]), voltage=np.array([0.0]),
            psi=np.array([0.0]), singles_d1=np.array([1]), singles_d2=np.array([1]),
            coincidences=np.array([2]))
        with pytest.raises(ValueError):
            trace.validate()
