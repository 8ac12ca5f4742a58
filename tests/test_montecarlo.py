import numpy as np
import pytest

from cbwsim import montecarlo
from cbwsim.analytic import expected_coincidence_fraction
from cbwsim.circuit import CircuitAst, ElementKind, ElementNode, UnboundParameterError, build_cbw_chain
from cbwsim.config import ConfigError, NoiseModel, PztCalibration, ScanConfig, SourceMode, SourceModel
from cbwsim.montecarlo import (
    CountTrace,
    coincidence_fraction,
    route_photons,
    sample_window,
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
    return SourceModel(mean_photons_per_window=lam, window_duration=window, mode=SourceMode.PHOTON_COUNTING)


def classical_source():
    return SourceModel(mode=SourceMode.CLASSICAL_INTENSITY)


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
            build_cbw_chain(2, 0.0),
            ScanConfig(points=64, bin_duration=0.001, scan_duration=0.064),
            photon_source(0.2, 1e-6), QUIET, seed=3)
        assert len(trace) == 64
        trace.validate()
        assert np.all(trace.coincidences <= np.minimum(trace.singles_d1, trace.singles_d2))
        assert trace.mode is SourceMode.PHOTON_COUNTING

    def test_windows_per_bin_cap(self):
        # window_duration 1 s makes bin_duration the exact window count.
        source = photon_source(0.04, 1.0)
        cap = montecarlo.MAX_WINDOWS_PER_BIN
        assert cap == 2**53
        trace = simulate_scan_counts(
            build_cbw_chain(2, 0.0), ScanConfig(points=2, bin_duration=float(cap),
                                                scan_duration=2.0 * cap),
            source, QUIET, seed=1)
        assert trace.meta["windows_per_bin"] == cap
        assert np.all(trace.singles_d1 + trace.singles_d2 - trace.coincidences <= cap)
        above = float(cap) + 2.0  # the next double after 2**53
        with pytest.raises(ConfigError, match=r"2\*\*53"):
            simulate_scan_counts(
                build_cbw_chain(2, 0.0), ScanConfig(points=2, bin_duration=above,
                                                    scan_duration=2.0 * above),
                source, QUIET, seed=1)

    def test_seed_determinism_and_worker_independence(self):
        scan = ScanConfig(points=40, bin_duration=0.001, scan_duration=0.04)
        chain = build_cbw_chain(2, 0.0)
        noise = NoiseModel(phase_jitter_sigma=0.05, intensity_drift_fraction=0.02, dark_rate=100.0)
        kwargs = dict(scan=scan, source=photon_source(0.3, 1e-6), noise=noise, seed=77)
        a = simulate_scan_counts(chain, **kwargs)
        b = simulate_scan_counts(chain, **kwargs)
        c = simulate_scan_counts(chain, **kwargs)
        for field in ("singles_d1", "singles_d2", "coincidences", "psi", "voltage", "time"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
            np.testing.assert_array_equal(getattr(a, field), getattr(c, field))

    def test_singles_rate_matches_thinned_poisson(self):
        # Noise off, efficiency 1: windows fire as Bernoulli(1 - exp(-lam*p)).
        lam, windows, points = 0.05, 10_000, 128
        chain = build_cbw_chain(1, 0.0)
        scan = ScanConfig(points=points, bin_duration=1e-2, scan_duration=points * 1e-2)
        trace = simulate_scan_counts(chain, scan, photon_source(lam, 1e-6), QUIET, seed=11)
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
        trace = simulate_scan_counts(scan.circuit, scan, photon_source(lam), QUIET, seed=29)
        fraction = coincidence_fraction(trace)
        expected = expected_coincidence_fraction(lam, p_upper, 1.0 - p_upper)
        union = float(trace.singles_d1.sum() + trace.singles_d2.sum() - trace.coincidences.sum())
        sigma = np.sqrt(expected * (1.0 - expected) / union)
        assert abs(fraction - expected) < 3.0 * sigma

    def test_symmetric_chain_has_no_true_coincidences(self):
        # Control phase pi routes all light to one port: only dark counts
        # could coincide, and they are off here.
        chain = build_cbw_chain(2, np.pi)
        scan = ScanConfig(points=32, bin_duration=0.001, scan_duration=0.032, phi=np.pi)
        trace = simulate_scan_counts(chain, scan, photon_source(0.5, 1e-6), QUIET, seed=13)
        assert np.all(trace.coincidences == 0)
        assert np.all(trace.singles_d2 == 0)
        assert np.all(trace.singles_d1 > 0)

    def test_dark_counts_fire_dark_port(self):
        chain = build_cbw_chain(2, np.pi)
        scan = ScanConfig(points=32, bin_duration=0.001, scan_duration=0.032, phi=np.pi)
        noisy = NoiseModel(dark_rate=5000.0)
        trace = simulate_scan_counts(chain, scan, photon_source(0.5, 1e-6), noisy, seed=13)
        assert trace.singles_d2.sum() > 0

    def test_bin_must_be_integer_multiple_of_window(self):
        chain = build_cbw_chain(1, 0.0)
        scan = ScanConfig(points=4, bin_duration=0.0015, scan_duration=0.006)
        with pytest.raises(ConfigError):
            simulate_scan_counts(chain, scan, photon_source(0.1, 1e-3 / 1.5001), QUIET, seed=0)

    def test_rejects_classical_source(self):
        chain = build_cbw_chain(1, 0.0)
        scan = ScanConfig(points=4, bin_duration=0.001, scan_duration=0.004)
        with pytest.raises(ConfigError):
            simulate_scan_counts(chain, scan, classical_source(), QUIET, seed=0)


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
        return simulate_scan_counts(scan.circuit, scan, photon_source(self.LAM, self.WINDOW),
                                    noise, seed=seed)

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
        chain = build_cbw_chain(2, 0.0)
        scan = ScanConfig(points=512, bin_duration=0.1, scan_duration=51.2)
        trace = simulate_classical_trace(chain, scan, classical_source(), QUIET, seed=0)
        expected = (1.0 + np.cos(2.0 * trace.psi)) / 2.0
        assert np.max(np.abs(trace.singles_d1 - expected)) < 1e-12
        assert np.max(np.abs(trace.singles_d2 - (1.0 - expected))) < 1e-12
        assert np.all(trace.coincidences == 0)
        assert trace.mode is SourceMode.CLASSICAL_INTENSITY

    def test_zero_duration_scan_is_empty(self):
        chain = build_cbw_chain(2, 0.0)
        scan = ScanConfig(points=0, scan_duration=0.0)
        trace = simulate_classical_trace(chain, scan, classical_source(), QUIET, seed=0)
        assert len(trace) == 0

    def test_normalized_classical_agrees_with_photon_expectation(self):
        # Born-rule equivalence: the classical powers predict the photon
        # counting rates bin by bin within statistics.
        lam, windows, points = 0.5, 20_000, 128
        chain = build_cbw_chain(2, 0.0)
        scan = ScanConfig(points=points, bin_duration=2e-2, scan_duration=points * 2e-2)
        classical = simulate_classical_trace(chain, scan, classical_source(), QUIET, seed=1)
        photon = simulate_scan_counts(chain, scan, photon_source(lam, 1e-6), QUIET, seed=8)
        p_gamma = classical.singles_d1 / (classical.singles_d1 + classical.singles_d2)
        for observed, p in ((photon.singles_d1, p_gamma), (photon.singles_d2, 1.0 - p_gamma)):
            q = 1.0 - np.exp(-lam * p)
            sigma = np.sqrt(np.maximum(windows * q * (1.0 - q), 1e-12))
            z = (observed - windows * q) / sigma
            assert np.max(np.abs(z)) < 3.0

    def test_rejects_photon_source(self):
        chain = build_cbw_chain(1, 0.0)
        scan = ScanConfig(points=4, bin_duration=0.001, scan_duration=0.004)
        with pytest.raises(ConfigError):
            simulate_classical_trace(chain, scan, photon_source(0.1), QUIET, seed=0)


class TestUnboundParameters:
    @pytest.mark.parametrize("simulate, source", [
        (simulate_scan_counts, photon_source(0.1, 1e-6)),
        (simulate_classical_trace, classical_source()),
    ])
    def test_every_unbound_name_raised_before_sampling(self, monkeypatch, simulate, source):
        ast = CircuitAst(1.0, (ElementNode(ElementKind.MZI, Arm.LOWER, "psi", "A"),
                               ElementNode(ElementKind.PHASE, Arm.UPPER, "theta"),
                               ElementNode(ElementKind.PHASE, Arm.UPPER, "phi"),
                               ElementNode(ElementKind.MZI, Arm.UPPER, "alpha", "B")), ("a", "b"))
        scan = ScanConfig(points=4, bin_duration=0.001, scan_duration=0.004)

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the parameter check")

        monkeypatch.setattr(montecarlo, "_noise_walks", no_sampling)
        with pytest.raises(UnboundParameterError) as info:
            simulate(ast, scan, source, QUIET, seed=0)
        assert info.value.names == ("alpha", "theta")
        assert str(info.value) == "unbound circuit parameters 'alpha', 'theta'"


class TestCoincidenceDoubling:
    def test_coincidence_fringe_frequency_is_twice_the_singles(self):
        # Doubled chain: singles go as cos(2 psi), AND-gate coincidences as
        # sin(2 psi)^2, i.e. twice the singles' fringe frequency.
        chain = build_cbw_chain(2, 0.0)
        scan = ScanConfig(points=512, bin_duration=1e-2, scan_duration=5.12,
                          calibration=PztCalibration(5.0))
        trace = simulate_scan_counts(chain, scan, photon_source(0.3, 1e-6), QUIET, seed=6)
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
