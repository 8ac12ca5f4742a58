"""Stochastic photon-counting simulation of a scanned interferometer chain.

Time is discretised on two levels: coincidence windows (the AND-gate
resolution of the counting unit, default 10 ns) are aggregated into
acquisition bins (default 0.1 s).  Per window the attenuated source emits
``k ~ Poisson(lam)`` photons; each photon independently survives with the
detector efficiency and lands on detector 1 with the Born-rule probability
``I_upper / (I_upper + I_lower)`` evaluated from the circuit at that bin's
phase.  A detector "fires" if at least one photon (or dark count) reaches
it inside the window; a coincidence is both detectors firing in the same
window.

:func:`sample_window` and :func:`route_photons` define that per-window
model one draw at a time; they are the test oracle.  The scan simulator
draws bin totals directly.  By Poisson thinning the two detectors'
photon numbers are independent, ``n_i ~ Poisson(lam*eff*p_i + p_dark)``,
so detector ``i`` fires with ``q_i = 1 - exp(-(lam*eff*p_i + p_dark))``
independently of the other.  Within a bin the windows are iid, so the
counts of the four window outcomes (both, d1 only, d2 only, neither) are
exactly ``Multinomial(windows, [q1*q2, q1*(1-q2), (1-q1)*q2,
(1-q1)*(1-q2)])``; one vectorised draw covers every bin of a scan, at a
cost independent of the number of windows.  A bin may hold at most
:data:`MAX_WINDOWS_PER_BIN` (2**53) windows; larger
``bin_duration / window_duration`` ratios are a :class:`ConfigError`.

Reproducibility: the master seed feeds a ``numpy.random.SeedSequence``
whose three spawned children are assigned, in order, to the phase-jitter
walk, the intensity-drift walk and the counts.  There are no per-bin
streams and no threads, so a seed fixes the whole trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import circuit as circuit_mod
from .config import ConfigError, NoiseModel, ScanConfig, SourceMode, SourceModel

__all__ = [
    "MAX_WINDOWS_PER_BIN",
    "CountTrace",
    "coincidence_fraction",
    "route_photons",
    "sample_window",
    "simulate_classical_trace",
    "simulate_scan_counts",
]

@dataclass
class CountTrace:
    """Per-bin detector record of one simulated scan.

    In photon-counting mode ``singles_d1``/``singles_d2``/``coincidences``
    are integer window counts; in classical mode the singles fields hold
    continuous output powers and coincidences are zero.  ``psi`` is the
    nominal (commanded) phase per bin -- phase jitter is applied to the
    physics but is not observable, exactly as in the lab.
    """

    mode: SourceMode
    bin_index: np.ndarray
    time: np.ndarray
    voltage: np.ndarray
    psi: np.ndarray
    singles_d1: np.ndarray
    singles_d2: np.ndarray
    coincidences: np.ndarray
    seed: int | None = None
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.bin_index)

    def validate(self) -> None:
        arrays = (self.bin_index, self.time, self.voltage, self.psi,
                  self.singles_d1, self.singles_d2, self.coincidences)
        if len({len(a) for a in arrays}) > 1:
            raise ValueError("trace arrays have mismatched lengths")
        if not all(np.all(np.isfinite(a)) for a in arrays):
            raise ValueError("non-finite values in trace")
        if np.any(self.singles_d1 < 0) or np.any(self.singles_d2 < 0) or np.any(self.coincidences < 0):
            raise ValueError("negative counts in trace")
        if self.mode is SourceMode.PHOTON_COUNTING:
            if np.any(self.coincidences > np.minimum(self.singles_d1, self.singles_d2)):
                raise ValueError("coincidences exceed singles in some bin")


def sample_window(lam: float, rng: np.random.Generator) -> int:
    """Draw one per-window photon number from Poisson(``lam``).

    Uses inversion by sequential search, which is exact for the small
    means used here (lam < 10 throughout).
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    u = rng.random()
    p = np.exp(-lam)
    cumulative = p
    k = 0
    while u > cumulative:
        k += 1
        p *= lam / k
        cumulative += p
    return k


def route_photons(k: int, p_upper: float, efficiency: float, rng: np.random.Generator):
    """Route ``k`` photons to the detectors; return which ones fired.

    Each photon independently survives with probability ``efficiency`` and
    lands on detector 1 with probability ``p_upper``, else on detector 2.
    Returns ``(d1_fired, d2_fired)`` -- whether each detector saw at least
    one photon this window.
    """
    if not (0.0 <= p_upper <= 1.0):
        raise ValueError("p_upper must lie in [0, 1]")
    if not (0.0 <= efficiency <= 1.0):
        raise ValueError("efficiency must lie in [0, 1]")
    d1 = d2 = False
    for _ in range(k):
        if efficiency < 1.0 and rng.random() >= efficiency:
            continue
        if rng.random() < p_upper:
            d1 = True
        else:
            d2 = True
    return d1, d2


# Largest number of coincidence windows per bin: 2**53, below which every
# count is exact as a float64 and fits the int64 the multinomial draw takes.
MAX_WINDOWS_PER_BIN = 2**53


def _windows_per_bin(scan: ScanConfig, source: SourceModel) -> int:
    ratio = scan.bin_duration / source.window_duration
    if not ratio <= MAX_WINDOWS_PER_BIN:
        raise ConfigError(
            f"bin_duration / window_duration = {ratio:g} windows per bin; "
            f"at most 2**53 = {MAX_WINDOWS_PER_BIN} are supported"
        )
    windows = int(round(ratio))
    if windows < 1 or abs(ratio - windows) > 1e-6 * max(windows, 1):
        raise ConfigError(
            f"bin_duration ({scan.bin_duration}) must be an integer multiple "
            f"of window_duration ({source.window_duration})"
        )
    return windows


# The only circuit parameters a scan can bind: the scanned and the control phase.
_SCAN_PARAMETERS = frozenset({"psi", "phi"})


def _require_scan_parameters(ast: circuit_mod.CircuitAst) -> None:
    """Raise :class:`~cbwsim.circuit.UnboundParameterError` naming every
    parameter of ``ast`` other than ``psi``/``phi``; called before sampling."""
    unbound = ast.parameters - _SCAN_PARAMETERS
    if unbound:
        raise circuit_mod.UnboundParameterError(*sorted(unbound))


def _noise_walks(noise: NoiseModel, scan: ScanConfig, jitter_ss, drift_ss, points: int):
    """Pre-generate the sequential phase-jitter and intensity-drift walks."""
    if noise.phase_jitter_sigma > 0 and points:
        step = noise.phase_jitter_sigma * np.sqrt(scan.bin_duration / noise.phase_jitter_correlation)
        jitter = np.cumsum(np.random.Generator(np.random.PCG64(jitter_ss)).normal(0.0, step, points))
    else:
        jitter = np.zeros(points)
    if noise.intensity_drift_fraction > 0 and points:
        steps = np.random.Generator(np.random.PCG64(drift_ss)).normal(0.0, 1.0, points)
        drift = 1.0 + np.cumsum(steps) * (noise.intensity_drift_fraction / np.sqrt(points))
        drift = np.clip(drift, 0.0, None)
    else:
        drift = np.ones(points)
    return jitter, drift


def _born_probabilities(ast, psi_actual, phi, drift):
    i_upper, i_lower = circuit_mod.output_intensities(ast, {"psi": psi_actual, "phi": phi})
    i_upper = np.atleast_1d(np.asarray(i_upper, dtype=float)) * drift
    i_lower = np.atleast_1d(np.asarray(i_lower, dtype=float)) * drift
    total = i_upper + i_lower
    p_upper = np.divide(i_upper, total, out=np.full_like(total, 0.5), where=total > 0)
    return np.clip(p_upper, 0.0, 1.0), i_upper, i_lower


def simulate_scan_counts(
    ast: circuit_mod.CircuitAst,
    scan: ScanConfig,
    source: SourceModel,
    noise: NoiseModel,
    seed: int,
) -> CountTrace:
    """Simulate a full photon-counting scan of ``ast`` over the PZT ramp.

    Per bin: the PZT model (plus the accumulated phase-jitter walk) sets
    the phase, the chain sets the Born routing probability, and the bin's
    ``bin_duration / window_duration`` coincidence windows are drawn as
    one multinomial over the four window outcomes.  Deterministic for a
    given seed.
    """
    if source.mode is not SourceMode.PHOTON_COUNTING:
        raise ConfigError("simulate_scan_counts requires a photon-counting source")
    _require_scan_parameters(ast)
    windows = _windows_per_bin(scan, source) if scan.points else 0
    points = scan.points

    jitter_ss, drift_ss, counts_ss = np.random.SeedSequence(seed).spawn(3)
    jitter, drift = _noise_walks(noise, scan, jitter_ss, drift_ss, points)

    psi_nominal = scan.psi_values()
    p_upper, _, _ = _born_probabilities(ast, psi_nominal + jitter, scan.phi, drift)
    detected = source.mean_photons_per_window * drift * noise.detector_efficiency
    p_dark = noise.dark_rate * source.window_duration
    q1 = -np.expm1(-(detected * p_upper + p_dark))
    q2 = -np.expm1(-(detected * (1.0 - p_upper) + p_dark))
    pvals = np.stack([q1 * q2, q1 * (1.0 - q2), (1.0 - q1) * q2, (1.0 - q1) * (1.0 - q2)], axis=1)
    outcomes = np.random.Generator(np.random.PCG64(counts_ss)).multinomial(windows, pvals)
    coincidences = outcomes[:, 0]
    singles_d1 = coincidences + outcomes[:, 1]
    singles_d2 = coincidences + outcomes[:, 2]

    trace = CountTrace(
        mode=SourceMode.PHOTON_COUNTING,
        bin_index=np.arange(points, dtype=np.int64),
        time=scan.times(),
        voltage=scan.voltages(),
        psi=psi_nominal,
        singles_d1=singles_d1,
        singles_d2=singles_d2,
        coincidences=coincidences,
        seed=seed,
        meta={"scan": scan, "source": source, "noise": noise, "windows_per_bin": windows},
    )
    trace.validate()
    return trace


def simulate_classical_trace(
    ast: circuit_mod.CircuitAst,
    scan: ScanConfig,
    source: SourceModel,
    noise: NoiseModel,
    seed: int,
) -> CountTrace:
    """Record continuous output powers over the scan (cw laser input).

    The fringe shape is identical to the photon-counting expectation; only
    the record differs: per-bin powers in the singles fields, coincidences
    zero.  Phase jitter and intensity drift apply; detector efficiency and
    dark counts are photon-counting concepts and do not.
    """
    if source.mode is not SourceMode.CLASSICAL_INTENSITY:
        raise ConfigError("simulate_classical_trace requires a classical-intensity source")
    _require_scan_parameters(ast)
    points = scan.points

    jitter_ss, drift_ss = np.random.SeedSequence(seed).spawn(2)
    jitter, drift = _noise_walks(noise, scan, jitter_ss, drift_ss, points)
    psi_nominal = scan.psi_values()
    _, i_upper, i_lower = _born_probabilities(ast, psi_nominal + jitter, scan.phi, drift)

    trace = CountTrace(
        mode=SourceMode.CLASSICAL_INTENSITY,
        bin_index=np.arange(points, dtype=np.int64),
        time=scan.times(),
        voltage=scan.voltages(),
        psi=psi_nominal,
        singles_d1=i_upper,
        singles_d2=i_lower,
        coincidences=np.zeros(points),
        seed=seed,
        meta={"scan": scan, "source": source, "noise": noise},
    )
    trace.validate()
    return trace


def coincidence_fraction(trace: CountTrace) -> float:
    """Coincidences per window with at least one detection event.

    ``sum(coinc) / sum(d1 + d2 - coinc)`` -- the denominator counts
    windows where any detector fired, so with perfect detectors this
    estimates the same quantity as
    :func:`cbwsim.analytic.expected_coincidence_fraction`.
    """
    coinc = float(np.sum(trace.coincidences))
    union = float(np.sum(trace.singles_d1) + np.sum(trace.singles_d2)) - coinc
    if union <= 0:
        return 0.0
    return coinc / union
