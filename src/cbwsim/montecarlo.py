"""Stochastic photon-counting simulation of a scanned interferometer chain.

Time is discretised on two levels: coincidence windows (the AND-gate
resolution of the counting unit, default 10 ns) are aggregated into
acquisition bins (default 0.1 s).  Per window the attenuated source emits
``k ~ Poisson(lam)`` photons; each photon independently survives with the
detector efficiency and lands on detector 1 with the Born-rule probability
``I_upper / (I_upper + I_lower)`` evaluated from the circuit at that bin's
phase.  The chain is evaluated once per bin, as port powers per unit
input, a block of :func:`cbwsim._chunks.fold_blocks` at a time; the
intensity-drift walk scales the source's mean photon number (or a cw
trace's power) once and never enters the routing.  A detector "fires" if
at least one photon (or dark count) reaches it inside the window; a
coincidence is both detectors firing in the same window.

:func:`sample_window` and :func:`route_photons` define that per-window
model one draw at a time; they are the test oracle.  The scan simulator
draws bin totals directly.  By Poisson thinning the two detectors'
photon numbers are independent, ``n_i ~ Poisson(lam*eff*p_i + p_dark)``,
so detector ``i`` fires with ``q_i = 1 - exp(-(lam*eff*p_i + p_dark))``
independently of the other.  Within a bin the windows are iid, so the
counts of the four window outcomes (both, d1 only, d2 only, neither) are
exactly ``Multinomial(windows, [q1*q2, q1*(1-q2), (1-q1)*q2,
(1-q1)*(1-q2)])``; one vectorised draw covers each block of bins, at a
cost independent of the number of windows.  A bin may hold at most
:data:`MAX_WINDOWS_PER_BIN` (2**53) windows; larger
``bin_duration / window_duration`` ratios are a :class:`ConfigError`.
Both simulators evaluate ``scan.circuit`` of the :class:`ScanConfig` they
are given, with ``scan.phi`` bound to its ``phi`` parameter, so a trace's
``meta["scan"]`` names the chain that ran.  The simulator called is the
kind of record: :func:`simulate_scan_counts` counts photons,
:func:`simulate_classical_trace` records cw powers.  :func:`scan_trace`
builds every trace over a scan's bins, both simulators' and the
``analytic`` sweep's.

Reproducibility: the master seed feeds a ``numpy.random.SeedSequence``
whose three spawned children are assigned, in order, to the phase-jitter
walk, the intensity-drift walk and the counts (a classical trace draws no
counts and leaves the third unused).  There are no per-bin
streams and no threads, so a seed fixes the whole trace.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from . import circuit as circuit_mod
from ._chunks import CHUNK_ROWS, fold_blocks, row_chunks
from .config import ConfigError, NoiseModel, ScanConfig, SourceMode, SourceModel

__all__ = [
    "MAX_WINDOWS_PER_BIN",
    "CountTrace",
    "coincidence_fraction",
    "route_photons",
    "sample_window",
    "scan_trace",
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
    physics but is not observable, exactly as in the lab.  ``time`` and
    ``voltage`` are None in a trace read without them
    (``read_trace_csv(path, axes=False)``).
    """

    mode: SourceMode
    bin_index: np.ndarray
    time: np.ndarray | None
    voltage: np.ndarray | None
    psi: np.ndarray
    singles_d1: np.ndarray
    singles_d2: np.ndarray
    coincidences: np.ndarray
    seed: int | None = None
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.bin_index)

    def validate(self) -> None:
        """Raise ``ValueError`` unless the fields that are present (``time``
        and ``voltage`` may be None) have one length and hold finite values,
        non-negative counts, whole-number bin indices (and, in photon mode,
        whole-number counts, no more coincidences than either singles
        count) that int64 holds exactly.

        Each check runs on 16 chunks of rows at a time, so checking
        allocates nothing that grows with the trace.  A check holds at most
        ~20 bytes per row (a float and two masks), so 16 chunks' rows take
        less than one chunk of CSV text, in a sixteenth of the numpy calls.
        """
        arrays = [a for a in (self.bin_index, self.time, self.voltage, self.psi,
                              self.singles_d1, self.singles_d2, self.coincidences)
                  if a is not None]
        if len({len(a) for a in arrays}) > 1:
            raise ValueError("trace arrays have mismatched lengths")

        windows = list(row_chunks(len(self), 16 * CHUNK_ROWS))

        def holds(test, *columns) -> bool:
            for rows in windows:
                if not test(*(np.asarray(c[rows]) for c in columns)).all():
                    return False
            return True

        # A check that no value of a column's dtype can fail is skipped:
        # integers and bools hold no NaN or infinity, unsigned integers and
        # bools no negative count, and signed integers and bools only whole
        # numbers within int64.
        def kind(values) -> str:
            return np.asarray(values).dtype.kind

        if any(kind(a) not in "biu" and not holds(np.isfinite, a) for a in arrays):
            raise ValueError("non-finite values in trace")
        counts = {"singles_d1": self.singles_d1, "singles_d2": self.singles_d2,
                  "coincidences": self.coincidences}
        if any(kind(a) not in "bu" and not holds(lambda v: v >= 0, a) for a in counts.values()):
            raise ValueError("negative counts in trace")
        photon = self.mode is SourceMode.PHOTON_COUNTING
        for name, values in {"bin_index": self.bin_index, **(counts if photon else {})}.items():
            if kind(values) not in "bi" and not holds(_whole_int64, values):
                raise ValueError(f"{name} must hold whole numbers within int64")
        if photon and not holds(lambda c, d1, d2: (c <= d1) & (c <= d2),
                                self.coincidences, self.singles_d1, self.singles_d2):
            raise ValueError("coincidences exceed singles in some bin")


def _whole_int64(values: np.ndarray) -> np.ndarray:
    """Where ``values``, unsigned integers or floats, are whole numbers that
    int64 holds exactly (the CSV writes integer columns through int64)."""
    if values.dtype.kind == "u":
        return values <= np.iinfo(np.int64).max
    return (np.trunc(values) == values) & (np.abs(values) < 2.0**63)


def sample_window(lam: float, rng: np.random.Generator) -> int:
    """Draw one per-window photon number from Poisson(``lam``).

    Uses inversion by sequential search, which is exact for the small
    means used here (lam < 10 throughout).  ``lam`` must be positive and
    small enough (about 708 at most) that ``exp(-lam)`` is a normal double:
    past that the cumulative sum starts at 0 and never reaches ``u``.
    """
    if not 0 < lam < np.inf:
        raise ValueError(f"lam must be positive and finite, got {lam!r}")
    p = np.exp(-lam)
    if p < np.finfo(float).tiny:
        raise ValueError(f"lam {lam!r} is too large: exp(-lam) is not a normal double")
    u = rng.random()
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
    if windows < 1 or abs(ratio - windows) > 1e-6 * windows:
        raise ConfigError(
            f"bin_duration ({scan.bin_duration}) must be an integer multiple "
            f"of window_duration ({source.window_duration})"
        )
    return windows


def _noise_walks(noise: NoiseModel, scan: ScanConfig, jitter_ss, drift_ss):
    """Pre-generate the sequential phase-jitter and intensity-drift walks
    over ``scan``'s bins.

    A walk that overflows a double is a :class:`ConfigError` naming the
    noise field that drives it.
    """
    points = scan.points
    with np.errstate(over="ignore", invalid="ignore"):
        if noise.phase_jitter_sigma > 0 and points:
            step = noise.phase_jitter_sigma * np.sqrt(scan.bin_duration / noise.phase_jitter_correlation)
            jitter = np.cumsum(np.random.Generator(np.random.PCG64(jitter_ss)).normal(0.0, step, points))
        else:
            jitter = np.zeros(points)
        if noise.intensity_drift_fraction > 0 and points:
            steps = np.random.Generator(np.random.PCG64(drift_ss)).normal(0.0, 1.0, points)
            drift = 1.0 + np.cumsum(steps) * (noise.intensity_drift_fraction / np.sqrt(points))
        else:
            drift = np.ones(points)
    if not np.all(np.isfinite(jitter)):
        raise ConfigError(f"phase_jitter_sigma {noise.phase_jitter_sigma!r} with phase_jitter_correlation "
                          f"{noise.phase_jitter_correlation!r} overflows the phase-jitter walk")
    if not np.all(np.isfinite(drift)):
        raise ConfigError(f"intensity_drift_fraction {noise.intensity_drift_fraction!r} "
                          "overflows the intensity-drift walk")
    return jitter, np.clip(drift, 0.0, None)


def _scan_chain(scan: ScanConfig, noise: NoiseModel, seed: int):
    """What both simulators share: check the circuit, draw the noise walks and
    evaluate the chain at the jittered phases.  Returns ``(psi_nominal,
    drift, blocks, counts_ss)``: ``blocks`` yields ``(rows, (upper,
    lower))``, each block's rows and undrifted port powers per unit input,
    also where the chain reads no ``psi``; each simulator scales its source
    by ``drift`` once.  A parameter other than ``psi``/``phi`` raises
    :class:`~cbwsim.circuit.UnboundParameterError`, naming each, before any
    draw.

    The bins are cut once by :func:`~cbwsim._chunks.fold_blocks`.  As
    ``blocks`` is read, one column fold (``circuit.output_intensities(...,
    stages=True)``, the last pair of each block) reads each block's
    jittered ``psi`` from a generator and binds ``phi`` once for the scan.
    So the scan holds one block's jittered phases, matrix stack and field
    column, not an ``(N, 2, 2)`` product.  The fold's last pair has the
    bits of the whole chain's ``output_intensities``, so the block size
    changes no bit.
    """
    unbound = scan.circuit.parameters - {"psi", "phi"}
    if unbound:
        raise circuit_mod.UnboundParameterError(*sorted(unbound))
    jitter_ss, drift_ss, counts_ss = np.random.SeedSequence(seed).spawn(3)
    jitter, drift = _noise_walks(noise, scan, jitter_ss, drift_ss)
    psi_nominal = scan.psi_values()
    chain = replace(scan.circuit, source_intensity=1.0)
    blocks = fold_blocks(scan.points)
    psi = (psi_nominal[rows] + jitter[rows] for rows in blocks)
    folds = circuit_mod.output_intensities(chain, {"psi": psi, "phi": scan.phi}, stages=True)
    # The last stage's pair is the whole chain's.  The fold leads the zip, so
    # it runs out after the last block and frees the jitter walk psi holds.
    pairs = ((rows, deque(stages, maxlen=1).pop()) for stages, rows in zip(folds, blocks))
    return psi_nominal, drift, pairs, counts_ss


def scan_trace(scan: ScanConfig, mode: SourceMode, psi, singles_d1, singles_d2, coincidences,
               seed: int | None = None, **meta) -> CountTrace:
    """The validated trace over ``scan``'s bins: bin index, times and
    voltages come from ``scan``, which ``meta`` also records."""
    trace = CountTrace(mode=mode, bin_index=np.arange(scan.points, dtype=np.int64),
                       time=scan.times(), voltage=scan.voltages(), psi=psi,
                       singles_d1=singles_d1, singles_d2=singles_d2, coincidences=coincidences,
                       seed=seed, meta={"scan": scan, **meta})
    trace.validate()
    return trace


def simulate_scan_counts(
    scan: ScanConfig,
    source: SourceModel,
    noise: NoiseModel,
    seed: int,
) -> CountTrace:
    """Simulate a full photon-counting scan of ``scan.circuit`` over the PZT ramp.

    Per bin: the PZT model (plus the accumulated phase-jitter walk) sets
    the phase, the chain sets the Born routing probability, and the bin's
    ``bin_duration / window_duration`` coincidence windows are drawn as
    one multinomial over the four window outcomes.  Deterministic for a
    given seed.  A mean photon number that the intensity drift overflows
    is a :class:`ConfigError` naming ``mean_photons_per_window``; every bin
    is checked before any draw.

    The bins are drawn as the chain's fold yields each block: its outcome
    probabilities and one ``multinomial`` call from the one counts generator,
    into the trace's preallocated int64 columns.  Per-block calls take the
    stream as one call over every bin would, so the block size changes no
    count; each count column is an array of its own.
    """
    psi, detected, blocks, counts_ss = _scan_chain(scan, noise, seed)
    windows = _windows_per_bin(scan, source)
    p_dark = noise.dark_rate * source.window_duration
    with np.errstate(over="ignore"):
        # The drift walk scaled in place to (mean * drift) * efficiency.
        detected *= source.mean_photons_per_window
        detected *= noise.detector_efficiency
    if not np.all(np.isfinite(detected)):
        raise ConfigError(f"mean_photons_per_window {float(source.mean_photons_per_window)!r} "
                          "overflows the detected photon mean")
    rng = np.random.Generator(np.random.PCG64(counts_ss))
    d1, d2, coincidences = (np.empty(scan.points, dtype=np.int64) for _ in range(3))
    for rows, (upper, lower) in blocks:
        # A unitary chain's unit-input powers sum to 1 within rounding, so the
        # Born ratio is defined and lies in [0, 1].
        p_upper = upper / (upper + lower)
        del upper, lower  # the fold's pair, freed before the draw
        with np.errstate(over="ignore"):
            # A mean that overflows with the dark counts fires its detector in every window.
            q1 = -np.expm1(-(detected[rows] * p_upper + p_dark))
            q2 = -np.expm1(-(detected[rows] * (1.0 - p_upper) + p_dark))
        pvals = np.stack([q1 * q2, q1 * (1.0 - q2), (1.0 - q1) * q2, (1.0 - q1) * (1.0 - q2)], axis=1)
        outcomes = rng.multinomial(windows, pvals)
        coincidences[rows] = outcomes[:, 0]
        np.add(outcomes[:, 0], outcomes[:, 1], out=d1[rows])
        np.add(outcomes[:, 0], outcomes[:, 2], out=d2[rows])
        del p_upper, q1, q2, pvals, outcomes  # freed before the next block's fold
    del detected  # freed before the trace's axes are built
    return scan_trace(scan, SourceMode.PHOTON_COUNTING, psi, d1, d2, coincidences, seed,
                      source=source, noise=noise, windows_per_bin=windows)


def simulate_classical_trace(scan: ScanConfig, noise: NoiseModel, seed: int) -> CountTrace:
    """Record continuous output powers of ``scan.circuit`` (cw laser input).

    The fringe shape is identical to the photon-counting expectation; only
    the record differs: per-bin powers in the singles fields, coincidences
    zero.  Phase jitter and intensity drift apply; detector efficiency and
    dark counts are photon-counting concepts and do not.  A power that
    overflows is a :class:`ConfigError` naming the source intensity.
    The fold fills a ``(2, points)`` array of unit-input powers, scaled in
    place; its rows are the trace's two power columns.
    """
    intensity = scan.circuit.source_intensity
    psi, drift, blocks, _ = _scan_chain(scan, noise, seed)
    powers = np.empty((2, scan.points))
    for rows, pair in blocks:
        powers[0, rows], powers[1, rows] = pair
    with np.errstate(over="ignore"):  # abs: an intensity of -0 gives powers of +0
        powers *= drift
        powers *= abs(intensity)
    if not np.all(np.isfinite(powers)):
        raise ConfigError(f"source intensity {float(intensity)!r} overflows the "
                          "classical output power")
    del drift  # freed before the trace's axes are built
    i_upper, i_lower = powers
    return scan_trace(scan, SourceMode.CLASSICAL_INTENSITY, psi, i_upper, i_lower,
                      np.zeros(scan.points), seed, noise=noise)


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
