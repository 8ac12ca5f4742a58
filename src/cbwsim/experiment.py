"""Experiment harness: scan execution, fringe analysis, sensitivity scaling.

Ties the pieces together the way the bench does: the PZT calibration maps
the voltage ramp to phase, the chosen cascade is simulated (photon counting
or cw), and the recorded trace is reduced to extrema, visibility, dominant
fringe period, and the phase-sensitivity scaling of the cascade order
(one :func:`estimate_sensitivity` call reports every order from 1 to M).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import circuit as circuit_mod
from . import montecarlo
from .config import NoiseModel, ScanConfig, SourceMode, SourceModel
from .montecarlo import CountTrace

__all__ = [
    "AmbiguousPeriodError",
    "DEFAULT_GRID_POINTS",
    "FringeStats",
    "InsufficientFringesError",
    "MAX_GRID_POINTS",
    "SensitivityReport",
    "count_fringes",
    "dominant_period",
    "estimate_sensitivity",
    "find_extrema",
    "fringe_stats",
    "run_scan",
    "visibility",
]


# Relative tolerance under which two slope peaks count as equally high.
_PEAK_TIE_RTOL = 1e-9

# Default sensitivity grid, and the largest: ten times the default, a few
# hundred MB of transfer-matrix stacks at peak.
DEFAULT_GRID_POINTS = 100_000
MAX_GRID_POINTS = 1_000_000


class InsufficientFringesError(ValueError):
    """The trace does not contain at least one maximum and one minimum."""


class AmbiguousPeriodError(ValueError):
    """No single Fourier component dominates the trace spectrum."""


@dataclass(frozen=True)
class FringeStats:
    """Extrema, visibility, dominant period and fringe count of one trace."""

    maxima: tuple
    minima: tuple
    visibility_mean: float
    visibility_std: float
    dominant_period: float
    fringe_count: float


@dataclass(frozen=True)
class SensitivityReport:
    """Phase-sensitivity figures for an m-stage cascade.

    ``eta`` is the maximum slope of the normalised output intensity
    difference over phase; ``delta_phi = 1/eta`` is the resolvable phase
    step in the unit-noise convention, and ``ratio_to_classical`` compares
    it with the single-MZI baseline (the scaling law is ``1/m``).
    ``max_slope_psi`` reports where the maximum slope occurs.
    """

    m: int
    eta: float
    delta_phi: float
    ratio_to_classical: float
    max_slope_psi: float

    def __post_init__(self):
        if self.delta_phi <= 0:
            raise ValueError("delta_phi must be positive")


def run_scan(
    config: ScanConfig,
    source: SourceModel,
    noise: NoiseModel,
    seed: int,
) -> CountTrace:
    """Execute one configured scan and return its trace.

    Builds the cascade (``config.circuit`` overrides ``config.modules`` /
    ``config.phi``), maps bin voltages to phase through the calibration,
    and dispatches on the source mode.
    """
    if config.circuit is not None:
        chain = config.circuit
    else:
        chain = circuit_mod.build_cbw_chain(config.modules, phi=config.phi)
    if source.mode is SourceMode.PHOTON_COUNTING:
        return montecarlo.simulate_scan_counts(chain, config, source, noise, seed)
    return montecarlo.simulate_classical_trace(chain, config, source, noise, seed)


def find_extrema(values, prominence: float = 0.2):
    """Alternating local maxima and minima of a trace, endpoints excluded.

    A turning point is committed once the trace has moved away from it by
    at least ``prominence * (global max - global min)``, which suppresses
    counting noise while keeping genuine fringe extrema; maxima and minima
    therefore strictly alternate.  Returns ``(maxima, minima)`` as lists of
    ``(bin_index, value)``.

    Raises :class:`InsufficientFringesError` when fewer than one maximum
    plus one minimum survive (e.g. constant traces).
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or len(values) < 3:
        raise ValueError("need a 1-D trace with at least 3 bins")
    if not (0.0 < prominence < 1.0):
        raise ValueError("prominence must lie strictly between 0 and 1")

    span = float(np.max(values) - np.min(values))
    if span == 0.0:
        raise InsufficientFringesError("trace is constant; no fringes to analyse")
    threshold = prominence * span

    maxima: list = []
    minima: list = []
    last = len(values) - 1
    cand_max_i = cand_min_i = 0
    cand_max_v = cand_min_v = float(values[0])
    direction = 0  # +1 rising (next commit is a max), -1 falling, 0 unknown

    for i in range(1, len(values)):
        x = float(values[i])
        if x > cand_max_v:
            cand_max_i, cand_max_v = i, x
        if x < cand_min_v:
            cand_min_i, cand_min_v = i, x
        if direction >= 0 and x <= cand_max_v - threshold:
            if cand_max_i not in (0, last):
                maxima.append((cand_max_i, cand_max_v))
            direction = -1
            cand_min_i, cand_min_v = i, x
        elif direction <= 0 and x >= cand_min_v + threshold:
            if cand_min_i not in (0, last):
                minima.append((cand_min_i, cand_min_v))
            direction = 1
            cand_max_i, cand_max_v = i, x

    if not maxima or not minima:
        raise InsufficientFringesError("fewer than one maximum and one minimum found")
    return maxima, minima


def count_fringes(values, prominence: float = 0.2) -> float:
    """Fringe (full-period) count of a trace via its interior extrema.

    For a scan that starts and ends on an extremum -- which a full linear
    ramp does -- the interior extrema split the trace into
    ``n_max + n_min + 1`` half-periods, i.e. ``(n_max + n_min + 1) / 2``
    full fringes.
    """
    return _fringe_count(*find_extrema(values, prominence))


def _fringe_count(maxima, minima) -> float:
    return (len(maxima) + len(minima) + 1) / 2.0


def visibility(values, prominence: float = 0.2):
    """Mean and sample standard deviation of per-fringe visibility.

    Adjacent extrema (one maximum, one minimum, in bin order) each yield
    ``V = (max - min) / (max + min)``; single-pair traces report std 0.
    """
    return _visibility(*find_extrema(values, prominence))


def _visibility(maxima, minima):
    """Per-fringe visibility mean and std from :func:`find_extrema` output."""
    extrema = sorted([(i, v, +1) for i, v in maxima] + [(i, v, -1) for i, v in minima])
    pairs = []
    for (_, v1, k1), (_, v2, k2) in zip(extrema, extrema[1:]):
        hi, lo = (v1, v2) if k1 > k2 else (v2, v1)
        pairs.append((hi - lo) / (hi + lo))
    mean = float(np.mean(pairs))
    std = float(np.std(pairs, ddof=1)) if len(pairs) > 1 else 0.0
    return mean, std


def dominant_period(values, psi) -> float:
    """Dominant fringe period of ``values`` sampled on a uniform phase grid.

    Returns ``span / k*`` where ``k*`` is the strongest nonzero bin of the
    discrete Fourier magnitude spectrum of the mean-removed trace and
    ``span = n * dpsi`` is the periodic extension of the grid.  Raises
    :class:`AmbiguousPeriodError` unless that peak is at least 3x the next
    strongest component (immediate leakage neighbours excluded).
    """
    values = np.asarray(values, dtype=float)
    psi = np.asarray(psi, dtype=float)
    if values.shape != psi.shape or values.ndim != 1 or len(values) < 8:
        raise ValueError("need matching 1-D trace and phase arrays (>= 8 bins)")
    steps = np.diff(psi)
    dpsi = steps[0]
    if dpsi <= 0 or np.max(np.abs(steps - dpsi)) > 1e-9 * abs(dpsi):
        raise ValueError("psi grid must be uniform and increasing")

    spectrum = np.abs(np.fft.rfft(values - np.mean(values)))
    if len(spectrum) < 3:
        raise ValueError("trace too short for period estimation")
    mags = spectrum[1:]  # drop DC
    k_star = int(np.argmax(mags)) + 1
    competitors = spectrum.copy()
    competitors[max(k_star - 1, 0): k_star + 2] = 0.0
    competitors[0] = 0.0
    runner_up = float(np.max(competitors))
    if spectrum[k_star] < 3.0 * runner_up:
        raise AmbiguousPeriodError(
            f"spectral peak at bin {k_star} is not >= 3x the next component"
        )
    span = len(values) * dpsi
    return span / k_star


def fringe_stats(values, psi, prominence: float = 0.2) -> FringeStats:
    """Full fringe summary of one trace: extrema, visibility, period, count.

    The extrema are found once and shared by the visibility and the
    fringe count.
    """
    maxima, minima = find_extrema(values, prominence)
    vis_mean, vis_std = _visibility(maxima, minima)
    period = dominant_period(values, psi)
    return FringeStats(
        maxima=tuple(maxima),
        minima=tuple(minima),
        visibility_mean=vis_mean,
        visibility_std=vis_std,
        dominant_period=period,
        fringe_count=_fringe_count(maxima, minima),
    )


def estimate_sensitivity(
    max_m: int, grid_points: int = DEFAULT_GRID_POINTS,
) -> tuple[SensitivityReport, ...]:
    """Phase-sensitivity scaling of the 1..``max_m``-stage cascades at control phase 0.

    Returns one :class:`SensitivityReport` per order ``m = 1 .. max_m``;
    ``reports[0]`` is the single-MZI baseline that every ``ratio_to_classical``
    compares with.  Each order evaluates the noiseless normalised intensity
    difference ``dI(psi) = I_upper - I_lower`` by matrix composition on one
    shared dense grid over a full fringe period of the baseline, takes the
    maximum central-difference slope ``eta = max |d(dI)/dpsi|`` and reports
    ``delta_phi = 1/eta``.  The maximum-slope location is reported rather
    than assumed: it is the first grid point whose ``|slope|`` reaches
    ``(1 - 1e-9) * eta``, so peaks of equal height are not told apart by
    rounding noise.  The grid is uniform by construction, so the slope is
    ``np.gradient`` with the scalar spacing ``2*pi/grid_points``, the step
    ``linspace`` computes.

    Every bound is checked before any order is evaluated: ``max_m >= 1``,
    ``grid_points <= MAX_GRID_POINTS`` and ``grid_points >= 10000 * max_m``
    (at least 10000 points per fringe period of the highest order).
    """
    if max_m < 1:
        raise ValueError("max_m must be >= 1")
    if grid_points > MAX_GRID_POINTS:
        raise ValueError(f"grid must have at most {MAX_GRID_POINTS} points, got {grid_points}")
    if grid_points < 10_000 * max_m:
        raise ValueError("grid must resolve >= 10000 points per fringe period")

    psi = np.linspace(0.0, 2.0 * np.pi, grid_points, endpoint=False)
    reports: list = []
    for m in range(1, max_m + 1):
        upper, lower = circuit_mod.output_intensities(
            circuit_mod.build_cbw_chain(m, phi=0.0), {"psi": psi})
        slope = np.abs(np.gradient(np.subtract(upper, lower, out=upper), 2.0 * np.pi / grid_points))
        eta = float(np.max(slope))
        idx = int(np.argmax(slope >= (1.0 - _PEAK_TIE_RTOL) * eta))
        # Free this order's arrays before the next order's stacks are built.
        del upper, lower, slope
        delta_phi = 1.0 / eta
        reports.append(SensitivityReport(
            m=m,
            eta=eta,
            delta_phi=delta_phi,
            ratio_to_classical=delta_phi / (reports[0].delta_phi if reports else delta_phi),
            max_slope_psi=float(psi[idx]),
        ))
    return tuple(reports)
