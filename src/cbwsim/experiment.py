"""Experiment harness: fringe analysis and sensitivity scaling.

A recorded trace (from :mod:`cbwsim.montecarlo` or a trace CSV) is reduced
by one :func:`fringe_stats` call to its extrema, visibility, dominant
fringe period and fringe count; :func:`find_extrema` and
:func:`dominant_period` are the two steps it takes.  The phase-sensitivity
scaling of the cascade order comes from one :func:`estimate_sensitivity`
call, which reports every order from 1 to M.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from . import circuit as circuit_mod
from ._chunks import fold_blocks, row_chunks

__all__ = [
    "AmbiguousPeriodError",
    "DEFAULT_GRID_POINTS",
    "FringeStats",
    "InsufficientFringesError",
    "MAX_GRID_POINTS",
    "SensitivityReport",
    "dominant_period",
    "estimate_sensitivity",
    "find_extrema",
    "fringe_stats",
]


# Relative tolerance under which two slope peaks count as equally high.
_PEAK_TIE_RTOL = 1e-9

# Default sensitivity grid, and the largest: ten times the default.  A
# sweep holds one block's fold and 16 bytes per order and block point, so
# its memory does not grow with the grid.  Traced peaks at (max_m, grid):
# 1.9 MB at (5, 1e5) and (5, 1e6), 3.9 MB at (20, 2e5), 8.1 MB at
# (50, 5e5) and 15.4 MB at the cap with max_m = 100.
DEFAULT_GRID_POINTS = 100_000
MAX_GRID_POINTS = 1_000_000


class InsufficientFringesError(ValueError):
    """The trace does not contain at least one maximum and one minimum."""


class AmbiguousPeriodError(ValueError):
    """No single Fourier component dominates the trace spectrum."""


@dataclass(frozen=True)
class FringeStats:
    """Extrema, visibility, dominant period and fringe count of one trace.

    The fields are the keys of the ``analyze`` JSON report (beside its
    ``column`` and ``source``); the extrema are ``(bin_index, value)`` pairs.
    """

    maxima: tuple
    minima: tuple
    visibility_mean: float
    visibility_std: float
    dominant_period_rad: float
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


def find_extrema(values, prominence: float = 0.2):
    """Alternating local maxima and minima of a trace, endpoints excluded.

    A turning point is committed once the trace has moved away from it by
    at least ``prominence * (global max - global min)``, so maxima and
    minima strictly alternate.  That threshold is a share of the raw
    trace's range, not of its counting noise: on a low-count photon trace
    the noise crosses it many times within one fringe (10668 maxima on a
    coincidence column of ~2 counts a bin; ROADMAP item 12).  Returns
    ``(maxima, minima)`` as lists of ``(bin_index, value)``.

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

    # Python floats, one chunk of rows at a time: the compares are faster on
    # them than on numpy scalars.
    rest = values[1:]
    for rows in row_chunks(len(rest)):
        for i, x in enumerate(rest[rows].tolist(), start=rows.start + 1):
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


def dominant_period(values, psi) -> float:
    """Dominant fringe period of ``values`` sampled on a uniform phase grid.

    Returns ``span / k*`` where ``k*`` is the strongest nonzero bin of the
    discrete Fourier magnitude spectrum of the mean-removed trace and
    ``span = n * dpsi`` is the periodic extension of the grid.  Raises
    :class:`AmbiguousPeriodError` unless that peak is at least 3x the
    strongest component outside its lobe, the bins within
    ``max(1, k* // 6)`` of ``k*``.  The lobe widens with ``k*`` because a
    phase-noise walk broadens the ``k``-th harmonic in proportion to ``k``.
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
    mags = spectrum[1:]  # drop DC
    k_star = int(np.argmax(mags)) + 1
    lobe = max(1, k_star // 6)
    competitors = spectrum.copy()
    competitors[k_star - lobe: k_star + lobe + 1] = 0.0
    competitors[0] = 0.0
    runner_up = float(np.max(competitors))
    if spectrum[k_star] < 3.0 * runner_up:
        raise AmbiguousPeriodError(
            f"spectral peak at bin {k_star} is not >= 3x the next component"
        )
    span = len(values) * dpsi
    return span / k_star


def fringe_stats(values, psi, prominence: float = 0.2) -> FringeStats:
    """Fringe summary of one trace: extrema, visibility, dominant period, fringe count.

    The extrema come from one :func:`find_extrema` call.  Each pair of
    adjacent extrema (one maximum, one minimum, in bin order) yields
    ``V = (max - min) / (max + min)``; ``visibility_mean`` and
    ``visibility_std`` are their mean and sample standard deviation (0 for a
    single pair).  A scan that starts and ends on an extremum -- which a full
    linear ramp does -- is split by its interior extrema into
    ``n_max + n_min + 1`` half-periods, so ``fringe_count`` is
    ``(n_max + n_min + 1) / 2``.  The period is :func:`dominant_period`.

    Visibility is defined for non-negative powers and counts, so a trace
    with a negative value raises ``ValueError``.
    """
    maxima, minima = find_extrema(values, prominence)
    lowest = float(np.min(values))
    if lowest < 0:
        raise ValueError(f"fringe visibility needs a non-negative trace, got minimum {lowest!r}")
    ordered = [v for _, v in sorted(maxima + minima)]
    pairs = [abs(a - b) / (a + b) for a, b in zip(ordered, ordered[1:])]
    return FringeStats(
        maxima=tuple(maxima),
        minima=tuple(minima),
        visibility_mean=float(np.mean(pairs)),
        visibility_std=float(np.std(pairs, ddof=1)) if len(pairs) > 1 else 0.0,
        dominant_period_rad=dominant_period(values, psi),
        fringe_count=(len(maxima) + len(minima) + 1) / 2.0,
    )


def estimate_sensitivity(
    max_m: int, grid_points: int = DEFAULT_GRID_POINTS,
) -> tuple[SensitivityReport, ...]:
    """Phase-sensitivity scaling of the 1..``max_m``-stage cascades at control phase 0.

    Returns one :class:`SensitivityReport` per order ``m = 1 .. max_m``;
    ``reports[0]`` is the single-MZI baseline that every ``ratio_to_classical``
    compares with.  Each order's noiseless normalised intensity difference
    ``dI(psi) = I_upper - I_lower`` is evaluated by the transfer matrices on
    one shared dense grid over a full fringe period of the baseline.  At
    control phase 0 every control phase element is an exact identity, so
    order m's output field is order m-1's through one more stage: one fold
    of the input field over the ``max_m``-stage chain
    (``circuit.output_intensities(..., stages=True)``) yields every order
    as a prefix.  The fold builds one MZI stack per distinct MZI phase, so
    one ``psi`` stack per block: the upper-arm stages read the lower-arm
    stack anti-transposed, where the oracle ``circuit.evaluate_chain``
    builds one stack per arm.  Each order reports the maximum slope
    ``eta = max |d(dI)/dpsi|`` and ``delta_phi = 1/eta``.  The maximum-slope
    location is reported rather than assumed: it is the first grid point
    whose ``|slope|`` reaches ``(1 - 1e-9) * eta``, so peaks of equal height
    are not told apart by rounding noise.  The slope at every grid point
    ``k`` is the central difference ``(dI[k+1] - dI[k-1]) / (2*step)`` with
    the grid's uniform step ``step = 2*pi/grid_points``; the grid's two ends
    take the points ``-step`` and ``2*pi`` beyond them.  Inside, that is
    ``np.gradient`` bit for bit.  Its one-sided ends would change no report:
    ``dI = +-cos(m psi)`` is flat at ``psi = 0``, and at the last point its
    slope, ~``m**2 * step``, is at most 6.3e-4 of ``eta``.

    The grid ``k * step`` (the points ``linspace`` gives) is cut once by
    ``_chunks.fold_blocks``, as a scan's bins are, and folded by one
    ``output_intensities`` call, which reads each block's ``psi`` from a
    generator: the call binds the chain's control phases once for the
    sweep, and each block builds only its ``psi`` stack.  Each block is
    reduced as it is folded, so the sweep holds one (the widest) block and
    no full-grid array.  Each block is folded with the grid point on either
    side of it, so its central differences need no other block.  Each order
    keeps a running ``eta`` and the points within the tolerance of it; as
    the running ``eta`` never exceeds the final one, the first of those
    points that reaches the final tolerance is the first on the whole grid.

    Every bound is checked before any order is evaluated: ``max_m`` and
    ``grid_points`` are integers, ``max_m >= 1``,
    ``grid_points <= MAX_GRID_POINTS`` and ``grid_points >= 10000 * max_m``
    (at least 10000 points per fringe period of the highest order).
    """
    max_m, grid_points = _integer("max_m", max_m), _integer("grid_points", grid_points)
    if max_m < 1:
        raise ValueError("max_m must be >= 1")
    if grid_points > MAX_GRID_POINTS:
        raise ValueError(f"grid must have at most {MAX_GRID_POINTS} points, got {grid_points}")
    if grid_points < 10_000 * max_m:
        raise ValueError("grid must resolve >= 10000 points per fringe period")

    step = 2.0 * np.pi / grid_points
    chain = circuit_mod.build_cbw_chain(max_m, phi=0.0)
    blocks = fold_blocks(grid_points)
    widest = max(rows.stop - rows.start for rows in blocks)
    # Each order's dI over one block and the grid point on either side.
    differences = np.empty((max_m, widest + 2))
    central = np.empty((max_m, widest))
    eta = np.zeros(max_m)
    kept: list = [[] for _ in range(max_m)]
    psi = (np.arange(rows.start - 1, rows.stop + 1) * step for rows in blocks)
    folds = circuit_mod.output_intensities(chain, {"psi": psi}, stages=True)
    for rows, pairs in zip(blocks, folds):
        width = rows.stop - rows.start
        # The fold leads the zip, so it runs out and frees its stacks
        # before the next block builds its own.
        for (upper, lower), row in zip(pairs, differences):
            np.subtract(upper, lower, out=row[:width + 2])
        block = central[:, :width]
        np.subtract(differences[:, 2:width + 2], differences[:, :width], out=block)
        block /= 2.0 * step
        _keep_peaks(block, rows.start, eta, kept)
    floor = (1.0 - _PEAK_TIE_RTOL) * eta
    reports: list = []
    for m, (peak, near) in enumerate(zip(eta.tolist(), kept), start=1):
        index, slope = (np.concatenate(part) for part in zip(*near))
        delta_phi = 1.0 / peak
        reports.append(SensitivityReport(
            m=m,
            eta=peak,
            delta_phi=delta_phi,
            ratio_to_classical=delta_phi / (reports[0].delta_phi if reports else delta_phi),
            max_slope_psi=int(index[np.argmax(slope >= floor[m - 1])]) * step,
        ))
    return tuple(reports)


def _keep_peaks(slopes: np.ndarray, offset: int, eta: np.ndarray, kept: list) -> None:
    """Fold a run of slopes, one row per order, into each order's running peak.

    Column ``j`` holds the slope at grid point ``offset + j``; it is made
    absolute in place.  Each order's ``eta`` takes the row's largest slope,
    and the order keeps the indices and slopes of the row's points within
    ``_PEAK_TIE_RTOL`` of its running ``eta``.  That never exceeds the final
    ``eta``, so every point within the tolerance of the final one is kept.
    """
    np.abs(slopes, out=slopes)
    peaks = np.max(slopes, axis=1)
    np.maximum(eta, peaks, out=eta)
    floor = (1.0 - _PEAK_TIE_RTOL) * eta
    for m in np.flatnonzero(peaks >= floor):
        near = np.flatnonzero(slopes[m] >= floor[m])
        kept[m].append((near + offset, slopes[m, near]))


def _integer(name: str, value) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
