"""Closed-form intensity laws, fringe wavelength, tilt-plate phase tuner,
and the attenuated-source coincidence fraction.

The cascade intensities are hand-coded from the printed MZI closed forms
and share no code with the matrix engine (:mod:`cbwsim.optics`,
:mod:`cbwsim.circuit`), so the two routes cross-validate each other.

Where an effective order ``k`` exists one cosine law gives them:

    c = (-1)**k cos(k psi),   I_upper = I0 (1 + c)/2,   I_lower = I0 (1 - c)/2

with ``k = m`` at control phase 0, ``k = m % 2`` at control phase pi (mod
2pi) and ``k = 1`` for the bare MZI (m = 1) at any control phase.  ``k = 1``
is the single-MZI law ``I0 (1 -/+ cos psi)/2`` and ``k = 0`` the frozen
outputs ``(I0, 0)``.  For ``k >= 3`` the argument ``k psi`` is not rounded:
``psi`` is split exactly into a 42-bit ``hi`` and a remainder ``lo``, so
``k hi`` is exact for ``k < 2048``, and ``cos(k psi) = cos(k hi) cos(k lo) -
sin(k hi) sin(k lo)``.  The law's error then stays near 1e-16 however large
``m |psi|`` grows; ``k <= 2`` keeps the plain ``cos(k psi)``.

Every other control phase takes a power of the two-stage block.  With
``e = exp(i psi)``, ``bar = (1 - e)/2``, ``cross = i (1 + e)/2`` and
``p = exp(i phi)``, the lower- and upper-arm MZIs are
``[[bar, cross], [cross, -bar]]`` and ``[[-bar, cross], [cross, bar]]``,
the control phase is ``diag(p, 1)``, and the block
``B = P(phi) MZI_upper(psi) P(phi) MZI_lower(psi)`` is

    B = [[p (cross**2 - p bar**2), -p (1 + p) bar cross],
         [(1 + p) bar cross,        p cross**2 - bar**2]]

An m-stage cascade is ``B**(m // 2)``, with one more ``MZI_lower`` on the
left for odd m; its trailing control phase never changes an intensity.
The power is taken by binary squaring, the intensities are
``|first column|**2`` divided by their sum (1 up to rounding), and only
then scaled by ``I0``, so neither output exceeds ``I0``.

The attenuated source's coincidence fraction is closed-form too: by Poisson
thinning a window's ``Poisson(lam)`` photons reach the two ports as
independent ``Poisson(lam p_upper)`` and ``Poisson(lam p_lower)`` numbers,
which gives ``tanh(lam/4)`` at balanced outputs, for any finite ``lam > 0``.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "AnalyticPrediction",
    "GlassPlateFormula",
    "GlassPlateModel",
    "cbw_intensities",
    "cbw_wavelength",
    "expected_coincidence_fraction",
    "glass_plate_opd",
]

# The cosine law is taken within this distance of control phase 0 or pi
# (mod 2*pi), and the block power everywhere else.
_BRANCH_TOL = 1e-9

# Veltkamp splitting constant 2**11 + 1: ``hi`` keeps the top 53 - 11 = 42
# bits of ``psi``, so ``k * hi`` is exact for any order below 2**11.
_SPLIT = 2.0**11 + 1.0


@dataclass(frozen=True)
class AnalyticPrediction:
    """Predicted output intensity pair of a cascade."""

    i_upper: float
    i_lower: float


class GlassPlateFormula(Enum):
    """Which optical-path-difference formula a tilted plate uses.

    ``PAPER_FORMULA`` is the verbatim published expression
    ``L0 * (n/cos(theta) - 1)``; ``SNELL_CORRECTED`` is the standard
    tilted-plate result ``L0 * (sqrt(n^2 - sin^2 theta) - cos(theta))``
    that accounts for refraction of the ray inside the plate.  Only the
    corrected form reproduces the quoted ~6 um per degree tuning slope at
    45 degrees; the published expression gives ~37 um per degree there.
    """

    PAPER_FORMULA = "paper-formula"
    SNELL_CORRECTED = "snell-corrected"


@dataclass(frozen=True)
class GlassPlateModel:
    """Tilted glass plate used as the fine control-phase tuner."""

    formula: GlassPlateFormula = GlassPlateFormula.SNELL_CORRECTED
    thickness: float = 1e-3
    refractive_index: float = 1.5

    def __post_init__(self):
        if not 0 < self.thickness < math.inf:
            raise ValueError(f"thickness must be finite and positive, got {self.thickness!r}")
        if not 1 < self.refractive_index < math.inf:
            raise ValueError(f"refractive_index must be finite and > 1, got {self.refractive_index!r}")


def _order(m) -> int:
    """``m`` as a cascade order: a positive integer, else ``ValueError``."""
    try:
        m = operator.index(m)
    except TypeError:
        raise ValueError("m must be a positive integer") from None
    if m < 1:
        raise ValueError("m must be a positive integer")
    return m


def cbw_intensities(psi, phi: float, m: int, i0: float = 1.0) -> AnalyticPrediction:
    """Output intensities of the m-stage cascade at control phase ``phi``.

    Takes the cosine law of the module docstring where the effective order
    ``k`` is defined (m=1 at any phi; any m at phi = 0 or pi mod 2pi) and
    the block power everywhere else.  ``psi`` may be an array; ``psi``,
    ``phi`` and ``i0`` must be finite and ``m`` a positive integer.
    """
    if not (math.isfinite(i0) and i0 >= 0):
        raise ValueError(f"i0 must be a finite number >= 0, got {i0!r}")
    if not math.isfinite(phi):
        raise ValueError(f"phi must be finite, got {phi!r}")
    m = _order(m)
    psi_arr = np.asarray(psi, dtype=float)
    if not np.isfinite(psi_arr).all():
        raise ValueError("psi must be finite")

    residue = abs(math.remainder(phi, 2.0 * math.pi))
    if m == 1 or residue <= _BRANCH_TOL:
        k = m
    elif abs(residue - math.pi) <= _BRANCH_TOL:
        k = m % 2
    else:
        k = None

    if k is None:
        unit_upper, unit_lower = _block_power(psi_arr, phi, m)
        upper, lower = i0 * unit_upper, i0 * unit_lower
    else:
        c = (-1) ** k * _cos_multiple(k, psi_arr)
        upper = i0 * ((1.0 + c) / 2.0)
        lower = i0 * ((1.0 - c) / 2.0)

    if psi_arr.ndim == 0:
        return AnalyticPrediction(float(upper), float(lower))
    return AnalyticPrediction(np.asarray(upper), np.asarray(lower))


def _block_power(psi: np.ndarray, phi: float, m: int) -> tuple:
    """Unit output intensities of the m-stage cascade; see the module docstring."""
    e = np.exp(1j * psi)
    bar, cross = (1.0 - e) / 2.0, 1j * (1.0 + e) / 2.0
    p = cmath.exp(1j * phi)
    coupling = (1.0 + p) * bar * cross
    block = (p * (cross * cross - p * bar * bar), -p * coupling, coupling, p * cross * cross - bar * bar)
    # (upper, lower) is the first column of B**j, j the bits of m // 2 used so far.
    upper, lower = 1.0, 0.0
    n = m // 2
    while n:
        b00, b01, b10, b11 = block
        if n & 1:
            upper, lower = b00 * upper + b01 * lower, b10 * upper + b11 * lower
        n >>= 1
        if n:
            block = (b00 * b00 + b01 * b10, b00 * b01 + b01 * b11,
                     b10 * b00 + b11 * b10, b10 * b01 + b11 * b11)
    if m % 2:
        upper, lower = bar * upper + cross * lower, cross * upper - bar * lower
    i_upper, i_lower = np.abs(upper) ** 2, np.abs(lower) ** 2
    total = i_upper + i_lower
    return i_upper / total, i_lower / total


def _cos_multiple(k: int, psi: np.ndarray) -> np.ndarray:
    """``cos(k psi)`` without rounding ``k psi``; see the module docstring."""
    if k <= 2:
        return np.cos(k * psi)
    # The split runs on psi / 2**11, which cannot overflow, and is scaled
    # back; both scalings are exact, so lo = psi - hi is exact too.
    s = psi / 2.0**11
    t = _SPLIT * s
    hi = (t - (t - s)) * 2.0**11
    lo = psi - hi
    return np.cos(k * hi) * np.cos(k * lo) - np.sin(k * hi) * np.sin(k * lo)


def cbw_wavelength(m: int, lambda0: float) -> float:
    """Effective fringe wavelength ``lambda0 / m`` of an m-stage cascade.

    ``m`` counts cascaded MZI stages: m=2 halves the fringe wavelength
    (one coupled stage pair), m=3 cuts it to a third.  In block-counting
    terms, one coupling block of two stages gives ``lambda0/2``, which is
    the same statement as this function's ``lambda0/m`` at ``m=2``.
    """
    m = _order(m)
    if not 0 < lambda0 < math.inf:
        raise ValueError(f"lambda0 must be finite and positive, got {lambda0!r}")
    return lambda0 / m


def glass_plate_opd(model: GlassPlateModel, theta) -> float:
    """Optical path difference added by the plate tilted by ``theta``.

    ``theta`` is measured from normal incidence and must satisfy
    ``0 <= theta < pi/2`` (scalar or array), so NaN is refused.  Both
    formulas agree at normal incidence, where the plate adds ``L0 (n - 1)``.
    """
    theta_arr = np.asarray(theta, dtype=float)
    if not np.all((theta_arr >= 0) & (theta_arr < math.pi / 2)):
        raise ValueError("theta must satisfy 0 <= theta < pi/2")
    l0 = model.thickness
    n = model.refractive_index
    if model.formula is GlassPlateFormula.PAPER_FORMULA:
        opd = l0 * (n / np.cos(theta_arr) - 1.0)
    else:
        opd = l0 * (np.sqrt(n * n - np.sin(theta_arr) ** 2) - np.cos(theta_arr))
    if np.ndim(theta) == 0:
        return float(opd)
    return opd


def expected_coincidence_fraction(mean_photons: float, p_upper: float, p_lower: float) -> float:
    """Probability that both detectors fire in a window, given any photon.

    Each of a window's ``Poisson(lam)`` photons, ``lam = mean_photons``,
    lands on detector 1 with probability ``p_upper``, otherwise on detector
    2.  By Poisson thinning the detectors see independent
    ``Poisson(lam p_upper)`` and ``Poisson(lam p_lower)`` photon numbers, so

        P(both fire | any photon) = (1 - e**(-lam p_upper)) (1 - e**(-lam p_lower)) / (1 - e**(-lam))

    which is ``tanh(lam/4)`` at balanced outputs: ~= 1% at ``lam = 0.04``,
    the attenuated source's coincidence-to-singles ratio, and ``lam/4`` as
    ``lam -> 0``.  ``expm1`` keeps full precision for small ``lam`` and
    small routing probabilities, and a dark port gives exactly 0.
    ``mean_photons`` must be finite and positive.
    """
    if not 0.0 < mean_photons < math.inf:
        raise ValueError("mean_photons must be finite and positive")
    if not (0.0 <= p_upper <= 1.0 and 0.0 <= p_lower <= 1.0):
        raise ValueError("routing probabilities must lie in [0, 1]")
    if abs(p_upper + p_lower - 1.0) > 1e-12:
        raise ValueError("p_upper + p_lower must equal 1 within 1e-12")

    lam = mean_photons
    return math.expm1(-lam * p_upper) * math.expm1(-lam * p_lower) / -math.expm1(-lam)
