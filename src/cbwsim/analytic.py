"""Closed-form intensity laws, fringe wavelength, tilt-plate phase tuner,
and the attenuated-source coincidence fraction.

The closed form here is hand-coded from the printed intensity laws and
deliberately kept independent of the matrix engine so the two routes can
cross-validate each other.  One cosine law covers every closed-form case:

    c = (-1)**k cos(k psi),   I_upper = I0 (1 + c)/2,   I_lower = I0 (1 - c)/2

with the effective order ``k = m`` at control phase 0, ``k = m % 2`` at
control phase pi (mod 2pi) and ``k = 1`` for the bare MZI (m = 1) at any
control phase.  ``k = 1`` is the single-MZI law ``I0 (1 -/+ cos psi)/2``
and ``k = 0`` the frozen outputs ``(I0, 0)``.  Every other ``(m, phi)``
combination is answered by direct numeric composition of the chain
(:func:`cbwsim.circuit.evaluate_chain`); the returned prediction records
which route produced it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import circuit

__all__ = [
    "AnalyticPrediction",
    "GlassPlateFormula",
    "GlassPlateModel",
    "cbw_intensities",
    "cbw_wavelength",
    "expected_coincidence_fraction",
    "glass_plate_opd",
    "single_mzi_intensities",
]

# The cosine law applies only at control phases 0 and pi (mod 2*pi); the
# route choice is a routing decision, not a numeric claim, so a loose
# tolerance is safe -- both routes agree to 1e-12 anyway.
_BRANCH_TOL = 1e-9


@dataclass(frozen=True)
class AnalyticPrediction:
    """Predicted output intensity pair plus the route that produced it."""

    i_upper: float
    i_lower: float
    branch: str = field(default="", compare=False)


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
        if self.thickness <= 0:
            raise ValueError("plate thickness must be positive")
        if self.refractive_index <= 1:
            raise ValueError("refractive index must exceed 1")


def single_mzi_intensities(psi, i0: float = 1.0) -> AnalyticPrediction:
    """Single-MZI outputs ``(i0 (1 - cos psi)/2, i0 (1 + cos psi)/2)``, the k = 1 law."""
    return cbw_intensities(psi, 0.0, 1, i0)


def cbw_intensities(psi, phi: float, m: int, i0: float = 1.0) -> AnalyticPrediction:
    """Output intensities of the m-stage cascade at control phase ``phi``.

    Takes the cosine law of the module docstring where the effective order
    ``k`` is defined (m=1 at any phi; any m at phi = 0 or pi mod 2pi) and
    numeric matrix composition everywhere else.  ``psi`` may be an array;
    ``psi``, ``phi`` and ``i0`` must be finite.
    """
    if not (math.isfinite(i0) and i0 >= 0):
        raise ValueError(f"i0 must be a finite number >= 0, got {i0!r}")
    if not math.isfinite(phi):
        raise ValueError(f"phi must be finite, got {phi!r}")
    if m < 1:
        raise ValueError("m must be a positive integer")
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
        ast = circuit.build_cbw_chain(m, phi=float(phi), source_intensity=i0)
        upper, lower = circuit.output_intensities(ast, {"psi": psi_arr})
        branch = "matrix-composition"
    else:
        c = (-1) ** k * np.cos(k * psi_arr)
        upper = i0 * ((1.0 + c) / 2.0)
        lower = i0 * ((1.0 - c) / 2.0)
        branch = "closed-form"

    if psi_arr.ndim == 0:
        return AnalyticPrediction(float(np.asarray(upper)), float(np.asarray(lower)), branch)
    return AnalyticPrediction(np.asarray(upper), np.asarray(lower), branch)


def cbw_wavelength(m: int, lambda0: float) -> float:
    """Effective fringe wavelength ``lambda0 / m`` of an m-stage cascade.

    ``m`` counts cascaded MZI stages: m=2 halves the fringe wavelength
    (one coupled stage pair), m=3 cuts it to a third.  In block-counting
    terms, one coupling block of two stages gives ``lambda0/2``, which is
    the same statement as this function's ``lambda0/m`` at ``m=2``.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    if lambda0 <= 0:
        raise ValueError("lambda0 must be positive")
    return lambda0 / m


def glass_plate_opd(model: GlassPlateModel, theta) -> float:
    """Optical path difference added by the plate tilted by ``theta``.

    ``theta`` is measured from normal incidence and must satisfy
    ``0 <= theta < pi/2`` (scalar or array).  Both formulas agree at
    normal incidence, where the plate adds ``L0 (n - 1)``.
    """
    theta_arr = np.asarray(theta, dtype=float)
    if np.any(theta_arr < 0) or np.any(theta_arr >= math.pi / 2):
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

    The source emits ``k ~ Poisson(mean_photons)`` photons per coincidence
    window; each lands on detector 1 with probability ``p_upper``,
    otherwise on detector 2.  Both detectors fire iff the k photons do not
    all pile onto one side:

        sum_{k>=2} Pois(k; lam) (1 - p_upper**k - p_lower**k) / (1 - Pois(0; lam))

    The series is summed until its remaining tail is below 1e-15.  At
    ``lam = 0.04`` with balanced outputs this is ~= 1% -- the attenuated
    source's coincidence-to-singles ratio -- and tends to ``lam/4`` as
    ``lam -> 0``.
    """
    if mean_photons <= 0:
        raise ValueError("mean_photons must be positive")
    if not (0.0 <= p_upper <= 1.0 and 0.0 <= p_lower <= 1.0):
        raise ValueError("routing probabilities must lie in [0, 1]")
    if abs(p_upper + p_lower - 1.0) > 1e-12:
        raise ValueError("p_upper + p_lower must equal 1 within 1e-12")

    lam = mean_photons
    pois = math.exp(-lam)  # k = 0
    total = 0.0
    k = 0
    # Tail of the Poisson pmf past k is < pmf(k) * lam/(k+1) / (1 - lam/(k+2));
    # stop once that bound (times the <=1 bracket) drops below 1e-15.
    while True:
        k += 1
        pois *= lam / k
        if k >= 2:
            total += pois * (1.0 - p_upper**k - p_lower**k)
        if k >= lam and k >= 2:
            ratio = lam / (k + 1)
            tail_bound = pois * ratio / (1.0 - min(ratio, 0.5))
            if tail_bound < 1e-15:
                break
    return total / (1.0 - math.exp(-lam))
