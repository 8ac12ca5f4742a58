"""Scan, source and noise configuration shared by the simulators.

The default calibration (``ScanConfig.cycles_per_ramp``) encodes the
reference experiment: a 0-100 V triangle ramp (up-leg only) drives two
synchronized piezo transducers through 10.5 full fringe cycles of a
single MZI, i.e. 21 doubled coincidence fringes across the ramp.

Each choice of a run is made once: ``ScanConfig.circuit`` is the chain a
scan evaluates, and the simulator called (photon counting or cw powers)
is the kind of record it makes.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .circuit import CircuitAst, build_cbw_chain

__all__ = [
    "ConfigError",
    "DEFAULT_CYCLES_PER_RAMP",
    "LAB_NOISE",
    "MAX_POINTS",
    "NoiseModel",
    "ScanConfig",
    "SourceMode",
    "SourceModel",
    "pzt_phase",
]

# 21 coincidence fringes across the full ramp = 10.5 singles cycles.
DEFAULT_CYCLES_PER_RAMP = 10.5

# Largest number of acquisition bins in one scan.  Ten million bins is
# about 1 GB of trace CSV; the cap keeps a typo from allocating far more.
MAX_POINTS = 10_000_000


class ConfigError(ValueError):
    """A configuration value or combination of values is invalid."""


def _require_finite(config, names) -> None:
    for name in names:
        value = getattr(config, name)
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be a finite number, got {value!r}")


def pzt_phase(voltage, cycles_per_ramp: float, ramp_span: float):
    """Map PZT voltage to interferometer phase (radians), linear model.

    ``psi = 2*pi * cycles_per_ramp * voltage / ramp_span``, where
    ``cycles_per_ramp`` counts singles fringe cycles across the full ramp.
    ``voltage`` may be a scalar or array.  The phase per volt must be
    finite: a subnormal ``ramp_span`` overflows it.
    """
    if ramp_span <= 0:
        raise ConfigError("ramp_span must be positive")
    scale = 2.0 * np.pi * cycles_per_ramp / ramp_span
    if not math.isfinite(scale):
        raise ConfigError(f"phase per volt 2*pi*{cycles_per_ramp!r}/{ramp_span!r} "
                          "is not finite")
    return np.asarray(voltage, dtype=float) * scale if np.ndim(voltage) else float(voltage) * scale


class SourceMode(Enum):
    PHOTON_COUNTING = "photon"
    CLASSICAL_INTENSITY = "classical"


@dataclass(frozen=True)
class SourceModel:
    """The attenuated laser of a photon-counting scan.

    Photon numbers per coincidence window are modelled as Poisson with
    mean ``mean_photons_per_window`` (the measured mean photon number of
    the attenuated source is ~0.04; attenuated coherent light is
    Poissonian, which reproduces the quoted ~1% coincidence-to-singles
    ratio).  A cw run records output powers and takes no source model.
    """

    mean_photons_per_window: float = 0.04
    window_duration: float = 1e-8

    def __post_init__(self):
        _require_finite(self, ("mean_photons_per_window", "window_duration"))
        if self.mean_photons_per_window <= 0:
            raise ConfigError("mean_photons_per_window must be positive")
        if self.window_duration <= 0:
            raise ConfigError("window_duration must be positive")


@dataclass(frozen=True)
class NoiseModel:
    """Detector and environment imperfections.

    ``phase_jitter_sigma`` is the accumulated phase random-walk standard
    deviation after ``phase_jitter_correlation`` seconds (the walk models
    slow air-turbulence drift).  ``intensity_drift_fraction`` scales a
    slow random walk of the source power over the scan.  Dark counts are
    Poissonian per detector and participate in coincidences.

    The values in :data:`LAB_NOISE` are *fitted*, not measured: they were
    tuned (at the operating point documented there) so a simulated
    two-stage coincidence scan lands near the 98.5% visibility regime.
    The zero-noise default is exact.
    """

    phase_jitter_sigma: float = 0.0
    phase_jitter_correlation: float = 1.0
    intensity_drift_fraction: float = 0.0
    dark_rate: float = 0.0
    detector_efficiency: float = 1.0

    def __post_init__(self):
        _require_finite(self, ("phase_jitter_sigma", "phase_jitter_correlation",
                               "intensity_drift_fraction", "dark_rate"))
        if min(self.phase_jitter_sigma, self.intensity_drift_fraction, self.dark_rate) < 0:
            raise ConfigError("noise magnitudes must be >= 0")
        if self.phase_jitter_correlation <= 0:
            raise ConfigError("phase_jitter_correlation must be positive")
        if not (0.0 <= self.detector_efficiency <= 1.0):
            raise ConfigError("detector_efficiency must lie in [0, 1]")


# Fitted at: two-stage chain, control phase 0, mean photons 0.3,
# window 1e-6 s, 0.1 s bins, full default ramp.  Gives coincidence
# visibility ~0.985 there.  Magnitudes are tuning choices, not measurements.
LAB_NOISE = NoiseModel(
    phase_jitter_sigma=0.03,
    phase_jitter_correlation=1.0,
    intensity_drift_fraction=0.01,
    dark_rate=300.0,
    detector_efficiency=1.0,
)


@dataclass(frozen=True)
class ScanConfig:
    """One simulated PZT scan: ramp, timing, calibration, and circuit choice.

    The up-leg of the triangle ramp runs ``ramp_start .. ramp_end`` volts
    over ``scan_duration`` seconds, sampled as ``points`` acquisition bins
    of ``bin_duration`` seconds each; the PZT sweeps ``cycles_per_ramp``
    singles fringe cycles across the full ramp.  ``circuit`` is the chain
    the scan evaluates, by default the two-stage cascade with a free
    ``phi``; ``phi`` binds a ``phi`` parameter of the circuit.

    A scan has 2 to :data:`MAX_POINTS` points, or 0 with ``scan_duration=0``:
    the empty scan, whose trace is empty.  Every other check holds for it too,
    so a non-positive ``bin_duration`` or a ramp that does not rise is refused.
    """

    ramp_start: float = 0.0
    ramp_end: float = 100.0
    scan_duration: float = 500.0
    points: int = 5000
    bin_duration: float = 0.1
    cycles_per_ramp: float = DEFAULT_CYCLES_PER_RAMP
    phi: float = 0.0
    circuit: CircuitAst = build_cbw_chain(2)

    def __post_init__(self):
        _require_finite(self, ("ramp_start", "ramp_end", "scan_duration", "bin_duration",
                               "cycles_per_ramp", "phi"))
        try:
            operator.index(self.points)
        except TypeError:
            raise ConfigError(f"points must be an integer, got {self.points!r}") from None
        if self.cycles_per_ramp <= 0:
            raise ConfigError("cycles_per_ramp must be positive")
        if self.points > MAX_POINTS:
            raise ConfigError(f"points must be at most {MAX_POINTS}, got {self.points}")
        if self.points < 2 and (self.points, self.scan_duration) != (0, 0):
            raise ConfigError("a scan needs at least 2 points, or 0 with scan_duration 0")
        if self.bin_duration <= 0:
            raise ConfigError("bin_duration must be positive")
        if not math.isfinite(self.points * self.bin_duration):
            raise ConfigError("points * bin_duration overflows a double")
        if self.points * self.bin_duration > self.scan_duration + self.bin_duration:
            raise ConfigError("points * bin_duration exceeds scan_duration by more than one bin")
        if self.ramp_end <= self.ramp_start:
            raise ConfigError("ramp_end must exceed ramp_start")
        if not math.isfinite(self.ramp_span):
            raise ConfigError("ramp_end - ramp_start overflows a double")

    @property
    def ramp_span(self) -> float:
        return self.ramp_end - self.ramp_start

    def voltages(self) -> np.ndarray:
        """Per-bin ramp voltage, endpoints inclusive."""
        # For a span within rounding of the largest double, linspace's last
        # product (points - 1) * step may overflow; linspace then replaces
        # that bin with ramp_end, and every earlier product is finite.
        with np.errstate(over="ignore"):
            return np.linspace(self.ramp_start, self.ramp_end, self.points)

    def times(self) -> np.ndarray:
        """Per-bin acquisition start time in seconds."""
        return np.arange(self.points) * self.bin_duration

    def psi_values(self) -> np.ndarray:
        """Per-bin nominal interferometer phase from the PZT model."""
        return pzt_phase(self.voltages() - self.ramp_start, self.cycles_per_ramp, self.ramp_span)
