"""Scan, source and noise configuration shared by the simulators.

The default calibration encodes the reference experiment: a 0-100 V
triangle ramp (up-leg only) drives two synchronized piezo transducers
through 10.5 full fringe cycles of a single MZI, i.e. 21 doubled
coincidence fringes across the ramp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .circuit import CircuitAst

__all__ = [
    "ConfigError",
    "DEFAULT_CYCLES_PER_RAMP",
    "LAB_NOISE",
    "MAX_MODULES",
    "MAX_POINTS",
    "NoiseModel",
    "PztCalibration",
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

# Largest cascade a scan builds: chain evaluation grows linearly with it.
MAX_MODULES = 1000


class ConfigError(ValueError):
    """A configuration value or combination of values is invalid."""


def _require_finite(config, names) -> None:
    for name in names:
        value = getattr(config, name)
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class PztCalibration:
    """Linear PZT response: singles fringe cycles per full voltage ramp."""

    cycles_per_full_ramp: float = DEFAULT_CYCLES_PER_RAMP

    def __post_init__(self):
        _require_finite(self, ("cycles_per_full_ramp",))
        if self.cycles_per_full_ramp <= 0:
            raise ConfigError("cycles_per_full_ramp must be positive")


def pzt_phase(voltage, cal: PztCalibration, ramp_span: float):
    """Map PZT voltage to interferometer phase (radians), linear model.

    ``psi = 2*pi * cycles_per_full_ramp * voltage / ramp_span``.
    ``voltage`` may be a scalar or array.  The phase per volt must be
    finite: a subnormal ``ramp_span`` overflows it.
    """
    if ramp_span <= 0:
        raise ConfigError("ramp_span must be positive")
    scale = 2.0 * np.pi * cal.cycles_per_full_ramp / ramp_span
    if not math.isfinite(scale):
        raise ConfigError(f"phase per volt 2*pi*{cal.cycles_per_full_ramp!r}/{ramp_span!r} "
                          "is not finite")
    return np.asarray(voltage, dtype=float) * scale if np.ndim(voltage) else float(voltage) * scale


class SourceMode(Enum):
    PHOTON_COUNTING = "photon"
    CLASSICAL_INTENSITY = "classical"


@dataclass(frozen=True)
class SourceModel:
    """Input light model.

    ``PHOTON_COUNTING`` is the attenuated laser: photon numbers per
    coincidence window are modelled as Poisson with mean
    ``mean_photons_per_window`` (the measured mean photon number of the
    attenuated source is ~0.04; attenuated coherent light is Poissonian,
    which reproduces the quoted ~1% coincidence-to-singles ratio).
    ``CLASSICAL_INTENSITY`` records continuous output powers instead of
    counts, as in the cw runs.
    """

    mean_photons_per_window: float = 0.04
    window_duration: float = 1e-8
    mode: SourceMode = SourceMode.PHOTON_COUNTING

    def __post_init__(self):
        _require_finite(self, ("mean_photons_per_window", "window_duration"))
        if self.mode is SourceMode.PHOTON_COUNTING and self.mean_photons_per_window <= 0:
            raise ConfigError("mean_photons_per_window must be positive in photon-counting mode")
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
    of ``bin_duration`` seconds each.  The chain is the standard cascade
    with ``modules`` stages at control phase ``phi`` unless an explicit
    ``circuit`` override is given.

    The degenerate empty scan (``points=0`` with ``scan_duration=0``) is
    accepted and produces an empty trace; ``points`` may not exceed
    :data:`MAX_POINTS`, nor ``modules`` :data:`MAX_MODULES`.
    """

    ramp_start: float = 0.0
    ramp_end: float = 100.0
    scan_duration: float = 500.0
    points: int = 5000
    bin_duration: float = 0.1
    calibration: PztCalibration = field(default_factory=PztCalibration)
    phi: float = 0.0
    modules: int = 2
    circuit: CircuitAst | None = None

    def __post_init__(self):
        _require_finite(self, ("ramp_start", "ramp_end", "scan_duration", "bin_duration", "phi"))
        if self.points > MAX_POINTS:
            raise ConfigError(f"points must be at most {MAX_POINTS}, got {self.points}")
        if self.modules > MAX_MODULES:
            raise ConfigError(f"modules must be at most {MAX_MODULES}, got {self.modules}")
        if self.points == 0 and self.scan_duration == 0:
            return
        if self.points < 2:
            raise ConfigError("a scan needs at least 2 points")
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
        if self.circuit is None and self.modules < 1:
            raise ConfigError("modules must be a positive integer")

    @property
    def ramp_span(self) -> float:
        return self.ramp_end - self.ramp_start

    def voltages(self) -> np.ndarray:
        """Per-bin ramp voltage, endpoints inclusive."""
        if self.points == 0:
            return np.zeros(0)
        return np.linspace(self.ramp_start, self.ramp_end, self.points)

    def times(self) -> np.ndarray:
        """Per-bin acquisition start time in seconds."""
        return np.arange(self.points) * self.bin_duration

    def psi_values(self) -> np.ndarray:
        """Per-bin nominal interferometer phase from the PZT model."""
        if self.points == 0:
            return np.zeros(0)
        return pzt_phase(self.voltages() - self.ramp_start, self.calibration, self.ramp_span)
