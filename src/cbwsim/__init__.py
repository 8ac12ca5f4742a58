"""Cascaded Mach-Zehnder interference lab.

An exact 2x2 transfer-matrix engine with a small circuit language, closed
form intensity oracles, a photon-counting Monte Carlo with coincidence
logic, and an experiment harness (PZT scans, fringe statistics, phase
sensitivity scaling) plus CSV/SVG/JSON output.
"""

from .analytic import (
    AnalyticPrediction,
    GlassPlateFormula,
    GlassPlateModel,
    cbw_intensities,
    cbw_wavelength,
    expected_coincidence_fraction,
    glass_plate_opd,
)
from .circuit import (
    CircuitAst,
    CircuitParseError,
    ElementKind,
    ElementNode,
    UnboundParameterError,
    build_cbw_chain,
    evaluate_chain,
    output_intensities,
    parse_circuit,
    render_circuit,
)
from .config import (
    DEFAULT_CYCLES_PER_RAMP,
    LAB_NOISE,
    ConfigError,
    NoiseModel,
    ScanConfig,
    SourceMode,
    SourceModel,
    pzt_phase,
)
from .experiment import (
    AmbiguousPeriodError,
    FringeStats,
    InsufficientFringesError,
    SensitivityReport,
    dominant_period,
    estimate_sensitivity,
    find_extrema,
    fringe_stats,
)
from .montecarlo import (
    CountTrace,
    coincidence_fraction,
    route_photons,
    sample_window,
    simulate_classical_trace,
    simulate_scan_counts,
)
from .optics import (
    UNITARY_TOL,
    Arm,
    apply,
    beam_splitter,
    compose,
    intensities,
    is_unitary,
    mzi,
    phase_element,
)
from .svgplot import emit_plot_svg
from .trace_io import read_trace_csv, write_trace_csv

__version__ = "0.1.0"
