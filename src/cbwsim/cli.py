"""Command-line front end.

Subcommands:

* ``analytic``    -- closed-form intensity sweep over a scan, to CSV.
* ``simulate``    -- Monte Carlo photon-counting scan, to CSV.
* ``scan``        -- full experiment run (photon or classical) to CSV + SVG.
* ``analyze``     -- fringe statistics of a trace CSV, to JSON.
* ``sensitivity`` -- phase-sensitivity scaling report, to JSON.

Every subcommand accepts ``--config FILE`` with flat ``key=value`` lines
(same token conventions as the circuit language); explicit command-line
flags override file values.  Phase-valued flags accept plain radians,
``pi`` fractions such as ``pi/2`` or ``3pi/4``, or ``deg:<x>``.

Exit codes: 0 success, 1 configuration/usage error, 2 analysis error
(e.g. no fringes in the trace).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import analytic, circuit, experiment, montecarlo, trace_io
from .config import (
    LAB_NOISE,
    ConfigError,
    NoiseModel,
    PztCalibration,
    ScanConfig,
    SourceMode,
    SourceModel,
)
from .svgplot import emit_plot_svg

__all__ = ["dispatch", "load_config", "main", "parse_phase"]

_PI_RE = re.compile(r"^([+-]?\d*\.?\d*)\s*pi\s*(?:/\s*(\d*\.?\d+))?$", re.IGNORECASE)


def parse_phase(text) -> float:
    """Parse a phase flag: radians, ``pi`` fractions, or ``deg:<x>``."""
    if isinstance(text, (int, float)):
        return float(text)
    s = text.strip()
    if s.lower().startswith("deg:"):
        try:
            return math.radians(float(s[4:]))
        except ValueError:
            raise ConfigError(f"invalid degree phase {text!r}") from None
    match = _PI_RE.match(s)
    if match:
        coeff_s, div_s = match.group(1), match.group(2)
        if coeff_s in ("", "+"):
            coeff = 1.0
        elif coeff_s == "-":
            coeff = -1.0
        else:
            coeff = float(coeff_s)
        divisor = float(div_s) if div_s else 1.0
        if divisor == 0.0:
            raise ConfigError(f"invalid phase value {text!r}: division by zero")
        return coeff * math.pi / divisor
    try:
        return float(s)
    except ValueError:
        raise ConfigError(f"invalid phase value {text!r}") from None


# Allowed values of the --noise and --mode flags and of their config keys.
_NOISE_CHOICES = ("none", "lab")
_MODE_CHOICES = ("photon", "classical")


def _choice(choices: tuple):
    """Config caster accepting only one of ``choices``, as the flag does."""
    def cast(value: str) -> str:
        if value not in choices:
            raise ValueError(f"invalid choice {value!r} (choose from {', '.join(choices)})")
        return value
    return cast


# Config-file keys and the caster applied when merging them in.
_KEY_CASTS = {
    "modules": int,
    "phi": parse_phase,
    "points": int,
    "ramp_start": float,
    "ramp_end": float,
    "scan_duration": float,
    "bin_duration": float,
    "cycles_per_ramp": float,
    "mean_photons": float,
    "window_duration": float,
    "i0": float,
    "seed": int,
    "workers": int,
    "noise": _choice(_NOISE_CHOICES),
    "dark_rate": float,
    "detector_efficiency": float,
    "phase_jitter_sigma": float,
    "phase_jitter_correlation": float,
    "intensity_drift_fraction": float,
    "mode": _choice(_MODE_CHOICES),
    "circuit": str,
    "column": str,
    "prominence": float,
    "grid": int,
    "max_m": int,
}


def load_config(path) -> dict:
    """Load a flat ``key=value`` config file; unknown keys are errors."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEY_CASTS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if not value:
            raise ConfigError(f"{path}:{lineno}: empty value for key {key!r}")
        values[key] = value
    return values


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's 2
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="cbwsim", description="Cascaded-MZI interference lab")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def add_common(p):
        p.add_argument("--config", help="key=value config file; flags override it")
        p.add_argument("--modules", type=int, help="number of cascaded MZI stages")
        # Parsed in _scan_config, so a bad value is a one-line ConfigError.
        p.add_argument("--phi", help="control phase (radians, pi forms, deg:<x>)")
        p.add_argument("--points", type=int, help="acquisition bins across the ramp")
        p.add_argument("--ramp-start", type=float, dest="ramp_start")
        p.add_argument("--ramp-end", type=float, dest="ramp_end")
        p.add_argument("--scan-duration", type=float, dest="scan_duration")
        p.add_argument("--bin-duration", type=float, dest="bin_duration")
        p.add_argument("--cycles-per-ramp", type=float, dest="cycles_per_ramp",
                       help="singles fringe cycles across the full ramp")
        p.add_argument("--circuit", help="path to a .mzi circuit file overriding --modules/--phi")

    def add_source_noise(p):
        p.add_argument("--mean-photons", type=float, dest="mean_photons")
        p.add_argument("--window-duration", type=float, dest="window_duration")
        p.add_argument("--seed", type=int)
        p.add_argument("--workers", type=int,
                       help="accepted for compatibility; has no effect")
        p.add_argument("--noise", choices=_NOISE_CHOICES,
                       help="noise preset; individual flags override fields")
        p.add_argument("--dark-rate", type=float, dest="dark_rate")
        p.add_argument("--detector-efficiency", type=float, dest="detector_efficiency")
        p.add_argument("--phase-jitter-sigma", type=float, dest="phase_jitter_sigma")
        p.add_argument("--phase-jitter-correlation", type=float, dest="phase_jitter_correlation")
        p.add_argument("--intensity-drift-fraction", type=float, dest="intensity_drift_fraction")

    p = sub.add_parser("analytic", help="closed-form intensity sweep to CSV")
    add_common(p)
    p.add_argument("--i0", type=float, help="source intensity")
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("simulate", help="Monte Carlo photon-counting scan to CSV")
    add_common(p)
    add_source_noise(p)
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("scan", help="full experiment run to CSV + SVG")
    add_common(p)
    add_source_noise(p)
    p.add_argument("--mode", choices=_MODE_CHOICES)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("analyze", help="fringe statistics of a trace CSV")
    p.add_argument("--config", help="key=value config file; flags override it")
    p.add_argument("--in", dest="input", required=True, help="input trace CSV")
    p.add_argument("--column", help="trace column to analyse (default: coinc / i_gamma)")
    p.add_argument("--prominence", type=float)
    p.add_argument("--out", help="output JSON path (default: stdout)")

    p = sub.add_parser("sensitivity", help="phase-sensitivity scaling report")
    p.add_argument("--config", help="key=value config file; flags override it")
    p.add_argument("--max-m", type=int, dest="max_m", help="largest cascade order (default 5)")
    p.add_argument("--grid", type=int, help="phase grid points (default 100000)")
    p.add_argument("--out", help="output JSON path (default: stdout)")

    return parser


class _Settings:
    """Flag values backed by config-file values backed by defaults."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.file_values = load_config(args.config) if getattr(args, "config", None) else {}

    def get(self, key: str, default=None):
        value = getattr(self.args, key, None)
        if value is not None:
            return value
        if key in self.file_values:
            caster = _KEY_CASTS[key]
            try:
                return caster(self.file_values[key])
            except ValueError as exc:
                raise ConfigError(f"config key {key!r}: {exc}") from exc
        return default


def _scan_config(s: _Settings) -> ScanConfig:
    circuit_path = s.get("circuit")
    ast = None
    if circuit_path:
        ast = circuit.parse_circuit(Path(circuit_path).read_text(encoding="utf-8"))
    return ScanConfig(
        ramp_start=s.get("ramp_start", 0.0),
        ramp_end=s.get("ramp_end", 100.0),
        scan_duration=s.get("scan_duration", 500.0),
        points=s.get("points", 5000),
        bin_duration=s.get("bin_duration", 0.1),
        calibration=PztCalibration(s.get("cycles_per_ramp", PztCalibration().cycles_per_full_ramp)),
        phi=parse_phase(s.get("phi", 0.0)),
        modules=s.get("modules", 2),
        circuit=ast,
    )


def _noise_model(s: _Settings) -> NoiseModel:
    base = LAB_NOISE if s.get("noise", "lab") == "lab" else NoiseModel.quiet()
    overrides = {}
    for field in ("dark_rate", "detector_efficiency", "phase_jitter_sigma",
                  "phase_jitter_correlation", "intensity_drift_fraction"):
        value = s.get(field)
        if value is not None:
            overrides[field] = value
    return dataclasses.replace(base, **overrides) if overrides else base


def _source_model(s: _Settings, mode: SourceMode) -> SourceModel:
    return SourceModel(
        mean_photons_per_window=s.get("mean_photons", 0.04),
        window_duration=s.get("window_duration", 1e-8),
        mode=mode,
    )


def _cmd_analytic(args) -> int:
    s = _Settings(args)
    scan = _scan_config(s)
    if scan.circuit is not None:
        raise ConfigError("analytic sweeps are defined by --modules/--phi, not a circuit file")
    i0 = s.get("i0", 1.0)
    if not (math.isfinite(i0) and i0 >= 0):
        raise ConfigError(f"i0 must be a finite number >= 0, got {i0!r}")
    psi = scan.psi_values()
    prediction = analytic.cbw_intensities(psi, scan.phi, scan.modules, i0)
    trace = montecarlo.CountTrace(
        mode=SourceMode.CLASSICAL_INTENSITY,
        bin_index=np.arange(scan.points, dtype=np.int64),
        time=scan.times(),
        voltage=scan.voltages(),
        psi=psi,
        singles_d1=np.atleast_1d(prediction.i_upper).astype(float),
        singles_d2=np.atleast_1d(prediction.i_lower).astype(float),
        coincidences=np.zeros(scan.points),
    )
    trace_io.write_trace_csv(trace, args.out)
    return 0


def _run_configured_scan(s: _Settings, mode: SourceMode) -> montecarlo.CountTrace:
    scan = _scan_config(s)
    source = _source_model(s, mode)
    noise = _noise_model(s)
    seed = s.get("seed", 0)
    return experiment.run_scan(scan, source, noise, seed)


def _cmd_simulate(args) -> int:
    s = _Settings(args)
    trace = _run_configured_scan(s, SourceMode.PHOTON_COUNTING)
    trace_io.write_trace_csv(trace, args.out)
    return 0


def _cmd_scan(args) -> int:
    s = _Settings(args)
    mode = SourceMode.CLASSICAL_INTENSITY if s.get("mode", "photon") == "classical" else SourceMode.PHOTON_COUNTING
    trace = _run_configured_scan(s, mode)
    if mode is SourceMode.PHOTON_COUNTING:
        series = [("d1", trace.singles_d1), ("d2", trace.singles_d2),
                  ("coinc", trace.coincidences)]
        ylabel = "counts per bin"
    else:
        series = [("i_gamma", trace.singles_d1), ("i_delta", trace.singles_d2)]
        ylabel = "output power"
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    # Both files are written under staging names and renamed into place only
    # once both succeeded, so a failed scan leaves neither output behind.
    names = ("trace.csv", "trace.svg")
    staged = [out_dir / f".{name}.partial" for name in names]
    try:
        trace_io.write_trace_csv(trace, staged[0])
        emit_plot_svg(trace.time, series, staged[1],
                      xlabel="time (s)", ylabel=ylabel, title="PZT scan")
        for path, name in zip(staged, names):
            path.replace(out_dir / name)
    finally:
        for path in staged:
            path.unlink(missing_ok=True)
    return 0


_PHOTON_COLUMNS = {"d1": "singles_d1", "d2": "singles_d2", "coinc": "coincidences"}
_CLASSICAL_COLUMNS = {"i_gamma": "singles_d1", "i_delta": "singles_d2"}


def _cmd_analyze(args) -> int:
    s = _Settings(args)
    trace = trace_io.read_trace_csv(args.input)
    photon = trace.mode is SourceMode.PHOTON_COUNTING
    columns = _PHOTON_COLUMNS if photon else _CLASSICAL_COLUMNS
    column = s.get("column", "coinc" if photon else "i_gamma")
    if column not in columns:
        raise ConfigError(f"unknown column {column!r}; choose from {sorted(columns)}")
    values = getattr(trace, columns[column])
    prominence = s.get("prominence", 0.2)

    stats = experiment.fringe_stats(values, trace.psi, prominence)
    payload = {
        "column": column,
        "source": str(args.input),
        "maxima": [[int(i), float(v)] for i, v in stats.maxima],
        "minima": [[int(i), float(v)] for i, v in stats.minima],
        "visibility_mean": stats.visibility_mean,
        "visibility_std": stats.visibility_std,
        "dominant_period_rad": stats.dominant_period,
        "fringe_count": stats.fringe_count,
    }
    _emit_json(payload, args.out)
    return 0


def _emit_json(payload: dict, out) -> None:
    """Write ``payload`` as a JSON report to ``out``, or to stdout without one."""
    if out:
        trace_io.write_json_report(payload, out)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_sensitivity(args) -> int:
    s = _Settings(args)
    max_m = s.get("max_m", 5)
    grid = s.get("grid", 100_000)
    if max_m < 1:
        raise ConfigError("max_m must be >= 1")
    baseline = experiment.estimate_sensitivity(1, grid)
    reports = [dataclasses.asdict(baseline)] + [
        dataclasses.asdict(experiment.estimate_sensitivity(m, grid, eta_classical=baseline.eta))
        for m in range(2, max_m + 1)
    ]
    payload = {"grid_points": grid, "reports": reports}
    _emit_json(payload, args.out)
    return 0


_COMMANDS = {
    "analytic": _cmd_analytic,
    "simulate": _cmd_simulate,
    "scan": _cmd_scan,
    "analyze": _cmd_analyze,
    "sensitivity": _cmd_sensitivity,
}


def dispatch(argv) -> int:
    """Run one CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"cbwsim: error: {exc}", file=sys.stderr)
        return 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        print("cbwsim: error: a subcommand is required", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (experiment.InsufficientFringesError, experiment.AmbiguousPeriodError) as exc:
        print(f"cbwsim: analysis error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, circuit.CircuitParseError, circuit.UnboundParameterError,
            OSError, ValueError) as exc:
        print(f"cbwsim: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
