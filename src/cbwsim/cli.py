"""Command-line front end.

Subcommands:

* ``analytic``    -- closed-form intensity sweep over a scan, to CSV.
* ``simulate``    -- Monte Carlo photon-counting scan, to CSV.
* ``scan``        -- full experiment run (photon or classical) to CSV + SVG.
* ``analyze``     -- fringe statistics of a trace CSV, to JSON.
* ``sensitivity`` -- phase-sensitivity scaling report, to JSON.

Every option is declared once, in ``_OPTIONS``.  Every subcommand accepts
``--config FILE`` with flat ``key=value`` lines (same token conventions as
the circuit language): a key is its flag's name with underscores
(``ramp_start=5`` for ``--ramp-start 5``), a value is cast and checked as
the flag's would be, keys of other subcommands are ignored, and explicit
command-line flags override file values.  An option set by neither takes
the library default.  Phase-valued flags accept plain radians, ``pi``
fractions such as ``pi/2`` or ``3pi/4``, or ``deg:<x>``.

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


# Every option of every subcommand, declared once as its argparse keywords.
# The config-file key is the dict key, the flag is "--" plus the key with
# dashes for underscores, and a file value is cast and checked as the flag's
# value.  A default appears only where the CLI has one of its own, or (grid)
# echoes it in its report; any other unset option is left out of the
# constructors, so the library default applies.
_OPTIONS = {
    "modules": dict(type=int, help="number of cascaded MZI stages"),
    # Parsed in _scan_config, so a bad value is a one-line ConfigError.
    "phi": dict(help="control phase (radians, pi forms, deg:<x>)"),
    "points": dict(type=int, help="acquisition bins across the ramp"),
    "ramp_start": dict(type=float),
    "ramp_end": dict(type=float),
    "scan_duration": dict(type=float),
    "bin_duration": dict(type=float),
    "cycles_per_ramp": dict(type=float, help="singles fringe cycles across the full ramp"),
    "circuit": dict(help="path to a .mzi circuit file overriding --modules/--phi"),
    "i0": dict(type=float, help="source intensity"),
    "mean_photons": dict(type=float),
    "window_duration": dict(type=float),
    "seed": dict(type=int, default=0),
    "workers": dict(type=int, help="accepted for compatibility; has no effect"),
    "noise": dict(choices=("none", "lab"), default="lab",
                  help="noise preset (default %(default)s); individual flags override fields"),
    "dark_rate": dict(type=float),
    "detector_efficiency": dict(type=float),
    "phase_jitter_sigma": dict(type=float),
    "phase_jitter_correlation": dict(type=float),
    "intensity_drift_fraction": dict(type=float),
    "mode": dict(choices=("photon", "classical"), default="photon"),
    "column": dict(help="trace column to analyse (default: coinc / i_gamma)"),
    "prominence": dict(type=float),
    "grid": dict(type=int, default=experiment.DEFAULT_GRID_POINTS,
                 help="phase grid points (default %(default)s)"),
    "max_m": dict(type=int, default=5, help="largest cascade order (default %(default)s)"),
}

_SCAN_KEYS = ("modules", "phi", "points", "ramp_start", "ramp_end", "scan_duration",
              "bin_duration", "cycles_per_ramp", "circuit")
_SOURCE_NOISE_KEYS = ("mean_photons", "window_duration", "seed", "workers", "noise",
                      "dark_rate", "detector_efficiency", "phase_jitter_sigma",
                      "phase_jitter_correlation", "intensity_drift_fraction")


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
        if key not in _OPTIONS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if not value:
            raise ConfigError(f"{path}:{lineno}: empty value for key {key!r}")
        values[key] = value
    return values


def _cast(key: str, text: str):
    """A config-file value cast and checked as its flag's value would be."""
    option = _OPTIONS[key]
    try:
        value = option.get("type", str)(text)
        if value not in option.get("choices", (value,)):
            raise ValueError(f"invalid choice {value!r} (choose from {', '.join(option['choices'])})")
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from exc
    return value


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's 2
        raise _UsageError(message)


def _build_parser():
    """The ``cbwsim`` parser and its subcommand parsers by name."""
    parser = _Parser(prog="cbwsim", description="Cascaded-MZI interference lab")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    commands = {}
    for name, (_, help_text, keys, out_help) in _COMMANDS.items():
        p = commands[name] = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value config file; flags override it")
        if name == "analyze":
            p.add_argument("--in", dest="input", required=True, help="input trace CSV")
        for key in keys:
            p.add_argument("--" + key.replace("_", "-"), dest=key, **_OPTIONS[key])
        p.add_argument("--out", required=out_help is not _JSON_OUT, help=out_help)
    return parser, commands


def _given(args, *keys, **renamed) -> dict:
    """Keyword arguments for the options that a flag or the config file set.

    ``keys`` pass under their own name; ``renamed`` maps a keyword to its
    option key.  Unset options are left out, so the callee's default applies.
    """
    pairs = [(key, key) for key in keys] + list(renamed.items())
    return {name: getattr(args, key) for name, key in pairs if getattr(args, key) is not None}


def _scan_config(args) -> ScanConfig:
    fields = _given(args, "ramp_start", "ramp_end", "scan_duration", "points", "bin_duration",
                    "modules")
    if args.circuit:
        fields["circuit"] = circuit.parse_circuit(Path(args.circuit).read_text(encoding="utf-8"))
    if args.cycles_per_ramp is not None:
        fields["calibration"] = PztCalibration(args.cycles_per_ramp)
    if args.phi is not None:
        fields["phi"] = parse_phase(args.phi)
    return ScanConfig(**fields)


def _noise_model(args) -> NoiseModel:
    base = LAB_NOISE if args.noise == "lab" else NoiseModel()
    # Each NoiseModel field has an option of the same name.
    return dataclasses.replace(base, **_given(args, *(f.name for f in dataclasses.fields(NoiseModel))))


def _cmd_analytic(args) -> int:
    scan = _scan_config(args)
    if scan.circuit is not None:
        raise ConfigError("analytic sweeps are defined by --modules/--phi, not a circuit file")
    psi = scan.psi_values()
    prediction = analytic.cbw_intensities(psi, scan.phi, scan.modules, **_given(args, "i0"))
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


def _run_configured_scan(args, mode: SourceMode) -> montecarlo.CountTrace:
    if args.seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {args.seed}")
    source = SourceModel(mode=mode, **_given(args, "window_duration",
                                             mean_photons_per_window="mean_photons"))
    return experiment.run_scan(_scan_config(args), source, _noise_model(args), args.seed)


def _cmd_simulate(args) -> int:
    trace = _run_configured_scan(args, SourceMode.PHOTON_COUNTING)
    trace_io.write_trace_csv(trace, args.out)
    return 0


def _cmd_scan(args) -> int:
    mode = SourceMode(args.mode)
    trace = _run_configured_scan(args, mode)
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
    trace = trace_io.read_trace_csv(args.input)
    photon = trace.mode is SourceMode.PHOTON_COUNTING
    columns = _PHOTON_COLUMNS if photon else _CLASSICAL_COLUMNS
    column = args.column if args.column is not None else ("coinc" if photon else "i_gamma")
    if column not in columns:
        raise ConfigError(f"unknown column {column!r}; choose from {sorted(columns)}")
    values = getattr(trace, columns[column])
    stats = experiment.fringe_stats(values, trace.psi, **_given(args, "prominence"))
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
    reports = experiment.estimate_sensitivity(args.max_m, args.grid)
    payload = {"grid_points": args.grid, "reports": [dataclasses.asdict(r) for r in reports]}
    _emit_json(payload, args.out)
    return 0


_JSON_OUT = "output JSON path (default: stdout)"

# Subcommand -> (handler, help, option keys, help of --out).  --out is
# required except for JSON reports, which go to stdout without it.
_COMMANDS = {
    "analytic": (_cmd_analytic, "closed-form intensity sweep to CSV",
                 _SCAN_KEYS + ("i0",), "output CSV path"),
    "simulate": (_cmd_simulate, "Monte Carlo photon-counting scan to CSV",
                 _SCAN_KEYS + _SOURCE_NOISE_KEYS, "output CSV path"),
    "scan": (_cmd_scan, "full experiment run to CSV + SVG",
             _SCAN_KEYS + _SOURCE_NOISE_KEYS + ("mode",), "output directory"),
    "analyze": (_cmd_analyze, "fringe statistics of a trace CSV",
                ("column", "prominence"), _JSON_OUT),
    "sensitivity": (_cmd_sensitivity, "phase-sensitivity scaling report",
                    ("max_m", "grid"), _JSON_OUT),
}


def dispatch(argv) -> int:
    """Run one CLI invocation; returns the process exit code."""
    parser, commands = _build_parser()
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
        if args.config:
            # File values become the subcommand's defaults, so every flag
            # still beats them; keys of other subcommands are ignored.
            values = load_config(args.config)
            commands[args.command].set_defaults(
                **{key: _cast(key, text) for key, text in values.items() if key in vars(args)})
            args = parser.parse_args(argv)
        return _COMMANDS[args.command][0](args)
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
