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
fractions such as ``pi/2`` or ``3pi/4``, or ``deg:<x>``.  A token that is
``-`` and then a digit, ``.digit``, ``inf``, ``nan`` or ``pi`` (any case)
is a value, not a flag: ``--phi -pi/2`` reads as ``--phi=-pi/2``, after an
abbreviation argparse resolves too (``--ph -pi/2``), and ``--out -1.csv``
as ``--out=-1.csv``.  Any other ``-`` token leaves the flag before it
without its value (``--phi -x``).

Exit codes: 0 success (``--help`` too), 1 configuration/usage error, 2
analysis error (e.g. no fringes in the trace).  ``dispatch`` returns the
code and never raises ``SystemExit``.
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
# value.  A default appears only where the CLI has one of its own, or reads
# the value itself (modules builds the chain, grid is echoed in its report);
# any other unset option is left out of the constructors, so the library
# default applies.
_OPTIONS = {
    "modules": dict(type=int, default=2,
                    help="number of cascaded MZI stages (default %(default)s)"),
    # Parsed in _scan_config, so a bad value is a one-line ConfigError.
    "phi": dict(help="control phase (radians, pi forms, deg:<x>)"),
    "points": dict(type=int, help="acquisition bins across the ramp"),
    "ramp_start": dict(type=float),
    "ramp_end": dict(type=float),
    "scan_duration": dict(type=float),
    "bin_duration": dict(type=float),
    "cycles_per_ramp": dict(type=float, help="singles fringe cycles across the full ramp"),
    "circuit": dict(help="path to a .mzi circuit file; overrides --modules, "
                         "and --phi binds its phi parameter"),
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


def _read_text(path, what: str) -> str:
    """The UTF-8 text of file ``path``; a failed read is a ConfigError naming
    the file as ``what``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def load_config(path) -> dict:
    """Load a flat ``key=value`` config file; unknown keys are errors."""
    text = _read_text(path, "config")
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


class _ParserExit(Exception):
    """``(status, message)`` of a parse that ends the run, and the parser that ended it."""

    def __init__(self, status, message, parser):
        super().__init__(status, message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads a "-" token as a value, not a flag, if this matches
        # it: "-" then a digit, ".digit", inf, nan or pi, in any case.  Its
        # own pattern takes "-1" and "-.5" but not "-1e-3" or "-pi/2".
        self._negative_number_matcher = re.compile(r"-(?:\.?\d|inf|nan|pi)", re.IGNORECASE)

    def exit(self, status=0, message=None):  # dispatch returns it (0 after --help)
        raise _ParserExit(status, message, self)

    def error(self, message):  # exit 1 instead of argparse's 2
        self.exit(1, message)


def _arguments(name: str):
    """Each ``(flag, argparse keywords)`` of subcommand ``name``, in help order."""
    _, _, keys, out_help = _COMMANDS[name]
    yield "--config", dict(help="key=value config file; flags override it")
    if name == "analyze":
        yield "--in", dict(dest="input", required=True, help="input trace CSV")
    for key in keys:
        yield "--" + key.replace("_", "-"), dict(dest=key, **_OPTIONS[key])
    yield "--out", dict(required=out_help is not _JSON_OUT, help=out_help)


def _build_parser(argv=()):
    """The ``cbwsim`` parser for ``argv`` and its subcommand parsers by name.

    argparse takes the first token that names a subcommand as the
    subcommand, since the top-level parser has no option taking a value, and
    hands its parser every later token.  So a command named first gets a
    tree of its own subparser alone: the top-level usage,
    ``cbwsim [-h] COMMAND ...``, does not list the choices, and the run
    reads as through the full tree.  Any other ``argv`` (help, no command,
    a command not named first) gets every subparser, so the top-level help
    and an invalid choice list them all.
    """
    parser = _Parser(prog="cbwsim", description="Cascaded-MZI interference lab")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    commands = {}
    for name in [argv[0]] if argv and argv[0] in _COMMANDS else _COMMANDS:
        commands[name] = sub.add_parser(name, help=_COMMANDS[name][1])
        for flag, keywords in _arguments(name):
            commands[name].add_argument(flag, **keywords)
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
                    "cycles_per_ramp")
    if args.circuit:
        fields["circuit"] = circuit.parse_circuit(_read_text(args.circuit, "circuit"))
    else:
        fields["circuit"] = circuit.build_cbw_chain(args.modules)
    if args.phi is not None:
        fields["phi"] = parse_phase(args.phi)
    return ScanConfig(**fields)


def _noise_model(args) -> NoiseModel:
    base = LAB_NOISE if args.noise == "lab" else NoiseModel()
    # Each NoiseModel field has an option of the same name.
    return dataclasses.replace(base, **_given(args, *(f.name for f in dataclasses.fields(NoiseModel))))


def _cmd_analytic(args) -> int:
    if args.circuit:
        raise ConfigError("analytic sweeps are defined by --modules/--phi, not a circuit file")
    scan = _scan_config(args)
    psi = scan.psi_values()
    prediction = analytic.cbw_intensities(psi, scan.phi, args.modules, **_given(args, "i0"))
    trace = montecarlo.scan_trace(scan, SourceMode.CLASSICAL_INTENSITY, psi, prediction.i_upper,
                                  prediction.i_lower, np.zeros(scan.points))
    trace_io.write_trace_csv(trace, args.out)
    return 0


def _run_configured_scan(args, mode: SourceMode) -> montecarlo.CountTrace:
    """The trace of the configured scan: photon counts or cw powers as ``mode`` says.

    The source model is checked in both modes, though a cw run does not read it.
    """
    if args.seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {args.seed}")
    source = SourceModel(**_given(args, "window_duration", mean_photons_per_window="mean_photons"))
    scan, noise = _scan_config(args), _noise_model(args)
    if mode is SourceMode.PHOTON_COUNTING:
        return montecarlo.simulate_scan_counts(scan, source, noise, args.seed)
    return montecarlo.simulate_classical_trace(scan, noise, args.seed)


def _cmd_simulate(args) -> int:
    trace = _run_configured_scan(args, SourceMode.PHOTON_COUNTING)
    trace_io.write_trace_csv(trace, args.out)
    return 0


def _cmd_scan(args) -> int:
    if args.points == 0:
        raise ConfigError("points must be at least 2 for a plotted scan, got 0")
    mode = SourceMode(args.mode)
    trace = _run_configured_scan(args, mode)
    series = list(trace_io.measured_columns(trace).items())
    ylabel = "counts per bin" if mode is SourceMode.PHOTON_COUNTING else "output power"
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc
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


def _cmd_analyze(args) -> int:
    try:
        trace = trace_io.read_trace_csv(args.input)
    except UnicodeDecodeError as exc:
        # Named as the reader names a file it cannot open.
        raise OSError(f"cannot read trace CSV {args.input}: {exc}") from exc
    columns = trace_io.measured_columns(trace)
    photon = trace.mode is SourceMode.PHOTON_COUNTING
    column = args.column if args.column is not None else ("coinc" if photon else "i_gamma")
    if column not in columns:
        raise ConfigError(f"unknown column {column!r}; choose from {sorted(columns)}")
    stats = experiment.fringe_stats(columns[column], trace.psi, **_given(args, "prominence"))
    # vars, not asdict: asdict copies every extremum pair, and JSON writes
    # the same text for either.
    _emit_json({"column": column, "source": str(args.input), **vars(stats)}, args.out)
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
    # One tree parses argv, built for it: the named command's subparser
    # alone when argv starts with one, every subparser otherwise.
    parser, commands = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.error("a subcommand is required")
    except _ParserExit as exc:
        status, message = exc.args
        if message:
            # The usage of the subcommand whose option failed, if one did.
            exc.parser.print_usage(sys.stderr)
            print(f"cbwsim: error: {message}", file=sys.stderr)
        return status
    try:
        if args.config:
            # File values become the subcommand's defaults, and the same
            # tree parses argv again, so every flag still beats them; keys of
            # other subcommands are ignored.
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
