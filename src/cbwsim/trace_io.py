"""CSV serialization of count traces and JSON report writing.

Floats are written with 17 significant digits, which round-trips IEEE
doubles exactly, so a written trace reads back bit-identical.  Each
column is converted to Python numbers once, and the whole body is one
``%`` of a row template repeated once per row, applied to the row-major
sequence of values; ``%d`` and ``%.17g`` give the same bytes as
formatting each value on its own.  The reader parses the body with
numpy's C parser (``np.loadtxt``) into integer and float columns.

``_COLUMNS`` says, per source mode, which column holds which ``CountTrace``
field; the writer, the reader, the headers and :func:`measured_columns`
(what ``scan`` plots and ``analyze`` picks from) all read it.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path

import numpy as np

from .config import SourceMode
from .montecarlo import CountTrace

__all__ = [
    "PHOTON_HEADER",
    "CLASSICAL_HEADER",
    "measured_columns",
    "read_trace_csv",
    "write_json_report",
    "write_trace_csv",
]

# Source mode -> CSV column -> CountTrace field, in file order: the scan axes,
# then the measured columns.  A classical file has no coincidence column.
_AXES = {"bin": "bin_index", "time_s": "time", "voltage_V": "voltage", "psi_rad": "psi"}
_COLUMNS = {
    SourceMode.PHOTON_COUNTING: {**_AXES, "d1": "singles_d1", "d2": "singles_d2",
                                 "coinc": "coincidences"},
    SourceMode.CLASSICAL_INTENSITY: {**_AXES, "i_gamma": "singles_d1", "i_delta": "singles_d2"},
}

PHOTON_HEADER = tuple(_COLUMNS[SourceMode.PHOTON_COUNTING])
CLASSICAL_HEADER = tuple(_COLUMNS[SourceMode.CLASSICAL_INTENSITY])


# Columns that hold integers; every other column is a float written with
# 17 significant digits.
_INTEGER_COLUMNS = frozenset({"bin", "d1", "d2", "coinc"})


def _column(name: str, values) -> list:
    if name in _INTEGER_COLUMNS:
        return np.asarray(values).astype(np.int64).tolist()
    return np.asarray(values, dtype=float).tolist()


def measured_columns(trace: CountTrace) -> dict:
    """The columns of ``trace`` after the scan axes, by CSV name in file order."""
    return {name: getattr(trace, field) for name, field in _COLUMNS[trace.mode].items()
            if name not in _AXES}


def write_trace_csv(trace: CountTrace, path) -> None:
    """Write a trace as UTF-8 CSV with LF line endings.

    The columns are ``PHOTON_HEADER`` (integer counts) or
    ``CLASSICAL_HEADER``.  The trace is validated first, so a trace that
    would not read back is never written.
    """
    trace.validate()
    fields = _COLUMNS[trace.mode]
    columns = [_column(name, getattr(trace, field)) for name, field in fields.items()]
    # ``%d`` of a Python int and ``%.17g`` of a Python float give the same
    # text as ``str(int(v))`` and ``format(float(v), ".17g")``, so the body
    # formats exactly as its values would one by one.  The header holds no
    # ``%``, so it goes into the template and the file text is built once.
    row = ",".join("%d" if name in _INTEGER_COLUMNS else "%.17g" for name in fields) + "\n"
    template = ",".join(fields) + "\n" + row * len(columns[0])
    data = template % tuple(chain.from_iterable(zip(*columns)))
    try:
        Path(path).write_text(data, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise OSError(f"cannot write trace CSV {path}: {exc}") from exc


def read_trace_csv(path) -> CountTrace:
    """Read a trace CSV written by :func:`write_trace_csv`.

    Blank lines are skipped.  Every row must have the header's column
    count, and the ``bin``/``d1``/``d2``/``coinc`` columns must hold
    integer literals; a malformed row raises ``ValueError`` naming the
    file.  A header-only file reads as an empty trace.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot read trace CSV {path}: {exc}") from exc
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty trace file")
    header = tuple(lines[0].split(","))
    mode = next((mode for mode, columns in _COLUMNS.items() if tuple(columns) == header), None)
    if mode is None:
        raise ValueError(f"{path}: unrecognised trace header {lines[0]!r}")

    dtype = np.dtype([(name, np.int64 if name in _INTEGER_COLUMNS else float) for name in header])
    if len(lines) > 1:
        try:
            table = np.loadtxt(lines[1:], delimiter=",", dtype=dtype, comments=None, ndmin=1)
        except ValueError as exc:
            # numpy's message counts data rows and may append advice on ``usecols``.
            reason = str(exc).split("; use `usecols`")[0]
            raise ValueError(f"{path}: malformed trace data: {reason}") from None
    else:
        table = np.zeros(0, dtype=dtype)
    fields = {"coincidences": np.zeros(len(table))}
    fields.update((field, np.array(table[name])) for name, field in _COLUMNS[mode].items())
    trace = CountTrace(mode=mode, **fields)
    trace.validate()
    return trace


def write_json_report(payload: dict, path) -> None:
    """Write a JSON report with stable formatting (LF, 2-space indent)."""
    data = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    try:
        Path(path).write_text(data, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise OSError(f"cannot write report {path}: {exc}") from exc
