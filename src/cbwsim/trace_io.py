"""CSV serialization of count traces and JSON report writing.

Floats are written with 17 significant digits, which round-trips IEEE
doubles exactly, so a written trace reads back bit-identical.  Each
column is converted to Python numbers once, and the whole body is one
``%`` of a row template repeated once per row, applied to the row-major
sequence of values; ``%d`` and ``%.17g`` give the same bytes as
formatting each value on its own.  The reader parses the body with
numpy's C parser (``np.loadtxt``) into integer and float columns.
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
    "read_trace_csv",
    "write_json_report",
    "write_trace_csv",
]

PHOTON_HEADER = ("bin", "time_s", "voltage_V", "psi_rad", "d1", "d2", "coinc")
CLASSICAL_HEADER = ("bin", "time_s", "voltage_V", "psi_rad", "i_gamma", "i_delta")


# Columns that hold integers; every other column is a float written with
# 17 significant digits.
_INTEGER_COLUMNS = frozenset({"bin", "d1", "d2", "coinc"})


def _column(name: str, values) -> list:
    if name in _INTEGER_COLUMNS:
        return np.asarray(values).astype(np.int64).tolist()
    return np.asarray(values, dtype=float).tolist()


def write_trace_csv(trace: CountTrace, path) -> None:
    """Write a trace as UTF-8 CSV with LF line endings.

    Photon mode uses the 7-column schema ``bin,time_s,voltage_V,psi_rad,
    d1,d2,coinc`` (integer counts); classical mode the 6-column schema
    ``bin,time_s,voltage_V,psi_rad,i_gamma,i_delta``.  The trace is
    validated first, so a trace that would not read back is never written.
    """
    trace.validate()
    header = PHOTON_HEADER if trace.mode is SourceMode.PHOTON_COUNTING else CLASSICAL_HEADER
    arrays = (trace.bin_index, trace.time, trace.voltage, trace.psi,
              trace.singles_d1, trace.singles_d2, trace.coincidences)
    # zip stops at the header, so a classical trace drops its zero coincidences.
    columns = [_column(name, values) for name, values in zip(header, arrays)]
    # ``%d`` of a Python int and ``%.17g`` of a Python float give the same
    # text as ``str(int(v))`` and ``format(float(v), ".17g")``, so the body
    # formats exactly as its values would one by one.  The header holds no
    # ``%``, so it goes into the template and the file text is built once.
    row = ",".join("%d" if name in _INTEGER_COLUMNS else "%.17g" for name in header) + "\n"
    template = ",".join(header) + "\n" + row * len(columns[0])
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
    if header == PHOTON_HEADER:
        photon = True
    elif header == CLASSICAL_HEADER:
        photon = False
    else:
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
    columns = [np.array(table[name]) for name in header]

    trace = CountTrace(
        mode=SourceMode.PHOTON_COUNTING if photon else SourceMode.CLASSICAL_INTENSITY,
        bin_index=columns[0],
        time=columns[1],
        voltage=columns[2],
        psi=columns[3],
        singles_d1=columns[4],
        singles_d2=columns[5],
        coincidences=columns[6] if photon else np.zeros(len(table)),
    )
    trace.validate()
    return trace


def write_json_report(payload: dict, path) -> None:
    """Write a JSON report with stable formatting (LF, 2-space indent)."""
    data = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    try:
        Path(path).write_text(data, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise OSError(f"cannot write report {path}: {exc}") from exc
