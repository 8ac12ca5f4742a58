"""CSV serialization of count traces and JSON report writing.

Floats are written with 17 significant digits, which round-trips IEEE
doubles exactly, so a written trace reads back bit-identical.  The writer
goes one chunk of rows (``CHUNK_ROWS``) at a time through the open file:
it converts each column's chunk to Python numbers once and formats the
chunk with one ``%`` of a row template repeated once per row, applied to
the row-major sequence of its values; ``%d`` and ``%.17g`` give the same
bytes as formatting each value on its own.  The reader opens the file
once, as UTF-8 text without newline translation, and goes through it
twice a block of text at a time: it counts the lines, then parses a chunk
of rows at a time with numpy's C parser (``np.loadtxt``) into
preallocated integer and float columns.  Lines are split as
``str.splitlines`` splits them, and blank and whitespace-only lines are
dropped, so a CRLF copy of a trace, or one with blank lines added, reads
as the trace does.

``_COLUMNS`` says, per source mode, which column holds which ``CountTrace``
field; the writer, the reader, the headers and :func:`measured_columns`
(what ``scan`` plots and ``analyze`` picks from) all read it.
"""

from __future__ import annotations

import json
import re
from itertools import chain
from pathlib import Path

import numpy as np

from ._chunks import CHUNK_ROWS, row_chunks, write_text
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


def _header_mode(header: tuple):
    """The source mode whose CSV header is ``header``, or None."""
    return next((mode for mode, columns in _COLUMNS.items() if tuple(columns) == header), None)


def _dtype(header: tuple) -> np.dtype:
    return np.dtype([(name, np.int64 if name in _INTEGER_COLUMNS else float) for name in header])


def measured_columns(trace: CountTrace) -> dict:
    """The columns of ``trace`` after the scan axes, by CSV name in file order."""
    return {name: getattr(trace, field) for name, field in _COLUMNS[trace.mode].items()
            if name not in _AXES}


def write_trace_csv(trace: CountTrace, path) -> None:
    """Write a trace as UTF-8 CSV with LF line endings.

    The columns are ``PHOTON_HEADER`` (integer counts) or
    ``CLASSICAL_HEADER``.  The trace is validated first, so a trace that
    would not read back is never written; a write that fails part way
    leaves no file behind.
    """
    trace.validate()
    fields = _COLUMNS[trace.mode]
    arrays = [getattr(trace, field) for field in fields.values()]
    # ``%d`` of a Python int and ``%.17g`` of a Python float give the same
    # text as ``str(int(v))`` and ``format(float(v), ".17g")``, so each
    # chunk formats exactly as its values would one by one.
    row = ",".join("%d" if name in _INTEGER_COLUMNS else "%.17g" for name in fields) + "\n"

    def text():
        yield ",".join(fields) + "\n"
        for rows in row_chunks(len(trace)):
            columns = [_column(name, values[rows]) for name, values in zip(fields, arrays)]
            yield row * len(columns[0]) % tuple(chain.from_iterable(zip(*columns)))

    write_text(path, text(), "trace CSV")


def read_trace_csv(path) -> CountTrace:
    """Read a trace CSV: a file that :func:`write_trace_csv` writes, or any
    UTF-8 text whose lines, split as ``str.splitlines`` splits them and with
    blank and whitespace-only lines dropped, are a trace header and its rows.

    Every row must have the header's column count, and the
    ``bin``/``d1``/``d2``/``coinc`` columns must hold integer literals; a
    malformed row raises ``ValueError`` naming the file and the row.  A
    header-only file reads as an empty trace.
    """
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            mode, columns = _read_columns(fh, path)
    except UnicodeDecodeError:
        # The decoder counts bytes within its own buffer; decoding the whole
        # file names the place of the bad byte in the file.
        Path(path).read_text(encoding="utf-8")
        raise
    except OSError as exc:
        raise OSError(f"cannot read trace CSV {path}: {exc}") from exc
    fields = {field: columns[name] for name, field in _COLUMNS[mode].items()}
    if "coincidences" not in fields:
        fields["coincidences"] = np.zeros(len(columns["bin"]))
    trace = CountTrace(mode=mode, **fields)
    trace.validate()
    return trace


def _blocks(fh):
    """The non-blank lines of ``fh``, one list per block of text.

    A block is ``16 * CHUNK_ROWS`` characters and the rest of the line they
    end in, so every block ends where a line ends and the blocks split into
    the lines of the whole text.
    """
    while text := fh.read(16 * CHUNK_ROWS) + fh.readline():
        yield list(filter(str.strip, text.splitlines()))


def _read_columns(fh, path):
    """``(mode, columns)`` of the trace file open as ``fh``: its lines counted
    in one pass, then parsed a chunk of rows at a time into preallocated
    columns."""
    rows = sum(map(len, _blocks(fh))) - 1
    if rows < 0:
        raise ValueError(f"{path}: empty trace file")
    fh.seek(0)
    lines = chain.from_iterable(_blocks(fh))
    first = next(lines)
    header = tuple(first.split(","))
    mode = _header_mode(header)
    if mode is None:
        raise ValueError(f"{path}: unrecognised trace header {first!r}")

    dtype = _dtype(header)
    columns = {name: np.empty(rows, dtype[name]) for name in header}
    for chunk in row_chunks(rows):
        try:
            table = np.loadtxt(lines, delimiter=",", dtype=dtype, comments=None, ndmin=1,
                               max_rows=chunk.stop - chunk.start)
        except ValueError as exc:
            # numpy counts rows from the chunk's first and may append advice
            # on ``usecols``.
            reason = re.sub(r"(?<=at row )\d+", lambda row: str(int(row[0]) + chunk.start),
                            str(exc).split("; use `usecols`")[0], count=1)
            raise ValueError(f"{path}: malformed trace data: {reason}") from None
        for name, column in columns.items():
            column[chunk] = table[name]
    return mode, columns


def write_json_report(payload: dict, path) -> None:
    """Write a JSON report with stable formatting (LF, 2-space indent)."""
    write_text(path, [json.dumps(payload, indent=2, sort_keys=True) + "\n"], "report")
