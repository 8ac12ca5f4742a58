"""CSV serialization of count traces and JSON report writing.

Floats are written with 17 significant digits, which round-trips IEEE
doubles exactly, so a written trace reads back bit-identical.  The writer
goes one chunk of rows (``CHUNK_ROWS``) at a time through the open file:
it converts each column's chunk to Python numbers once and formats the
chunk with one ``%`` of a row template repeated once per row, applied to
the row-major sequence of its values; ``%d`` and ``%.17g`` give the same
bytes as formatting each value on its own.  The reader parses a chunk of
rows at a time with numpy's C parser (``np.loadtxt``), straight from the
open file, into integer and float columns; CRLF line ends, which text
mode reads as LF, are read so too.  A file holding anything else the
writer does not write (another character or line end, a blank line) is
read as a whole instead, with its blank and whitespace-only lines
dropped; it gives the same trace or the same error as the chunked read
would if that could take it.

``_COLUMNS`` says, per source mode, which column holds which ``CountTrace``
field; the writer, the reader, the headers and :func:`measured_columns`
(what ``scan`` plots and ``analyze`` picks from) all read it.
"""

from __future__ import annotations

import json
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
    """Read a trace CSV written by :func:`write_trace_csv`.

    Blank and whitespace-only lines are skipped.  Every row must have the
    header's column count, and the ``bin``/``d1``/``d2``/``coinc`` columns
    must hold integer literals; a malformed row raises ``ValueError``
    naming the file.  A header-only file reads as an empty trace.
    """
    try:
        read = _read_chunks(path)
    except (OSError, ValueError):
        read = None
    mode, columns = read or _read_lines(path)
    fields = {field: columns[name] for name, field in _COLUMNS[mode].items()}
    if "coincidences" not in fields:
        fields["coincidences"] = np.zeros(len(columns["bin"]))
    trace = CountTrace(mode=mode, **fields)
    trace.validate()
    return trace


# Every byte the writer writes: header letters, digits, signs, points,
# exponents, commas and LF.
_WRITTEN_BYTES = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_+-.,\n"


def _data_rows(path):
    """The number of data rows in ``path`` if it holds only ``_WRITTEN_BYTES``,
    each LF possibly after a CR, and no blank line, else None.  Read a block
    of bytes at a time.

    Each CRLF counts as the LF that text mode reads it as.
    """
    lines, last, held = 0, b"\n", b""
    with open(path, "rb") as fh:
        while block := fh.read(64 * CHUNK_ROWS):
            # A CR that ends a block waits for the LF that must start the next.
            block, held = held + block, b""
            if block.endswith(b"\r"):
                block, held = block[:-1], b"\r"
            if b"\r" in block:
                block = block.replace(b"\r\n", b"\n")
            if not block:
                continue
            # LF offsets with the last byte of the block before in front, so a
            # blank line across the seam shows as two adjacent LFs.
            ends = np.flatnonzero(np.frombuffer(last + block, np.uint8) == ord("\n"))
            if block.translate(None, _WRITTEN_BYTES) or np.any(np.diff(ends) == 1):
                return None
            lines += len(ends) - (last == b"\n")
            last = block[-1:]
    if held:
        return None
    lines += last != b"\n"
    return lines - 1 if lines else None


def _read_chunks(path):
    """``(mode, columns)`` of a file as the writer writes it, parsed a chunk
    of rows at a time into preallocated columns, or None for any other file.

    On such a file numpy splits the same lines as :func:`_read_lines` and
    skips none, so where this read succeeds, that one gives the same columns.
    Beside the columns it holds one chunk's table and one block of bytes.
    """
    rows = _data_rows(path)
    if rows is None:
        return None
    with open(path, encoding="utf-8") as fh:
        header = tuple(fh.readline().rstrip("\n").split(","))
        mode = _header_mode(header)
        if mode is None:
            return None
        dtype = _dtype(header)
        columns = {name: np.empty(rows, dtype[name]) for name in header}
        for chunk in row_chunks(rows):
            table = np.loadtxt(fh, delimiter=",", dtype=dtype, comments=None, ndmin=1,
                               max_rows=chunk.stop - chunk.start)
            for name, column in columns.items():
                column[chunk] = table[name]
    return mode, columns


def _read_lines(path):
    """``(mode, columns)`` of any trace file: the whole text split into lines,
    blank and whitespace-only lines dropped, and the rest parsed at once."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot read trace CSV {path}: {exc}") from exc
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty trace file")
    header = tuple(lines[0].split(","))
    mode = _header_mode(header)
    if mode is None:
        raise ValueError(f"{path}: unrecognised trace header {lines[0]!r}")

    dtype = _dtype(header)
    if len(lines) > 1:
        try:
            table = np.loadtxt(lines[1:], delimiter=",", dtype=dtype, comments=None, ndmin=1)
        except ValueError as exc:
            # numpy's message counts data rows and may append advice on ``usecols``.
            reason = str(exc).split("; use `usecols`")[0]
            raise ValueError(f"{path}: malformed trace data: {reason}") from None
    else:
        table = np.zeros(0, dtype=dtype)
    return mode, {name: np.array(table[name]) for name in header}


def write_json_report(payload: dict, path) -> None:
    """Write a JSON report with stable formatting (LF, 2-space indent)."""
    write_text(path, [json.dumps(payload, indent=2, sort_keys=True) + "\n"], "report")
