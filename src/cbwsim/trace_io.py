"""CSV serialization of count traces and JSON report writing.

Floats are written with 17 significant digits, which round-trips IEEE
doubles exactly, so a written trace reads back bit-identical.  The writer
goes one chunk of rows (``CHUNK_ROWS``) at a time through the open file
and formats each chunk in numpy (:func:`_rows_text`) with the bytes that
``%d`` and ``%.17g`` write for each value: every field is a fixed-width
run of ASCII bytes, built one byte place across the chunk's rows at a
time from a template of the bytes no value changes, a keep mask drops
what a value does not write, and one compaction gives the chunk's text.
The integer columns share one width and are formatted at once, and so
are the float columns, so a chunk takes the same numpy calls whatever
its columns hold; every digit comes from a lookup of four digits at a
time (:func:`_put_ascii`).  Integers are written from their int64
digits.  A float whose decimal exponent after rounding to 17 digits lies
in -4..16 takes ``%g``'s fixed notation from its 17 digits, rounded
exactly (:func:`_seventeen_digits`); every other float but 0 (below
about 1e-4, subnormals too, or from 1e17 up) takes exponent notation,
which ``%.17g`` itself writes, only in the fields of a chunk that hold
such values.  The reader opens the file once, as UTF-8 text without
newline translation, and goes through it twice a block of text at a time:
it counts the lines, then parses a chunk of rows at a time with numpy's C
parser (``np.loadtxt``) into preallocated integer and float columns.
Lines are split as ``str.splitlines`` splits them, and blank and
whitespace-only lines are dropped, so a CRLF copy of a trace, or one with
blank lines added, reads as the trace does.

``_COLUMNS`` says, per source mode, which column holds which ``CountTrace``
field; the writer, the reader, the headers and :func:`measured_columns`
(what ``scan`` plots and ``analyze`` picks from) all read it.
"""

from __future__ import annotations

import json
import re
from itertools import chain, groupby
from pathlib import Path

import numpy as np

from ._chunks import CHUNK_ROWS, halves, put_digits, row_chunks, write_text
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

# The powers of ten 10**0 .. 10**18 as uint64.
_POW10_INT = np.array([10**k for k in range(19)], dtype=np.uint64)


def _digit_table() -> np.ndarray:
    """The ASCII digits of 0 .. 9999, four places wide, each as the uint32
    that holds those four bytes in order; no temporary outgrows the 40 kB
    table, and the digits take the uint32 loops the SVG writer runs."""
    table = np.empty((10_000, 4), dtype=np.uint8)
    put_digits(np.arange(10_000, dtype=np.uint32), table)
    table += ord("0")
    return table.view(np.uint32).ravel()


_DIGITS = _digit_table()
# The places 0-17 of a float's digits and point (places 6-23 of its field),
# as a column that broadcasts against values by field and row.
_DIGIT_PLACES = np.arange(18, dtype=np.int8)[:, None]
# The greatest decimal exponent of a float (rounded to 17 digits) at which
# each place of ``0.000`` is kept.
_PREFIX_EXPONENTS = np.array([-1, -1, -2, -3, -4], dtype=np.int8)[:, None]

# The powers of ten 10**0 .. 10**22, exact doubles, and their splits.
_POW10 = np.array([float(10**k) for k in range(23)])
_POW10_HI, _POW10_LO = halves(_POW10)
# The least double of each decimal exponent X from -4 to 17, X being the
# exponent after rounding to 17 digits.  X does not fall as a double grows,
# so a double's X, clamped to -5..17, is the number of these at or below
# it, less 5.  Each is the double nearest its power of ten: from 10**0 up,
# the power itself; the doubles nearest 1e-4 .. 1e-1 each lie above their
# power, so each rounds to it at 17 digits, and the double below each
# rounds below it.  That is a fact of these doubles, not a bound: a
# double's own rounding error can reach ~1.1e-16 of it, far more than the
# 17th digit.
_DECADES = np.concatenate([[1e-4, 1e-3, 1e-2, 1e-1], _POW10[:18]])
# Per clamped decimal exponent X (a negative X indexes from the end): the
# power of ten that scales a double of X to 17 digits, ``16 - X`` within the
# exact powers (a value of exponent notation is scaled as X = -5 or 16);
# the place of the point among the digits (17, past them all, below 1); and
# whether ``%.17g`` writes exponent notation.
_EXPONENTS = [*range(18), *range(-5, 0)]
_SCALE = np.array([min(max(16 - x, 0), 21) for x in _EXPONENTS], dtype=np.intp)
_POINT = np.array([17 if x < 0 else min(x + 1, 17) for x in _EXPONENTS], dtype=np.int8)
_SCIENTIFIC = np.array([not -4 <= x <= 16 for x in _EXPONENTS])


def _seventeen_digits(values: np.ndarray):
    """``(digits, exponent)`` of doubles ``values``: the 17 digits D that
    ``%.17g`` writes in fixed notation (0 for 0), as uint64, and each
    value's decimal exponent X after rounding to 17 digits, clamped to
    -5..17.

    X is exact: it is the number of doubles in ``_DECADES`` at or below
    ``|v|``, less 5, as each of them is the least double of its X.  D is
    ``|v| * 10**(16 - X)`` rounded half to even, from the rounded product
    and its exact error (Dekker's product of the halves of ``|v|`` and of
    the power of ten); it lies in ``[10**16, 10**17)``, as X is the
    exponent after rounding.  Values of exponent notation get a D of at
    most ``10**17`` that is never written.
    """
    a = np.abs(values)
    exponent = np.searchsorted(_DECADES, a, side="right")
    exponent -= 5
    # 0 lies below every threshold, and is written as X = 0.
    exponent[a == 0] = 0
    np.minimum(a, 1e17, out=a)
    power = _SCALE[exponent]
    p = a * _POW10[power]
    a_hi, a_lo = halves(a)
    s_hi, s_lo = _POW10_HI[power], _POW10_LO[power]
    e = a_hi * s_hi
    e -= p
    a_hi *= s_lo
    e += a_hi
    s_hi *= a_lo
    e += s_hi
    a_lo *= s_lo
    e += a_lo
    # p is a whole number and even (its ulp is 2 or more from 2**53 up), so
    # rounding e half to even rounds p + e half to even.
    digits = p.astype(np.int64)
    np.add(digits, np.rint(e, out=e), out=digits, dtype=np.int64, casting="unsafe")
    return digits.view(np.uint64), exponent


def _put_ascii(q: np.ndarray, out: np.ndarray) -> None:
    """Write the lowest ``out.shape[1]`` (a multiple of 4) decimal digits of
    the unsigned integers ``q`` (fields by rows) into ``out`` as ASCII, by
    field, place and row: the places are cut into limbs of 4 digits, and one
    lookup in ``_DIGITS`` gives the four bytes of every limb."""
    limbs = np.empty((len(q), out.shape[1] // 4, q.shape[1]), dtype=np.intp)
    # The highest limb takes what is left above the others, which fits.
    limbs[:, 0] = put_digits(q, limbs[:, 1:].transpose(0, 2, 1), base=10_000)
    ascii = _DIGITS[limbs].view(np.uint8).reshape(limbs.shape + (4,))
    out.reshape(limbs.shape[:2] + (4, -1))[...] = ascii.transpose(0, 1, 3, 2)


def _int_fields(values, magnitude, digits, sign, chars, keep) -> None:
    """Write int64 ``values`` (fields by rows, ``magnitude`` their absolute
    values as uint64 and ``digits`` the ASCII of their lowest ``places``
    digits, by field, place and row) as ``%d`` does into the digit and sign
    places of ``chars`` and ``keep``: the ASCII bytes by field, byte place
    and row of fields ``sign + places + 1`` wide, and which of them are
    kept."""
    chars[:, sign:-1] = digits
    places = digits.shape[1]
    # The digit at 10**k is kept once the value reaches 10**k; the units
    # digit always.  A place at a time: a comparison broadcast across the
    # places would buffer 8-byte operands.
    for place, power in enumerate(_POW10_INT[places - 1:0:-1], start=sign):
        np.greater_equal(magnitude, power, out=keep[:, place])
    if sign:
        np.less(values, 0, out=keep[:, 0])


def _float_fields(values, ascii, exponent, chars, keep) -> None:
    """Write doubles ``values`` (fields by rows) as ``%.17g`` does into the
    sign, digit and point places of ``chars`` and ``keep``: the ASCII bytes
    by field, byte place and row of float fields, and which of them are
    kept.

    A value whose decimal exponent X after rounding to 17 digits lies in
    ``-4 <= X <= 16`` is written in ``%g``'s fixed notation from X and its
    17 digits D (:func:`_seventeen_digits`), and so is 0: places 3-19 of
    ``ascii`` (by field, place and row) hold D, place 2 a 0, and place 20
    any byte.  Every other value is then written over by
    :func:`_exponent_notation`.
    """
    # Places 6-23: the units digit at place 6 + X, the point after it, then
    # the rest of the digits; below 1, all 17 after ``0.000``.  ascii[:, 3:]
    # has digit j at place j and ascii[:, 2:-1] at place j + 1, so past the
    # point, in bytes modulo 256, ascii[:, 3:] + (ascii[:, 2:-1] -
    # ascii[:, 3:]) * after moves each digit up one place; the point's byte
    # is then made a ``.`` the same way.  One buffer holds each step's
    # bytes in turn.
    point = _POINT[exponent][:, None]
    # Compared as int8, so that numpy's buffers for the broadcasts stay small.
    exponent = exponent.astype(np.int8)
    body = chars[:, 6:-1]
    step = np.subtract(ascii[:, 2:-1], ascii[:, 3:])
    step *= _DIGIT_PLACES > point
    np.add(ascii[:, 3:], step, out=body)
    np.subtract(ord("."), body, out=step)
    step *= _DIGIT_PLACES == point
    body += step
    # Kept: through the units digit, and on to the last nonzero digit.
    places = step.view(np.int8)
    np.multiply(body > ord("0"), _DIGIT_PLACES, out=places)
    last = np.max(places, axis=1)
    del step, places
    np.maximum(last, exponent, out=last)
    np.less_equal(_DIGIT_PLACES, last[:, None], out=keep[:, 6:-1])
    np.less_equal(exponent[:, None], _PREFIX_EXPONENTS, out=keep[:, 1:6])
    np.signbit(values, out=keep[:, 0])


def _exponent_notation(values, exponent, chars, keep) -> None:
    """Write the doubles of ``values`` (fields by rows) whose decimal
    exponents ``exponent`` (:func:`_seventeen_digits`) take ``%.17g``'s
    exponent notation into places 0-23 of their fields of ``chars`` and
    ``keep``, a field at a time, as ``%.17g`` writes them."""
    scientific = _SCIENTIFIC[exponent]
    for field in np.flatnonzero(scientific.any(axis=1)):
        rows = np.flatnonzero(scientific[field])
        text = np.fromiter(("%.17g" % v for v in values[field, rows]), dtype="S24",
                           count=len(rows))
        text = text.view(np.uint8).reshape(len(rows), 24)
        chars[field, :24, rows] = text
        keep[field, :24, rows] = text != 0


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

    def text():
        yield ",".join(fields) + "\n"
        for rows in row_chunks(len(trace)):
            yield _rows_text(fields, [values[rows] for values in arrays])

    write_text(path, text(), "trace CSV")


def _rows_text(names, columns) -> str:
    """The CSV rows of ``columns``, equal-length arrays named ``names``, each
    value as ``%d`` (integer columns) or ``%.17g`` formats it: the bytes of
    :func:`_rows_table` that are kept, taken row by row.  Everything else the
    table was made from is let go before this one compaction."""
    chars, keep = _rows_table(names, columns)
    return str(chars.T[keep.T], "ascii")


def _rows_table(names, columns):
    """``(chars, keep)``: the CSV rows of ``columns`` as fixed-width fields
    of ASCII bytes, by byte place and row, and which of the bytes are kept.

    The fields are built a byte place by all rows at a time from a template
    of the bytes no value changes (a sign, ``0.000``, commas and the line
    end).  The integer columns share one width and are formatted at once,
    and so are the float columns.
    """
    n = len(columns[0])
    integer = [name in _INTEGER_COLUMNS for name in names]
    ints = np.array([column for column, whole in zip(columns, integer) if whole], dtype=np.int64)
    floats = np.array([column for column, whole in zip(columns, integer) if not whole], dtype=float)
    # abs of int64's minimum wraps to itself, which is 2**63 as uint64.
    magnitude = np.abs(ints).view(np.uint64)
    places = len(str(magnitude.max()))
    sign = int(ints.min() < 0)
    # Every digit is written before the tables of bytes are made.
    int_digits = np.empty((len(ints), -(-places // 4) * 4, n), dtype=np.uint8)
    _put_ascii(magnitude, int_digits)
    digits, exponent = _seventeen_digits(floats)
    float_digits = np.empty((len(floats), 21, n), dtype=np.uint8)
    _put_ascii(digits, float_digits[:, :20])
    del digits

    # Per kind of column (integer or not): a field's bytes that no value
    # changes, and which of them every value keeps.  An integer field: a
    # sign if any value is negative, the digits of the widest value, and
    # the comma.  A float field: the sign, the ``0.000`` of a value below 1,
    # 17 digits with a place for the point among or after them, and the
    # comma; a value in exponent notation takes at most the first 24.
    fields = {True: (b"-" * sign + b"0" * places + b",", b"\0" * (sign + places - 1) + b"\1\1"),
              False: (b"-0.000" + b"0" * 18 + b",", b"\0" * 24 + b"\1")}
    template, kept = (b"".join(fields[whole][part] for whole in integer) for part in (0, 1))
    chars = np.empty((len(template), n), dtype=np.uint8)
    chars[...] = np.frombuffer(template[:-1] + b"\n", dtype=np.uint8)[:, None]
    keep = np.empty(chars.shape, dtype=bool)
    keep[...] = np.frombuffer(kept, dtype=bool)[:, None]
    # Each run of columns of one kind: its fields (rows of ``ints`` or
    # ``floats``) and their places in the tables.
    runs, start, taken = {True: [], False: []}, 0, {True: 0, False: 0}
    for whole, run in groupby(integer):
        count, first = len(list(run)), taken[whole]
        shape = (count, len(fields[whole][0]), n)
        stop = start + shape[0] * shape[1]
        runs[whole].append((slice(first, first + count), chars[start:stop].reshape(shape),
                            keep[start:stop].reshape(shape)))
        start, taken[whole] = stop, first + count

    for rows, run_chars, run_keep in runs[True]:
        _int_fields(ints[rows], magnitude[rows], int_digits[rows, -places:], sign,
                    run_chars, run_keep)
    del ints, magnitude, int_digits
    for rows, run_chars, run_keep in runs[False]:
        _float_fields(floats[rows], float_digits[rows], exponent[rows], run_chars, run_keep)
    # Exponent notation, in Python, last: every digit table is let go by then.
    del float_digits
    for rows, run_chars, run_keep in runs[False]:
        _exponent_notation(floats[rows], exponent[rows], run_chars, run_keep)
    return chars, keep


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
