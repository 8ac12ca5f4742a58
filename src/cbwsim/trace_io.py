"""CSV serialization of count traces and JSON report writing.

Floats are written with 17 significant digits, which round-trips IEEE
doubles exactly, so a written trace reads back bit-identical.  The writer
goes one chunk of rows (``CHUNK_ROWS``) at a time through the open file
and formats each chunk in numpy (:func:`_rows_text`) with the bytes that
``%d`` and ``%.17g`` write for each value: every field is a fixed-width
run of ASCII bytes, built one byte place across the chunk's rows at a
time, a keep mask drops what a value does not write, and one compaction
gives the chunk's text.  Integers are written from their int64 digits.  A
float whose decimal exponent after rounding to 17 digits lies in -4..16
takes ``%g``'s fixed notation from its 17 digits, rounded exactly
(:func:`_seventeen_digits`); every other float but 0 (below about 1e-4,
subnormals too, or from 1e17 up) takes exponent notation, which ``%.17g``
itself writes.  The reader opens the file once, as UTF-8 text without
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
# Byte places of a float field: the sign, the ``0.000`` of a value below 1,
# 17 digits with a place for the point among or after them, and the comma.
# A value in exponent notation takes at most the first 24.
_FLOAT_WIDTH = 25
# The places 0-17 of a float's digits and point (places 6-23 of its field),
# as a column that broadcasts against values by field and row.
_DIGIT_PLACES = np.arange(18, dtype=np.int8)[:, None]
# The greatest decimal exponent of a float (rounded to 17 digits) at which
# each place of ``0.000`` is kept.
_PREFIX_EXPONENTS = np.array([-1, -1, -2, -3, -4], dtype=np.int8)[:, None]


def _int_width(values: np.ndarray) -> int:
    """Bytes of each integer field of int64 ``values``: a sign place if any
    value is negative, as many digit places as the widest value has digits,
    and a comma."""
    sign = int(values.min(initial=0) < 0)
    return sign + len(str(np.abs(values).view(np.uint64).max(initial=0))) + 1


def _int_fields(values: np.ndarray, chars: np.ndarray, keep: np.ndarray) -> None:
    """Write int64 ``values`` (fields by rows) as ``%d`` does, each followed
    by a comma, into ``chars`` and ``keep``: the ASCII bytes by field,
    byte place and row of fields :func:`_int_width` wide, and which of
    them are kept."""
    sign = int(values.min(initial=0) < 0)
    places = chars.shape[1] - sign - 1
    # abs of int64's minimum wraps to itself, which is 2**63 as uint64.
    magnitude = np.abs(values).view(np.uint64)
    digits = chars[:, sign:-1]
    # The digit at 10**k is kept once the value reaches 10**k; the units
    # digit always.
    np.greater_equal(magnitude[:, None], _POW10_INT[places - 1:0:-1, None], out=keep[:, sign:-2])
    keep[:, -2:] = True
    if places > 9:
        # Digits past the 9th take the slower uint64 division.
        high, magnitude = np.divmod(magnitude, 10**9)
        put_digits(high, np.moveaxis(digits[:, :-9], 1, -1))
    put_digits(magnitude.astype(np.uint32), np.moveaxis(digits[:, -9:], 1, -1))
    digits += ord("0")
    if sign:
        chars[:, 0] = ord("-")
        keep[:, 0] = values < 0
    chars[:, -1] = ord(",")


# The powers of ten 10**0 .. 10**22, exact doubles, and their splits.
_POW10 = np.array([float(10**k) for k in range(23)])
_POW10_HI, _POW10_LO = halves(_POW10)


def _scaled(a: np.ndarray, exponent: np.ndarray):
    """``(p, e)`` with ``a * 10**(16 - exponent) == p + e`` exactly: ``p``
    the rounded product and ``e`` its error, by Dekker's product of the
    halves of ``a`` and of the power of ten."""
    power = 16 - exponent
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
    return p, e


def _seventeen_digits(a: np.ndarray):
    """``(digits, exponent)`` of doubles ``a`` in ``[1e-5, 1e17)``: the
    decimal exponent X of each after rounding to 17 significant digits, and
    those digits D, ``a * 10**(16 - X)`` rounded half to even."""
    # The guess is X or one off it, and every power of ten that scales a
    # value to 17 digits is an exact double.
    guess = np.log10(a)
    np.floor(guess, out=guess)
    exponent = np.clip(guess, -5, 16, out=guess).astype(np.int8)
    del guess
    p, e = _scaled(a, exponent)
    # p + e is below 1e16 when the guess is one too high, and 1e17 or more
    # when it is one too low.
    off = ((p > 1e17) | ((p == 1e17) & (e >= 0))).astype(np.int8)
    off -= (p < 1e16) | ((p == 1e16) & (e < 0))
    redo = np.nonzero(off)
    exponent[redo] += off[redo]
    p[redo], e[redo] = _scaled(a[redo], exponent[redo])
    # p is a whole number and even (its ulp is 2 or more from 2**53 up), so
    # rounding e half to even rounds p + e half to even.
    digits = p.astype(np.int64) + np.rint(e).astype(np.int64)
    # A value just below a power of ten can round up to it.
    carry = digits == 10**17
    digits[carry] = 10**16
    exponent += carry
    return digits, exponent


def _fixed_notation(digits: np.ndarray, exponent: np.ndarray, chars: np.ndarray,
                    keep: np.ndarray) -> None:
    """Write magnitudes given by their 17 digits D and decimal exponent X
    (``-4 <= X <= 16``, or D and X both 0 for 0) in ``%g``'s fixed notation
    into places 1-23 of float fields ``chars`` and ``keep``."""
    # Places 1-17 of ``ascii`` hold the 17 digits, so ascii[:, 1:] has digit
    # j at place j and ascii[:, :-1] at place j + 1.
    ascii = np.empty((len(digits), 19, digits.shape[1]), dtype=np.uint8)
    high, low = np.divmod(digits.view(np.uint64), 10**9)
    put_digits(low.astype(np.uint32), np.moveaxis(ascii[:, 9:18], 1, -1))
    put_digits(high.astype(np.uint32), np.moveaxis(ascii[:, 1:9], 1, -1))
    del high, low
    ascii += ord("0")
    # Places 6-23: the units digit at place 6 + X, the point after it, then
    # the rest of the digits; below 1, all 17 after ``0.000``.
    point = np.where(exponent < 0, 17, exponent + 1).astype(np.int8)
    # Kept: through the units digit, and on to the last nonzero digit.
    last = np.max((ascii[:, 1:18] != ord("0")) * _DIGIT_PLACES[:17], axis=1)
    last += last >= point
    np.maximum(last, exponent, out=last)
    np.less_equal(_DIGIT_PLACES, last[:, None], out=keep[:, 6:-1])
    np.less_equal(exponent[:, None], _PREFIX_EXPONENTS, out=keep[:, 1:6])
    # Past the point each digit moves up one place: in bytes modulo 256,
    # ascii[:, 1:] + (ascii[:, :-1] - ascii[:, 1:]) * after takes each
    # place's byte from ascii[:, :-1] after the point, from ascii[:, 1:]
    # before it.
    shift = ascii[:, :-1] - ascii[:, 1:]
    shift *= _DIGIT_PLACES > point[:, None]
    np.add(ascii[:, 1:], shift, out=chars[:, 6:-1])
    fields, rows = np.indices(point.shape, sparse=True)
    chars[fields, 6 + point, rows] = ord(".")
    chars[:, 1:6] = np.frombuffer(b"0.000", dtype=np.uint8)[:, None]


def _float_fields(values: np.ndarray, chars: np.ndarray, keep: np.ndarray) -> None:
    """Write doubles ``values`` (fields by rows) as ``%.17g`` does, each
    followed by a comma, into ``chars`` and ``keep``: the ASCII bytes by
    field, byte place and row of fields ``_FLOAT_WIDTH`` wide, and which of
    them are kept.

    A value whose decimal exponent X after rounding to 17 digits lies in
    ``-4 <= X <= 16`` is written in ``%g``'s fixed notation from its 17
    digits D (:func:`_seventeen_digits`), and so is 0.  Every other value
    takes exponent notation, written by ``%.17g`` itself: the digits are
    exact only where the powers of ten that scale them are.
    """
    a = np.abs(values)
    zero = a == 0
    # Fixed notation starts at 1e-4 once rounded, so only [1e-5, 1e17) is
    # scaled to 17 digits; the rest is scaled as 1.0 and left to %.17g.
    fixed = (a >= 1e-5) & (a < 1e17)
    a[~fixed] = 1.0
    digits, exponent = _seventeen_digits(a)
    del a
    digits[zero] = 0
    exponent[zero] = 0
    _fixed_notation(digits, exponent, chars, keep)
    keep[:, 0] = np.signbit(values)
    chars[:, 0] = ord("-")
    chars[:, -1] = ord(",")
    keep[:, -1] = True

    scientific = np.nonzero(~(fixed & (exponent >= -4) | zero))
    text = np.fromiter(("%.17g" % v for v in values[scientific]), dtype="S24",
                       count=len(scientific[0]))
    text = text.view(np.uint8).reshape(len(text), 24)
    chars[scientific[0], :24, scientific[1]] = text
    keep[scientific[0], :24, scientific[1]] = text != 0


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
    value as ``%d`` (integer columns) or ``%.17g`` formats it.

    Each run of columns of one kind is formatted at once into fixed-width
    fields of ASCII bytes, a byte place by all rows at a time; a keep mask
    drops what a field's value does not write, and one compaction of the
    places taken row by row gives the text.
    """
    n = len(columns[0])
    runs = []
    for integer, run in groupby(zip(names, columns), lambda field: field[0] in _INTEGER_COLUMNS):
        values = np.array([column for _, column in run], dtype=np.int64 if integer else float)
        runs.append((_int_fields if integer else _float_fields, values,
                     _int_width(values) if integer else _FLOAT_WIDTH))
    ends = np.cumsum([len(values) * width for _, values, width in runs])
    chars = np.empty((ends[-1], n), dtype=np.uint8)
    keep = np.empty(chars.shape, dtype=bool)
    for (write, values, width), end in zip(runs, ends):
        places = slice(end - len(values) * width, end)
        shape = (len(values), width, n)
        write(values, chars[places].reshape(shape), keep[places].reshape(shape))
    chars[-1] = ord("\n")
    return str(chars.T[keep.T], "ascii")


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
