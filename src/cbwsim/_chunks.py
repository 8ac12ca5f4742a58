"""Fixed chunks of rows, the blocks of the column fold, and what the two
text writers share.

A trace is checked and written a chunk of rows at a time, its text read
in blocks, and a plot's points formatted a chunk at a time, so what these
steps hold beside their inputs and results does not grow with the number
of rows; the column fold takes its points in the blocks of :func:`fold_blocks`.
The CSV and SVG writers round with the exact products that
:func:`halves` gives, cut their integers into digits (the CSV writer
into limbs of 4 digits) with :func:`put_digits` and write their files
with :func:`write_text`.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# Rows per chunk.  The CSV writer formats a chunk at once: its traced
# peak is ~0.6-0.7 KB per row on the widest rows (19-digit counts, floats
# in exponent or fixed notation), so a chunk stays under 1 MB.  A chunk
# costs the writer ~0.08 ms beside its rows, which take ~0.5 ms per 1024
# photon-scan rows: (write time in chunks of 256 rows - write time as one
# chunk) / 19 on the 5000-row photon scan, 2-core shared x86, numpy 2.4.
# So larger chunks would save little, and would hold more.
CHUNK_ROWS = 1024

# Points that the column fold takes at once (at least 2): the grid points a
# sensitivity sweep folds and reduces, and the bins a scan folds and draws.
# A block's fold, ~1.2 MB traced at 8192 points (its MZI stack, field
# column and pairs), is taken and freed block after block.  Minor page
# faults and wall time per `sensitivity --max-m 5` dispatch at 4096, 8192
# and 16384 points (`resource.getrusage`, 2-core shared x86, numpy 2.4):
# in a fresh process, as the CLI runs, 2.1k, 3.1k and 3.7k faults and 35,
# 33 and 33 ms; dispatched again in one process, 2.1k, 3.1k and 2.1k faults
# and 32, 31 and 27 ms, as glibc returns each freed fold to the system and
# the next block faults it in again.  16384 points would double the
# traced peak.
FOLD_POINTS = 8192


def row_chunks(n: int, size: int = CHUNK_ROWS):
    """Slices of at most ``size`` rows that cover ``range(n)`` in order,
    each with a stop of at most ``n``."""
    return (slice(start, min(start + size, n)) for start in range(0, n, size))


def fold_blocks(n: int) -> list:
    """Slices of :data:`FOLD_POINTS` points (at least 2) that cover
    ``range(n)`` in order; a lone last point joins the block before it.

    numpy runs the MZI's cos and sin of a one-element array through its
    contiguous loop, whose last bit can differ from the strided loop of a
    longer block.
    """
    blocks = list(row_chunks(n, max(2, FOLD_POINTS)))
    if len(blocks) > 1 and blocks[-1].start == n - 1:
        blocks[-2:] = [slice(blocks[-2].start, n)]
    return blocks


def halves(x: np.ndarray):
    """``(hi, lo)`` with ``x == hi + lo`` exactly, each of at most 26
    significant bits (Veltkamp's split), so that a product of two halves is
    exact."""
    hi = x * 134217729.0
    hi -= hi - x
    return hi, x - hi


def put_digits(q: np.ndarray, out: np.ndarray, base: int = 10) -> np.ndarray:
    """Write the lowest ``out.shape[-1]`` digits in base ``base`` of the
    unsigned integers ``q`` into ``out`` (of shape ``q.shape`` and one axis
    of places), most significant first; return the rest of ``q`` above
    them, ``q // base**places``."""
    for place in range(out.shape[-1] - 1, -1, -1):
        high = q // base
        np.subtract(q, high * base, out=out[..., place], casting="unsafe")
        q = high
    return q


def write_text(path, parts, what: str) -> None:
    """Write the strings of ``parts`` in turn to ``path`` as UTF-8 with LF
    line endings.

    An ``OSError`` is raised as ``cannot write {what} {path}: ...``.  If
    writing fails once the file is open, the partial file is removed,
    unless ``path`` is not a regular file (a device such as ``/dev/stdout``,
    or a link), which is left alone.
    """
    try:
        fh = open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise OSError(f"cannot write {what} {path}: {exc}") from exc
    try:
        with fh:
            for part in parts:
                fh.write(part)
                # Let go of the part before the next one is made.
                del part
    except BaseException as exc:
        partial = Path(path)
        if partial.is_file() and not partial.is_symlink():
            partial.unlink()
        if isinstance(exc, OSError):
            raise OSError(f"cannot write {what} {path}: {exc}") from exc
        raise
