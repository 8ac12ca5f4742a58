"""Fixed chunks of rows.

A trace is checked, written and read one chunk of rows at a time, and a
plot's points are formatted a chunk at a time, so what these steps hold
beside their inputs and results does not grow with the number of rows.
"""

from __future__ import annotations

from pathlib import Path

# Rows per chunk.  A CSV chunk holds at most ~1 KB of Python objects and
# text per row, so a chunk stays under 1 MB; larger chunks save no
# measurable time.
CHUNK_ROWS = 1024


def row_chunks(n: int, size: int = CHUNK_ROWS):
    """Slices of at most ``size`` rows that cover ``range(n)`` in order,
    each with a stop of at most ``n``."""
    return (slice(start, min(start + size, n)) for start in range(0, n, size))


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
    except BaseException as exc:
        partial = Path(path)
        if partial.is_file() and not partial.is_symlink():
            partial.unlink()
        if isinstance(exc, OSError):
            raise OSError(f"cannot write {what} {path}: {exc}") from exc
        raise
