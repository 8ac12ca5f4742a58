"""Minimal deterministic SVG line plots.

Hand-rolled on purpose: no plotting dependency, and identical input always
produces byte-identical output, so rendered scans can be diffed in CI.

Every check runs before the file is opened; the file is then written
through, each polyline's points a chunk at a time, and nothing is held
from one chunk to the next.  Every series, of counts or of floats, goes
through one numpy formatter, :func:`_points_text`, which writes the bytes
that ``"%.2f,%.2f"`` writes for each point.  Its rounding to hundredths is
exact (:func:`_hundredths`), for a chunk's x and y at once: ``v*100``
decides it unless it lands on a half, where the product's exact residual
does, with ties to even as ``%.2f`` has them.  Its rows take values in
``[0, 1e5)``; every coordinate lies in the canvas, ``48 <= v <= 936``, as
``px`` and ``py`` map the bounds of the data onto the plot area with IEEE
operations that keep order.
"""

from __future__ import annotations

import math

import numpy as np

from ._chunks import CHUNK_ROWS, halves, put_digits, row_chunks, write_text

__all__ = ["emit_plot_svg"]

_WIDTH, _HEIGHT = 960, 540
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 72, 24, 48, 56
_PALETTE = ("#000000", "#c62828", "#1565c0", "#2e7d32", "#ef6c00", "#6a1b9a")
# Points formatted at once.  A chunk's traced peak is ~207 kB at 2 x
# CHUNK_ROWS and ~299 kB at 3 x: larger chunks are faster but pass the
# 256 bytes per CHUNK_ROWS point that the plot's memory tests allow.
_POINTS_ROWS = 2 * CHUNK_ROWS


def _hundredths(v: np.ndarray) -> np.ndarray:
    """``v`` (1-D doubles in ``[0, 2**32/100)``) as uint32 whole
    hundredths, rounded as ``"%.2f"`` rounds the exact value: to nearest,
    ties to even.

    With ``p = v*100`` rounded and ``e`` its error (``v*100 == p + e``
    exactly, ``|e| <= ulp(p)/2``), ``d = p - floor(p)`` is exact, and ``p``
    lies a whole ulp or more from ``floor(p) + 0.5`` unless ``d == 0.5``; so
    only then does ``e`` decide: its sign, or half to even if it is 0.
    """
    p = v * 100.0
    q = np.floor(p)
    d = p - q
    up = d > 0.5
    ties = np.flatnonzero(d == 0.5)
    q = q.astype(np.uint32)
    if ties.size:
        # Dekker's product of t and 100: t splits into two halves of at
        # most 26 bits, 100 takes 7, so both products and e are exact.
        hi, lo = halves(v[ties])
        e = (hi * 100.0 - p[ties]) + lo * 100.0
        up[ties] = (e > 0) | ((e == 0) & (q[ties] % 2 == 1))
    q += up
    return q


def _points_text(xs: np.ndarray, ys: np.ndarray) -> str:
    """The points ``"x,y x,y ..."``, each pair as ``"%.2f,%.2f"`` formats
    it, for ``xs`` and ``ys`` in ``[0, 1e5)``.

    Each point is an ASCII row ``IIIII.FF,IIIII.FF `` of fixed width, its x
    and y rounded at once; a keep mask drops the leading zeros of each whole
    part (its last digit stays) and the last point's space, and one
    compaction gives the text.
    """
    # q[:, 0] is the x of each point and q[:, 1] its y, as are rows[:, 0]
    # and rows[:, 1] their fields.
    q = _hundredths(np.stack([xs, ys], axis=-1).reshape(-1)).reshape(-1, 2)
    rows = np.empty((len(q), 2, 9), dtype=np.uint8)
    keep = np.ones(rows.shape, dtype=bool)
    # The digit at 10**(4 - col) of the rounded whole part is kept once
    # q >= 10**(6 - col), so a carry (9.996 -> 10.00) widens the field.
    # Each place is written across all points: a write across the places of
    # a point would run numpy's loops over a handful of bytes at a time.
    for col, least in enumerate((1000000, 100000, 10000, 1000)):
        np.greater_equal(q, least, out=keep[..., col])
    # The whole part is below 10**5, so its first digit is what is left
    # above the other four.
    rows[..., 0] = put_digits(put_digits(q, rows[..., 6:8]), rows[..., 1:5])
    rows += ord("0")
    rows[..., 5] = ord(".")
    rows[:, 0, 8] = ord(",")
    rows[:, 1, 8] = ord(" ")
    keep[-1, -1, -1] = False
    return str(rows[keep], "ascii")


def _ticks(lo: float, hi: float, n: int = 6) -> np.ndarray:
    """Round-number ticks across ``[lo, hi]``; just ``lo`` when the span is
    empty or when the tick step underflows to 0 or is not finite (a
    subnormal or overflowing span)."""
    raw = (hi - lo) / max(n - 1, 1)
    if not 0.0 < raw < np.inf:
        return np.array([lo])
    magnitude = 10.0 ** np.floor(np.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * magnitude
        if step >= raw:
            break
    if not 0.0 < step < np.inf:
        return np.array([lo])
    first = np.ceil(lo / step) * step
    ticks = np.arange(first, hi + step * 1e-9, step)
    return ticks[(ticks >= lo - step * 1e-9) & (ticks <= hi + step * 1e-9)]


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def emit_plot_svg(x, series, path, *, xlabel: str = "", ylabel: str = "", title: str = "") -> None:
    """Render ``series`` (sequence of ``(label, values)``) against ``x``.

    Produces a self-contained SVG with one polyline per series, tick-labelled
    axes, and a legend naming every series.  Requires at least one series,
    equal lengths throughout, finite data and axis spans (the y span with
    its 4% pad) that do not overflow a double.
    """
    x = np.asarray(x, dtype=float)
    if len(series) == 0:
        raise ValueError("need at least one series to plot")
    labels = [label for label, _ in series]
    # Integer series (photon counts) are converted to float a chunk at a time.
    arrays = [np.asarray(y) for _, y in series]
    arrays = [y if y.dtype.kind in "iu" else np.asarray(y, dtype=float) for y in arrays]
    for y in arrays:
        if y.shape != x.shape:
            raise ValueError("all series must have the same length as x")
    if x.ndim != 1 or len(x) < 2:
        raise ValueError("x must be 1-D with at least 2 points")
    # A NaN carries through min and max, and rounding ints to float keeps
    # their order, so these are the bounds of the float data, and finite
    # exactly when all of it is.
    lows = [float(np.min(a)) for a in (x, *arrays)]
    highs = [float(np.max(a)) for a in (x, *arrays)]
    if not all(map(math.isfinite, lows + highs)):
        raise ValueError("plot data must be finite")

    x_lo, x_hi = lows[0], highs[0]
    data_lo, data_hi = min(lows[1:]), max(highs[1:])
    if not math.isfinite(x_hi - x_lo):
        raise ValueError(f"plot axis span overflows a double: x data range [{x_lo!r}, {x_hi!r}]")
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    y_lo, y_hi = data_lo, data_hi
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad = 0.04 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad
    if not math.isfinite(y_hi - y_lo):
        raise ValueError(f"plot axis span overflows a double: y data range "
                         f"[{data_lo!r}, {data_hi!r}] with its 4% pad")

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(value):
        return _MARGIN_L + (value - x_lo) / (x_hi - x_lo) * plot_w

    def py(value):
        return _MARGIN_T + (y_hi - value) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#444444" stroke-width="1"/>',
    ]
    font = 'font-family="Helvetica,Arial,sans-serif"'

    for tick in _ticks(x_lo, x_hi):
        tx = px(tick)
        parts.append(f'<line x1="{tx:.2f}" y1="{_MARGIN_T + plot_h}" x2="{tx:.2f}" '
                     f'y2="{_MARGIN_T + plot_h + 5}" stroke="#444444" stroke-width="1"/>')
        parts.append(f'<text x="{tx:.2f}" y="{_MARGIN_T + plot_h + 20}" {font} font-size="12" '
                     f'text-anchor="middle">{tick:.6g}</text>')
    for tick in _ticks(y_lo, y_hi):
        ty = py(tick)
        parts.append(f'<line x1="{_MARGIN_L - 5}" y1="{ty:.2f}" x2="{_MARGIN_L}" '
                     f'y2="{ty:.2f}" stroke="#444444" stroke-width="1"/>')
        parts.append(f'<text x="{_MARGIN_L - 8}" y="{ty + 4:.2f}" {font} font-size="12" '
                     f'text-anchor="end">{tick:.6g}</text>')

    if title:
        parts.append(f'<text x="{_WIDTH / 2:.0f}" y="24" {font} font-size="16" '
                     f'text-anchor="middle">{_esc(title)}</text>')
    if xlabel:
        parts.append(f'<text x="{_MARGIN_L + plot_w / 2:.0f}" y="{_HEIGHT - 12}" {font} '
                     f'font-size="13" text-anchor="middle">{_esc(xlabel)}</text>')
    if ylabel:
        cy = _MARGIN_T + plot_h / 2
        parts.append(f'<text x="18" y="{cy:.0f}" {font} font-size="13" text-anchor="middle" '
                     f'transform="rotate(-90 18 {cy:.0f})">{_esc(ylabel)}</text>')

    legend_x = _MARGIN_L + plot_w - 150
    legend_y = _MARGIN_T + 10
    legend = []
    for idx, label in enumerate(labels):
        color = _PALETTE[idx % len(_PALETTE)]
        ly = legend_y + idx * 18
        legend.append(f'<line x1="{legend_x}" y1="{ly + 4}" x2="{legend_x + 24}" y2="{ly + 4}" '
                      f'stroke="{color}" stroke-width="2" class="legend"/>')
        legend.append(f'<text x="{legend_x + 30}" y="{ly + 8}" {font} font-size="12">'
                      f'{_esc(label)}</text>')
    legend.append("</svg>")

    # px/py apply the same IEEE operations, in the same order, to a whole
    # array as to one value, so the chunked points match per-point output.
    # Each chunk's points are written as one string, joined to the chunk
    # before by one space.
    def points(y):
        for index, rows in enumerate(row_chunks(len(x), _POINTS_ROWS)):
            if index:
                yield " "
            yield _points_text(px(x[rows]), py(np.asarray(y[rows], dtype=float)))

    def text():
        yield "".join(part + "\n" for part in parts)
        for idx, y in enumerate(arrays):
            color = _PALETTE[idx % len(_PALETTE)]
            yield f'<polyline fill="none" stroke="{color}" stroke-width="1.3" points="'
            yield from points(y)
            yield '"/>\n'
        yield "".join(part + "\n" for part in legend)

    write_text(path, text(), "SVG")
