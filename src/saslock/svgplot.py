"""Minimal deterministic SVG line plots.

Plots are a convenience for eyeballing runs; every assertion in the test
suite runs on CSV/JSON data instead. The writer is hand-rolled so identical
inputs produce byte-identical files (no library version drift, no
timestamps).

Each polyline is M4-decimated (Jugel et al., "M4: A Visualization-Oriented
Time Series Data Aggregation", PVLDB 7(10), 2014): of the samples that fall
in one pixel column it keeps the first, the last, the lowest and the
highest, which draws the same picture at plot resolution. A polyline thus
holds at most 4 x PLOT_COLUMNS vertices, whatever the sample count.
"""

import numpy as np

from .errors import SweepError

WIDTH, HEIGHT = 900, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 50
COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
PLOT_COLUMNS = WIDTH - MARGIN_L - MARGIN_R


def _fmt(x):
    return f"{x:.6g}"


def _scale(values, lo, hi, out_lo, out_hi):
    span = hi - lo if hi != lo else 1.0
    return out_lo + (np.asarray(values, dtype=float) - lo) * (out_hi - out_lo) / span


def _column_runs(x_px):
    """(start, stop) of each run of samples in one pixel column.

    x_px must be non-decreasing, so each column's samples are contiguous.
    """
    column = np.clip(np.floor(x_px - MARGIN_L), 0, PLOT_COLUMNS - 1)
    starts = np.flatnonzero(np.diff(column, prepend=-1.0)).tolist()
    return list(zip(starts, starts[1:] + [len(x_px)]))


def _m4(runs, y_px):
    """Indices of the first, last, lowest and highest y_px of each run.

    They come in sample order, each once.
    """
    keep = set()
    for lo, hi in runs:
        seg = y_px[lo:hi]
        keep.update((lo, hi - 1, lo + int(seg.argmin()), lo + int(seg.argmax())))
    return sorted(keep)


def _polyline(x_px, y_px, color):
    # One format call per vertex; '%.6g' % v is _fmt(v) for every float.
    pts = " ".join(map("%.6g,%.6g".__mod__, zip(x_px.tolist(), y_px.tolist())))
    return f'<polyline fill="none" stroke="{color}" stroke-width="1" points="{pts}"/>'


def render_line_plot(x, series, *, title, x_label, y_label, annotations=()):
    """Render labeled polylines as a standalone SVG string.

    x: the axis, non-decreasing; series: list of (name, y-array);
    annotations: list of (x, label) drawn as vertical ticks.
    """
    x = np.asarray(x, dtype=float)
    if len(x) == 0 or not series:
        raise SweepError("nothing to plot")
    if not np.all(x[1:] >= x[:-1]):
        raise SweepError("plot axis is not non-decreasing")
    for _, y in series:
        if len(y) != len(x):
            raise SweepError("series length does not match the axis")

    x_lo, x_hi = float(x.min()), float(x.max())
    y_lo = float(np.min([np.min(y) for _, y in series]))
    y_hi = float(np.max([np.max(y) for _, y in series]))
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    plot_l, plot_r = MARGIN_L, WIDTH - MARGIN_R
    plot_t, plot_b = MARGIN_T, HEIGHT - MARGIN_B
    x_px = _scale(x, x_lo, x_hi, plot_l, plot_r)
    runs = _column_runs(x_px)

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" font-family="sans-serif" '
        f'font-size="16">{title}</text>',
        f'<line x1="{plot_l}" y1="{plot_b}" x2="{plot_r}" y2="{plot_b}" stroke="black"/>',
        f'<line x1="{plot_l}" y1="{plot_t}" x2="{plot_l}" y2="{plot_b}" stroke="black"/>',
        f'<text x="{(plot_l + plot_r) // 2}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{x_label}</text>',
        f'<text x="16" y="{(plot_t + plot_b) // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 16 {(plot_t + plot_b) // 2})">{y_label}</text>',
        f'<text x="{plot_l}" y="{plot_b + 16}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="11">{_fmt(x_lo)}</text>',
        f'<text x="{plot_r}" y="{plot_b + 16}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="11">{_fmt(x_hi)}</text>',
        f'<text x="{plot_l - 6}" y="{plot_b}" text-anchor="end" font-family="sans-serif" '
        f'font-size="11">{_fmt(y_lo)}</text>',
        f'<text x="{plot_l - 6}" y="{plot_t + 4}" text-anchor="end" font-family="sans-serif" '
        f'font-size="11">{_fmt(y_hi)}</text>',
    ]

    for (x_a, label) in annotations:
        if not (x_lo <= x_a <= x_hi):
            continue
        px = float(_scale([x_a], x_lo, x_hi, plot_l, plot_r)[0])
        out.append(
            f'<line x1="{_fmt(px)}" y1="{plot_t}" x2="{_fmt(px)}" y2="{plot_b}" '
            'stroke="#bbbbbb" stroke-dasharray="3,4"/>'
        )
        out.append(
            f'<text x="{_fmt(px)}" y="{plot_t - 4}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{label}</text>'
        )

    for i, (name, y) in enumerate(series):
        color = COLORS[i % len(COLORS)]
        y_px = _scale(y, y_lo, y_hi, plot_b, plot_t)
        kept = _m4(runs, y_px)
        out.append(_polyline(x_px[kept], y_px[kept], color))
        out.append(
            f'<text x="{plot_r - 8}" y="{plot_t + 16 + 16 * i}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12" fill="{color}">{name}</text>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"
