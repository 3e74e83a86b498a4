"""Self-contained SVG rendering of run columns.

Charts are log-scale line plots built as plain SVG text with no external
assets: one polyline per series, axis frame, decade ticks, and a text legend.
"""

import math
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .harness import atomic_write

WIDTH = 640
HEIGHT = 420
MARGIN_LEFT = 70
MARGIN_RIGHT = 20
MARGIN_TOP = 36
MARGIN_BOTTOM = 48
FLOOR = 1e-16
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


class EmptySeries(Exception):
    pass


def _log10(ys):
    # libm one value at a time: numpy's SIMD log10 may differ in the last bit
    logs = list(map(math.log10, map(max, np.asarray(ys, dtype=float).tolist(), repeat(FLOOR))))
    if not logs:
        raise EmptySeries("series has no points")
    return logs


def _scale(value, lo, hi, out_lo, out_hi):
    if hi <= lo:
        return 0.5 * (out_lo + out_hi)
    return out_lo + (value - lo) / (hi - lo) * (out_hi - out_lo)


def render_line_chart(series, title, x_label, y_label):
    """SVG text for named series, y on a log10 scale.

    series is a list of (label, xs, ys) triples; nonpositive y values are
    clipped to a small floor before taking logs.
    """
    if not series:
        raise EmptySeries("no series given")
    logged = [(label, np.asarray(xs, dtype=float), _log10(ys)) for label, xs, ys in series]

    # Python's min and max over every point in series order, which fixes where a NaN lands
    all_x = list(chain.from_iterable(xs.tolist() for _, xs, _ in logged))
    all_ly = list(chain.from_iterable(logs for _, _, logs in logged))
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = math.floor(min(all_ly)), math.ceil(max(all_ly))
    if y_hi == y_lo:
        y_hi = y_lo + 1

    px_left, px_right = MARGIN_LEFT, WIDTH - MARGIN_RIGHT
    px_top, px_bottom = MARGIN_TOP, HEIGHT - MARGIN_BOTTOM

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<rect x="{px_left}" y="{px_top}" width="{px_right - px_left}" '
        f'height="{px_bottom - px_top}" fill="none" stroke="black"/>',
    ]

    # decade grid lines and tick labels on the y axis
    step = max(1, (y_hi - y_lo) // 8)
    for decade in range(y_lo, y_hi + 1, step):
        py = _scale(decade, y_lo, y_hi, px_bottom, px_top)
        parts.append(
            f'<line x1="{px_left}" y1="{py:.1f}" x2="{px_right}" y2="{py:.1f}" '
            f'stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{px_left - 6}" y="{py + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">1e{decade}</text>'
        )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = x_lo + frac * (x_hi - x_lo)
        px = _scale(xv, x_lo, x_hi, px_left, px_right)
        parts.append(
            f'<text x="{px:.1f}" y="{px_bottom + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{xv:.6g}</text>'
        )
    parts.append(
        f'<text x="{(px_left + px_right) / 2:.1f}" y="{HEIGHT - 10}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="12">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{(px_top + px_bottom) / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {(px_top + px_bottom) / 2:.1f})">{y_label}</text>'
    )

    for k, (label, xs, logs) in enumerate(logged):
        color = PALETTE[k % len(PALETTE)]
        # one array expression per axis, in _scale's order of operations
        px = _scale(xs, x_lo, x_hi, px_left, px_right)
        py = _scale(np.asarray(logs), y_lo, y_hi, px_bottom, px_top)  # y_hi > y_lo
        coords = " ".join(map(
            "{:.1f},{:.1f}".format, np.broadcast_to(px, xs.shape).tolist(), py.tolist()
        ))
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        ly_pos = px_top + 16 + 14 * k
        parts.append(
            f'<line x1="{px_right - 130}" y1="{ly_pos - 4}" x2="{px_right - 110}" '
            f'y2="{ly_pos - 4}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{px_right - 104}" y="{ly_pos}" font-family="sans-serif" '
            f'font-size="11">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


_PLOT_COLUMNS = {
    "abs_f_resid": "absolute residual",
    "f_resid": "residual",
    "gap": "gap",
    "max_violation": "constraint violation",
    "rel_err": "relative error",
}


def emit_plots(runs, out_dir):
    """One SVG per plottable metric, one series per run that carries it.

    runs is a list of (name, columns) pairs, such as the file stems and the
    ``columns`` of run_experiment's summary; a name labels its series, and
    columns maps a column name to its values, with ``iter`` on the x axis.
    Each SVG is written through a temporary file and a rename.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for column, label in _PLOT_COLUMNS.items():
        series = [
            (name, cols["iter"], cols[column])
            for name, cols in runs
            if column in cols and len(cols[column])
        ]
        if not series:
            continue
        svg = render_line_chart(series, title=label, x_label="iteration", y_label=label)
        path = out_dir / f"{column}.svg"
        atomic_write(path, svg)
        written.append(str(path))
    if not written:
        raise EmptySeries("no plottable columns in the given runs")
    return written
