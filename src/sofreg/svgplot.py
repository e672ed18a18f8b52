"""Minimal self-contained SVG plots (no external renderer).

These are diagnostics, not assertions: a curve plot for fitted slopes, a
kernel-density plot of bootstrap statistics with the observed value marked,
and grouped boxplots for Monte Carlo summaries.
"""

from __future__ import annotations

import numpy as np

WIDTH, HEIGHT = 640, 420
MARGIN = 52
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f")


def _scale(values, lo, hi, out_lo, out_hi):
    span = hi - lo if hi > lo else 1.0
    return out_lo + (np.asarray(values, dtype=float) - lo) * (out_hi - out_lo) / span


def _axes(title, x_lo, x_hi, y_lo, y_hi):
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2}" y="20" text-anchor="middle" font-size="14" '
        f'font-family="sans-serif">{title}</text>',
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{WIDTH - 2 * MARGIN}" '
        f'height="{HEIGHT - 2 * MARGIN}" fill="none" stroke="#333"/>',
    ]
    for frac in (0.0, 0.5, 1.0):
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        xp = MARGIN + frac * (WIDTH - 2 * MARGIN)
        yp = HEIGHT - MARGIN - frac * (HEIGHT - 2 * MARGIN)
        parts.append(
            f'<text x="{xp:.1f}" y="{HEIGHT - MARGIN + 16}" text-anchor="middle" '
            f'font-size="11" font-family="sans-serif">{xv:.3g}</text>'
        )
        parts.append(
            f'<text x="{MARGIN - 6}" y="{yp + 4:.1f}" text-anchor="end" '
            f'font-size="11" font-family="sans-serif">{yv:.3g}</text>'
        )
    return parts


def _polyline(xs, ys, x_lo, x_hi, y_lo, y_hi, color, width=1.6):
    px = _scale(xs, x_lo, x_hi, MARGIN, WIDTH - MARGIN)
    py = _scale(ys, y_lo, y_hi, HEIGHT - MARGIN, MARGIN)
    points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px, py))
    return f'<polyline fill="none" stroke="{color}" stroke-width="{width}" points="{points}"/>'


def curve_plot(grid_points, curves: dict[str, np.ndarray], title: str) -> str:
    """Overlay of named curves on a shared grid."""
    xs = np.asarray(grid_points, dtype=float)
    all_y = np.concatenate([np.asarray(v, dtype=float) for v in curves.values()])
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    pad = 0.05 * (y_hi - y_lo or 1.0)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    parts = _axes(title, xs[0], xs[-1], y_lo, y_hi)
    for pos, (label, ys) in enumerate(curves.items()):
        color = PALETTE[pos % len(PALETTE)]
        parts.append(_polyline(xs, ys, xs[0], xs[-1], y_lo, y_hi, color))
        parts.append(
            f'<text x="{WIDTH - MARGIN - 6}" y="{MARGIN + 16 + 16 * pos}" text-anchor="end" '
            f'font-size="12" font-family="sans-serif" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def _gaussian_kde(values: np.ndarray, xs: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    n = values.size
    sd = values.std(ddof=1) if n > 1 else 1.0
    iqr = np.subtract(*np.percentile(values, [75, 25]))
    spread = min(sd, iqr / 1.34) if iqr > 0 else sd
    h = 0.9 * (spread if spread > 0 else 1.0) * n ** (-0.2)
    # exp(-0.5 * ((x - v) / h)**2) in one len(xs) x n buffer: the expression's
    # operations in its order, so its bits, without its temporaries
    kernel = np.subtract.outer(xs, values)
    kernel /= h
    np.square(kernel, out=kernel)
    kernel *= -0.5
    np.exp(kernel, out=kernel)
    return kernel.sum(axis=1) / (n * h * np.sqrt(2 * np.pi))


def density_plot(values: np.ndarray, marker: float, title: str) -> str:
    """Gaussian KDE of bootstrap statistics with the observed value marked."""
    values = np.asarray(values, dtype=float)
    lo = min(float(values.min()), marker)
    hi = max(float(values.max()), marker)
    pad = 0.08 * (hi - lo or 1.0)
    lo, hi = lo - pad, hi + pad
    xs = np.linspace(lo, hi, 200)
    ys = _gaussian_kde(values, xs)
    y_hi = float(ys.max()) * 1.05 or 1.0
    parts = _axes(title, lo, hi, 0.0, y_hi)
    parts.append(_polyline(xs, ys, lo, hi, 0.0, y_hi, PALETTE[0]))
    mx = float(_scale([marker], lo, hi, MARGIN, WIDTH - MARGIN)[0])
    parts.append(
        f'<line x1="{mx:.2f}" y1="{MARGIN}" x2="{mx:.2f}" y2="{HEIGHT - MARGIN}" '
        f'stroke="{PALETTE[1]}" stroke-width="2" stroke-dasharray="6,3"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts)


def grouped_boxplot(groups: dict[str, np.ndarray], title: str) -> str:
    """Side-by-side boxplots of the logs of the positive finite values
    (median, quartile box, whiskers at 5/95%)."""
    cleaned = {}
    for label, values in groups.items():
        arr = np.asarray(values, dtype=float)
        arr = np.log(arr[np.isfinite(arr) & (arr > 0)])
        if arr.size:
            cleaned[label] = arr
    if not cleaned:
        cleaned = {"empty": np.zeros(1)}
    all_v = np.concatenate(list(cleaned.values()))
    y_lo, y_hi = float(all_v.min()), float(all_v.max())
    pad = 0.08 * (y_hi - y_lo or 1.0)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    parts = _axes(title, 0, len(cleaned), y_lo, y_hi)

    slot = (WIDTH - 2 * MARGIN) / len(cleaned)
    for pos, (label, arr) in enumerate(cleaned.items()):
        q05, q25, q50, q75, q95 = np.percentile(arr, [5, 25, 50, 75, 95])
        cx = MARGIN + slot * (pos + 0.5)
        half = min(28.0, slot * 0.3)
        color = PALETTE[pos % len(PALETTE)]

        def ypix(v):
            return float(_scale([v], y_lo, y_hi, HEIGHT - MARGIN, MARGIN)[0])

        parts.append(
            f'<line x1="{cx:.1f}" y1="{ypix(q05):.1f}" x2="{cx:.1f}" y2="{ypix(q95):.1f}" '
            f'stroke="{color}"/>'
        )
        parts.append(
            f'<rect x="{cx - half:.1f}" y="{ypix(q75):.1f}" width="{2 * half:.1f}" '
            f'height="{max(ypix(q25) - ypix(q75), 0.5):.1f}" fill="{color}" '
            f'fill-opacity="0.35" stroke="{color}"/>'
        )
        parts.append(
            f'<line x1="{cx - half:.1f}" y1="{ypix(q50):.1f}" x2="{cx + half:.1f}" '
            f'y2="{ypix(q50):.1f}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{cx:.1f}" y="{HEIGHT - MARGIN + 30}" text-anchor="middle" '
            f'font-size="12" font-family="sans-serif">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
