"""Tiny deterministic SVG line plots: polylines, ticks, labels, no deps."""

import numpy as np

__all__ = ["render_plot"]

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_B = 72, 24, 52
PALETTE = ("#1f6fb2", "#c23b22", "#3a8f3a", "#7d4da0", "#b08900")


def _nice_ticks(lo, hi, target=6):
    if not np.isfinite(lo) or not np.isfinite(hi) or lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    span = hi - lo
    raw = span / max(target - 1, 1)
    mag = 10.0 ** np.floor(np.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if span / step <= target:
            break
    first = np.ceil(lo / step) * step
    ticks = np.arange(first, hi + step * 1e-9, step)
    return [float(t) for t in ticks]


def _fmt(v):
    return f"{v:.6g}"


def render_plot(series, title, xlabel, ylabel,
                x2label=None, x2scale=None) -> str:
    """Render labelled (x, y) series to an SVG document string.

    series: list of (x array, y array, label).  NaNs split a polyline;
    a finite point with no finite neighbour is drawn as a dot.
    x2label/x2scale add a top axis with ticks at bottom-tick * x2scale.
    """
    margin_t = 56 if x2label else 34
    xs = np.concatenate([np.asarray(s[0], dtype=float) for s in series])
    ys = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    finite = np.isfinite(ys) & np.isfinite(xs)
    x_lo, x_hi = float(xs[finite].min()), float(xs[finite].max())
    y_lo, y_hi = float(ys[finite].min()), float(ys[finite].max())
    if x_lo == x_hi:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    pw = WIDTH - MARGIN_L - MARGIN_R
    ph = HEIGHT - margin_t - MARGIN_B

    def px(v):
        return MARGIN_L + (v - x_lo) / (x_hi - x_lo) * pw

    def py(v):
        return margin_t + (y_hi - v) / (y_hi - y_lo) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="18" text-anchor="middle" '
        f'font-size="14" font-family="sans-serif">{title}</text>',
        f'<rect x="{MARGIN_L}" y="{margin_t}" width="{pw}" height="{ph}" '
        f'fill="none" stroke="#444"/>',
    ]

    for t in _nice_ticks(x_lo, x_hi):
        if not x_lo <= t <= x_hi:
            continue
        xpix = px(t)
        out.append(f'<line x1="{_fmt(xpix)}" y1="{margin_t + ph}" '
                   f'x2="{_fmt(xpix)}" y2="{margin_t + ph + 5}" stroke="#444"/>')
        out.append(f'<text x="{_fmt(xpix)}" y="{margin_t + ph + 18}" '
                   f'text-anchor="middle" font-size="11" '
                   f'font-family="sans-serif">{_fmt(t)}</text>')
        if x2label:
            out.append(f'<line x1="{_fmt(xpix)}" y1="{margin_t}" '
                       f'x2="{_fmt(xpix)}" y2="{margin_t - 5}" stroke="#444"/>')
            out.append(f'<text x="{_fmt(xpix)}" y="{margin_t - 9}" '
                       f'text-anchor="middle" font-size="11" '
                       f'font-family="sans-serif">{_fmt(t * x2scale)}</text>')
    for t in _nice_ticks(y_lo, y_hi):
        if not y_lo <= t <= y_hi:
            continue
        ypix = py(t)
        out.append(f'<line x1="{MARGIN_L - 5}" y1="{_fmt(ypix)}" '
                   f'x2="{MARGIN_L}" y2="{_fmt(ypix)}" stroke="#444"/>')
        out.append(f'<text x="{MARGIN_L - 8}" y="{_fmt(ypix + 4)}" '
                   f'text-anchor="end" font-size="11" '
                   f'font-family="sans-serif">{_fmt(t)}</text>')

    out.append(f'<text x="{MARGIN_L + pw / 2}" y="{HEIGHT - 10}" '
               f'text-anchor="middle" font-size="12" '
               f'font-family="sans-serif">{xlabel}</text>')
    if x2label:
        out.append(f'<text x="{MARGIN_L + pw / 2}" y="{margin_t - 28}" '
                   f'text-anchor="middle" font-size="12" '
                   f'font-family="sans-serif">{x2label}</text>')
    out.append(f'<text x="16" y="{margin_t + ph / 2}" text-anchor="middle" '
               f'font-size="12" font-family="sans-serif" '
               f'transform="rotate(-90 16 {margin_t + ph / 2})">{ylabel}</text>')

    for i, (x, y, label) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        ok = np.isfinite(x) & np.isfinite(y)
        # split into contiguous finite runs so gaps stay gaps
        runs = np.split(np.arange(len(y)), np.nonzero(np.diff(ok.astype(int)))[0] + 1)
        for run in runs:
            if len(run) == 0 or not ok[run[0]]:
                continue
            if len(run) == 1:
                # a polyline needs two points; mark a lone one with a dot
                out.append(f'<circle cx="{_fmt(px(x[run[0]]))}" '
                           f'cy="{_fmt(py(y[run[0]]))}" r="2" fill="{color}"/>')
                continue
            pts = " ".join(f"{_fmt(px(xv))},{_fmt(py(yv))}"
                           for xv, yv in zip(x[run], y[run]))
            out.append(f'<polyline points="{pts}" fill="none" '
                       f'stroke="{color}" stroke-width="1.3"/>')
        out.append(f'<text x="{WIDTH - MARGIN_R - 6}" y="{margin_t + 16 + 14 * i}" '
                   f'text-anchor="end" font-size="11" font-family="sans-serif" '
                   f'fill="{color}">{label}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
