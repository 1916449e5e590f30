"""Minimal native SVG line plots for the sweep figures.

Just polylines, axes, ticks and a legend; enough to eyeball curve families
and orderings without pulling in a plotting stack.
"""

import math

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#e377c2",
    "#7f7f7f", "#bcbd22",
)

_W, _H = 960, 600
_ML, _MR, _MT, _MB = 72, 24, 44, 58
_TICKS = 8  # about this many ticks per axis

# element templates; the last field takes further attributes, each with a leading space
_LINE = '<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="%s"%s/>'
_TEXT = '<text x="%g" y="%g" font-size="%d"%s>%s</text>'
_MIDDLE = ' text-anchor="middle"'
_GRID = "#dddddd"
_YLABEL = "effective rate [bit/s/Hz]"


def _nice_ticks(lo, hi):
    """Round tick positions inside [lo, hi]."""
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / _TICKS
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if step >= raw:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return [t for t in ticks if lo <= t <= hi]


def _fmt(v):
    return "%g" % (round(v, 10),)


def render(path, curves, title, xlabel):
    """Write an SVG overlay of the given curves, with a title and an x-axis label.

    Each entry of curves is a (curve, label, dash) triple.  curve is a
    RateCurve: its x_db and rate make the polyline, and its ci_halfwidth,
    when set, is drawn as vertical error bars.  label is the legend text,
    and dash a stroke dash pattern (e.g. "6,4" for asymptotes) or None for
    a solid line.
    """
    xs = [v for c, _, _ in curves for v in c.x_db]
    ys = [v for c, _, _ in curves for v in c.rate]
    for c, _, _ in curves:
        for v, h in zip(c.rate, c.ci_halfwidth or ()):
            ys += (v + h, v - h)
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(0.0, min(ys)), max(ys)
    x_pad = 0.02 * (x_hi - x_lo or 1.0)
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_hi += 0.05 * (y_hi - y_lo or 1.0)

    def px(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(y):
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    out = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 %d %d" '
        'font-family="sans-serif">' % (_W, _H),
        '<rect width="%d" height="%d" fill="white"/>' % (_W, _H),
    ]
    out.append(_TEXT % ((_ML + _W - _MR) / 2, 24, 17, _MIDDLE, title))
    # gridlines and ticks
    for t in _nice_ticks(x_lo, x_hi):
        out.append(_LINE % (px(t), py(y_lo), px(t), py(y_hi), _GRID, ""))
        out.append(_TEXT % (px(t), _H - _MB + 18, 12, _MIDDLE, _fmt(t)))
    for t in _nice_ticks(y_lo, y_hi):
        out.append(_LINE % (px(x_lo), py(t), px(x_hi), py(t), _GRID, ""))
        out.append(_TEXT % (_ML - 8, py(t) + 4, 12, ' text-anchor="end"', _fmt(t)))
    # axes
    out.append(
        '<rect x="%g" y="%g" width="%g" height="%g" fill="none" stroke="black"/>'
        % (px(x_lo), py(y_hi), px(x_hi) - px(x_lo), py(y_lo) - py(y_hi))
    )
    out.append(_TEXT % ((_ML + _W - _MR) / 2, _H - 14, 14, _MIDDLE, xlabel))
    mid = (_MT + _H - _MB) / 2
    out.append(_TEXT % (18, mid, 14, _MIDDLE + ' transform="rotate(-90 18 %g)"' % mid, _YLABEL))
    # curves, and their legend entries drawn over them afterwards
    lx, ly = _ML + 14, _MT + 10
    legend = [
        '<rect x="%g" y="%g" width="220" height="%g" fill="white" '
        'stroke="#999999" opacity="0.92"/>' % (lx - 6, ly - 4, 18 * len(curves) + 8)
    ]
    for i, (c, label, dash) in enumerate(curves):
        color = _PALETTE[i % len(_PALETTE)]
        stroke = ' stroke-width="1.8"' + (' stroke-dasharray="%s"' % dash if dash else "")
        pts = " ".join("%g,%g" % (px(x), py(y)) for x, y in zip(c.x_db, c.rate))
        out.append('<polyline points="%s" fill="none" stroke="%s"%s/>' % (pts, color, stroke))
        for x, y, h in zip(c.x_db, c.rate, c.ci_halfwidth or ()):
            out.append(_LINE % (px(x), py(y - h), px(x), py(y + h), color, ""))
            for yy in (y - h, y + h):
                out.append(_LINE % (px(x) - 3, py(yy), px(x) + 3, py(yy), color, ""))
        y = ly + 18 * i + 8
        legend.append(_LINE % (lx, y, lx + 26, y, color, stroke))
        legend.append(_TEXT % (lx + 32, y + 4, 12, "", label))
    out.extend(legend)
    out.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")
