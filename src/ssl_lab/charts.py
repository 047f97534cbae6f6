"""Standalone SVG line charts for sweep results.

Built with the standard-library XML tree and styled entirely through
inline attributes, so every chart is a single self-contained file with
no external references. Both chart kinds draw through one frame,
_chart, which takes the lines to plot and owns the scales, the axes, the
bands, the markers and the legend: render_series_chart gives it one line
per method with a mean +/- std band, and render_gap_chart one line of
the pointwise error gap between two methods around a zero reference
line. Either axis can be switched to a log scale, which requires the
plotted values on that axis to be positive. Non-finite points (cells
where every replicate failed) are dropped from their series instead of
poisoning the chart; a band edge or an axis span that overflows a float
cannot be drawn and raises ValidationError.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET

from .errors import ValidationError
from .experiments import SweepResult, error_gap
from .gmm import check_real

#: Series colors, assigned to methods in chart order.
PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
    "#e377c2", "#7f7f7f", "#bcbd22", "#17becf", "#333333",
)

_WIDTH, _HEIGHT = 640, 420
_LEFT, _RIGHT, _TOP, _BOTTOM = 72, 24, 36, 56
_FONT = "font-family: sans-serif"


class _Scale:
    """Affine or log10 map from a data interval onto a pixel interval.

    The caller checks that a log scale's values are positive. An interval
    whose span, once a single value is padded out, is not a finite float,
    or whose low end then underflows to zero on a log scale, raises
    ValidationError.
    """

    def __init__(self, lo: float, hi: float, out_lo: float, out_hi: float, log: bool):
        if lo == hi:
            if log:
                lo, hi = lo / 2.0, hi * 2.0
            else:
                pad = max(0.5, abs(lo) * 0.1)
                lo, hi = lo - pad, hi + pad
        check_real(hi - lo, f"the span of an axis from {lo:g} to {hi:g}")
        if log:
            check_real(lo, f"the low end of a log axis up to {hi:g}", positive=True)
        self.lo, self.hi, self.log = lo, hi, log
        self.out_lo, self.out_hi = out_lo, out_hi

    def __call__(self, value: float) -> float:
        if self.log:
            position = (math.log10(value) - math.log10(self.lo)) / (
                math.log10(self.hi) - math.log10(self.lo)
            )
        else:
            position = (value - self.lo) / (self.hi - self.lo)
        return self.out_lo + position * (self.out_hi - self.out_lo)

    def ticks(self) -> list:
        if self.log:
            first = math.ceil(math.log10(self.lo) - 1e-12)
            last = math.floor(math.log10(self.hi) + 1e-12)
            decades = [10.0 ** k for k in range(first, last + 1)]
            if len(decades) >= 2:
                return decades
            ratio = self.hi / self.lo
            return [self.lo * ratio ** (i / 3.0) for i in range(4)]
        step = (self.hi - self.lo) / 4.0
        return [self.lo + step * i for i in range(5)]


def _px(value: float) -> str:
    return f"{value:.2f}"


def _finite_points(xs, ys):
    return [(x, y) for x, y in zip(xs, ys) if math.isfinite(x) and math.isfinite(y)]


def _grid(sweep: SweepResult, log_x: bool) -> list:
    """The sweep's grid values as floats, checked for plotting on the x axis."""
    if not sweep.grid:
        raise ValidationError("sweep has no grid cells to plot")
    xs = [float(v) for v in sweep.grid]
    if log_x and min(xs) <= 0.0:
        raise ValidationError("log-scaled values must be positive")
    return xs


def _text(root, x, y, size: int, fill: str, anchor, content: str, **attrs) -> None:
    """One text element at (x, y); `anchor` None leaves it start-anchored."""
    node = ET.SubElement(
        root, "text", x=str(x), y=str(y), style=f"{_FONT}; font-size: {size}px", fill=fill,
        **attrs,
    )
    if anchor:
        node.set("text-anchor", anchor)
    node.text = content


def _chart(sweep: SweepResult, lines, y_label, log_x, log_y, title, zero_line) -> str:
    """The SVG of `lines` over the sweep's grid: the one frame of both chart kinds.

    Each line is (legend name, finite points, band edges), the edges as
    (x, low, high) and drawn as a band where there are at least two; both go
    in axis order, whatever the grid's order. Colors follow PALETTE in line
    order. The y range covers every point and edge, each of which must be
    positive on a log scale; a span of them that is not a finite float (an
    edge that overflowed) raises ValidationError. When `zero_line` is set, a
    dashed line marks zero if it falls in that range.
    """
    if not lines:
        raise ValidationError("no finite data points to plot")
    ys = []
    for _, points, edges in lines:
        ys += [y for _, y in points] + [v for _, low, high in edges for v in (low, high)]
    y_min, y_max = min(ys), max(ys)
    check_real(y_max - y_min, f"the span of the plotted values from {y_min:g} to {y_max:g}")
    if log_y:
        if y_min <= 0.0:
            raise ValidationError("log-scaled values must be positive")
        lo, hi = y_min / 1.1, y_max * 1.1
    else:
        pad = 0.05 * (y_max - y_min)
        lo, hi = y_min - pad, y_max + pad
    x_lo, x_hi = float(min(sweep.grid)), float(max(sweep.grid))
    x_scale = _Scale(x_lo, x_hi, _LEFT, _WIDTH - _RIGHT, log_x)
    y_scale = _Scale(lo, hi, _HEIGHT - _BOTTOM, _TOP, log_y)

    def coords(points):
        return " ".join(f"{_px(x_scale(x))},{_px(y_scale(y))}" for x, y in points)

    root = ET.Element("svg", {
        "xmlns": "http://www.w3.org/2000/svg", "width": str(_WIDTH), "height": str(_HEIGHT),
        "viewBox": f"0 0 {_WIDTH} {_HEIGHT}",
    })
    ET.SubElement(
        root, "rect", x="0", y="0", width=str(_WIDTH), height=str(_HEIGHT), fill="#ffffff"
    )
    if title:
        _text(root, _WIDTH // 2, 22, 15, "#111111", "middle", title)
    plot_w = _WIDTH - _LEFT - _RIGHT
    plot_h = _HEIGHT - _TOP - _BOTTOM
    for tick in x_scale.ticks():
        px = _px(x_scale(tick))
        ET.SubElement(
            root, "line", x1=px, y1=str(_TOP), x2=px, y2=str(_TOP + plot_h), stroke="#dddddd"
        )
        _text(root, px, _TOP + plot_h + 18, 12, "#333333", "middle", f"{tick:g}")
    for tick in y_scale.ticks():
        py = y_scale(tick)
        ET.SubElement(
            root, "line", x1=str(_LEFT), y1=_px(py), x2=str(_LEFT + plot_w), y2=_px(py),
            stroke="#dddddd",
        )
        _text(root, _LEFT - 8, _px(py + 4), 12, "#333333", "end", f"{tick:g}")
    ET.SubElement(
        root, "rect", x=str(_LEFT), y=str(_TOP), width=str(plot_w), height=str(plot_h),
        fill="none", stroke="#444444",
    )
    _text(root, _LEFT + plot_w // 2, _HEIGHT - 14, 13, "#111111", "middle", sweep.axis_name)
    middle = _TOP + plot_h // 2
    _text(root, 20, middle, 13, "#111111", "middle", y_label,
          transform=f"rotate(-90 20 {middle})")
    if zero_line and lo <= 0.0 <= hi:
        zero = _px(y_scale(0.0))
        ET.SubElement(root, "line", {
            "x1": str(_LEFT), "y1": zero, "x2": str(_WIDTH - _RIGHT), "y2": zero,
            "stroke": "#888888", "stroke-dasharray": "5 4",
        })
    for i, (_, points, edges) in enumerate(lines):
        color = PALETTE[i % len(PALETTE)]
        points, edges = sorted(points), sorted(edges)
        if len(edges) >= 2:
            outline = [(x, high) for x, _, high in edges]
            outline += [(x, low) for x, low, _ in reversed(edges)]
            ET.SubElement(root, "polygon", {
                "points": coords(outline), "fill": color, "fill-opacity": "0.15",
                "stroke": "none",
            })
        ET.SubElement(root, "polyline", {
            "points": coords(points), "fill": "none", "stroke": color, "stroke-width": "2",
        })
        for x, y in points:
            ET.SubElement(
                root, "circle", cx=_px(x_scale(x)), cy=_px(y_scale(y)), r="3", fill=color
            )
    for i, (name, _, _) in enumerate(lines):
        x, y = _LEFT + 12, _TOP + 16 + 16 * i
        ET.SubElement(root, "line", {
            "x1": str(x), "y1": str(y - 4), "x2": str(x + 22), "y2": str(y - 4),
            "stroke": PALETTE[i % len(PALETTE)], "stroke-width": "3",
        })
        _text(root, x + 28, y, 12, "#111111", None, name)
    return ET.tostring(root, encoding="unicode")


def render_series_chart(
    sweep: SweepResult,
    metric: str = "excess",
    log_x: bool = False,
    log_y: bool = False,
    title: str = "",
) -> str:
    """One mean line per method with a mean +/- one-std band behind it.

    Returns the SVG document as a string. Cells whose mean is not finite
    (every replicate failed there) are dropped from their series; a band
    segment is drawn only where both edges are plottable, so log-scaled
    charts simply omit the parts of a band that would cross zero.
    """
    xs = _grid(sweep, log_x)
    methods = sweep.methods()
    if not methods:
        raise ValidationError("sweep has no method series to plot")
    lines = []
    for method in methods:
        means = sweep.series(method, metric)
        stds = sweep.std_series(method, metric)
        points = _finite_points(xs, means)
        if points:
            edges = [
                (x, m - sd, m + sd)
                for x, m, sd in zip(xs, means, stds)
                if math.isfinite(m) and math.isfinite(sd) and (not log_y or m - sd > 0.0)
            ]
            lines.append((method, points, edges))
    return _chart(sweep, lines, f"mean {metric}", log_x, log_y, title, False)


def render_gap_chart(
    sweep: SweepResult,
    method_a: str,
    method_b: str,
    metric: str = "excess",
    log_x: bool = False,
    title: str = "",
) -> str:
    """Single-series chart of error_gap(method_a, method_b) per grid cell.

    Each side is one method tag. Positive values mean method_b wins at
    that cell. A dashed zero line is drawn whenever zero falls inside the
    plotted range.
    """
    xs = _grid(sweep, log_x)
    points = _finite_points(xs, error_gap(sweep, method_a, method_b, metric=metric))
    lines = [(f"{method_a} - {method_b}", points, [])] if points else []
    y_label = f"{metric} gap ({method_a} - {method_b})"
    return _chart(sweep, lines, y_label, log_x, False, title, True)
