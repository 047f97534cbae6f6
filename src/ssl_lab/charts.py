"""Standalone SVG line charts for sweep results.

Built with the standard-library XML tree and styled entirely through
inline attributes, so every chart is a single self-contained file with
no external references. render_series_chart draws one line per method
with a mean +/- std band; render_gap_chart draws the pointwise error
gap between two methods around a zero reference line. Either axis can
be switched to a log scale, which requires the plotted values on that
axis to be positive. Non-finite points (cells where every replicate
failed) are dropped from their series instead of poisoning the chart.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET

from .errors import ValidationError
from .experiments import SweepResult, error_gap

#: Series colors, assigned to methods in chart order.
PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
    "#e377c2", "#7f7f7f", "#bcbd22", "#17becf", "#333333",
)

_WIDTH, _HEIGHT = 640, 420
_LEFT, _RIGHT, _TOP, _BOTTOM = 72, 24, 36, 56
_FONT = "font-family: sans-serif"


class _Scale:
    """Affine or log10 map from a data interval onto a pixel interval."""

    def __init__(self, lo: float, hi: float, out_lo: float, out_hi: float, log: bool):
        if log and lo <= 0.0:
            raise ValidationError("log-scaled values must be positive")
        if lo == hi:
            if log:
                lo, hi = lo / 2.0, hi * 2.0
            else:
                pad = max(0.5, abs(lo) * 0.1)
                lo, hi = lo - pad, hi + pad
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


def _fmt(value: float) -> str:
    return f"{value:g}"


def _px(value: float) -> str:
    return f"{value:.2f}"


def _finite_points(xs, ys):
    return [(x, y) for x, y in zip(xs, ys) if math.isfinite(x) and math.isfinite(y)]


def _data_range(values, log: bool):
    kept = [v for v in values if math.isfinite(v) and (not log or v > 0.0)]
    if not kept:
        raise ValidationError("no finite data points to plot")
    lo, hi = min(kept), max(kept)
    if log:
        return lo / 1.1, hi * 1.1
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def _chart_skeleton(title: str):
    root = ET.Element(
        "svg",
        xmlns="http://www.w3.org/2000/svg",
        width=str(_WIDTH),
        height=str(_HEIGHT),
        viewBox=f"0 0 {_WIDTH} {_HEIGHT}",
    )
    ET.SubElement(
        root, "rect", x="0", y="0", width=str(_WIDTH), height=str(_HEIGHT), fill="#ffffff"
    )
    if title:
        label = ET.SubElement(
            root, "text", x=str(_WIDTH // 2), y="22",
            style=f"{_FONT}; font-size: 15px", fill="#111111",
        )
        label.set("text-anchor", "middle")
        label.text = title
    return root


def _draw_axes(root, x_scale, y_scale, x_label, y_label):
    plot_w = _WIDTH - _LEFT - _RIGHT
    plot_h = _HEIGHT - _TOP - _BOTTOM
    for tick in x_scale.ticks():
        px = x_scale(tick)
        ET.SubElement(
            root, "line", x1=_px(px), y1=str(_TOP), x2=_px(px), y2=str(_TOP + plot_h),
            stroke="#dddddd",
        )
        label = ET.SubElement(
            root, "text", x=_px(px), y=str(_TOP + plot_h + 18),
            style=f"{_FONT}; font-size: 12px", fill="#333333",
        )
        label.set("text-anchor", "middle")
        label.text = _fmt(tick)
    for tick in y_scale.ticks():
        py = y_scale(tick)
        ET.SubElement(
            root, "line", x1=str(_LEFT), y1=_px(py), x2=str(_LEFT + plot_w), y2=_px(py),
            stroke="#dddddd",
        )
        label = ET.SubElement(
            root, "text", x=str(_LEFT - 8), y=_px(py + 4),
            style=f"{_FONT}; font-size: 12px", fill="#333333",
        )
        label.set("text-anchor", "end")
        label.text = _fmt(tick)
    ET.SubElement(
        root, "rect", x=str(_LEFT), y=str(_TOP), width=str(plot_w), height=str(plot_h),
        fill="none", stroke="#444444",
    )
    xl = ET.SubElement(
        root, "text", x=str(_LEFT + plot_w // 2), y=str(_HEIGHT - 14),
        style=f"{_FONT}; font-size: 13px", fill="#111111",
    )
    xl.set("text-anchor", "middle")
    xl.text = x_label
    yl = ET.SubElement(
        root, "text", x="20", y=str(_TOP + plot_h // 2),
        style=f"{_FONT}; font-size: 13px", fill="#111111",
        transform=f"rotate(-90 20 {_TOP + plot_h // 2})",
    )
    yl.set("text-anchor", "middle")
    yl.text = y_label
    return root


def _draw_series(root, x_scale, y_scale, points, color):
    coords = " ".join(f"{_px(x_scale(x))},{_px(y_scale(y))}" for x, y in points)
    ET.SubElement(
        root, "polyline", points=coords, fill="none", stroke=color,
    ).set("stroke-width", "2")
    for x, y in points:
        ET.SubElement(
            root, "circle", cx=_px(x_scale(x)), cy=_px(y_scale(y)), r="3", fill=color,
        )


def _draw_band(root, x_scale, y_scale, lows, highs, color):
    top = [f"{_px(x_scale(x))},{_px(y_scale(y))}" for x, y in highs]
    bottom = [f"{_px(x_scale(x))},{_px(y_scale(y))}" for x, y in reversed(lows)]
    band = ET.SubElement(root, "polygon", points=" ".join(top + bottom), fill=color)
    band.set("fill-opacity", "0.15")
    band.set("stroke", "none")


def _draw_legend(root, entries):
    x = _LEFT + 12
    y = _TOP + 16
    for name, color in entries:
        line = ET.SubElement(
            root, "line", x1=str(x), y1=str(y - 4), x2=str(x + 22), y2=str(y - 4),
            stroke=color,
        )
        line.set("stroke-width", "3")
        label = ET.SubElement(
            root, "text", x=str(x + 28), y=str(y),
            style=f"{_FONT}; font-size: 12px", fill="#111111",
        )
        label.text = name
        y += 16


def _check_sweep(sweep: SweepResult):
    if not sweep.grid:
        raise ValidationError("sweep has no grid cells to plot")


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
    _check_sweep(sweep)
    methods = sweep.methods()
    if not methods:
        raise ValidationError("sweep has no method series to plot")
    xs = [float(v) for v in sweep.grid]
    if log_x and min(xs) <= 0.0:
        raise ValidationError("log-scaled values must be positive")

    series = {}
    bands = {}
    plotted = []
    for method in methods:
        means = sweep.series(method, metric)
        stds = sweep.std_series(method, metric)
        points = _finite_points(xs, means)
        if not points:
            continue
        series[method] = points
        edges = [
            (x, m - sd, m + sd)
            for x, m, sd in zip(xs, means, stds)
            if math.isfinite(m) and math.isfinite(sd)
        ]
        if log_y:
            edges = [(x, lo, hi) for x, lo, hi in edges if lo > 0.0]
        bands[method] = edges
        plotted.extend(y for _, y in points)
        plotted.extend(lo for _, lo, _ in edges)
        plotted.extend(hi for _, _, hi in edges)
    if not series:
        raise ValidationError("no finite data points to plot")
    if log_y and min(plotted) <= 0.0:
        plotted = [v for v in plotted if v > 0.0]
        if not plotted:
            raise ValidationError("log-scaled values must be positive")

    x_scale = _Scale(min(xs), max(xs), _LEFT, _WIDTH - _RIGHT, log_x)
    lo, hi = _data_range(plotted, log_y)
    y_scale = _Scale(lo, hi, _HEIGHT - _BOTTOM, _TOP, log_y)

    root = _chart_skeleton(title)
    _draw_axes(root, x_scale, y_scale, sweep.axis_name, f"mean {metric}")
    legend = []
    for i, method in enumerate(m for m in methods if m in series):
        color = PALETTE[i % len(PALETTE)]
        edges = bands[method]
        if len(edges) >= 2:
            lows = [(x, lo) for x, lo, _ in edges]
            highs = [(x, hi) for x, _, hi in edges]
            _draw_band(root, x_scale, y_scale, lows, highs, color)
        _draw_series(root, x_scale, y_scale, series[method], color)
        legend.append((method, color))
    _draw_legend(root, legend)
    return ET.tostring(root, encoding="unicode")


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
    _check_sweep(sweep)
    xs = [float(v) for v in sweep.grid]
    if log_x and min(xs) <= 0.0:
        raise ValidationError("log-scaled values must be positive")
    gaps = error_gap(sweep, method_a, method_b, metric=metric)
    points = _finite_points(xs, gaps)
    if not points:
        raise ValidationError("no finite data points to plot")

    x_scale = _Scale(min(xs), max(xs), _LEFT, _WIDTH - _RIGHT, log_x)
    lo, hi = _data_range([y for _, y in points], log=False)
    y_scale = _Scale(lo, hi, _HEIGHT - _BOTTOM, _TOP, log=False)

    root = _chart_skeleton(title)
    _draw_axes(
        root, x_scale, y_scale, sweep.axis_name,
        f"{metric} gap ({method_a} - {method_b})",
    )
    if lo <= 0.0 <= hi:
        zero = ET.SubElement(
            root, "line",
            x1=str(_LEFT), y1=_px(y_scale(0.0)),
            x2=str(_WIDTH - _RIGHT), y2=_px(y_scale(0.0)),
            stroke="#888888",
        )
        zero.set("stroke-dasharray", "5 4")
    _draw_series(root, x_scale, y_scale, points, PALETTE[0])
    _draw_legend(root, [(f"{method_a} - {method_b}", PALETTE[0])])
    return ET.tostring(root, encoding="unicode")
