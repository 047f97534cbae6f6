import math
import xml.etree.ElementTree as ET

import pytest

from ssl_lab.charts import PALETTE, render_gap_chart, render_series_chart
from ssl_lab.errors import ValidationError
from ssl_lab.experiments import CellStats, SweepResult

SVG_NS = "{http://www.w3.org/2000/svg}"


def stats(method, mean, std=0.01):
    if math.isnan(mean):
        std = math.nan  # a cell with no scored trial is NaN throughout
    return CellStats(
        method=method,
        replicates=5,
        mean_excess=mean,
        std_excess=std,
        mean_estimation=mean + 1.0,
        std_estimation=std,
        mean_test_error=mean + 0.25,
        std_test_error=std,
    )


def sweep(series_by_method, grid=(0.5, 1.0, 2.0, 4.0), axis="snr"):
    cells = tuple(
        tuple(stats(method, series[i]) for method, series in series_by_method.items())
        for i in range(len(grid))
    )
    return SweepResult(axis_name=axis, grid=grid, replicates=5, cells=cells)


def count(svg, tag):
    return len(ET.fromstring(svg).findall(f".//{SVG_NS}{tag}"))


class TestSeriesChart:
    def test_valid_xml_with_svg_root(self):
        svg = render_series_chart(sweep({"sl": (0.4, 0.3, 0.2, 0.1)}))
        root = ET.fromstring(svg)
        assert root.tag == f"{SVG_NS}svg"
        assert root.get("viewBox") == "0 0 640 420"

    def test_one_polyline_and_band_per_method(self):
        chart = sweep({
            "sl": (0.4, 0.3, 0.2, 0.1),
            "ulplus": (0.3, 0.25, 0.22, 0.2),
            "sslw": (0.28, 0.2, 0.15, 0.08),
        })
        svg = render_series_chart(chart)
        assert count(svg, "polyline") == 3
        assert count(svg, "polygon") == 3
        assert count(svg, "circle") == 3 * 4

    def test_axis_labels_and_legend_text_present(self):
        svg = render_series_chart(sweep({"sl": (0.4, 0.3, 0.2, 0.1)}), metric="test_error")
        assert "snr" in svg
        assert "mean test_error" in svg
        assert ">sl<" in svg

    def test_title_rendered_when_given(self):
        svg = render_series_chart(sweep({"sl": (0.4, 0.3, 0.2, 0.1)}), title="fig1a")
        assert ">fig1a<" in svg

    def test_self_contained(self):
        svg = render_series_chart(sweep({"sl": (0.4, 0.3, 0.2, 0.1)}))
        assert "href" not in svg and "url(" not in svg and "http" not in svg.replace(
            "http://www.w3.org/2000/svg", ""
        )

    def test_log_scales_render(self):
        chart = sweep({"sl": (0.4, 0.2, 0.1, 0.05)}, grid=(1.0, 10.0, 100.0, 1000.0))
        svg = render_series_chart(chart, log_x=True, log_y=True)
        assert count(svg, "polyline") == 1
        assert ">10<" in svg or ">100<" in svg

    def test_log_x_rejects_nonpositive_grid(self):
        chart = sweep({"sl": (0.4, 0.3, 0.2, 0.1)}, grid=(0.0, 1.0, 2.0, 3.0))
        with pytest.raises(ValidationError, match="positive"):
            render_series_chart(chart, log_x=True)

    def test_log_y_rejects_nonpositive_values(self):
        chart = sweep({"sl": (0.0, 0.0, 0.0, 0.0)})
        with pytest.raises(ValidationError, match="positive"):
            render_series_chart(chart, log_y=True)

    def test_nan_cells_are_dropped_from_their_series(self):
        chart = sweep({"sl": (0.4, math.nan, 0.2, 0.1), "lda": (0.3, 0.25, 0.2, 0.15)})
        svg = render_series_chart(chart)
        assert count(svg, "polyline") == 2
        assert count(svg, "circle") == 7

    def test_single_cell_sweep_renders(self):
        chart = sweep({"sl": (0.4,)}, grid=(1.0,))
        svg = render_series_chart(chart)
        assert count(svg, "polyline") == 1

    def test_empty_sweep_rejected(self):
        empty = SweepResult(axis_name="snr", grid=(), replicates=0, cells=())
        with pytest.raises(ValidationError):
            render_series_chart(empty)

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValidationError, match="metric"):
            render_series_chart(sweep({"sl": (0.4, 0.3, 0.2, 0.1)}), metric="loss")

    def test_nonpositive_point_rejected_on_log_y(self):
        chart = sweep({"sl": (0.0, 0.3, 0.2, 0.1), "lda": (0.3, 0.25, 0.2, 0.15)})
        with pytest.raises(ValidationError, match="positive"):
            render_series_chart(chart, log_y=True)

    def test_axis_span_past_float_range_rejected(self):
        chart = sweep({"sl": (0.4, 0.3), "sslw": (0.1, 0.2)}, grid=(-1e308, 1e308))
        with pytest.raises(ValidationError, match="span of an axis from -1e.308 to 1e.308"):
            render_series_chart(chart)
        with pytest.raises(ValidationError, match="span of an axis from -1e.308 to 1e.308"):
            render_gap_chart(chart, "sl", "sslw")

    @pytest.mark.parametrize("mean, std, log_y", [(1e308, 1e308, False), (1.5e308, 4e307, True)])
    def test_overflowing_band_edge_rejected(self, mean, std, log_y):
        cells = tuple(
            (CellStats("sl", 5, 0.1, 0.01, m, sd, 0.3, 0.01),)
            for m, sd in ((mean, std), (0.5, 0.1))
        )
        chart = SweepResult(axis_name="snr", grid=(1.0, 2.0), replicates=5, cells=cells)
        with pytest.raises(ValidationError, match="span of the plotted values from .* to inf"):
            render_series_chart(chart, metric="estimation", log_y=log_y)

    def test_log_axis_that_underflows_rejected(self):
        chart = sweep({"sl": (5e-324,)}, grid=(5e-324,))
        with pytest.raises(ValidationError, match="low end of a log axis"):
            render_series_chart(chart, log_x=True)
        with pytest.raises(ValidationError, match="low end of a log axis"):
            render_gap_chart(sweep({"sl": (0.4,), "sslw": (0.3,)}, grid=(5e-324,)),
                             "sl", "sslw", log_x=True)

    def test_series_colors_come_from_palette(self):
        svg = render_series_chart(sweep({"sl": (0.4, 0.3, 0.2, 0.1)}))
        assert PALETTE[0] in svg


class TestGapChart:
    def two_method_sweep(self):
        return sweep({"sl": (0.4, 0.3, 0.2, 0.1), "sslw": (0.35, 0.31, 0.15, 0.05)})

    def test_single_series(self):
        svg = render_gap_chart(self.two_method_sweep(), "sl", "sslw")
        assert count(svg, "polyline") == 1
        assert count(svg, "circle") == 4

    def test_zero_line_drawn_when_gap_changes_sign(self):
        svg = render_gap_chart(self.two_method_sweep(), "sl", "sslw")
        assert 'stroke-dasharray="5 4"' in svg

    def test_axis_label_names_both_methods(self):
        svg = render_gap_chart(self.two_method_sweep(), "sl", "sslw", metric="test_error")
        assert "test_error gap (sl - sslw)" in svg

    def test_log_x_renders(self):
        chart = sweep(
            {"sl": (0.4, 0.3, 0.2, 0.1), "sslw": (0.3, 0.2, 0.1, 0.05)},
            grid=(1.0, 10.0, 100.0, 1000.0),
        )
        svg = render_gap_chart(chart, "sl", "sslw", log_x=True)
        assert count(svg, "polyline") == 1

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValidationError, match="metric"):
            render_gap_chart(self.two_method_sweep(), "sl", "sslw", metric="loss")

    def test_missing_method_rejected(self):
        with pytest.raises(ValidationError):
            render_gap_chart(self.two_method_sweep(), "sl", "em")

    def test_empty_sweep_rejected(self):
        empty = SweepResult(axis_name="snr", grid=(), replicates=0, cells=())
        with pytest.raises(ValidationError):
            render_gap_chart(empty, "sl", "sslw")
