"""Plot renderers: element presence and basic geometry."""

import random
import re

from edgekpi.kpis import boxplot_stats, ecdf
from edgekpi.plotting import (
    render_box_ascii,
    render_box_svg,
    render_cdf_ascii,
    render_cdf_svg,
    render_throughput_ascii,
    render_throughput_svg,
)


def test_cdf_svg_ends_at_probability_one():
    dist = ecdf(list(range(1, 101)))
    svg = render_cdf_svg(dist)
    points = re.search(r'<polyline points="([^"]+)"', svg).group(1).split()
    ys = [float(p.split(",")[1]) for p in points]
    # y axis is inverted: the final point sits at the p=1 line (top margin)
    assert min(ys) == ys[-1]
    assert "reliability 95%" in svg


def test_cdf_svg_single_sample():
    svg = render_cdf_svg(ecdf([5.0]))
    assert "<polyline" in svg


def test_cdf_ascii_last_column_reaches_the_top():
    rng = random.Random(11)
    for _ in range(200):
        values = [rng.uniform(0.0, 100.0) for _ in range(rng.randint(1, 30))]
        top_row = render_cdf_ascii(ecdf(values)).splitlines()[0]
        assert top_row[-1] == "*", values


def test_box_svg_one_rect_per_group():
    groups = [("a", boxplot_stats([1, 2, 3, 4, 5])), ("b", boxplot_stats([2, 4, 6]))]
    svg = render_box_svg(groups)
    assert svg.count("<rect") == 3  # background + two boxes
    assert ">a<" in svg and ">b<" in svg


def test_box_svg_marks_outliers():
    svg = render_box_svg([("x", boxplot_stats([1, 2, 3, 4, 100]))])
    assert "<circle" in svg


def test_throughput_svg_thresholds():
    svg = render_throughput_svg([("VGA", 19.2), ("HD", 54.4)])
    assert svg.count('stroke="crimson"') == 2
    assert "32.2 Mbit/s" in svg and "54.6 Mbit/s" in svg


def test_ascii_renderers_smoke():
    dist = ecdf([float(v) for v in range(10)])
    assert "*" in render_cdf_ascii(dist)
    box = render_box_ascii([("s", boxplot_stats([1, 2, 3]))])
    assert "=" in box and "|" in box
    bars = render_throughput_ascii([("VGA", 19.2)])
    assert "#" in bars and "32.2" in bars
