"""The visual contract: rendered figures must contain the elements the
paper describes, in the colours it specifies (Section III.A-III.B)."""

import re

import pytest

from repro import jumpshot
from repro.apps import lab2_main
from repro.mpe import read_log
from repro.pilot import PilotConfig, run_pilot
from repro.slog2 import convert


@pytest.fixture(scope="module")
def lab2_view(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("fig") / "lab2.clog2")
    res = run_pilot(lab2_main, 6, argv=("-pisvc=j",),
                    config=PilotConfig(mpe_log_path=path))
    assert res.ok
    doc, report = convert(read_log(path).log,
                          {p.rank: p.name for p in res.run.processes})
    assert report.clean
    return jumpshot.View(doc)


@pytest.fixture(scope="module")
def lab2_svg(lab2_view):
    return jumpshot.render_svg(lab2_view)


class TestFigureContract:
    def test_all_six_timelines_labelled(self, lab2_svg):
        assert "0 PI_MAIN" in lab2_svg
        for rank in range(1, 6):
            assert f"{rank} P{rank}" in lab2_svg

    def test_paper_colours_present(self, lab2_svg):
        # red reads, green writes, bisque configuration, gray compute,
        # yellow bubbles — the Section III.A scheme, as pixels.
        for color in ("#ff0000", "#00c000", "#ffe4c4", "#808080", "#ffd700"):
            assert color in lab2_svg, color

    def test_white_arrows_with_arrowheads(self, lab2_svg):
        arrows = re.findall(r'<line[^>]*stroke="#ffffff"[^>]*'
                            r'marker-end="url\(#arrowhead\)"', lab2_svg)
        assert len(arrows) == 15  # Fig. 3's fifteen messages

    def test_bubbles_are_circles(self, lab2_view):
        # legend=False so legend swatch circles don't count.
        svg = jumpshot.render_svg(lab2_view, legend=False)
        circles = re.findall(r'<circle[^>]*fill="#ffd700"', svg)
        # Every wire message produces a sent + an arrived bubble.
        assert len(circles) == 2 * 15

    def test_nested_read_rects_inset_within_compute(self, lab2_view):
        svg = jumpshot.render_svg(lab2_view, legend=False)
        # Extract (y, height) of gray and red rects on the page.
        def boxes(color):
            return [(float(m.group(1)), float(m.group(2)))
                    for m in re.finditer(
                        r'<rect x="[\d.]+" y="([\d.]+)" width="[\d.]+" '
                        rf'height="([\d.]+)" fill="{color}"', svg)]

        gray = boxes("#808080")
        red = boxes("#ff0000")
        assert gray and red
        # Each red (depth-1) rect is shorter than the gray (depth-0)
        # rects — the paper's inner-rectangle nesting.
        assert max(h for _, h in red) < max(h for _, h in gray)

    def test_popup_titles_embedded(self, lab2_svg):
        assert lab2_svg.count("<title>") > 50
        assert "Proc: P" in lab2_svg

    def test_legend_panel_lists_pilot_categories(self, lab2_svg):
        for name in ("PI_Read", "PI_Write", "Compute", "PI_Configure"):
            assert name in lab2_svg

    def test_time_axis_in_readable_units(self, lab2_svg):
        assert re.search(r"\d+\.\d+us|\d+\.\d+ms", lab2_svg)

    def test_hidden_category_disappears_from_pixels(self, lab2_view):
        lab2_view.legend.set_visible("PI_Write", False)
        try:
            svg = jumpshot.render_svg(lab2_view, legend=False)
            assert "#00c000" not in svg
        finally:
            lab2_view.legend.set_visible("PI_Write", True)
