"""The gold critical-path overlay on the SVG timeline."""

import re

import pytest

from repro.jumpshot import View, render_svg
from repro.jumpshot.svg import CRITICAL
from repro.slog2 import critical_path
from repro.slog2.model import Arrow, SlogCategory, Slog2Doc, State

CATS = [SlogCategory(0, "Compute", "gray", "state"),
        SlogCategory(1, "PI_Read", "red", "state"),
        SlogCategory(2, "message", "white", "arrow")]


def make_doc():
    return Slog2Doc(
        categories=list(CATS),
        states=[State(0, 0, 0.0, 3.0, 0), State(0, 1, 3.5, 10.0, 0)],
        events=[],
        arrows=[Arrow(2, 0, 1, 3.0, 3.5, 1, 8)],
        num_ranks=2, clock_resolution=1e-9)


class TestOverlay:
    def test_gold_segments_rendered(self):
        doc = make_doc()
        cpath = critical_path(doc)
        svg = render_svg(View(doc), highlight_path=cpath, legend=False)
        gold = re.findall(rf'stroke="{CRITICAL}"', svg)
        # Two activity underlines + one message hop.
        assert len(gold) == 3
        assert "critical path:" in svg

    def test_message_hop_dashed(self):
        doc = make_doc()
        svg = render_svg(View(doc), highlight_path=critical_path(doc),
                         legend=False)
        assert 'stroke-dasharray="5,3"' in svg

    def test_no_overlay_without_path(self):
        doc = make_doc()
        svg = render_svg(View(doc), legend=False)
        assert CRITICAL not in svg

    def test_overlay_respects_window(self):
        doc = make_doc()
        view = View(doc)
        view.zoom_to(5.0, 10.0)  # only rank 1's tail is visible
        svg = render_svg(view, highlight_path=critical_path(doc),
                         legend=False)
        gold = re.findall(rf'stroke="{CRITICAL}"', svg)
        assert len(gold) == 1  # the rank-1 activity; hop & rank-0 culled

    def test_real_run_overlay(self, tmp_path):
        from repro.apps import lab2_main
        from repro.mpe import read_log
        from repro.pilot import PilotConfig, run_pilot
        from repro.slog2 import convert

        clog = str(tmp_path / "l.clog2")
        run_pilot(lab2_main, 6, argv=("-pisvc=j",),
                  config=PilotConfig(mpe_log_path=clog))
        doc, _ = convert(read_log(clog).log)
        cpath = critical_path(doc)
        svg = render_svg(View(doc), highlight_path=cpath)
        assert svg.count(CRITICAL) >= len(cpath.segments) // 2
