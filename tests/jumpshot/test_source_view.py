"""Colour-coded source listings (Fig. 3's top half)."""

import inspect

import pytest

from repro.jumpshot.source_view import (
    annotate_lines,
    render_source_ansi,
    render_source_html,
)
from repro.mpe import read_log
from repro.pilot import PilotConfig, run_pilot
from repro.slog2 import convert
from repro.slog2.model import Event, SlogCategory, Slog2Doc, State


def make_doc():
    cats = [SlogCategory(0, "PI_Read", "red", "state"),
            SlogCategory(1, "PI_Write", "green", "state"),
            SlogCategory(2, "PI_Log", "yellow", "event"),
            SlogCategory(3, "PI_Read msg", "yellow", "event")]
    states = [State(0, 1, 0.0, 1.0, 0, "Line: 3 Proc: P1 Idx: 0"),
              State(0, 1, 2.0, 3.0, 0, "Line: 3 Proc: P1 Idx: 0"),
              State(1, 0, 0.5, 0.6, 0, "Line: 7 Proc: PI_MAIN Idx: 0")]
    events = [Event(2, 0, 1.5, "Line: 9 checkpoint"),
              Event(3, 1, 0.9, "Arrived: len=4 on C0 Line: 3")]
    return Slog2Doc(categories=cats, states=states, events=events,
                    arrows=[], num_ranks=2, clock_resolution=1e-6)


SOURCE = "\n".join(f"line {i}" for i in range(1, 12))


class TestAnnotate:
    def test_lines_mapped_to_categories(self):
        ann = annotate_lines(make_doc())
        assert ann[3].category == "PI_Read"
        assert ann[3].count == 2
        assert ann[7].category == "PI_Write"
        assert ann[9].category == "PI_Log"

    def test_arrival_bubbles_do_not_annotate(self):
        # "PI_Read msg" bubbles point at the same line as their state;
        # they must not override or double-count.
        ann = annotate_lines(make_doc())
        assert ann[3].count == 2  # the two states only

    def test_unlogged_lines_absent(self):
        ann = annotate_lines(make_doc())
        assert 5 not in ann


class TestHtml:
    def test_structure_and_tints(self, tmp_path):
        path = str(tmp_path / "src.html")
        html = render_source_html(make_doc(), SOURCE, path, title="lab2.py")
        assert html.startswith("<!DOCTYPE html>")
        assert "lab2.py" in html
        assert html.count('class="ln hit"') == 3  # lines 3, 7, 9
        assert "#ff0000" in html  # red tint for PI_Read
        assert open(path).read() == html

    def test_tooltips_carry_counts(self):
        html = render_source_html(make_doc(), SOURCE)
        assert "PI_Read (2 instance(s) in the log)" in html

    def test_source_escaped(self):
        html = render_source_html(make_doc(), "<script>alert(1)</script>")
        assert "<script>alert" not in html
        assert "&lt;script&gt;" in html


class TestAnsi:
    def test_hit_lines_coloured(self):
        text = render_source_ansi(make_doc(), SOURCE)
        lines = text.splitlines()
        assert "<- PI_Read" in lines[2]
        assert "\x1b[38;5;196m" in lines[2]  # red
        assert "<- PI_Write" in lines[6]
        assert "<-" not in lines[4]


class TestEndToEnd:
    def test_real_program_lines_annotated(self, tmp_path):
        """Run a real Pilot program and tint its actual source file."""
        from repro.apps import lab2_main
        import repro.apps.lab2 as lab2_module

        clog = str(tmp_path / "l.clog2")
        res = run_pilot(lab2_main, 6, argv=("-pisvc=j",),
                        config=PilotConfig(mpe_log_path=clog))
        assert res.ok
        doc, _ = convert(read_log(clog).log)
        source = inspect.getsource(lab2_module)
        ann = annotate_lines(doc)
        # The annotated line numbers correspond to PI_* calls in lab2.py.
        src_lines = source.splitlines()
        for lineno, a in ann.items():
            stmt = src_lines[lineno - 1]
            assert "PI_" in stmt, (lineno, stmt, a)
        cats = {a.category for a in ann.values()}
        assert {"PI_Read", "PI_Write"} <= cats
        html = render_source_html(doc, source)
        assert 'class="ln hit"' in html
