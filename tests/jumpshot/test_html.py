"""The interactive single-file HTML viewer."""

import json
import re

import pytest

from repro.jumpshot import View
from repro.jumpshot.html import HtmlTooLargeError, render_html
from repro.slog2.model import Arrow, Event, SlogCategory, Slog2Doc, State

CATS = [SlogCategory(0, "Compute", "gray", "state"),
        SlogCategory(1, "PI_Read", "red", "state"),
        SlogCategory(2, "Bubble", "yellow", "event"),
        SlogCategory(3, "message", "white", "arrow")]


def make_doc():
    states = [State(0, r, 0.0, 5.0, 0) for r in range(2)]
    states.append(State(1, 1, 1.0, 2.0, 1, "Line: 4 Proc: P1 Idx: 0"))
    events = [Event(2, 0, 2.5, "Sent: val=1")]
    arrows = [Arrow(3, 0, 1, 0.9, 1.0, 3, 16)]
    return Slog2Doc(categories=list(CATS), states=states, events=events,
                    arrows=arrows, num_ranks=2, clock_resolution=1e-6,
                    rank_names={0: "PI_MAIN", 1: "P1"})


def embedded_doc(html: str) -> dict:
    m = re.search(r"const DOC = (\{.*?\});\nconst COLORS", html, re.S)
    assert m, "DOC payload not found"
    return json.loads(m.group(1))


class TestRenderHtml:
    def test_self_contained_file(self, tmp_path):
        path = str(tmp_path / "view.html")
        html = render_html(View(make_doc()), path, title="demo log")
        assert html.startswith("<!DOCTYPE html>")
        assert "demo log" in html
        assert "http" not in html.split("</title>")[1]  # no external refs
        assert open(path).read() == html

    def test_payload_complete(self):
        doc = embedded_doc(render_html(View(make_doc())))
        assert len(doc["states"]) == 3
        assert len(doc["events"]) == 1
        assert len(doc["arrows"]) == 1
        assert doc["rows"] == [{"rank": 0, "label": "0 PI_MAIN"},
                               {"rank": 1, "label": "1 P1"}]
        assert doc["t0"] == 0.0 and doc["t1"] == 5.0

    def test_popups_embedded(self):
        doc = embedded_doc(render_html(View(make_doc())))
        nested = [s for s in doc["states"] if s[4] == 1]
        assert "Line: 4 Proc: P1 Idx: 0" in nested[0][5]
        assert "tag: 3" in doc["arrows"][0][5]

    def test_states_sorted_outer_first(self):
        doc = embedded_doc(render_html(View(make_doc())))
        depths = [s[4] for s in doc["states"]]
        assert depths == sorted(depths)  # nested paint over their parents

    def test_legend_checkboxes_and_stats(self):
        html = render_html(View(make_doc()))
        assert html.count('class="vis"') == 4
        assert "Compute" in html and "PI_Read" in html
        # incl for Compute: two 5-second states.
        assert "10.0000s" in html

    def test_category_colors_resolved(self):
        doc = embedded_doc(render_html(View(make_doc())))
        by_name = {c["name"]: c for c in doc["categories"]}
        assert by_name["PI_Read"]["color"] == "#ff0000"

    def test_interaction_script_present(self):
        html = render_html(View(make_doc()))
        for needle in ("addEventListener('wheel'", "mousedown", "dblclick",
                       "hit(", "rowTop("):
            assert needle in html

    def test_cut_timeline_respected(self):
        view = View(make_doc())
        view.cut_timeline(0)
        doc = embedded_doc(render_html(view))
        assert doc["rows"] == [{"rank": 1, "label": "1 P1"}]

    def test_size_cap(self, monkeypatch):
        import repro.jumpshot.html as mod

        monkeypatch.setattr(mod, "MAX_DRAWABLES", 3)
        with pytest.raises(HtmlTooLargeError):
            render_html(View(make_doc()))

    def test_end_to_end_from_real_run(self, tmp_path):
        from repro.apps import lab2_main
        from repro.mpe import read_log
        from repro.pilot import PilotConfig, run_pilot
        from repro.slog2 import convert

        clog = str(tmp_path / "l.clog2")
        run_pilot(lab2_main, 6, argv=("-pisvc=j",),
                  config=PilotConfig(mpe_log_path=clog))
        doc, _ = convert(read_log(clog).log)
        html = render_html(View(doc), str(tmp_path / "l.html"))
        payload = embedded_doc(html)
        assert len(payload["arrows"]) == 15
        assert any(r["label"] == "0 PI_MAIN" for r in payload["rows"])
