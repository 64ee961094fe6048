"""Chrome Trace Event export."""

import json

import pytest

from repro.slog2.model import Arrow, Event, SlogCategory, Slog2Doc, State
from repro.slog2.tracing import to_chrome_trace, write_chrome_trace

CATS = [SlogCategory(0, "Compute", "gray", "state"),
        SlogCategory(1, "Bubble", "yellow", "event"),
        SlogCategory(2, "message", "white", "arrow")]


def make_doc():
    return Slog2Doc(
        categories=list(CATS),
        states=[State(0, 0, 0.0, 2.0, 0, "Line: 5", ""),
                State(0, 1, 0.5, 1.0, 0)],
        events=[Event(1, 0, 0.25, "pop")],
        arrows=[Arrow(2, 0, 1, 0.4, 0.5, 9, 64)],
        num_ranks=2, clock_resolution=1e-9,
        rank_names={0: "PI_MAIN"})


class TestChromeTrace:
    def test_thread_metadata(self):
        events = to_chrome_trace(make_doc())
        meta = [e for e in events if e["ph"] == "M"]
        assert {m["tid"]: m["args"]["name"] for m in meta} == {
            0: "PI_MAIN", 1: "rank 1"}

    def test_states_become_complete_events(self):
        events = to_chrome_trace(make_doc())
        xs = [e for e in events if e["ph"] == "X"]
        assert len(xs) == 2
        main_state = next(e for e in xs if e["tid"] == 0)
        assert main_state["ts"] == 0.0
        assert main_state["dur"] == pytest.approx(2e6)  # microseconds
        assert main_state["args"]["begin"] == "Line: 5"

    def test_bubbles_become_instants(self):
        events = to_chrome_trace(make_doc())
        (inst,) = [e for e in events if e["ph"] == "i"]
        assert inst["ts"] == pytest.approx(0.25e6)
        assert inst["args"]["text"] == "pop"

    def test_arrows_become_flow_pairs(self):
        events = to_chrome_trace(make_doc())
        starts = [e for e in events if e["ph"] == "s"]
        finishes = [e for e in events if e["ph"] == "f"]
        assert len(starts) == len(finishes) == 1
        assert starts[0]["id"] == finishes[0]["id"]
        assert starts[0]["tid"] == 0 and finishes[0]["tid"] == 1
        assert starts[0]["args"]["size"] == 64

    def test_sorted_by_timestamp(self):
        events = to_chrome_trace(make_doc())
        stamps = [e.get("ts", -1) for e in events]
        assert stamps == sorted(stamps)

    def test_file_is_valid_json(self, tmp_path):
        path = str(tmp_path / "trace.json")
        n = write_chrome_trace(make_doc(), path)
        loaded = json.load(open(path))
        assert len(loaded) == n
        assert all("ph" in e for e in loaded)

    def test_real_run_exports(self, tmp_path):
        from repro.apps import lab2_main
        from repro.mpe import read_log
        from repro.pilot import PilotConfig, run_pilot
        from repro.slog2 import convert

        clog = str(tmp_path / "l.clog2")
        run_pilot(lab2_main, 6, argv=("-pisvc=j",),
                  config=PilotConfig(mpe_log_path=clog))
        doc, _ = convert(read_log(clog).log)
        path = str(tmp_path / "lab2.trace.json")
        n = write_chrome_trace(doc, path)
        loaded = json.load(open(path))
        assert n == len(loaded)
        flows = [e for e in loaded if e["ph"] in ("s", "f")]
        assert len(flows) == 2 * 15  # lab2's fifteen arrows
