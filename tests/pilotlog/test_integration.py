"""End-to-end tests of the -pisvc=j facility: run a Pilot program,
read the CLOG2 it wrote, convert, and check the visual design rules of
paper Section III."""

import os

import numpy as np
import pytest

from repro.mpe import read_log
from repro.pilot import PilotConfig, run_pilot
from repro.pilot.api import (
    PI_MAIN,
    BundleUsage,
    PI_Abort,
    PI_Broadcast,
    PI_Compute,
    PI_Configure,
    PI_CreateBundle,
    PI_CreateChannel,
    PI_CreateProcess,
    PI_Log,
    PI_Read,
    PI_Select,
    PI_SetName,
    PI_StartAll,
    PI_StopMain,
    PI_TrySelect,
    PI_Write,
)
from repro.pilotlog import JumpshotOptions
from repro.slog2 import convert


def run_and_convert(main, nprocs, tmp_path, *, argv=("-pisvc=j",),
                    jopts=None, **kw):
    path = str(tmp_path / "run.clog2")
    res = run_pilot(main, nprocs, argv=argv, config=PilotConfig(
        mpe_log_path=path, mpe=jopts, **kw))
    doc, report = convert(read_log(path).log,
                          {p.rank: p.name for p in res.run.processes})
    return res, doc, report


def simple_exchange(argv):
    chans = {}

    def work(i, _a):
        v = PI_Read(chans["c"], "%d %100f")
        PI_Write(chans["r"], "%d", int(v[0]))
        return 0

    PI_Configure(argv)
    p = PI_CreateProcess(work, 0)
    chans["c"] = PI_CreateChannel(PI_MAIN, p)
    chans["r"] = PI_CreateChannel(p, PI_MAIN)
    PI_StartAll()
    PI_Compute(0.01)
    PI_Write(chans["c"], "%d %100f", 5, np.zeros(100, dtype=np.float32))
    PI_Read(chans["r"], "%d")
    PI_StopMain(0)


class TestStatesAndPhases:
    def test_clean_conversion(self, tmp_path):
        res, doc, report = run_and_convert(simple_exchange, 2, tmp_path)
        assert res.ok
        assert report.clean, report.summary()

    def test_config_state_per_rank(self, tmp_path):
        _, doc, _ = run_and_convert(simple_exchange, 2, tmp_path)
        config = doc.states_of("PI_Configure")
        assert len(config) == 2  # one bisque rectangle per rank
        assert doc.category_by_name("PI_Configure").color == "bisque"

    def test_compute_state_per_user_rank(self, tmp_path):
        _, doc, _ = run_and_convert(simple_exchange, 2, tmp_path)
        compute = doc.states_of("Compute")
        assert len(compute) == 2
        assert doc.category_by_name("Compute").color == "gray"
        # Execution phase starts at PI_StartAll and ends at
        # PI_StopMain / work-function return.
        for s in compute:
            assert s.duration > 0

    def test_io_states_nested_in_compute(self, tmp_path):
        _, doc, _ = run_and_convert(simple_exchange, 2, tmp_path)
        for name in ("PI_Read", "PI_Write"):
            for s in doc.states_of(name):
                assert s.depth == 1  # inside the Compute rectangle

    def test_state_popup_contents(self, tmp_path):
        # Popup shows "the line number where it is called in the
        # original [source] file, the name of the calling process, and
        # its work function's index argument" (Section III.B).
        _, doc, _ = run_and_convert(simple_exchange, 2, tmp_path)
        s = next(s for s in doc.states_of("PI_Read") if s.rank == 1)
        assert s.start_text.startswith("Line: ")
        assert "Proc: P1" in s.start_text
        assert "Idx: 0" in s.start_text

    def test_state_count_matches_calls(self, tmp_path):
        _, doc, _ = run_and_convert(simple_exchange, 2, tmp_path)
        assert len(doc.states_of("PI_Write")) == 2  # one per rank
        assert len(doc.states_of("PI_Read")) == 2


class TestBubbles:
    def test_one_bubble_per_wire_message(self, tmp_path):
        # "%d %100f" sends two MPI messages -> two arrival bubbles in
        # the PI_Read rectangle (Section III.B).
        _, doc, _ = run_and_convert(simple_exchange, 2, tmp_path)
        read_bubbles = [e for e in doc.events_of("PI_Read msg") if e.rank == 1]
        assert len(read_bubbles) == 2

    def test_bubble_text_names_channel(self, tmp_path):
        _, doc, _ = run_and_convert(simple_exchange, 2, tmp_path)
        bubble = doc.events_of("PI_Read msg")[0]
        assert "C0" in bubble.text

    def test_bubble_texts_start_with_literal(self, tmp_path):
        # The workaround for Jumpshot's substitution-reordering bug:
        # "the workaround of starting any string with some literal
        # text" (Section III.C).
        _, doc, _ = run_and_convert(simple_exchange, 2, tmp_path)
        for e in doc.events:
            assert e.text == "" or not e.text[0].isdigit()
            assert not e.text.startswith("%")

    def test_write_bubble_shows_length_and_first_element(self, tmp_path):
        # Output side: "the data length and the value of the first
        # element are also shown" (Section III.B).
        _, doc, _ = run_and_convert(simple_exchange, 2, tmp_path)
        texts = [e.text for e in doc.events_of("PI_Write msg")]
        assert any("len=100" in t and "first=" in t for t in texts)

    def test_text_capped_at_40_bytes(self, tmp_path):
        _, doc, _ = run_and_convert(simple_exchange, 2, tmp_path)
        for e in doc.events:
            assert len(e.text.encode()) <= 40


class TestSoloEvents:
    def test_solo_utilities_logged_with_return_values(self, tmp_path):
        def main(argv):
            chans = {}

            def work(i, _a):
                PI_Write(chans["c"], "%d", 1)
                return 0

            PI_Configure(argv)
            p = PI_CreateProcess(work, 0)
            chans["c"] = PI_CreateChannel(p, PI_MAIN)
            b = PI_CreateBundle(BundleUsage.SELECT, [chans["c"]])
            PI_StartAll()
            PI_Log("checkpoint alpha")
            PI_TrySelect(b)
            PI_Read(chans["c"], "%d")
            PI_StopMain(0)

        _, doc, _ = run_and_convert(main, 2, tmp_path)
        logs = doc.events_of("PI_Log")
        assert len(logs) == 1
        assert "checkpoint alpha" in logs[0].text
        trysel = doc.events_of("PI_TrySelect")
        assert len(trysel) == 1
        assert "Returned:" in trysel[0].text
        assert "Line:" in trysel[0].text


class TestSelect:
    def test_select_state_no_bubble_popup_has_index(self, tmp_path):
        def main(argv):
            chans = []

            def work(i, _a):
                PI_Write(chans[i], "%d", i)
                return 0

            PI_Configure(argv)
            for i in range(2):
                p = PI_CreateProcess(work, i)
                chans.append(PI_CreateChannel(p, PI_MAIN))
            b = PI_CreateBundle(BundleUsage.SELECT, chans)
            PI_StartAll()
            idx = PI_Select(b)
            for i in range(2):
                PI_Read(chans[i], "%d")
            PI_StopMain(0)

        _, doc, _ = run_and_convert(main, 3, tmp_path)
        (select_state,) = doc.states_of("PI_Select")
        assert doc.events_of("PI_Select msg") == []  # no arrival bubble
        assert "Ready: channel index" in select_state.end_text

    def test_select_popup_names_bundle(self, tmp_path):
        def main(argv):
            chans = []

            def work(i, _a):
                PI_Write(chans[0], "%d", 1)
                return 0

            PI_Configure(argv)
            p = PI_CreateProcess(work, 0)
            chans.append(PI_CreateChannel(p, PI_MAIN))
            b = PI_CreateBundle(BundleUsage.SELECT, chans)
            PI_SetName(b, "inbox")
            PI_StartAll()
            PI_Select(b)
            PI_Read(chans[0], "%d")
            PI_StopMain(0)

        _, doc, _ = run_and_convert(main, 2, tmp_path)
        (s,) = doc.states_of("PI_Select")
        assert "On: inbox" in s.start_text


class TestArrows:
    def test_arrow_per_message_with_sizes(self, tmp_path):
        _, doc, _ = run_and_convert(simple_exchange, 2, tmp_path)
        # 2 wire messages MAIN->P1 plus 1 back.
        assert len(doc.arrows) == 3
        big = max(doc.arrows, key=lambda a: a.size)
        assert big.size >= 400  # the 100-float payload

    def test_collective_fanout_n_arrows(self, tmp_path):
        # "a bundle with N channels will result in N arrows being
        # drawn" (Section III.B).
        def main(argv):
            chans = []

            def work(i, _a):
                PI_Read(chans[i], "%d")
                return 0

            PI_Configure(argv)
            for i in range(4):
                p = PI_CreateProcess(work, i)
                chans.append(PI_CreateChannel(PI_MAIN, p))
            b = PI_CreateBundle(BundleUsage.BROADCAST, chans)
            PI_StartAll()
            PI_Broadcast(b, "%d", 9)
            PI_StopMain(0)

        _, doc, _ = run_and_convert(main, 5, tmp_path)
        assert len(doc.arrows) == 4
        assert {a.dst_rank for a in doc.arrows} == {1, 2, 3, 4}

    def test_arrows_causal_after_clock_sync(self, tmp_path):
        from repro.vmpi.clock import ClockSkew

        _, doc, report = run_and_convert(
            simple_exchange, 2, tmp_path,
            skews={1: ClockSkew(offset=0.05)})
        assert report.causality_violations == []
        for a in doc.arrows:
            assert a.end >= a.start


class TestArrowSpreading:
    def _fanout(self, tmp_path, jopts, resolution):
        def main(argv):
            chans = []

            def work(i, _a):
                PI_Read(chans[i], "%d")
                return 0

            PI_Configure(argv)
            for i in range(5):
                p = PI_CreateProcess(work, i)
                chans.append(PI_CreateChannel(PI_MAIN, p))
            b = PI_CreateBundle(BundleUsage.BROADCAST, chans)
            PI_StartAll()
            PI_Broadcast(b, "%d", 1)
            PI_StopMain(0)

        return run_and_convert(main, 6, tmp_path, jopts=jopts,
                               clock_resolution=resolution)

    def test_without_spreading_equal_drawables(self, tmp_path):
        # Coarse MPI_Wtime + no usleep -> superimposed arrows and the
        # "Equal Drawables" conversion warning (Section III.C).
        jopts = JumpshotOptions(spread_arrows=False)
        _, _, report = self._fanout(tmp_path, jopts, resolution=1e-3)
        assert len(report.equal_drawables) > 0

    def test_with_spreading_no_warning(self, tmp_path):
        # "With just 1 ms of delay per arrow, the problem is
        # eliminated resulting in an even fanout of arrows."
        jopts = JumpshotOptions(spread_arrows=True, arrow_spread_delay=1e-3)
        _, doc, report = self._fanout(tmp_path, jopts, resolution=1e-3)
        assert report.equal_drawables == []
        starts = sorted(a.start for a in doc.arrows)
        gaps = np.diff(starts)
        assert (gaps >= 5e-4).all()  # even fanout


class TestAbortLosesLog:
    def test_no_clog2_after_abort(self, tmp_path):
        path = str(tmp_path / "lost.clog2")

        def main(argv):
            PI_Configure(argv)
            PI_StartAll()
            PI_Abort(1, "giving up")

        opts = PilotConfig(mpe_log_path=path)
        res = run_pilot(main, 2, argv=("-pisvc=j",), config=opts)
        assert res.aborted is not None
        assert not os.path.exists(path)


class TestColorsInLog:
    def test_category_colors_match_scheme(self, tmp_path):
        _, doc, _ = run_and_convert(simple_exchange, 2, tmp_path)
        assert doc.category_by_name("PI_Read").color == "red"
        assert doc.category_by_name("PI_Write").color == "green"
        assert doc.category_by_name("PI_Read msg").color == "yellow"

    def test_color_override_via_options(self, tmp_path):
        from repro.pilotlog import ColorScheme

        jopts = JumpshotOptions(colors=ColorScheme(
            overrides={"PI_Read": "purple"}))
        _, doc, _ = run_and_convert(simple_exchange, 2, tmp_path, jopts=jopts)
        assert doc.category_by_name("PI_Read").color == "purple"


class TestOverheadKnobs:
    def test_logging_adds_modest_time(self, tmp_path):
        def timed(argv_extra):
            path = str(tmp_path / "t.clog2")
            opts = PilotConfig(mpe_log_path=path)
            res = run_pilot(simple_exchange, 2, argv=argv_extra, config=opts)
            return res.exec_end_time

        plain = timed(())
        logged = timed(("-pisvc=j",))
        # MPE logging overhead is "extremely slight" relative to the
        # 10ms of compute in the program (Section III.E).
        assert logged < plain * 1.5
