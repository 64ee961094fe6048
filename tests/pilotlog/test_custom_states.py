"""User-defined timeline states (PI_DefineState / PI_State)."""

import pytest

from repro.mpe import read_log
from repro.pilot import PilotConfig, run_pilot
from repro.pilot.api import (
    PI_MAIN,
    PI_Compute,
    PI_Configure,
    PI_CreateChannel,
    PI_CreateProcess,
    PI_DefineState,
    PI_Read,
    PI_StartAll,
    PI_State,
    PI_StopMain,
    PI_Write,
)
from repro.slog2 import convert

from tests.pilot.helpers import expect_abort_with


def staged_worker_program(argv):
    chans = {}
    PI_Configure(argv)
    decompress = PI_DefineState("decompress", "blue")
    crop = PI_DefineState("crop", "purple")

    def work(i, _a):
        PI_Read(chans["go"], "%d")
        with PI_State(decompress):
            PI_Compute(0.03)
            with PI_State(crop):  # nested custom state
                PI_Compute(0.01)
        PI_Write(chans["done"], "%d", 1)
        return 0

    p = PI_CreateProcess(work, 0)
    chans["go"] = PI_CreateChannel(PI_MAIN, p)
    chans["done"] = PI_CreateChannel(p, PI_MAIN)
    PI_StartAll()
    with PI_State(decompress):  # main can use them too
        PI_Compute(0.005)
    PI_Write(chans["go"], "%d", 1)
    PI_Read(chans["done"], "%d")
    PI_StopMain(0)


def run_logged(tmp_path, main=staged_worker_program, nprocs=2):
    path = str(tmp_path / "c.clog2")
    res = run_pilot(main, nprocs, argv=("-pisvc=j",),
                    config=PilotConfig(mpe_log_path=path))
    assert res.ok
    doc, report = convert(read_log(path).log)
    return res, doc, report


class TestCustomStates:
    def test_states_appear_with_colors(self, tmp_path):
        _, doc, report = run_logged(tmp_path)
        assert report.clean, report.summary()
        assert doc.category_by_name("decompress").color == "blue"
        assert doc.category_by_name("crop").color == "purple"
        assert len(doc.states_of("decompress")) == 2  # worker + main
        assert len(doc.states_of("crop")) == 1

    def test_durations_match_declared_compute(self, tmp_path):
        _, doc, _ = run_logged(tmp_path)
        worker_dec = max(doc.states_of("decompress"), key=lambda s: s.duration)
        assert worker_dec.duration == pytest.approx(0.04, rel=0.05)
        (crop_state,) = doc.states_of("crop")
        assert crop_state.duration == pytest.approx(0.01, rel=0.05)

    def test_nesting_depths(self, tmp_path):
        _, doc, _ = run_logged(tmp_path)
        (crop_state,) = doc.states_of("crop")
        worker_dec = next(s for s in doc.states_of("decompress")
                          if s.rank == crop_state.rank)
        # Compute (0) > decompress (1) > crop (2) on the worker.
        assert worker_dec.depth == 1
        assert crop_state.depth == worker_dec.depth + 1

    def test_excl_law_with_custom_states(self, tmp_path):
        from repro.slog2 import compute_stats

        _, doc, _ = run_logged(tmp_path)
        stats = compute_stats(doc)
        dec = stats["decompress"]
        assert dec.excl == pytest.approx(dec.incl - stats["crop"].incl,
                                         rel=1e-6)

    def test_popup_carries_line_and_name(self, tmp_path):
        _, doc, _ = run_logged(tmp_path)
        s = doc.states_of("crop")[0]
        assert s.start_text.startswith("Line: ")
        assert "crop" in s.start_text

    def test_without_logging_states_are_free(self):
        # No -pisvc=j: PI_State blocks still run, just log nothing.
        res = run_pilot(staged_worker_program, 2)
        assert res.ok

    def test_define_requires_config_phase(self):
        def main(argv):
            PI_Configure(argv)
            PI_StartAll()
            PI_DefineState("late", "red")
            PI_StopMain(0)

        expect_abort_with(run_pilot(main, 2), "WRONG_PHASE")

    def test_state_requires_exec_phase(self):
        def main(argv):
            PI_Configure(argv)
            h = PI_DefineState("early", "red")
            with PI_State(h):
                pass

        expect_abort_with(run_pilot(main, 2), "WRONG_PHASE")

    def test_state_requires_handle(self):
        def main(argv):
            PI_Configure(argv)
            PI_StartAll()
            with PI_State("not-a-handle"):
                pass

        expect_abort_with(run_pilot(main, 2), "BAD_ARGUMENTS")

    def test_divergent_definitions_detected(self):
        from repro.pilot.program import current_run

        def main(argv):
            PI_Configure(argv)
            PI_DefineState(f"state-{current_run().rank}", "red")
            PI_StartAll()
            PI_StopMain(0)

        expect_abort_with(run_pilot(main, 2), "CONFIG_MISMATCH")
