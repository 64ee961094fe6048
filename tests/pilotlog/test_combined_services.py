"""Running with every service at once (-pisvc=cdj), as the paper's
"Options can be combined, e.g., -pisvc=cj" allows."""

import os

import pytest

from repro.mpe import read_log
from repro.pilot import PilotConfig, run_pilot
from repro.pilot.api import (
    PI_MAIN,
    PI_Configure,
    PI_CreateChannel,
    PI_CreateProcess,
    PI_Read,
    PI_StartAll,
    PI_StopMain,
    PI_Write,
)
from repro.slog2 import convert


def pingpong(argv):
    chans = {}

    def work(i, _a):
        for _ in range(3):
            v = PI_Read(chans["to"], "%d")
            PI_Write(chans["back"], "%d", int(v))
        return 0

    PI_Configure(argv)
    p = PI_CreateProcess(work, 0)
    chans["to"] = PI_CreateChannel(PI_MAIN, p)
    chans["back"] = PI_CreateChannel(p, PI_MAIN)
    PI_StartAll()
    for r in range(3):
        PI_Write(chans["to"], "%d", r)
        PI_Read(chans["back"], "%d")
    PI_StopMain(0)


@pytest.fixture
def combined_run(tmp_path):
    opts = PilotConfig(native_log_path=str(tmp_path / "n.log"),
                       mpe_log_path=str(tmp_path / "m.clog2"))
    res = run_pilot(pingpong, 3, argv=("-pisvc=cdj",), config=opts)
    assert res.ok
    return res, tmp_path


class TestCombinedServices:
    def test_both_logs_produced(self, combined_run):
        res, tmp_path = combined_run
        assert os.path.exists(tmp_path / "n.log")
        assert os.path.exists(tmp_path / "m.clog2")

    def test_service_rank_displaces_and_appears_without_compute(self, combined_run):
        res, tmp_path = combined_run
        assert res.run.available_processes == 2  # 3 ranks - service
        doc, report = convert(read_log(str(tmp_path / "m.clog2")).log)
        assert report.clean, report.summary()
        # The service rank (2) executed the configuration phase, so it
        # has a bisque state — but no gray Compute state: it ran the
        # service loop, not user code.
        config_ranks = {s.rank for s in doc.states_of("PI_Configure")}
        compute_ranks = {s.rank for s in doc.states_of("Compute")}
        assert config_ranks == {0, 1, 2}
        assert compute_ranks == {0, 1}

    def test_mpe_log_complete_despite_service_traffic(self, combined_run):
        res, tmp_path = combined_run
        doc, _ = convert(read_log(str(tmp_path / "m.clog2")).log)
        # 6 app messages; the service-feed traffic must NOT appear as
        # arrows (it is infrastructure, not Pilot communication).
        assert len(doc.arrows) == 6
        assert len(doc.states_of("PI_Write")) == 6
        assert len(doc.states_of("PI_Read")) == 6

    def test_deadlock_detector_active_alongside_logging(self, tmp_path):
        def buggy(argv):
            chans = {}

            def work(i, _a):
                PI_Read(chans["to"], "%d")
                return 0

            PI_Configure(argv)
            p = PI_CreateProcess(work, 0)
            chans["to"] = PI_CreateChannel(PI_MAIN, p)
            chans["back"] = PI_CreateChannel(p, PI_MAIN)
            PI_StartAll()
            PI_Read(chans["back"], "%d")  # nobody will write
            PI_StopMain(0)

        opts = PilotConfig(native_log_path=str(tmp_path / "n.log"),
                           mpe_log_path=str(tmp_path / "m.clog2"))
        res = run_pilot(buggy, 3, argv=("-pisvc=cdj",), config=opts)
        assert res.aborted is not None
        assert any(c.startswith("DEADLOCK") for c in res.diagnostics.codes)
        # Native log survived the abort; MPE log did not (no salvage).
        assert os.path.exists(tmp_path / "n.log")
        assert not os.path.exists(tmp_path / "m.clog2")
