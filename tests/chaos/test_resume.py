"""Crash → restart → recover: the journal round-trip, end to end.

Each scenario records a run under ``-pijournal`` semantics, kills it
with an injected crash, restarts it with :func:`resume_pilot`, and then
proves the *recovered* visualization — CLOG2, SLOG2 and rendered SVG —
is byte-identical to what an uninterrupted run of the same program
would have produced.  The reference run arms the same journal
machinery (record mode, same checkpoint cadence) with crash rules
suppressed so both executions consume identical event-heap sequence
numbers; byte equality is then a meaningful determinism claim, not an
accident of formatting.

Run with ``make chaos-resume`` or ``pytest tests/chaos/test_resume.py``.
"""

import json
import os

import pytest

from repro.jumpshot.ascii import render_ascii
from repro.jumpshot.svg import render_svg
from repro.jumpshot.viewer import View
from repro.mpe.clog2 import read_log
from repro.pilot import PilotConfig, resume_pilot, run_pilot
from repro.pilot.api import (
    PI_MAIN,
    PI_Compute,
    PI_Configure,
    PI_CreateChannel,
    PI_CreateProcess,
    PI_Read,
    PI_StartAll,
    PI_StopMain,
    PI_Write,
)
from repro.pilotlog.integration import JumpshotOptions
from repro.slog2.convert import convert
from repro.slog2.file import write_slog2
from repro.vmpi.faults import CrashFault, FaultPlan, MessageFault
from repro.vmpi.journal import ReplayDivergence

from tests.chaos.test_chaos import pipeline_app

WORKERS = 2
NPROCS = WORKERS + 1
ROUNDS = 20
RUN_SEED = 9

#: Plan seeds for the resume matrix — CI runs the same three.
PLAN_SEEDS = (5, 17, 23)
#: A resume passes the recorded run's Jumpshot options.
RESUME_CONFIG = PilotConfig(mpe=JumpshotOptions(salvage=True))


def crash_plan(seed):
    """Seeded message chaos plus a mid-run crash of rank 1."""
    return FaultPlan(seed=seed, rules=(
        MessageFault("delay", probability=0.2, delay=2e-4, jitter=1e-4),
        CrashFault(rank=1, at=0.01, reason="injected rank failure"),
    ))


def record_crashed_run(tmp_path, seed, *, name="crashed"):
    """Run the pipeline app under a journal until the crash kills it."""
    log = str(tmp_path / f"{name}.clog2")
    jdir = str(tmp_path / f"{name}.journal")
    opts = PilotConfig(services="j", mpe_log_path=log, journal_dir=jdir,
                       mpe=JumpshotOptions(salvage=True),
                       faults=crash_plan(seed), seed=RUN_SEED)
    res = run_pilot(pipeline_app(WORKERS, ROUNDS), NPROCS, config=opts)
    return log, jdir, res


def reference_run(tmp_path, seed, *, name="reference"):
    """The uninterrupted ground truth: same plan, crashes suppressed.

    The reference arms its own record journal so checkpoint ticks and
    suppressed-crash placeholder events consume the same scheduler
    sequence numbers as the recorded and replayed runs.
    """
    log = str(tmp_path / f"{name}.clog2")
    jdir = str(tmp_path / f"{name}.journal")
    opts = PilotConfig(services="j", mpe_log_path=log, journal_dir=jdir,
                       mpe=JumpshotOptions(salvage=True),
                       faults=crash_plan(seed), seed=RUN_SEED)
    res = run_pilot(pipeline_app(WORKERS, ROUNDS), NPROCS, config=opts,
                    suppress_crashes=True)
    return log, res


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def derived_artifacts(clog_path, tmp_path, tag):
    """CLOG2 -> SLOG2 bytes and SVG text, the user-facing artifacts."""
    doc, _ = convert(read_log(clog_path).log)
    slog_path = str(tmp_path / f"{tag}.slog2")
    write_slog2(slog_path, doc)
    svg = render_svg(View(doc))
    return read_bytes(slog_path), svg


class TestCrashResumeRoundTrip:
    @pytest.mark.parametrize("seed", PLAN_SEEDS)
    def test_resume_recovers_byte_identical_artifacts(self, tmp_path, seed):
        log, jdir, res = record_crashed_run(tmp_path, seed)
        assert res.aborted is not None
        assert res.aborted.errorcode == 134  # the injected crash
        # The merge never ran: the crash killed the run before finalize.
        assert not os.path.exists(log)
        # ... but the journal survived the crash.
        assert os.path.exists(os.path.join(jdir, "manifest.json"))

        resumed = resume_pilot(pipeline_app(WORKERS, ROUNDS), jdir,
                               config=RESUME_CONFIG)
        assert resumed.aborted is None
        assert resumed.journal is not None
        assert resumed.journal.mode == "replay"
        assert resumed.journal.divergences == []
        # The recovered run re-emitted the CLOG2 at the recorded path.
        assert os.path.exists(log)

        ref_log, ref = reference_run(tmp_path, seed)
        assert ref.aborted is None
        assert read_bytes(log) == read_bytes(ref_log)

        slog_a, svg_a = derived_artifacts(log, tmp_path, "resumed")
        slog_b, svg_b = derived_artifacts(ref_log, tmp_path, "ref")
        assert slog_a == slog_b
        assert svg_a == svg_b

    def test_resume_verified_the_recorded_prefix(self, tmp_path):
        _, jdir, res = record_crashed_run(tmp_path, PLAN_SEEDS[0])
        assert res.journal is not None and res.journal.mode == "record"
        resumed = resume_pilot(pipeline_app(WORKERS, ROUNDS), jdir,
                               config=RESUME_CONFIG)
        journal = resumed.journal
        # The replay actually checked something: the journaled prefix
        # holds deliveries for every rank and the boundary is inside
        # the resumed run's timeline.
        assert any(journal.recorded_deliveries(r) for r in range(NPROCS))
        boundary = journal.replay_boundary()
        assert boundary is not None
        assert 0 < boundary <= resumed.vmpi.engine.now
        assert journal.checkpoint_times()
        abort = journal.recorded_abort()
        assert abort is not None and abort["errorcode"] == 134

    def test_wrong_program_raises_replay_divergence(self, tmp_path):
        _, jdir, _ = record_crashed_run(tmp_path, PLAN_SEEDS[0])

        def different_app(argv):
            chans = {}

            def work(i, _a):
                for _ in range(ROUNDS):
                    v = PI_Read(chans[f"to{i}"], "%d")
                    PI_Compute(2e-4)  # different compute: timestamps shift
                    PI_Write(chans[f"back{i}"], "%d", int(v) + 2)
                return 0

            PI_Configure(argv)
            procs = [PI_CreateProcess(work, i) for i in range(WORKERS)]
            for i, p in enumerate(procs):
                chans[f"to{i}"] = PI_CreateChannel(PI_MAIN, p)
                chans[f"back{i}"] = PI_CreateChannel(p, PI_MAIN)
            PI_StartAll()
            for r in range(ROUNDS):
                for i in range(WORKERS):
                    PI_Write(chans[f"to{i}"], "%d", r)
                for i in range(WORKERS):
                    PI_Read(chans[f"back{i}"], "%d")
            PI_StopMain(0)

        with pytest.raises(ReplayDivergence):
            resume_pilot(different_app, jdir,
                         config=RESUME_CONFIG)

    def test_perf_counters_cover_the_journal(self, tmp_path):
        log = str(tmp_path / "perf.clog2")
        jdir = str(tmp_path / "perf.journal")
        opts = PilotConfig(services="jp", mpe_log_path=log, journal_dir=jdir,
                           mpe=JumpshotOptions(salvage=True),
                           faults=crash_plan(PLAN_SEEDS[0]), seed=RUN_SEED)
        res = run_pilot(pipeline_app(WORKERS, 8), NPROCS, config=opts)
        assert res.aborted is not None
        snap = res.perf.snapshot()
        assert "journal-append" in snap["stages"]
        assert "checkpoint-write" in snap["stages"]
        assert snap["stages"]["journal-append"]["records"] > 0
        # The snapshot file landed next to the (never-written) log.
        with open(log + ".perf.json") as fh:
            dumped = json.load(fh)
        assert "journal-append" in dumped["stages"]

        resumed = resume_pilot(pipeline_app(WORKERS, 8), jdir,
                               config=RESUME_CONFIG)
        rsnap = resumed.perf.snapshot()
        assert rsnap["stages"]["replay-verify"]["records"] > 0


class TestJournalMarkersInRenderers:
    def _recovered_view(self, tmp_path):
        log, jdir, _ = record_crashed_run(tmp_path, PLAN_SEEDS[0])
        resumed = resume_pilot(pipeline_app(WORKERS, ROUNDS), jdir,
                               config=RESUME_CONFIG)
        doc, _ = convert(read_log(log).log)
        return View(doc), resumed.journal

    def test_svg_checkpoint_ticks_and_boundary(self, tmp_path):
        view, journal = self._recovered_view(tmp_path)
        plain = render_svg(view)
        marked = render_svg(view, checkpoints=journal.checkpoint_times(),
                            replay_boundary=journal.replay_boundary())
        assert "checkpoint at" in marked
        assert "replay boundary" in marked
        # Defaults stay byte-identical: existing goldens are safe.
        assert "checkpoint at" not in plain
        assert "replay boundary" not in plain

    def test_ascii_ruler_row(self, tmp_path):
        view, journal = self._recovered_view(tmp_path)
        plain = render_ascii(view, width=80)
        marked = render_ascii(view, width=80,
                              checkpoints=journal.checkpoint_times(),
                              replay_boundary=journal.replay_boundary())
        assert "journal:" in marked and "checkpoint(s)" in marked
        assert "replay boundary at" in marked
        assert "^" in marked
        assert "journal:" not in plain
