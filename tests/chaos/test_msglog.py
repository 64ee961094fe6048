"""Survivable rank crashes: in-run localized recovery, end to end.

Each scenario crashes one rank of a real Pilot program mid-run with
``-pirecover=msglog`` armed: the rank is killed, respawned and replayed
from the senders' message logs while every survivor keeps running.  The
proof obligation is the strongest one the pipeline offers — the final
merged CLOG2 (and the SLOG2 derived from it) is *byte-identical* to
the fault-free reference once the explicit recovery drawables are
stripped, across a seeds × crash-sites matrix.  The markers themselves
must also be there: the RecoveryReport carries the episode, and the
SVG/ASCII timelines render the striped recovery interval, the crash
and the replay summary.

Run with ``make chaos-recover`` or ``pytest tests/chaos/test_msglog.py``.
"""

import os

import pytest

from repro.jumpshot.ascii import render_ascii
from repro.jumpshot.markers import (
    RECOVERY_GLYPH,
    RECOVERY_PATTERN_ID,
    RECOVERY_STATE_GLYPHS,
    RECOVERY_STATE_NAME,
)
from repro.jumpshot.svg import render_svg
from repro.jumpshot.viewer import View
from repro.mpe.clog2 import read_log
from repro.mpe.recovery_marks import canonical_stripped_bytes, strip_recovery
from repro.pilot import PilotConfig, run_pilot
from repro.pilotcheck import lint_clog2_records, lint_msglog
from repro.pilotlog.integration import JumpshotOptions
from repro.slog2.convert import convert
from repro.slog2.file import write_slog2
from repro.vmpi.faults import CrashFault, FaultPlan, MessageFault

from tests.chaos.test_chaos import pipeline_app
from tests.chaos.test_resume import PLAN_SEEDS

WORKERS = 2
NPROCS = WORKERS + 1
ROUNDS = 12
RUN_SEED = 9

#: Crash sites for the recovery matrix — CI runs the same ones.  The
#: pipeline app's worker ranks go quiet near t=2.3ms (over all plan
#: seeds), so both sites land mid-run; they hit different ranks and
#: different phases of the round-trip.
CRASH_SITES = ((1, 1e-3), (2, 1.8e-3))


def msglog_plan(seed, rank, at):
    """Seeded message chaos plus one recoverable rank crash."""
    return FaultPlan(seed=seed, rules=(
        MessageFault("delay", probability=0.2, delay=2e-4, jitter=1e-4),
        CrashFault(rank=rank, at=at, reason="injected rank failure"),
    ))


def recovery_run(tmp_path, seed, rank, at, *, name="recover"):
    """Crash + recover in one run; returns (clog path, wal path, result)."""
    log = str(tmp_path / f"{name}.clog2")
    jdir = str(tmp_path / f"{name}.journal")
    opts = PilotConfig(services="j", mpe_log_path=log, journal_dir=jdir,
                       recover="msglog", mpe=JumpshotOptions(), seed=RUN_SEED,
                       faults=msglog_plan(seed, rank, at))
    res = run_pilot(pipeline_app(WORKERS, ROUNDS), NPROCS, config=opts)
    return log, os.path.join(jdir, "msglog.wal"), res


def reference_run(tmp_path, seed, rank, at, *, name="reference"):
    """Fault-free ground truth: same plan, crash suppressed.

    Arms the same journal machinery so checkpoint barriers and the
    suppressed-crash placeholder consume identical scheduler state.
    """
    log = str(tmp_path / f"{name}.clog2")
    jdir = str(tmp_path / f"{name}.journal")
    opts = PilotConfig(services="j", mpe_log_path=log, journal_dir=jdir,
                       mpe=JumpshotOptions(), seed=RUN_SEED,
                       faults=msglog_plan(seed, rank, at))
    res = run_pilot(pipeline_app(WORKERS, ROUNDS), NPROCS, config=opts,
                    suppress_crashes=True)
    return log, res


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestRecoveryMatrix:
    @pytest.mark.parametrize("seed", PLAN_SEEDS)
    @pytest.mark.parametrize("rank,at", CRASH_SITES)
    def test_stripped_artifacts_byte_identical(self, tmp_path, seed,
                                               rank, at):
        log, wal, res = recovery_run(tmp_path, seed, rank, at)
        assert res.aborted is None and res.ok
        report = res.recovery_report
        assert [int(ep["rank"]) for ep in report.recoveries] == [rank]
        assert report.recovered_ranks() == {rank: pytest.approx(at)}

        ref_log, ref = reference_run(tmp_path, seed, rank, at)
        assert ref.ok

        # Raw bytes differ (the recovery drawables are really there) …
        assert read_bytes(log) != read_bytes(ref_log)
        # … and stripping them restores byte identity.
        assert canonical_stripped_bytes(log) == \
            canonical_stripped_bytes(ref_log)

        # Same claim one format further down: SLOG2 from the stripped
        # recovered log == SLOG2 from the stripped reference.
        pair = []
        for tag, path in (("rec", log), ("ref", ref_log)):
            doc, conv_report = convert(strip_recovery(read_log(path).log))
            assert not conv_report.causality_violations
            slog = str(tmp_path / f"{tag}.slog2")
            write_slog2(slog, doc)
            pair.append(read_bytes(slog))
        assert pair[0] == pair[1]

        # The determinant WAL lints clean against the episode record.
        assert lint_msglog(wal, report) == []

    @pytest.mark.parametrize("seed", PLAN_SEEDS[:1])
    def test_survivors_and_finish_time_unaffected(self, tmp_path, seed):
        rank, at = CRASH_SITES[0]
        log, _, res = recovery_run(tmp_path, seed, rank, at)
        ref_log, ref = reference_run(tmp_path, seed, rank, at)
        assert res.vmpi.engine.now == pytest.approx(ref.vmpi.engine.now)
        # Survivors never restarted: their delivery statistics match
        # the reference exactly (a restart would re-deliver).
        stats = res.msglog.stats
        assert stats["replayed"] > 0
        assert res.msglog.episodes[0].outcome in (
            "reintegrated", "blocked", "finished")


class TestRecoveryRendering:
    @pytest.fixture(scope="class")
    def rendered(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("render")
        rank, at = CRASH_SITES[0]
        log, wal, res = recovery_run(tmp, PLAN_SEEDS[0], rank, at)
        doc, _ = convert(read_log(log).log, recovery=res.recovery_report)
        view = View(doc)
        return (doc, render_svg(view), render_ascii(view, width=100),
                log, res)

    def test_svg_shows_recovery(self, rendered):
        doc, svg, _, _, _ = rendered
        assert f'url(#{RECOVERY_PATTERN_ID})' in svg  # striped interval
        assert "↻" in svg  # the recovered-rank marker
        assert "recovered in-run" in svg  # banner + marker popup
        # The popup text carries the crash/replay virtual times.
        assert "crash t=" in svg
        assert "replayed" in svg

    def test_ascii_shows_recovery(self, rendered):
        doc, _, txt, _, _ = rendered
        assert "recovered in-run" in txt  # salvage banner line
        glyph = RECOVERY_STATE_GLYPHS[RECOVERY_STATE_NAME]
        assert glyph in txt  # the striped replay interval
        assert RECOVERY_GLYPH in txt  # the @ marker at the crash site
        assert "↻" in txt  # rank label annotation

    def test_unstripped_log_lints_clean(self, rendered):
        _, _, _, log, res = rendered
        findings = lint_clog2_records(read_log(log).log)
        assert [f for f in findings if f.severity == "error"] == []
