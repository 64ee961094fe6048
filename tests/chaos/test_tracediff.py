"""End-to-end fault localization: inject -> replay clean -> diff -> blame.

The promise under test is the whole point of ``repro.tracediff``: given
a faulted trace and its fault-free twin, ``diff_traces`` ranks the rank
that actually went wrong first — across a seeds × fault-kinds matrix
(payload corruption caught in the app, rank crashes recovered by
message logging), and for the paper's two buggy collision submissions
(where the "fault" is a bug in PI_MAIN's communication pattern).
Byte-identical replay pairs must diff empty, and salvaged/torn inputs
must degrade to a partial-alignment note instead of an exception.

Run with ``make diff-trace`` or ``pytest tests/chaos/test_tracediff.py``.
"""

import numpy as np
import pytest

from repro.apps.collisions_buggy import (
    BUGGY_VARIANTS,
    fixture_config,
    write_diff_fixture,
)
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
from repro.pilotlog.integration import JumpshotOptions
from repro.tracediff import diff_findings, diff_traces
from repro.vmpi.faults import CrashFault, FaultPlan, MessageFault

from tests.chaos.test_chaos import launch
from tests.chaos.test_msglog import CRASH_SITES, recovery_run, reference_run
from tests.chaos.test_resume import PLAN_SEEDS

WORKERS = 2
NPROCS = WORKERS + 1
ROUNDS = 10


def echo_varlen_app(workers=WORKERS, rounds=ROUNDS):
    """Master sends each round index; workers echo a vector whose length
    depends on the value received.

    The defensive read is the fault hook: a payload corrupted in flight
    makes the envelope unpack blow up inside PI_Read, the worker
    degrades to a sentinel, and its *reply length changes* — a
    structural, localizable divergence on the victim's own timeline.
    """

    def main(argv):
        chans = {}

        def work(i, _a):
            for _ in range(rounds):
                try:
                    v = int(PI_Read(chans[f"to{i}"], "%d"))
                except TypeError:
                    v = -1  # corrupted envelope: degrade, don't die
                n = 5 if v < 0 else 1 + (v % 3)
                PI_Write(chans[f"back{i}"], "%^ld", n,
                         np.arange(n, dtype=np.int64))
            return 0

        PI_Configure(argv)
        procs = [PI_CreateProcess(work, i) for i in range(workers)]
        for i, p in enumerate(procs):
            chans[f"to{i}"] = PI_CreateChannel(PI_MAIN, p)
            chans[f"back{i}"] = PI_CreateChannel(p, PI_MAIN)
        PI_StartAll()
        for r in range(rounds):
            for i in range(workers):
                PI_Write(chans[f"to{i}"], "%d", r)
            for i in range(workers):
                PI_Read(chans[f"back{i}"], "%^ld")
        PI_StopMain(0)

    return main


def echo_run(tmp_path, seed, *, faults=None, name="run"):
    log = str(tmp_path / f"{name}.clog2")
    opts = PilotConfig(services="j", mpe_log_path=log, mpe=JumpshotOptions(),
                       seed=seed, faults=faults)
    res = run_pilot(echo_varlen_app(), NPROCS, config=opts)
    assert res.aborted is None
    return log


def corrupt_plan(seed, victim):
    """Corrupt the first master->victim payload of the run."""
    return FaultPlan(seed=seed, rules=(
        MessageFault("corrupt", src=0, dest=victim, probability=1.0,
                     max_count=1),))


class TestLocalizationMatrix:
    @pytest.mark.parametrize("seed", PLAN_SEEDS)
    @pytest.mark.parametrize("victim", (1, 2))
    def test_corrupt_payload_blames_victim(self, tmp_path, seed, victim):
        good = echo_run(tmp_path, seed, name="good")
        bad = echo_run(tmp_path, seed, faults=corrupt_plan(seed, victim),
                       name="bad")
        diff = diff_traces(good, bad, label_a="good", label_b="bad")
        assert not diff.empty
        assert diff.blamed_rank == victim
        # The victim's own divergence is structural, not just drift.
        assert any(ep.rank == victim for ep in diff.structural_episodes)
        codes = {f.code for f in diff_findings(diff)}
        assert "DF001" in codes

    @pytest.mark.parametrize("seed", PLAN_SEEDS)
    @pytest.mark.parametrize("rank,at", CRASH_SITES)
    def test_msglog_recovery_blames_crashed_rank(self, tmp_path, seed,
                                                 rank, at):
        rec_log, _, res = recovery_run(tmp_path, seed, rank, at)
        assert res.ok
        ref_log, ref = reference_run(tmp_path, seed, rank, at)
        assert ref.ok
        diff = diff_traces(ref_log, rec_log, label_a="reference",
                           label_b="recovered")
        assert not diff.empty
        assert diff.blamed_rank == rank
        # The recovery drawables surface as extra events on the victim.
        assert any(ep.rank == rank and ep.kind in ("extra", "mismatch")
                   for ep in diff.structural_episodes)

    @pytest.mark.parametrize("variant", BUGGY_VARIANTS)
    def test_buggy_collisions_blame_pi_main(self, tmp_path, variant):
        good, buggy = write_diff_fixture(
            str(tmp_path), variant, nprocs=4,
            config=fixture_config(nrecords=1_200))
        diff = diff_traces(good, buggy)
        assert not diff.empty
        # Both student bugs live in PI_MAIN's communication pattern.
        assert diff.blamed_rank == 0
        assert any(ep.rank == 0 for ep in diff.structural_episodes)


class TestReplayAndSalvage:
    def test_byte_identical_replay_pair_diffs_empty(self, tmp_path):
        a = echo_run(tmp_path, 5, name="first")
        b = echo_run(tmp_path, 5, name="second")
        diff = diff_traces(a, b)
        assert diff.identical and diff.empty
        assert diff_findings(diff) == []

    def test_aborted_run_diffs_from_partials(self, tmp_path):
        plan = FaultPlan(seed=7, rules=(
            CrashFault(rank=1, at=4e-3, reason="injected rank failure"),))
        torn_base, res = launch(tmp_path, plan, rounds=20, name="torn")
        assert res.aborted is not None
        ref_base, ref_res = launch(tmp_path, FaultPlan(seed=7, rules=()),
                                   rounds=20, name="ref")
        assert ref_res.aborted is None
        # torn_base has no merged CLOG2, only rankNNNN.part salvage
        # files: the diff must still run and say so.
        diff = diff_traces(ref_base, torn_base, label_a="reference",
                           label_b="torn")
        assert diff.partial
        assert any("salvage partial" in n for n in diff.salvage_notes)
        codes = {f.code for f in diff_findings(diff)}
        assert "DF006" in codes

    def test_damaged_log_diffs_with_partial_note(self, tmp_path):
        good = echo_run(tmp_path, 11, name="whole")
        hurt = str(tmp_path / "hurt.clog2")
        with open(good, "rb") as fh:
            blob = bytearray(fh.read())
        mid = len(blob) // 2
        blob[mid:mid + 40] = b"\xff" * 40  # stomp a span of records
        with open(hurt, "wb") as fh:
            fh.write(bytes(blob))
        diff = diff_traces(good, hurt, label_a="whole", label_b="hurt")
        # Tolerant readers accepted it, so the diff must too.
        assert diff.partial or not diff.empty
        summary = diff.summary()
        assert "hurt" in summary

    def test_strict_errors_raise_on_damage(self, tmp_path):
        good = echo_run(tmp_path, 12, name="ok")
        hurt = str(tmp_path / "broken.clog2")
        with open(good, "rb") as fh:
            blob = fh.read()
        with open(hurt, "wb") as fh:
            fh.write(blob[:len(blob) // 2])
        with pytest.raises(Exception):
            diff_traces(good, hurt, errors="strict")
