"""Cross-backend determinism matrix: threads vs coroutine scheduler.

The coroutine scheduler is only a faithful replacement for
thread-per-rank if a run is *byte-identical* across backends — same
seed, same fault plan, same logs.  This file pins that down for three
workloads spanning the feature surface:

* ``lab2`` — the paper's bundle/broadcast program (pure message flow),
* ``collisions`` — the data-parallel query app (CSV scatter/gather),
* a seeded **crash + msglog recovery** run of the chaos pipeline app —
  journal armed, a rank killed mid-run and replayed from sender logs.

For each, both backends must produce identical CLOG2 bytes after
:func:`canonical_stripped_bytes` and identical SLOG2 bytes after
conversion.  A final case checks failure-path parity: the deadlock
diagnostics (``SimulationDeadlock`` message, blocked table, pilotcheck
PC003 cross-links) must not depend on the backend either.
"""

import functools

import pytest

from repro.apps.collisions import GOOD, CollisionConfig, collisions_main
from repro.apps.lab2 import Lab2Config, lab2_main
from repro.mpe.clog2 import read_log
from repro.mpe.recovery_marks import canonical_stripped_bytes, strip_recovery
from repro.pilot import PilotConfig, run_pilot
from repro.pilotlog.integration import JumpshotOptions
from repro.slog2.convert import convert
from repro.slog2.file import write_slog2
from repro.vmpi.engine import SCHEDULERS
from repro.vmpi.errors import SimulationDeadlock

from tests.chaos.test_chaos import pipeline_app
from tests.chaos.test_msglog import NPROCS, ROUNDS, RUN_SEED, WORKERS, msglog_plan
from tests.pilotcheck import fixtures

# One crash site is enough here — the full seeds x sites sweep lives in
# tests/chaos/test_msglog.py; this file varies the *scheduler*.
CRASH_RANK, CRASH_AT = 1, 1e-3
PLAN_SEED = 3

WORKLOADS = {
    "lab2": (functools.partial(lab2_main, config=Lab2Config()), 6),
    "collisions": (functools.partial(
        collisions_main, variant=GOOD,
        config=CollisionConfig(nrecords=2_000, seed=7)), 4),
}


def logged_run(tmp_path, scheduler, name, main, nprocs, **cfg_fields):
    """Run ``main`` with CLOG2 logging on the given backend."""
    log = str(tmp_path / f"{name}-{scheduler}.clog2")
    cfg = PilotConfig(services="j", mpe_log_path=log, seed=RUN_SEED,
                      scheduler=scheduler, mpe=JumpshotOptions(),
                      **cfg_fields)
    res = run_pilot(main, nprocs, config=cfg)
    return log, res


def slog2_bytes(tmp_path, clog_path, tag):
    doc, report = convert(strip_recovery(read_log(clog_path).log))
    assert not report.causality_violations
    out = str(tmp_path / f"{tag}.slog2")
    write_slog2(out, doc)
    with open(out, "rb") as fh:
        return fh.read()


class TestByteIdentityMatrix:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_workload_logs_identical_across_backends(self, tmp_path, name):
        main, nprocs = WORKLOADS[name]
        stripped, slogs, results = {}, {}, {}
        for scheduler in SCHEDULERS:
            log, res = logged_run(tmp_path, scheduler, name, main, nprocs)
            assert res.ok, f"{name} on {scheduler}: {res.aborted}"
            results[scheduler] = res
            stripped[scheduler] = canonical_stripped_bytes(log)
            slogs[scheduler] = slog2_bytes(tmp_path, log,
                                           f"{name}-{scheduler}")
        assert stripped["threads"] == stripped["coroutine"]
        assert slogs["threads"] == slogs["coroutine"]
        assert (results["threads"].total_time
                == results["coroutine"].total_time)
        # repr, not ==: collisions results hold numpy arrays.
        assert (repr(results["threads"].vmpi.results)
                == repr(results["coroutine"].vmpi.results))

    def test_crash_recovery_identical_across_backends(self, tmp_path):
        plan = msglog_plan(PLAN_SEED, CRASH_RANK, CRASH_AT)
        stripped, slogs = {}, {}
        for scheduler in SCHEDULERS:
            jdir = str(tmp_path / f"recover-{scheduler}.journal")
            log, res = logged_run(
                tmp_path, scheduler, "recover",
                pipeline_app(WORKERS, ROUNDS), NPROCS,
                journal_dir=jdir, recover="msglog", faults=plan)
            assert res.ok and res.aborted is None
            report = res.recovery_report
            assert [int(ep["rank"]) for ep in report.recoveries] \
                == [CRASH_RANK]
            stripped[scheduler] = canonical_stripped_bytes(log)
            slogs[scheduler] = slog2_bytes(tmp_path, log,
                                           f"recover-{scheduler}")
        assert stripped["threads"] == stripped["coroutine"]
        assert slogs["threads"] == slogs["coroutine"]


class TestFailureParity:
    def test_deadlock_diagnostics_identical_across_backends(self):
        seen = {}
        for scheduler in SCHEDULERS:
            cfg = PilotConfig(services="s", scheduler=scheduler)
            with pytest.raises(SimulationDeadlock) as excinfo:
                run_pilot(fixtures.pc003_bad, 2, config=cfg)
            exc = excinfo.value
            # The exception self-identifies its backend ...
            assert exc.scheduler == scheduler
            seen[scheduler] = (str(exc), exc.blocked,
                               [f.code for f in exc.static_findings],
                               [f.ranks for f in exc.static_findings])
        # ... but every user-facing detail — message, blocked-rank
        # table, matched PC003 predictions — is backend-independent.
        assert seen["threads"] == seen["coroutine"]
        message, blocked, codes, ranks = seen["coroutine"]
        assert codes == ["PC003"] and ranks == [(0, 1)]
        assert set(blocked) == {0, 1}
