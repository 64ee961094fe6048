"""A rank whose wake is next keeps running.

``Engine.advance`` (and its coroutine twin) skips the push-then-pop of a
wake event the trampoline would pop next: the task keeps running, and
the engine does in place what the resume would have done.  These tests
pin that the shortcut is invisible — an engine that never takes it
writes the same CLOG2 bytes, reaches the same ``total_time`` and counts
the same ``stats`` on both schedulers, across clean, aborted, recovered,
resumed and watchdog runs — that it does cut the real handoffs of the
paper's classroom run, and that the threads backend's handoff timeout
still catches a rank thread stuck outside the engine.
"""

import functools
import os
import time

import pytest

from repro.apps import ThumbnailConfig, thumbnail_main
from repro.apps.collisions import GOOD, CollisionConfig, collisions_main
from repro.apps.lab2 import Lab2Config, lab2_main
from repro.pilot import PilotConfig, resume_pilot, run_pilot
from repro.pilotlog.integration import JumpshotOptions
from repro.vmpi import engine as engine_mod
from repro.vmpi import world as world_mod
from repro.vmpi.engine import SCHEDULERS, Engine
from repro.vmpi.errors import AbortedError, EngineError

from tests.chaos import test_msglog, test_resume
from tests.chaos.test_chaos import pipeline_app
from tests.chaos.test_watchdog_recovery import slow_feeder_app
from tests.mpe.test_salvage import aborting_program


class HeapOnlyEngine(Engine):
    """Every wake goes through the event heap: the reference behaviour."""

    def _wake_is_next(self, t):
        return False


def _logged(tmp_path, scheduler, **fields):
    return PilotConfig(services="j", mpe_log_path=str(tmp_path / "run.clog2"),
                       scheduler=scheduler, **fields)


def _lab2(tmp_path, scheduler):
    return [run_pilot(functools.partial(lab2_main, config=Lab2Config()), 6,
                      config=_logged(tmp_path, scheduler))]


def _collisions(tmp_path, scheduler):
    main = functools.partial(collisions_main, variant=GOOD,
                             config=CollisionConfig(nrecords=2_000, seed=7))
    return [run_pilot(main, 4, config=_logged(tmp_path, scheduler))]


def _thumbnail(tmp_path, scheduler):
    main = functools.partial(thumbnail_main,
                             config=ThumbnailConfig(nfiles=150, seed=0))
    return [run_pilot(main, 11, config=_logged(tmp_path, scheduler, seed=0))]


def _pi_abort_salvage(tmp_path, scheduler):
    opts = JumpshotOptions(salvage=True, salvage_interval=64)
    return [run_pilot(aborting_program(200), 2,
                      config=_logged(tmp_path, scheduler, mpe=opts))]


def _msglog_recovery(tmp_path, scheduler):
    rank, at = test_msglog.CRASH_SITES[0]
    plan = test_msglog.msglog_plan(test_resume.PLAN_SEEDS[0], rank, at)
    cfg = _logged(tmp_path, scheduler, journal_dir=str(tmp_path / "journal"),
                  recover="msglog", mpe=JumpshotOptions(),
                  seed=test_msglog.RUN_SEED, faults=plan)
    return [run_pilot(pipeline_app(test_msglog.WORKERS, test_msglog.ROUNDS),
                      test_msglog.NPROCS, config=cfg)]


def _journal_resume(tmp_path, scheduler):
    jdir = str(tmp_path / "journal")
    app = pipeline_app(test_resume.WORKERS, test_resume.ROUNDS)
    cfg = _logged(tmp_path, scheduler, journal_dir=jdir,
                  mpe=JumpshotOptions(salvage=True),
                  faults=test_resume.crash_plan(test_resume.PLAN_SEEDS[0]),
                  seed=test_resume.RUN_SEED)
    recorded = run_pilot(app, test_resume.NPROCS, config=cfg)
    resumed = resume_pilot(app, jdir, config=PilotConfig(
        scheduler=scheduler, mpe=JumpshotOptions(salvage=True)))
    return [recorded, resumed]


def _watchdog_fire(tmp_path, scheduler):
    cfg = _logged(tmp_path, scheduler, watchdog_timeout=0.02,
                  mpe=JumpshotOptions(salvage=True, salvage_interval=8))
    return [run_pilot(slow_feeder_app(), 2, config=cfg)]


SCENARIOS = {
    "lab2": (_lab2, True),
    "collisions": (_collisions, True),
    "thumbnail-150": (_thumbnail, True),
    "pi-abort-salvage": (_pi_abort_salvage, False),
    "msglog-recovery": (_msglog_recovery, True),
    "journal-resume": (_journal_resume, True),
    "watchdog-fire": (_watchdog_fire, False),
}


def _outcome(tmp_path, scheduler, scenario):
    """Every CLOG2 byte (merged log and salvage partials) the scenario
    wrote, and each run's end time, abort code and engine counters."""
    tmp_path.mkdir()
    runs = [(res.total_time,
             res.aborted.errorcode if res.aborted is not None else None,
             dict(res.vmpi.engine.stats))
            for res in scenario(tmp_path, scheduler)]
    logs = {}
    for name in sorted(os.listdir(tmp_path)):
        if ".clog2" in name:
            with open(tmp_path / name, "rb") as fh:
                logs[name] = fh.read()
    return runs, logs


def _count_handoffs(monkeypatch):
    """Count every real ``Task._switch_to`` call, on both backends."""
    handoffs = [0]
    for cls in (engine_mod.ThreadTask, engine_mod.CoroTask):
        def counting(task, _real=cls._switch_to):
            handoffs[0] += 1
            return _real(task)
        monkeypatch.setattr(cls, "_switch_to", counting)
    return handoffs


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("name", list(SCENARIOS))
def test_inline_advance_matches_the_heap(tmp_path, monkeypatch, name,
                                         scheduler):
    scenario, merged = SCENARIOS[name]
    handoffs = _count_handoffs(monkeypatch)
    got = _outcome(tmp_path / "inline", scheduler, scenario)
    inline_handoffs, handoffs[0] = handoffs[0], 0
    monkeypatch.setattr(world_mod, "Engine", HeapOnlyEngine)
    want = _outcome(tmp_path / "heap", scheduler, scenario)
    assert got == want
    # The shortcut was taken, and only by the real engine.
    assert inline_handoffs < handoffs[0]
    runs, logs = got
    assert ("run.clog2" in logs) is merged
    assert logs, "the scenario wrote no log"
    assert (runs[-1][1] is None) is merged


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_task_after_an_advance_matches_the_heap(scheduler):
    """What the rank sees after each advance: clock, progress stamp,
    state, reason and wake payload, as a resume from the heap leaves
    them."""
    def observe(engine_cls):
        eng = engine_cls(scheduler=scheduler)
        seen = []

        def fn():
            task = eng.current_task
            task.wake_payload = "stale"
            for dt in (0.0, 1e-3, 2e-3):
                eng.advance(dt, f"compute {dt}")
                seen.append((eng.now, task.last_active, task.state,
                             task.blocked_reason, task.wake_payload))

        eng.spawn(fn, rank=0)
        eng.run()
        return seen, eng.stats

    assert observe(Engine) == observe(HeapOnlyEngine)


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_advance_after_an_abort_still_raises(scheduler):
    """A rank that catches the abort and computes on is stopped at its
    next advance, as the resume from the heap stops it."""
    def observe(engine_cls):
        eng = engine_cls(scheduler=scheduler)
        steps = []

        def fn():
            try:
                eng.abort(3, 0, "stop")
            except AbortedError:
                steps.append("caught")
            eng.advance(1e-3)
            steps.append("ran on")

        eng.spawn(fn, rank=0)
        res = eng.run()
        return steps, res.aborted.errorcode, res.finished_at, eng.stats

    assert observe(Engine) == observe(HeapOnlyEngine)
    assert observe(Engine)[0] == ["caught"]


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_classroom_handoff_budget(tmp_path, monkeypatch, scheduler):
    """thumbnail-150 on 11 ranks with ``services="j"``: 11,033 logical
    switches, of which 9,406 are advances whose wake is next.  Those
    keep running, so at most 2,000 real handoffs remain (1,627)."""
    handoffs = _count_handoffs(monkeypatch)
    (res,) = _thumbnail(tmp_path, scheduler)
    assert res.ok
    assert res.total_time == 2.3404368990149695
    assert res.vmpi.engine.stats == {"events": 11_722, "switches": 11_033}
    assert handoffs[0] <= 2_000, handoffs[0]


class TestHandoffTimeout:
    """The threads backend gives up on a handoff only when no event
    happened while it waited: a rank running on through inline advances
    is progress, a rank stuck outside the engine is not."""

    TIMEOUT = 0.05

    @pytest.fixture(autouse=True)
    def short_timeout(self, monkeypatch):
        monkeypatch.setattr(engine_mod, "_HANDOFF_TIMEOUT", self.TIMEOUT)

    def test_rank_advancing_without_a_handoff_does_not_time_out(self):
        eng = Engine(scheduler="threads")

        def fn():
            start = time.perf_counter()
            steps = 0
            while time.perf_counter() - start < 4 * self.TIMEOUT:
                eng.advance(1e-6)
                time.sleep(self.TIMEOUT / 10)
                steps += 1
            return steps

        eng.spawn(fn, rank=0)
        steps = eng.run().results[0]
        # One real handoff started the rank; every advance ran inline.
        assert eng.stats == {"events": steps + 1, "switches": steps + 1}

    def test_rank_parked_outside_the_engine_times_out(self):
        eng = Engine(scheduler="threads")
        eng.spawn(lambda: time.sleep(4 * self.TIMEOUT), rank=0)
        with pytest.raises(EngineError,
                           match="handoff to task rank0 timed out"):
            eng.run()
        eng.tasks[0].thread.join()
