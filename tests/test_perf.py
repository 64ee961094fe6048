"""``repro.perf``: the inert ``NO_PERF`` recorder, the recorder's lock,
the stage inventory of the instrumented entry points, and a guard that
keeps every pipeline stage on one code path whether or not it is
measured."""

from __future__ import annotations

import ast
import os
import sys
import threading

import pytest

from repro.apps import lab2_main
from repro.jumpshot import View, render_svg
from repro.mpe import fsck_path, merge_partial_logs, read_log
from repro.mpe.api import RankLog
from repro.mpe.clocksync import SyncPoint
from repro.mpe.clog2 import Clog2File, write_clog2
from repro.mpe.salvage import partial_path, write_partial
from repro.perf import NO_PERF, PerfRecorder
from repro.pilot import PilotConfig, run_pilot
from repro.slog2.convert import convert_with_tree
from repro.tracediff import diff_traces

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "repro")
COUNTERS = ("calls", "records", "bytes", "drawables")


def counters(perf: PerfRecorder) -> dict[str, dict[str, int]]:
    """Every stage of ``perf``'s snapshot with its counters (no seconds:
    wall time is the one thing a rerun may change)."""
    return {name: {k: v for k, v in stats.items() if k in COUNTERS}
            for name, stats in perf.snapshot()["stages"].items()}


# -- NO_PERF ----------------------------------------------------------------


class TestNoPerf:
    def test_never_creates_a_stage(self):
        with NO_PERF.stage("convert") as timer:
            timer.count(records=5, bytes=6, drawables=7)
        NO_PERF.record("merge", 1.0)
        NO_PERF.count("merge", records=3)
        assert NO_PERF.stages == {}
        assert NO_PERF.snapshot()["stages"] == {}

    def test_stage_hands_out_one_shared_timer(self):
        assert isinstance(NO_PERF, PerfRecorder)
        assert NO_PERF.stage("a") is NO_PERF.stage("b")

    def test_exceptions_pass_through_its_timer(self):
        with pytest.raises(ValueError):
            with NO_PERF.stage("convert"):
                raise ValueError("boom")


# -- thread safety ----------------------------------------------------------


def test_concurrent_writers_add_up_exactly():
    """More writer threads than cores, switching as often as the
    interpreter allows, all creating the same fresh stages in step: a
    lost update (two threads each creating a stage, one overwriting the
    other) shows as a short total."""
    perf = PerfRecorder()
    threads, stages = 8, 20_000
    names = [f"s{i}" for i in range(stages)]
    start = threading.Barrier(threads + 1, timeout=30)

    def hammer() -> None:
        start.wait()
        for name in names:
            perf.count(name, records=1, bytes=2)
            perf.record(name, 1e-6)

    workers = [threading.Thread(target=hammer) for _ in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        start.wait()
        snaps = [perf.snapshot() for _ in range(20)]  # read while written
        for worker in workers:
            worker.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    short = [name for name in names
             if (perf.stages[name].calls, perf.stages[name].records,
                 perf.stages[name].bytes) != (threads, threads, 2 * threads)]
    assert short == []
    assert sum(s.seconds for s in perf.stages.values()) == pytest.approx(
        threads * stages * 1e-6)
    for snap in snaps:
        assert all(0 <= st.get("records", 0) <= threads
                   for st in snap["stages"].values())


# -- stage inventory --------------------------------------------------------
#
# Each instrumented entry point accounts the same stages with the same
# counters however its work is timed; these pin them for one
# deterministic lab2 run and the logs derived from it.


@pytest.fixture(scope="module")
def lab2(tmp_path_factory):
    """A ``-pisvc=jp`` lab2 run: its log path and its recorder."""
    tmp = tmp_path_factory.mktemp("perf-lab2")
    path = str(tmp / "lab2.clog2")
    res = run_pilot(lab2_main, 6, argv=("-pisvc=jp",),
                    config=PilotConfig(mpe_log_path=path))
    assert res.ok
    return path, res.perf


def split_into_partials(log: Clog2File, base: str) -> None:
    """Write ``log`` back out as one salvage partial per rank."""
    for rank in range(log.num_ranks):
        write_partial(partial_path(base, rank), rank,
                      RankLog(records=[r for r in log.records
                                       if r.rank == rank],
                              definitions=list(log.definitions),
                              sync_points=[SyncPoint(0.0, 0.0)]),
                      log.clock_resolution)


def test_inventory_pilot_run(lab2):
    _path, perf = lab2
    assert counters(perf) == INVENTORY["pilot-jp"]


def test_inventory_open_pipeline(lab2):
    path, _ = lab2
    perf = PerfRecorder()
    log = read_log(path, perf=perf).log
    doc, _report, _tree = convert_with_tree(log, perf=perf)
    render_svg(View(doc), perf=perf)
    assert counters(perf) == INVENTORY["open"]


@pytest.mark.parametrize("errors", ["strict", "salvage"])
def test_inventory_merge_partials(lab2, tmp_path, errors):
    path, _ = lab2
    base = str(tmp_path / "run.clog2")
    split_into_partials(read_log(path).log, base)
    perf = PerfRecorder()
    merge_partial_logs(base, errors=errors, perf=perf)
    assert counters(perf) == INVENTORY[f"merge-{errors}"]


def test_inventory_fsck(lab2, tmp_path):
    path, _ = lab2
    base = str(tmp_path / "run.clog2")
    split_into_partials(read_log(path).log, base)
    perf = PerfRecorder()
    fsck_path(path, repair_to=str(tmp_path / "fixed.clog2"), perf=perf)
    fsck_path(partial_path(base, 1), perf=perf)
    assert counters(perf) == INVENTORY["fsck"]


def test_inventory_diff(lab2, tmp_path):
    path, _ = lab2
    log = read_log(path).log
    cut = str(tmp_path / "cut.clog2")
    write_clog2(cut, Clog2File(log.clock_resolution, log.num_ranks,
                               log.definitions, log.records[:-40]))
    perf = PerfRecorder()
    diff_traces(path, cut, perf=perf)
    diff_traces(path, path, perf=perf)  # the byte-identity fast path
    assert counters(perf) == INVENTORY["diff"]


_MERGE = {"clog2-write": {"bytes": 6072, "calls": 1, "records": 144},
          "merge": {"calls": 1, "records": 144}}

INVENTORY: dict[str, dict[str, dict[str, int]]] = {
    "pilot-jp": _MERGE,
    "open": {"clog2-read": {"bytes": 6072, "calls": 1, "records": 144},
             "convert": {"calls": 1, "drawables": 87, "records": 144},
             "frame-tree": {"calls": 1},
             "render-svg": {"bytes": 24888, "calls": 1}},
    "merge-strict": _MERGE,
    "merge-salvage": _MERGE,
    "fsck": {"fsck-repair": {"calls": 1},
             "fsck-scan": {"bytes": 7409, "calls": 2, "records": 160}},
    "diff": {"diff-align": {"calls": 1, "records": 248},
             "diff-load": {"bytes": 22827, "calls": 2, "records": 536},
             "diff-score": {"calls": 1}},
}


# -- one code path ----------------------------------------------------------


def _perf_forks(tree: ast.AST) -> list[int]:
    """Lines of ``if <…perf> is not None:`` statements with an ``else``
    arm or an early ``return``: a stage written twice, once timed and
    once not."""
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.If)
                and (node.orelse or isinstance(node.body[-1], ast.Return))):
            continue
        test = node.test
        if not (isinstance(test, ast.Compare) and len(test.ops) == 1
                and isinstance(test.ops[0], ast.IsNot)
                and isinstance(test.comparators[0], ast.Constant)
                and test.comparators[0].value is None):
            continue
        subject = test.left
        name = (subject.id if isinstance(subject, ast.Name)
                else subject.attr if isinstance(subject, ast.Attribute)
                else "")
        if name.endswith("perf"):
            lines.append(node.lineno)
    return lines


def test_guard_catches_a_fork():
    source = ("if perf is not None:\n    with perf.stage('x'):\n"
              "        work()\nelse:\n    work()\n"
              "if self._perf is not None:\n    a()\nelse:\n    b()\n"
              "if perf is not None:\n    perf.dump('p')\n"
              "if perf is not None:\n    return timed()\nreturn plain()\n")
    assert _perf_forks(ast.parse(source)) == [1, 6, 12]


def test_no_stage_is_written_twice():
    forks = []
    for root, _dirs, files in os.walk(SRC):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), path)
            rel = os.path.relpath(path, SRC)
            forks += [f"{rel}:{line}" for line in _perf_forks(tree)]
    assert forks == [], (
        "measured and unmeasured runs must execute the same code: "
        "pass repro.perf.NO_PERF instead of forking on None")
