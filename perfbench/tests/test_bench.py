"""Self-tests of the benchmark: names, the tail rule, output checks.

Run with ``python -m pytest perfbench/tests`` from the repository root.
They use miniature workloads (a few files, a few ranks) and take
seconds; the full-size workloads are the benchmark's own business.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

from bench_harness import (NAME_RE, REF_NOMINAL_S, UNIT_RE, Checker,
                           closed_loop, memory_mb, reference_s, reset_peak_rss,
                           speed_adjusted, tail, union_seconds)
from bench_trace import Tracer
from bench_workloads import (APPEND_RECORDS, END_TO_END, LAYERS, RECORD_RATE,
                             Classroom, Fleet, Live, patch_program,
                             replay_schedule)

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# -- metric names ------------------------------------------------------------

def test_benchmark_json_lists_the_emitted_metrics():
    spec = _spec()
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert e2e == END_TO_END
    assert layers == LAYERS
    assert [m["name"] for m in spec["per_layer"]] == list(LAYERS)


def test_metric_names_and_units_are_valid():
    spec = _spec()
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME_RE.match(m["name"]), m["name"]
        assert UNIT_RE.match(m["unit"]), m["unit"]
        assert m["better"] in ("lower", "higher")
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and NAME_RE.match(w["name"])
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


def test_name_rule_rejects_bad_names():
    for bad in ("", "_lead", ".lead", "has space", "x" * 65, "a/b"):
        assert not NAME_RE.match(bad)


# -- the tail rule -----------------------------------------------------------

@pytest.mark.parametrize("n", [0, 1, 5, 10])
def test_tail_needs_eleven_samples(n):
    assert tail([float(i) for i in range(n)]) is None


@pytest.mark.parametrize("n", [11, 12, 19, 20, 37, 64, 100, 120, 150, 999])
def test_tail_is_the_highest_percentile_with_ten_beyond(n):
    values = [float(i) for i in range(n)]
    pct, value = tail(values)
    assert sum(1 for v in values if v > value) >= 10
    # One percentile higher would leave fewer than ten beyond it.
    higher = pct + 1
    if higher <= 100:
        index = -(-higher * n // 100) - 1
        assert n - index - 1 < 10


def test_tail_examples():
    assert tail([float(i) for i in range(100)]) == (90, 89.0)
    assert tail([float(i) for i in range(11)]) == (9, 0.0)


def test_union_seconds_merges_and_clips():
    spans = [(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (9.0, 12.0)]
    assert union_seconds(spans, 0.0, 10.0) == pytest.approx(5.0)
    assert union_seconds([], 0.0, 1.0) == 0.0


# -- output checks -----------------------------------------------------------

def test_speed_adjusted_scales_each_op_by_its_neighbouring_references():
    refs = [REF_NOMINAL_S, REF_NOMINAL_S, 3 * REF_NOMINAL_S]
    # Op 0 ran at nominal speed; op 1 between a nominal and a 3x-slow
    # reference, so at half speed on average.
    assert speed_adjusted([0.5, 1.0], refs) == pytest.approx([0.5, 0.5])
    with pytest.raises(ValueError):
        speed_adjusted([0.5, 1.0], refs[:2])


def test_closed_loop_times_the_reference_around_every_op():
    ops = []
    refs = closed_loop(0.0, lambda: ops.append(1), min_ops=3)
    assert len(ops) == 3 and len(refs) == 4
    assert all(r > 0 for r in refs)
    assert 0 < reference_s() < 100 * REF_NOMINAL_S


def test_checker_counts_instead_of_raising():
    checker = Checker()
    assert checker.op("good", [])
    assert not checker.op("bad", ["digest: got 'a', want 'b'"])
    assert (checker.attempted, checker.failed) == (2, 1)
    assert checker.error_rate == 0.5
    assert checker.reasons == ["bad: digest: got 'a', want 'b'"]


def test_peak_rss_window_leaves_out_earlier_peaks():
    if "VmHWM" not in memory_mb():
        pytest.skip("no /proc/self/status")
    blob = b"x" * 100_000_000  # written, so resident
    del blob
    high = memory_mb()["VmHWM"]
    if not reset_peak_rss():
        pytest.skip("peak RSS cannot be reset here")
    assert memory_mb()["VmHWM"] < high - 50


def _mini_classroom(tmp_path) -> tuple[Classroom, Checker]:
    workload = Classroom(3, str(tmp_path), nfiles=6, nprocs=4)
    checker = Checker()
    workload.setup(checker)
    return workload, checker


def test_classroom_ops_are_checked_and_pass(tmp_path):
    workload, checker = _mini_classroom(tmp_path)
    workload.measure(0.0, checker, None)
    assert checker.failed == 0, checker.reasons
    assert checker.attempted >= 5  # reference, warm-up, three ops


def test_injected_wrong_output_raises_error_rate(tmp_path):
    workload, checker = _mini_classroom(tmp_path)
    workload.ref["clog2_sha256"] = "0" * 64  # what a wrong log would show
    measurement = workload.measure(0.0, checker, None)
    assert checker.failed == len(measurement.op_s) == 3
    assert checker.error_rate > 0
    assert "clog2_sha256" in checker.reasons[0]


def test_traced_classroom_reproduces_the_untraced_outputs(tmp_path):
    workload, checker = _mini_classroom(tmp_path)
    tracer = Tracer()
    patch_program(tracer)
    try:
        traced = workload.measure(0.0, checker, tracer)
    finally:
        tracer.restore()
    assert checker.failed == 0, checker.reasons
    layers = traced.layers
    assert set(layers) == set(LAYERS)
    assert layers["mpe.log_calls"] > 0
    assert layers["vmpi.comm.select_calls"] > 0
    assert layers["pilot.api_calls.PI_StartAll"] == 4
    assert 0.0 <= layers["bench.unattributed_ratio"] < 1.0


def test_traced_fleet_runs_woven_wrappers_on_the_coroutine_scheduler(tmp_path):
    workload = Fleet(0, str(tmp_path), workers=6)
    checker = Checker()
    workload.setup(checker)
    plain = workload.measure(0.0, checker, None)
    tracer = Tracer()
    patch_program(tracer)
    try:
        traced = workload.measure(0.0, checker, tracer)
    finally:
        tracer.restore()
    assert checker.failed == 0, checker.reasons
    assert len(plain.op_s) == len(traced.op_s) == 3
    assert traced.layers["vmpi.comm.select_calls"] == 18  # 6 workers x 3
    assert traced.layers["vmpi.engine.events"] > 0


# -- live: the replay's shape --------------------------------------------------

def test_replay_schedule_appends_whole_intervals_per_rank():
    """Appends hold exactly one salvage interval of one rank's records,
    in log order, due when the log reaches their last record; the tail
    of each rank (less than an interval) is left to finalize."""
    records = [SimpleNamespace(rank=i % 3 if i % 7 else 0, seq=i)
               for i in range(5 * APPEND_RECORDS)]
    appends = replay_schedule(records)
    for append in appends:
        assert len(append.records) == APPEND_RECORDS
        assert {r.rank for r in append.records} == {append.rank}
        last = append.records[-1].seq
        assert append.due == (last + 1) / RECORD_RATE
    assert [a.due for a in appends] == sorted(a.due for a in appends)
    for rank in range(3):
        mine = [r.seq for r in records if r.rank == rank]
        sent = [r.seq for a in appends if a.rank == rank for r in a.records]
        assert sent == mine[:len(mine) // APPEND_RECORDS * APPEND_RECORDS]


def test_live_replay_is_seeded_and_checked(tmp_path):
    workload = Live(0, str(tmp_path), nfiles=500)
    checker = Checker()
    workload.setup(checker)
    schedule = [(a.due, a.rank) for a in workload.appends]
    workload.setup(checker)
    assert [(a.due, a.rank) for a in workload.appends] == schedule
    measurement = workload.measure(0.0, checker, None)
    assert checker.failed == 0, checker.reasons
    assert workload.replays == 1
    assert measurement.op_s and all(s > 0 for s in measurement.op_s)


# -- the command -------------------------------------------------------------

def test_command_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark, the
    command exits non-zero and prints no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "classroom",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
