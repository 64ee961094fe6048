"""Msglog overhead — pessimistic sender-based logging on the P1 workload.

Sender-based message logging is pay-every-run insurance: every isend
retains its payload until a checkpoint barrier GCs it, and every
delivery appends a determinant to the ``msglog.wal``.  The premium has
a contract (ISSUE: recovery must not tax the fault-free case by more
than 25%), and this benchmark collects it: the P1 collisions workload
runs best-of-``ROUNDS`` twice — identical journaled configuration,
``-pirecover=msglog`` off then on — and the wall-time overhead gates
at :data:`MAX_OVERHEAD`.

Results land in ``benchmarks/out/BENCH_msglog.json`` (wall times,
overhead ratio, msglog counters and the ``msglog-append`` /
``msglog-gc`` perf stages), which CI uploads next to
``BENCH_pipeline.json``.  CI's shared runners are noisy, so the gate
is overridable via ``MSGLOG_MAX_OVERHEAD`` — the counters stay in the
artifact either way.
"""

import json
import os
import time

from repro.apps import GOOD, CollisionConfig, collisions_main
from repro.pilot import PilotConfig, run_pilot

ROUNDS = 3
NPROCS = 6
NRECORDS = 10_000

#: Fault-free overhead gate for `-pirecover=msglog` (0.25 == +25%).
MAX_OVERHEAD = float(os.environ.get("MSGLOG_MAX_OVERHEAD", "0.25"))


def _workload(argv):
    return collisions_main(argv, GOOD, CollisionConfig(nrecords=NRECORDS))


def _run(tmp_path, label, *, recover, services="jp"):
    opts = PilotConfig(
        services=services,
        mpe_log_path=str(tmp_path / f"{label}.clog2"),
        journal_dir=str(tmp_path / f"{label}.journal"),
        recover=recover)
    t0 = time.perf_counter()
    res = run_pilot(_workload, NPROCS, config=opts)
    return time.perf_counter() - t0, res


def _best(tmp_path, label, *, recover):
    floor, best = float("inf"), None
    for i in range(ROUNDS):
        wall, res = _run(tmp_path, f"{label}{i}", recover=recover)
        assert res.ok
        if wall < floor:
            floor, best = wall, res
    return floor, best


def test_msglog_overhead_within_budget(comparison, tmp_path, artifacts_dir):
    base_s, _ = _best(tmp_path, "base", recover=None)
    msglog_s, res = _best(tmp_path, "msglog", recover="msglog")
    overhead = msglog_s / base_s - 1.0

    stats = dict(res.msglog.stats)
    assert stats["logged"] > 0 and stats["determinants"] > 0
    # The WAL really exists next to the journal's own files.
    wal = str(tmp_path / f"msglog{ROUNDS - 1}.journal" / "msglog.wal")
    assert any(os.path.exists(str(tmp_path / f"msglog{i}.journal" /
                                  "msglog.wal"))
               for i in range(ROUNDS)), wal

    perf_stages = {
        name: st for name, st in res.perf.snapshot()["stages"].items()
        if name.startswith("msglog-")} if res.perf is not None else {}

    table = comparison("P1 msglog overhead (collisions-10k, best of "
                       f"{ROUNDS})")
    table.add("fault-free run", "—", f"{base_s:.3f}s")
    table.add("with -pirecover=msglog", "≤ +25%",
              f"{msglog_s:.3f}s ({overhead:+.1%})")
    table.add("messages logged", "—",
              f"{stats['logged']} ({stats['logged_bytes']} bytes)")
    table.add("send-log GC reclaimed", "—",
              f"{stats['gc_reclaimed']} ({stats['gc_bytes']} bytes)")

    out = {
        "workload": f"collisions-{NRECORDS // 1000}k",
        "nprocs": NPROCS,
        "rounds": ROUNDS,
        "base_s": base_s,
        "msglog_s": msglog_s,
        "overhead": overhead,
        "max_overhead": MAX_OVERHEAD,
        "msglog_stats": stats,
        "perf_stages": perf_stages,
    }
    path = os.path.join(artifacts_dir, "BENCH_msglog.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)

    assert overhead <= MAX_OVERHEAD, (
        f"msglog overhead {overhead:+.1%} exceeds the "
        f"{MAX_OVERHEAD:+.0%} budget ({base_s:.3f}s -> {msglog_s:.3f}s)")
