"""Rank-count scaling: coroutine scheduler vs thread-per-rank.

Runs the dynamic master/worker fleet (:mod:`repro.apps.fleet`) at
increasing rank counts on both backends and records wall-clock time
and peak RSS in ``benchmarks/out/BENCH_ranks.json``.  The headline
claim this file proves: **a ≥1,000-rank Pilot job completes in a
single OS process on the coroutine backend**, where thread-per-rank
at the same scale is dominated by futex handoffs and kernel stacks
(at 10k ranks it cannot even start — default pthread stacks alone
would need tens of GB).

Pilot costs are zeroed and services are off so the measurement is the
*scheduler*, not the workload: every remaining microsecond is task
switching, channel bookkeeping and the SPMD configuration phase.

Run with ``make fleet`` (or ``pytest benchmarks/test_ranks.py``).
"""

from __future__ import annotations

import json
import os
import resource
import time

import pytest

from repro.apps.fleet import make_fleet_main
from repro.pilot import PilotConfig, PilotCosts, run_pilot

#: (scheduler, workers) cells measured; ranks = workers + 1.  The
#: thread backend stops at 300 — beyond that a single cell would
#: dominate the whole benchmark's runtime (the point this file makes).
CELLS = (
    ("coroutine", 100),
    ("coroutine", 300),
    ("coroutine", 1000),
    ("threads", 100),
    ("threads", 300),
)

ZERO_COSTS = PilotCosts(api_call=0.0, config_call=0.0, check_per_level=0.0)


def peak_rss_kib() -> int:
    """Linux ru_maxrss is KiB; good enough for a monotone high-water mark."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_cell(scheduler: str, workers: int) -> dict:
    cfg = PilotConfig(scheduler=scheduler, check_level=0, costs=ZERO_COSTS)
    main = make_fleet_main(workers)
    rss_before = peak_rss_kib()
    t0 = time.perf_counter()
    result = run_pilot(main, workers + 1, config=cfg)
    wall = time.perf_counter() - t0
    assert result.ok, f"{scheduler}/{workers}: aborted {result.aborted}"
    summary = result.vmpi.results[0]
    assert summary["total"] == summary["ntasks"], summary
    return {
        "scheduler": scheduler,
        "workers": workers,
        "ranks": workers + 1,
        "tasks": summary["ntasks"],
        "wall_s": round(wall, 3),
        "peak_rss_kib": peak_rss_kib(),
        "rss_growth_kib": max(0, peak_rss_kib() - rss_before),
        "virtual_s": result.total_time,
    }


#: The longest a thread-per-rank cell may take, as a multiple of the
#: coroutine cell of the same size.  A handoff wakes only the rank that
#: runs next; when every handoff woke every parked rank thread, the
#: 301-rank cell took ~8.5x the coroutine one.
MAX_THREADS_RATIO = 3.0

#: Cells measured so far in this session, by (scheduler, workers).
_ROWS: dict[tuple[str, int], dict] = {}


@pytest.mark.benchmark(group="ranks")
@pytest.mark.parametrize("workers", sorted({w for _, w in CELLS}),
                         ids=lambda w: f"{w + 1}ranks")
def test_rank_scaling(workers, artifacts_dir, comparison):
    """Every cell of one size; ``-k 101ranks`` runs just the 101-rank ones.
    ``BENCH_ranks.json`` is written once all of :data:`CELLS` ran."""
    rows = {scheduler: run_cell(scheduler, w)
            for scheduler, w in CELLS if w == workers}
    for scheduler, row in rows.items():
        _ROWS[(scheduler, workers)] = row

    # The tentpole acceptance: >= 1,000 ranks complete single-process
    # on the coroutine backend.
    assert rows["coroutine"]["ranks"] == workers + 1
    if "threads" in rows:
        # Virtual results must not depend on the backend (determinism
        # is byte-level; the virtual clock is the cheapest proxy).
        assert rows["coroutine"]["virtual_s"] == rows["threads"]["virtual_s"]
        assert (rows["threads"]["wall_s"]
                <= MAX_THREADS_RATIO * rows["coroutine"]["wall_s"]), rows

    table = comparison("fleet rank scaling (wall seconds)")
    for r in rows.values():
        table.add(f"{r['scheduler']:>9} x{r['ranks']:>5}",
                  "-", f"{r['wall_s']:.2f}s rss+{r['rss_growth_kib']}KiB")

    if len(_ROWS) < len(CELLS):
        return
    out = os.path.join(artifacts_dir, "BENCH_ranks.json")
    with open(out, "w") as fh:
        json.dump({"cells": [_ROWS[cell] for cell in CELLS],
                   "note": "zero Pilot costs, services off, check 0; "
                           "threads capped at 300 workers"}, fh, indent=2)
    print(f"\nwrote {out}")
