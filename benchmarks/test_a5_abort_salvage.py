"""A5 — abort-surviving logs: the paper's future work, implemented and
costed (paper Section V).

"[I]t would be better if the MPE log could be finalized in all cases,
and this will be a subject of future efforts."

This bench measures (a) how much of an aborted run's log the salvage
mechanism recovers as a function of the checkpoint interval, and (b)
what the checkpointing costs a run that does *not* abort — the price
the paper's authors would have had to weigh.
"""

import os

import pytest

from repro.mpe.salvage import find_partials, merge_partial_logs
from repro.apps import ThumbnailConfig, thumbnail_main
from repro.pilot import PilotConfig, run_pilot
from repro.pilot.api import PI_Abort
from repro.pilotlog import JumpshotOptions
from repro.slog2 import convert

NFILES = 200
RANKS = 6


def run_thumbnail(tmp_path, name, *, salvage, interval=512):
    """A healthy full run of the stock thumbnail app."""
    base = str(tmp_path / f"{name}.clog2")
    cfg = ThumbnailConfig(nfiles=NFILES)
    jopts = JumpshotOptions(salvage=salvage, salvage_interval=interval)
    res = run_pilot(lambda argv: thumbnail_main(argv, cfg), RANKS,
                    argv=("-pisvc=j",),
                    config=PilotConfig(mpe_log_path=base, mpe=jopts))
    return res, base


def run_aborting_pipeline(tmp_path, name, *, salvage, interval=128,
                          rounds=150, abort_at=120):
    """A master/worker exchange that PI_Aborts mid-execution, long
    before any finalize could merge the log."""
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

    base = str(tmp_path / f"{name}.clog2")

    def main(argv):
        chans = {}

        def work(i, _a):
            while True:
                v = PI_Read(chans[f"to{i}"], "%d")
                if int(v) < 0:
                    break
                PI_Write(chans[f"back{i}"], "%d", int(v))
            return 0

        PI_Configure(argv)
        for i in range(2):
            p = PI_CreateProcess(work, i)
            chans[f"to{i}"] = PI_CreateChannel(PI_MAIN, p)
            chans[f"back{i}"] = PI_CreateChannel(p, PI_MAIN)
        PI_StartAll()
        from repro.pilot.api import PI_Compute

        for r in range(rounds):
            for i in range(2):
                PI_Write(chans[f"to{i}"], "%d", r)
            PI_Compute(2e-4)  # a sliver of work; the run stays comm-heavy
            for i in range(2):
                PI_Read(chans[f"back{i}"], "%d")
            if r == abort_at:
                PI_Abort(3, "operator killed the job")
        for i in range(2):
            PI_Write(chans[f"to{i}"], "%d", -1)
        PI_StopMain(0)

    jopts = JumpshotOptions(salvage=salvage, salvage_interval=interval)
    res = run_pilot(main, 3, argv=("-pisvc=j",),
                    config=PilotConfig(mpe_log_path=base, mpe=jopts))
    return res, base


@pytest.mark.benchmark(group="ablations")
def test_a5_salvage_recovery(benchmark, comparison, tmp_path):
    box = {}

    def experiment():
        box["lost"] = run_aborting_pipeline(tmp_path, "lost", salvage=False)
        box["saved"] = run_aborting_pipeline(tmp_path, "saved", salvage=True)
        return box["saved"][0]

    benchmark.pedantic(experiment, rounds=1, iterations=1)

    res_lost, base_lost = box["lost"]
    res_saved, base_saved = box["saved"]
    assert res_lost.aborted is not None
    assert res_saved.aborted is not None

    # Baseline behaviour (and the paper's complaint): nothing survives.
    assert not os.path.exists(base_lost)
    assert find_partials(base_lost) == []

    # With salvage: merge the partials post mortem and convert.
    merged = merge_partial_logs(base_saved).log
    doc, report = convert(merged)
    writes_recovered = len(doc.states_of("PI_Write"))
    assert writes_recovered > 100
    assert len(doc.arrows) > 100
    assert report.causality_violations == []

    table = comparison("A5: log salvage after PI_Abort (future work, Sec. V)")
    table.add("baseline after abort", "MPE log lost", "lost (no file)")
    table.add("salvage after abort", "future work",
              f"recovered {len(merged.records)} records, "
              f"{writes_recovered} write states")
    table.add("recovered log converts", "-", report.summary().split(": ")[1])


@pytest.mark.benchmark(group="ablations")
def test_a5_salvage_overhead(benchmark, comparison, tmp_path):
    """What does checkpointing cost a healthy run?

    Two probes: the compute-bound thumbnail app (where checkpoints hide
    in compute slack, like MPE's own overhead in Section III.E) and a
    communication-bound exchange (worst case: nothing to hide behind).
    """
    times_thumb = {}
    times_comm = {}

    def comm_heavy(tmp_path, name, salvage, interval):
        res, base = run_aborting_pipeline(tmp_path, name, salvage=salvage,
                                          interval=interval, rounds=400,
                                          abort_at=10**9)  # never aborts
        assert res.ok
        if salvage:
            assert find_partials(base) == []
        return res.exec_end_time

    def experiment():
        res_off, _ = run_thumbnail(tmp_path, "off", salvage=False)
        times_thumb["off"] = res_off.exec_end_time
        res_on, base = run_thumbnail(tmp_path, "on", salvage=True,
                                     interval=128)
        assert res_on.ok and os.path.exists(base)
        assert find_partials(base) == []  # cleaned on success
        times_thumb[128] = res_on.exec_end_time

        times_comm["off"] = comm_heavy(tmp_path, "c_off", False, 128)
        for interval in (512, 128, 32):
            times_comm[interval] = comm_heavy(tmp_path, f"c_{interval}",
                                              True, interval)
        return times_comm

    benchmark.pedantic(experiment, rounds=1, iterations=1)

    table = comparison("A5b: salvage checkpoint overhead (healthy runs)")
    thumb_over = (times_thumb[128] / times_thumb["off"] - 1) * 100
    table.add("thumbnail app, every 128 records",
              "hides in compute slack", f"+{thumb_over:.3f}%")
    for interval in (512, 128, 32):
        over = (times_comm[interval] / times_comm["off"] - 1) * 100
        table.add(f"comm-bound app, every {interval} records",
                  "O(new records) per checkpoint", f"+{over:.2f}%")

    # Compute-bound: effectively free.  Comm-bound: costs grow as the
    # interval shrinks (the fixed open+fsync latency per checkpoint is
    # the floor).
    assert thumb_over < 1.0
    assert times_comm[32] >= times_comm[512]
    assert times_comm[512] / times_comm["off"] < 1.30
