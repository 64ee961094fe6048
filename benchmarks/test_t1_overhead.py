"""T1 — the Section III.E overhead table.

Paper setup: the thumbnail program over 1058 input files with 5 or 10
work processes (plus PI_MAIN), "varying combinations of Pilot error and
deadlock checking", each case run ten times, median [variance] reported.

Paper numbers (seconds, maximum level-3 error checking):

=====================  =======  ========
configuration          5 work   10 work
=====================  =======  ========
no logging             30.97    14.42
MPE logging (-pisvc=j) 30.03    14.42
native log (-pisvc=c)  40.64    16.2
MPE wrap-up time        0.74     0.84
=====================  =======  ========

Shape criteria asserted below:
  (i)   MPE logging ~ no logging (within a few percent);
  (ii)  native logging is markedly slower because it displaces a worker
        rank (about D/(D-1) on the decompressor-bound stage);
  (iii) near-linear speedup from 5 to 10 work processes;
  (iv)  the error-checking level is inconsequential;
  (v)   MPE wrap-up is sub-second and grows mildly with ranks.
"""

import pytest

from benchmarks.conftest import median_and_variance
from repro.apps import ThumbnailConfig, thumbnail_main
from repro.pilot import PilotConfig, run_pilot

NFILES = 1058
REPS = 3  # paper used 10; the simulator's variance comes only from seeds

PAPER = {
    ("none", 5): (30.97, 0.24), ("none", 10): (14.42, 1.40),
    ("mpe", 5): (30.03, 0.23), ("mpe", 10): (14.42, 0.87),
    ("native", 5): (40.64, None), ("native", 10): (16.2, None),
}
PAPER_WRAPUP = {5: 0.74, 10: 0.84}


def run_case(mode: str, workers: int, seed: int, tmp_path,
             check_level: int = 3):
    argv = [f"-picheck={check_level}"]
    if mode == "mpe":
        argv.append("-pisvc=j")
    elif mode == "native":
        argv.append("-pisvc=c")
    config = PilotConfig(
        native_log_path=str(tmp_path / f"n{seed}.log"),
        mpe_log_path=str(tmp_path / f"m{seed}.clog2"), seed=seed)
    cfg = ThumbnailConfig(nfiles=NFILES, seed=seed)
    res = run_pilot(lambda argv_: thumbnail_main(argv_, cfg),
                    nprocs=workers + 1, argv=argv, config=config)
    assert res.ok
    assert res.vmpi.results[0]["thumbs"] == NFILES
    return res


@pytest.mark.benchmark(group="t1")
def test_t1_overhead_table(benchmark, comparison, tmp_path):
    measured: dict[tuple[str, int], tuple[float, float]] = {}
    wrapup: dict[int, float] = {}

    def experiment():
        for mode in ("none", "mpe", "native"):
            for workers in (5, 10):
                times = []
                for seed in range(REPS):
                    res = run_case(mode, workers, seed, tmp_path)
                    times.append(res.exec_end_time)
                    if mode == "mpe":
                        wrapup[workers] = res.wrapup_time
                measured[(mode, workers)] = median_and_variance(times)
        return measured

    benchmark.pedantic(experiment, rounds=1, iterations=1)

    table = comparison("T1: Section III.E overhead (median seconds [variance])")
    for mode, label in (("none", "no logging"), ("mpe", "MPE logging"),
                        ("native", "native log")):
        for workers in (5, 10):
            p_med, p_var = PAPER[(mode, workers)]
            m_med, m_var = measured[(mode, workers)]
            pv = f"{p_med:.2f}" + (f" [{p_var:.2f}]" if p_var is not None else "")
            table.add(f"{label}, {workers} work", pv,
                      f"{m_med:.2f} [{m_var:.2f}]")
    for workers in (5, 10):
        table.add(f"MPE wrap-up, {workers} work",
                  f"{PAPER_WRAPUP[workers]:.2f}", f"{wrapup[workers]:.2f}")

    none5, none10 = measured[("none", 5)][0], measured[("none", 10)][0]
    mpe5, mpe10 = measured[("mpe", 5)][0], measured[("mpe", 10)][0]
    nat5, nat10 = measured[("native", 5)][0], measured[("native", 10)][0]

    # (i) MPE logging is essentially free at run time.
    assert abs(mpe5 - none5) / none5 < 0.05
    assert abs(mpe10 - none10) / none10 < 0.05
    # (ii) native logging displaces a worker: with 5 work processes the
    # decompressor count drops 4 -> 3, so ~4/3x; with 10, 9 -> 8.
    assert nat5 / none5 == pytest.approx(4 / 3, rel=0.12)
    assert nat10 / none10 == pytest.approx(9 / 8, rel=0.12)
    # (iii) "nice speedup" from 5 to 10 work processes (paper: 2.15x).
    assert none5 / none10 == pytest.approx(30.97 / 14.42, rel=0.15)
    # (v) wrap-up sub-second, growing with rank count.
    assert 0.1 < wrapup[5] < 2.0
    assert wrapup[10] >= wrapup[5] * 0.9


@pytest.mark.benchmark(group="t1")
def test_t1_error_level_inconsequential(benchmark, comparison, tmp_path):
    """Paper: "the error checking level was essentially inconsequential
    in terms of added overhead"."""
    times: dict[int, float] = {}

    def experiment():
        for level in (0, 1, 2, 3):
            res = run_case("none", 5, seed=0, tmp_path=tmp_path,
                           check_level=level)
            times[level] = res.exec_end_time
        return times

    benchmark.pedantic(experiment, rounds=1, iterations=1)

    table = comparison("T1b: error-check level sweep (5 work, no logging)")
    for level, t in sorted(times.items()):
        table.add(f"-picheck={level}", "~30.97 (inconsequential)",
                  f"{t:.3f}")
    spread = (max(times.values()) - min(times.values())) / min(times.values())
    assert spread < 0.02
