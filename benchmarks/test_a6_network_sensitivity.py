"""A6 — robustness: do the T1 conclusions depend on network calibration?

The overhead table's headline shapes — MPE logging ~ free, native
logging ~ D/(D-1) from rank displacement — should be properties of the
*design*, not of the particular latency/bandwidth this repo picked.
This bench sweeps the interconnect across two orders of magnitude each
way and re-checks both conclusions at every point.
"""

import pytest

from benchmarks.conftest import median_and_variance
from repro.apps import ThumbnailConfig, thumbnail_main
from repro.pilot import PilotConfig, run_pilot
from repro.vmpi.comm import NetworkModel

NFILES = 300  # enough pipeline depth; keeps the sweep fast

NETWORKS = {
    "fast (1us, 10GB/s)": NetworkModel(latency=1e-6, bandwidth=10e9),
    "default (5us, 1GB/s)": NetworkModel(),
    "slow (100us, 100MB/s)": NetworkModel(latency=1e-4, bandwidth=100e6),
}


def run_case(mode, network, tmp_path, tag):
    argv = ["-picheck=3"]
    if mode == "mpe":
        argv.append("-pisvc=j")
    elif mode == "native":
        argv.append("-pisvc=c")
    config = PilotConfig(
        native_log_path=str(tmp_path / f"{tag}.log"),
        mpe_log_path=str(tmp_path / f"{tag}.clog2"), network=network)
    cfg = ThumbnailConfig(nfiles=NFILES)
    res = run_pilot(lambda a: thumbnail_main(a, cfg), nprocs=6, argv=argv,
                    config=config)
    assert res.ok
    return res.exec_end_time


@pytest.mark.benchmark(group="ablations")
def test_a6_network_sensitivity(benchmark, comparison, tmp_path):
    results = {}

    def experiment():
        for name, network in NETWORKS.items():
            for mode in ("none", "mpe", "native"):
                results[(name, mode)] = run_case(
                    mode, network, tmp_path, f"{mode}_{name[:4]}")
        return results

    benchmark.pedantic(experiment, rounds=1, iterations=1)

    table = comparison("A6: T1 conclusions across interconnects")
    for name in NETWORKS:
        none_t = results[(name, "none")]
        mpe_over = (results[(name, "mpe")] / none_t - 1) * 100
        nat_ratio = results[(name, "native")] / none_t
        table.add(name,
                  "MPE ~ free; native ~ 4/3 (displacement)",
                  f"MPE {mpe_over:+.2f}%, native {nat_ratio:.3f}x")
        # Conclusion (i): MPE logging within a few percent, everywhere.
        assert abs(mpe_over) < 5.0, name
        # Conclusion (ii): displacement ratio ~ 4/3, everywhere.
        assert nat_ratio == pytest.approx(4 / 3, rel=0.15), name
