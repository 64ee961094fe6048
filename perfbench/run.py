"""The Pilot log tool's benchmark: one workload per invocation.

Run from the root of a checkout::

    python3 perfbench/run.py --workload classroom --seed 0 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` repeats the timed loop untraced, then traced, and prints
the per-layer metrics.  Human-readable lines come first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

#: Set-up repetitions per run; ``setup_s`` is their median at nominal
#: host speed (plus imports).
SETUP_REPEATS = 3


def _root() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("classroom", "classroom-default", "fleet",
                                 "viewer", "live"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    root = _root()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program source at {src}/repro; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not {src}",
              file=sys.stderr)
        return 2
    from bench_harness import (REF_NOMINAL_S, Checker, memory_mb,
                               reference_s, reset_peak_rss, speed_adjusted)
    from bench_trace import Tracer
    from bench_workloads import WORKLOADS, patch_program
    from repro.perf import peak_rss_bytes
    import_s = time.perf_counter() - _T0

    scratch = os.path.join(root, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    checker = Checker()
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        setups = []
        setup_refs = [reference_s()]
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup(checker)
            setups.append(time.perf_counter() - t0)
            setup_refs.append(reference_s())
        setup_s = import_s + statistics.median(
            speed_adjusted(setups, setup_refs))
        # peak_rss_mb covers the timed loop only, not set-up's leftovers.
        gc.collect()
        windowed = reset_peak_rss()
        rss_start = memory_mb().get("VmRSS", 0.0)
        base = workload.measure(args.seconds, checker, None)
        peak_mb = (memory_mb().get("VmHWM", 0.0) if windowed
                   else peak_rss_bytes() / 1e6)
        traced = None
        if args.trace:
            tracer = Tracer()
            patch_program(tracer)
            try:
                traced = workload.measure(args.seconds, checker, tracer)
            finally:
                tracer.restore()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run still uses it

    def op_p50_of(m):
        """Median op time; at nominal host speed where the loop timed
        the host-speed reference around each op."""
        return statistics.median(speed_adjusted(m.op_s, m.ref_s)
                                 if m.ref_s else m.op_s)

    op_p50 = op_p50_of(base)
    wall_p50 = statistics.median(base.op_s)
    print(f"workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    print(f"  setup_s {setup_s:.4f} s (imports {import_s:.3f} s + median of "
          f"{SETUP_REPEATS} set-ups at nominal host speed; wall "
          f"{[round(s, 3) for s in setups]} s, host-speed reference "
          f"{[round(r * 1e3, 1) for r in setup_refs]} ms)")
    if base.ref_s:
        ref_p50 = statistics.median(base.ref_s)
        print(f"  op_p50_ms {op_p50 * 1e3:.3f} ms at nominal host speed "
              f"(n={len(base.op_s)}; wall p50 {wall_p50 * 1e3:.3f} ms; "
              f"host-speed reference p50 {ref_p50 * 1e3:.2f} ms, nominal "
              f"{REF_NOMINAL_S * 1e3:g} ms, n={len(base.ref_s)})")
    else:
        print(f"  op_p50_ms {op_p50 * 1e3:.3f} ms wall (n={len(base.op_s)})")
    print(f"  first ops {[round(s * 1e3, 1) for s in base.op_s[:12]]} ms wall")
    print(f"  peak_rss_mb {peak_mb:.3f} MB ("
          + (f"timed loop; {rss_start:.1f} MB resident at its start)"
             if windowed else "whole process: no peak reset here)"))
    for name, (value, unit, n) in base.table.items():
        print(f"  {name} {value:.6g} {unit} (n={n})")
    print(f"  error_rate {checker.error_rate:.4f} "
          f"({checker.failed}/{checker.attempted})")
    for reason in checker.reasons:
        print(f"  FAILED {reason}")

    if traced is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_p50_ms": (op_p50 * 1e3, "ms"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
    else:
        from bench_workloads import LAYERS

        layers = dict(traced.layers)
        layers["bench.trace_overhead_ratio"] = op_p50_of(traced) / op_p50 - 1.0
        layers["bench.first_op_ratio"] = workload.first_op_s / wall_p50
        metrics = {name: (layers[name], LAYERS[name][0]) for name in LAYERS}
        for name, (value, unit) in metrics.items():
            print(f"  {name} {value:.6g} {unit}")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
