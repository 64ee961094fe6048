#!/usr/bin/env python
"""The debugging case study (Figs. 4-5): spotting parallelization bugs.

Runs the collision-CSV assignment three ways — the intended solution and
the two student submissions from the paper — and shows how the visual
log exposes each bug "in a matter of moments":

* instance A inadvertently serialises the query phase (write/read pairs
  in a loop instead of all-writes-then-all-reads);
* instance B never parallelises the big file read: PI_MAIN initialises
  alone for ~11 s while every worker sits blocked in a red PI_Read.

Run:  python examples/debug_parallelism.py
"""

import os
import tempfile

import numpy as np

from repro import jumpshot, slog2
from repro.apps import GOOD, INSTANCE_A, INSTANCE_B, CollisionConfig, collisions_main
from repro.mpe import read_log
from repro.pilot import PilotConfig, run_pilot

OUT_DIR = os.environ.get("REPRO_OUT_DIR") or os.path.join(os.path.dirname(__file__), "out")
CFG = CollisionConfig(nrecords=20_000)


def run_variant(variant: str):
    clog_path = os.path.join(tempfile.gettempdir(), f"coll_{variant}.clog2")
    config = PilotConfig(mpe_log_path=clog_path)
    result = run_pilot(lambda argv: collisions_main(argv, variant, CFG),
                       nprocs=6, argv=("-pisvc=j",), config=config)
    out = result.vmpi.results[0]
    ok = all(np.array_equal(out["results"][k], out["expected"][k])
             for k in out["expected"])
    doc, _ = slog2.convert(read_log(clog_path).log,
                           {p.rank: p.name for p in result.run.processes})
    return result, doc, ok


if __name__ == "__main__":
    os.makedirs(OUT_DIR, exist_ok=True)

    for variant, figure in ((GOOD, None), (INSTANCE_A, "fig4"),
                            (INSTANCE_B, "fig5")):
        result, doc, ok = run_variant(variant)
        print(f"=== {variant} ===  answers correct: {ok}  "
              f"total {result.total_time:.2f} s")
        view = jumpshot.View(doc)
        print(jumpshot.render_ascii(view, width=110, show_legend=False))

        # The tell the paper teaches: gray compute vs red blocking-read.
        stats = view.legend
        gray = stats.entry("Compute").excl
        red = stats.entry("PI_Read").incl
        print(f"gray compute (excl) = {gray:.2f} s   "
              f"red blocking reads (incl) = {red:.2f} s")
        if red > gray:
            print("  -> unfavourable ratio: \"that something is wrong is "
                  "obvious\" (Section IV.B)")
        if figure:
            path = os.path.join(OUT_DIR, f"{figure}_{variant}.svg")
            jumpshot.render_svg(view, path)
            print(f"  {path}")
        print()
