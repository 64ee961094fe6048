#!/usr/bin/env python
"""Reproduce the paper's Fig. 3: the "lab 2" exercise and its visual log.

Runs the Fig. 3 program (5 workers + PI_MAIN, a 10000-element array) with
``-pisvc=j``, then walks the display the way the paper's Section IV.A
narrates it for students: red bars where workers wait in PI_Read, the
gray addition loop, the short green report write, and white arrows for
every message.  Includes the V2.1 ``%^d`` auto-alloc variant from the
paper's footnote 3.

Run:  python examples/lab2_visual.py
"""

import os
import tempfile

from repro import jumpshot, slog2
from repro.apps import Lab2Config, lab2_main
from repro.mpe import read_log
from repro.pilot import PilotConfig, run_pilot

OUT_DIR = os.environ.get("REPRO_OUT_DIR") or os.path.join(os.path.dirname(__file__), "out")


def run_and_render(cfg: Lab2Config, tag: str):
    clog_path = os.path.join(tempfile.gettempdir(), f"lab2_{tag}.clog2")
    config = PilotConfig(mpe_log_path=clog_path)
    result = run_pilot(lambda argv: lab2_main(argv, cfg), nprocs=6,
                       argv=("-pisvc=j",), config=config)
    out = result.vmpi.results[0]
    assert out["total"] == out["expected"], "lab2 answer is wrong!"
    print(f"[{tag}] grand total = {out['total']}  "
          f"(virtual time {result.total_time * 1e3:.3f} ms — "
          f"the paper says under 3 ms)")

    doc, report = slog2.convert(
        read_log(clog_path).log,
        {p.rank: p.name for p in result.run.processes})
    print(f"[{tag}] {report.summary()}")

    view = jumpshot.View(doc)
    print(jumpshot.render_ascii(view, width=110))
    svg_path = os.path.join(OUT_DIR, f"fig3_lab2_{tag}.svg")
    jumpshot.render_svg(view, svg_path)
    print(f"[{tag}] SVG written to {svg_path}\n")
    return doc


if __name__ == "__main__":
    os.makedirs(OUT_DIR, exist_ok=True)

    print("=== Fig. 3: the classic two-read version ===")
    doc = run_and_render(Lab2Config(), "classic")

    # What the instructor points at (Section IV.A):
    reads = doc.states_of("PI_Read")
    writes = doc.states_of("PI_Write")
    arrows = doc.arrows
    worker_reads = [s for s in reads if s.rank != 0]
    print(f"each worker waits with two PI_Read calls: "
          f"{len(worker_reads)} red bars across 5 workers")
    print(f"PI_MAIN's green bars: {len([s for s in writes if s.rank == 0])} "
          f"PI_Write calls (two per worker)")
    print(f"white arrows (messages): {len(arrows)}")

    print("\n=== Footnote 3: the V2.1 %^d auto-alloc variant ===")
    run_and_render(Lab2Config(use_autoalloc=True), "autoalloc")
