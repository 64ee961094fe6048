#!/usr/bin/env python
"""The full classroom kit for one exercise (paper Section IV.A).

For the lab-3 work-allocation exercise this script produces everything
an instructor would project or hand out:

* the interactive HTML timeline (wheel-zoom, drag-scroll, hover popups,
  legend toggles) for the static and dynamic schemes;
* the colour-coded source listing, Fig. 3 style — each Pilot call line
  tinted with its timeline colour;
* the statistics window with per-worker busy bars, where the static
  scheme's load imbalance "can be spotted in a matter of moments";
* plus ASCII versions of both timelines for the terminal.

Run:  python examples/classroom_walkthrough.py
"""

import inspect
import os
import tempfile

from repro import jumpshot, slog2
from repro.apps import DYNAMIC, STATIC, Lab3Config, lab3_main
import repro.apps.labs as labs_module
from repro.mpe import read_log
from repro.pilot import PilotConfig, run_pilot

OUT_DIR = os.environ.get("REPRO_OUT_DIR") or os.path.join(os.path.dirname(__file__), "out")
CFG = Lab3Config(workers=4, ntasks=64)


def run_scheme(scheme: str):
    clog = os.path.join(tempfile.gettempdir(), f"lab3_{scheme}.clog2")
    res = run_pilot(lambda argv: lab3_main(argv, scheme, CFG), 5,
                    argv=("-pisvc=j",),
                    config=PilotConfig(mpe_log_path=clog))
    assert res.ok
    doc, report = slog2.convert(read_log(clog).log)
    assert report.clean, report.summary()
    return res, doc


if __name__ == "__main__":
    os.makedirs(OUT_DIR, exist_ok=True)
    source = inspect.getsource(labs_module)

    for scheme in (STATIC, DYNAMIC):
        res, doc = run_scheme(scheme)
        view = jumpshot.View(doc)
        loads = jumpshot.per_rank_load(view)
        ratio = jumpshot.imbalance_ratio(loads)
        print(f"=== lab 3, {scheme} allocation ===")
        print(jumpshot.render_ascii(view, width=100, show_legend=False))
        print(f"makespan {res.total_time:.3f} s, busy-time imbalance "
              f"{ratio:.2f}x\n")

        jumpshot.render_html(
            view, os.path.join(OUT_DIR, f"lab3_{scheme}.html"),
            title=f"lab 3 — {scheme} allocation")
        jumpshot.render_stats_svg(
            view, os.path.join(OUT_DIR, f"lab3_{scheme}_load.svg"),
            by_rank=True)
        jumpshot.render_source_html(
            doc, source, os.path.join(OUT_DIR, f"lab3_{scheme}_source.html"),
            title="labs.py")

    print(f"classroom artifacts in {OUT_DIR}/:")
    for name in sorted(os.listdir(OUT_DIR)):
        if name.startswith("lab3_"):
            print(f"  {name}")
    print("\nopen the .html files in a browser: wheel to zoom, drag to "
          "scroll, hover for the Section III.B popups.")
