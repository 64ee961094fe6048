#!/usr/bin/env python
"""The thumbnail pipeline with the *real* toy-JPEG kernel (Figs. 1-2).

Generates a small synthetic photo corpus, runs the PI_MAIN / D_i / C
pipeline actually decoding, cropping, down-sampling and re-encoding each
image, then renders the full timeline (Fig. 1) and a zoomed-in window
(Fig. 2), and prints the legend statistics that show the program is
well-designed: gray compute dwarfs red/green I/O.

Run:  python examples/thumbnail_pipeline.py [nfiles]
"""

import os
import sys
import tempfile

from repro import jumpshot, slog2
from repro.apps import ThumbnailConfig, thumbnail_main
from repro.mpe import read_log
from repro.pilot import PilotConfig, run_pilot

OUT_DIR = os.environ.get("REPRO_OUT_DIR") or os.path.join(os.path.dirname(__file__), "out")


if __name__ == "__main__":
    os.makedirs(OUT_DIR, exist_ok=True)
    nfiles = int(sys.argv[1]) if len(sys.argv) > 1 else 48

    cfg = ThumbnailConfig(nfiles=nfiles, kernel="real",
                          t_decompress=0.117, t_compress=0.008,
                          stage_states=True)  # subdivide D's gray bar
    clog_path = os.path.join(tempfile.gettempdir(), "thumbnail.clog2")
    config = PilotConfig(mpe_log_path=clog_path)

    # 11 ranks: PI_MAIN + compressor + 9 decompressors, as in Fig. 1.
    result = run_pilot(lambda argv: thumbnail_main(argv, cfg), nprocs=11,
                       argv=("-pisvc=j",), config=config)
    out = result.vmpi.results[0]
    print(f"{out['thumbs']} thumbnails produced "
          f"({out['out_bytes']} bytes of real JPLT output) by "
          f"{out['decompressors']} decompressors + 1 compressor")
    print(f"virtual run time {result.total_time:.2f}s, "
          f"MPE wrap-up {result.wrapup_time:.3f}s")

    doc, report = slog2.convert(
        read_log(clog_path).log,
        {p.rank: p.name for p in result.run.processes})
    print(report.summary())

    # Fig. 1: the whole run.
    view = jumpshot.View(doc)
    jumpshot.render_svg(view, os.path.join(OUT_DIR, "fig1_thumbnail_full.svg"))
    print(jumpshot.render_ascii(view, width=110, show_legend=False))

    # Fig. 2: zoom into the middle of the steady state.
    t0, t1 = doc.time_range
    mid = (t0 + t1) / 2
    view.zoom_to(mid, mid + (t1 - t0) / 12)
    jumpshot.render_svg(view, os.path.join(OUT_DIR, "fig2_thumbnail_zoom.svg"))

    # The Section III.D observation, quantified via the legend:
    stats = view.legend
    compute = stats.entry("Compute")
    red_green = (stats.entry("PI_Read").incl + stats.entry("PI_Write").incl
                 + stats.entry("PI_Select").incl)
    print(f"\ncompute (gray)      : {compute.incl:9.2f} s inclusive")
    print(f"I/O calls (red+green): {red_green:9.2f} s inclusive")
    print("=> \"Pilot I/O functions only take a small proportion of the "
          "time ... the parallel application program is well-designed\"")
    # Custom stages (PI_DefineState) show up like any state:
    decode = stats.entry("decode")
    crop = stats.entry("crop+downsample")
    print(f"decode stage        : {decode.incl:9.2f} s over {decode.count} files")
    print(f"crop+downsample     : {crop.incl:9.2f} s")

    # Interop: the same log, explorable in ui.perfetto.dev.
    from repro.slog2 import write_chrome_trace

    trace_path = os.path.join(OUT_DIR, "thumbnail.trace.json")
    n = write_chrome_trace(doc, trace_path)
    print(f"\nSVGs written to {OUT_DIR}/fig1_thumbnail_full.svg and "
          f"fig2_thumbnail_zoom.svg")
    print(f"Perfetto/chrome://tracing export: {trace_path} ({n} events)")
