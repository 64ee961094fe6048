"""Run the paper's workloads from the command line.

The closest thing to the course's ``mpirun -n 6 ./lab2 -pisvc=j``::

    python -m repro.apps lab2 --pisvc j --render ascii
    python -m repro.apps thumbnail --files 200 --nprocs 11 --render svg
    python -m repro.apps collisions --variant instance_b --render ascii
    python -m repro.apps lab3 --scheme dynamic --render html
    python -m repro.apps lab1 --nprocs 5

Each run prints the application's own result summary; with ``--pisvc j``
the CLOG2 log is written (``--clog`` chooses where), converted, and
rendered per ``--render``.  ``--diff-against`` compares the new log to
a previous run's CLOG2 file.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from repro.apps.collisions import VARIANTS, CollisionConfig, collisions_main
from repro.apps.fleet import make_fleet_main
from repro.apps.lab2 import Lab2Config, lab2_main
from repro.apps.labs import DYNAMIC, STATIC, Lab3Config, lab1_main, lab3_main
from repro.apps.thumbnail import ThumbnailConfig, thumbnail_main
from repro.pilot import PilotConfig, run_pilot
from repro.vmpi.engine import SCHEDULERS

APPS = ("lab1", "lab2", "lab3", "thumbnail", "collisions",
        "collisions-buggy-a", "collisions-buggy-b", "fleet")
DEFAULT_NPROCS = {"lab1": 5, "lab2": 6, "lab3": 5, "thumbnail": 6,
                  "collisions": 6, "collisions-buggy-a": 6,
                  "collisions-buggy-b": 6}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.apps",
        description="Run a paper workload on the virtual cluster.")
    parser.add_argument("app", choices=APPS)
    parser.add_argument("--nprocs", type=int,
                        help="virtual MPI ranks (default depends on app)")
    parser.add_argument("--pisvc", default="",
                        help="Pilot services: any of c, d, j (e.g. 'cj')")
    parser.add_argument("--check-level", type=int, default=1,
                        choices=range(4), help="-picheck level")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--clog", default="run.clog2",
                        help="CLOG2 output path (with -pisvc j)")
    parser.add_argument("--render", choices=("none", "ascii", "svg", "html",
                                             "all"), default="none",
                        help="render the log after the run")
    parser.add_argument("--out-dir", default=".",
                        help="directory for rendered artifacts")
    parser.add_argument("--width", type=int, default=110,
                        help="ASCII render width")
    parser.add_argument("--diff-against", metavar="CLOG2",
                        help="diff this run's log against a previous one")
    parser.add_argument("--critical-path", action="store_true",
                        help="print the run's critical path")
    # app-specific knobs
    parser.add_argument("--files", type=int, default=120,
                        help="thumbnail: number of input files")
    parser.add_argument("--kernel", choices=("declared", "real"),
                        default="declared", help="thumbnail: compute kernel")
    parser.add_argument("--stage-states", action="store_true",
                        help="thumbnail: subdivide decompressor work with "
                             "named custom states (PI_DefineState)")
    parser.add_argument("--variant", choices=VARIANTS, default="good",
                        help="collisions: which submission to run")
    parser.add_argument("--records", type=int, default=20_000,
                        help="collisions: synthetic CSV records")
    parser.add_argument("--scheme", choices=(STATIC, DYNAMIC),
                        default=STATIC, help="lab3: work allocation scheme")
    parser.add_argument("--tasks", type=int, default=64,
                        help="lab3: number of tasks in the bag")
    parser.add_argument("--scheduler", choices=SCHEDULERS, default=None,
                        help="rank execution backend (coroutine hosts "
                             "thousands of ranks in one process)")
    parser.add_argument("--workers", type=int, default=1000,
                        help="fleet: number of worker ranks")
    return parser


def make_main(args):
    # functools.partial, not lambdas: the coroutine scheduler's call
    # rewriter unwraps partials, but never looks inside a lambda body.
    if args.app == "lab1":
        return lab1_main
    if args.app == "lab2":
        return functools.partial(lab2_main, config=Lab2Config())
    if args.app == "lab3":
        cfg = Lab3Config(ntasks=args.tasks)
        return functools.partial(lab3_main, scheme=args.scheme, config=cfg)
    if args.app == "thumbnail":
        cfg = ThumbnailConfig(nfiles=args.files, kernel=args.kernel,
                              seed=args.seed, stage_states=args.stage_states)
        return functools.partial(thumbnail_main, config=cfg)
    if args.app == "fleet":
        return make_fleet_main(args.workers)
    cfg = CollisionConfig(nrecords=args.records, seed=args.seed or 7)
    if args.app.startswith("collisions-buggy-"):
        from repro.apps.collisions_buggy import collisions_buggy_main

        variant = args.app.rsplit("-", 1)[1]
        return functools.partial(collisions_buggy_main, variant=variant,
                                 config=cfg)
    return functools.partial(collisions_main, variant=args.variant,
                             config=cfg)


def summarize_result(app: str, value) -> str:
    if app == "lab1":
        return f"{len(value['greetings'])} greetings received"
    if app == "lab2":
        ok = value["total"] == value["expected"]
        return f"grand total {value['total']} (correct: {ok})"
    if app == "lab3":
        return f"tasks per worker: {value['executed']}"
    if app == "fleet":
        return (f"{value['total']}/{value['ntasks']} tasks over "
                f"{value['workers']} workers")
    if app == "thumbnail":
        return (f"{value['thumbs']} thumbnails via "
                f"{value['decompressors']} decompressors")
    import numpy as np

    ok = all(np.array_equal(value["results"][k], value["expected"][k])
             for k in value["expected"])
    return f"{len(value['results'])} queries (correct: {ok})"


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    nprocs = args.nprocs or DEFAULT_NPROCS.get(args.app, args.workers + 1)
    scheduler = args.scheduler
    if scheduler is None and args.app == "fleet" and nprocs > 64:
        scheduler = "coroutine"  # thread-per-rank cannot host a fleet
    config = PilotConfig(
        services=args.pisvc,
        check_level=args.check_level,
        seed=args.seed,
        scheduler=scheduler,
        mpe_log_path=args.clog,
        native_log_path=os.path.splitext(args.clog)[0] + ".native.log")

    from repro.vmpi.errors import TaskFailed

    try:
        result = run_pilot(make_main(args), nprocs, config=config)
    except TaskFailed as exc:
        print(f"run FAILED: {exc}", file=sys.stderr)
        return 2
    if result.aborted is not None:
        print(f"run ABORTED: {result.aborted}", file=sys.stderr)
        for diag in result.diagnostics.entries:
            print(diag.render(), file=sys.stderr)
        return 2
    print(f"{args.app}: {summarize_result(args.app, result.vmpi.results[0])}")
    print(f"virtual time {result.total_time:.6f} s "
          f"(wrap-up {result.wrapup_time:.6f} s) on {nprocs} ranks")

    if "j" not in args.pisvc:
        if args.render != "none" or args.diff_against or args.critical_path:
            print("note: pass --pisvc j to produce a log for rendering/"
                  "analysis", file=sys.stderr)
        return 0

    from repro import jumpshot, slog2
    from repro.mpe import read_log

    doc, report = slog2.convert(read_log(args.clog).log)
    print(report.summary())
    os.makedirs(args.out_dir, exist_ok=True)
    base = os.path.join(args.out_dir, args.app)
    view = jumpshot.View(doc)
    if args.render in ("ascii", "all"):
        print(jumpshot.render_ascii(view, width=args.width))
    if args.render in ("svg", "all"):
        jumpshot.render_svg(view, base + ".svg")
        print(f"wrote {base}.svg")
    if args.render in ("html", "all"):
        jumpshot.render_html(view, base + ".html", title=args.app)
        print(f"wrote {base}.html")
    if args.critical_path:
        print()
        print(slog2.critical_path(doc).summary(doc))
    if args.diff_against:
        old_doc, _ = slog2.convert(read_log(args.diff_against).log)
        diff = slog2.diff_logs(old_doc, doc, label_a=args.diff_against,
                               label_b=args.clog)
        print()
        print(diff.summary())
        from repro.tracediff import diff_traces

        tdiff = diff_traces(args.diff_against, args.clog)
        print()
        print(tdiff.summary())
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    sys.exit(main())
