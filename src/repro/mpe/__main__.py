"""CLOG2 maintenance CLI: ``print`` (clog2_print) and ``fsck``.

Real MPE ships a ``clog2_print`` utility; the paper's preferred
workflow leans on inspecting the CLOG2 intermediate when something
looks wrong ("diagnosing problems with the log contents", Section
II.A).  Usage::

    python -m repro.mpe print run.clog2 [--limit N] [--rank R] [--defs-only]
    python -m repro.mpe fsck run.clog2 [--repair OUT] [--quarantine OUT]
                                       [--json] [--perf]

``fsck`` exits 0 on a clean file and 1 when damage was found (repaired
or not), so scripts can gate on it.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.mpe.clog2 import read_log
from repro.mpe.fsck import fsck_path
from repro.mpe.records import BareEvent, EventDef, MsgEvent, RankName, StateDef

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.mpe",
        description="Inspect and repair CLOG2 logfiles.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("print",
                       help="dump a CLOG2 logfile as text (clog2_print)")
    p.add_argument("clog2", help="input .clog2 file")
    p.add_argument("--limit", type=int, default=None,
                   help="print at most N records")
    p.add_argument("--rank", type=int, default=None,
                   help="only records from this rank")
    p.add_argument("--defs-only", action="store_true",
                   help="print the definition table and stop")

    f = sub.add_parser("fsck",
                       help="scan/verify/repair a CLOG2 or partial log")
    f.add_argument("path", help="input .clog2 or .part file")
    f.add_argument("--repair", metavar="OUT", default=None,
                   help="re-emit the surviving items as a clean log")
    f.add_argument("--quarantine", metavar="OUT", default=None,
                   help="copy damaged byte spans verbatim to a sidecar")
    f.add_argument("--json", action="store_true",
                   help="print the full report as JSON")
    f.add_argument("--perf", action="store_true",
                   help="write scan timings next to the input "
                        "(<path>.fsck.perf.json)")
    return parser


def format_definition(d) -> str:
    if isinstance(d, StateDef):
        return (f"statedef  ids=({d.start_id},{d.end_id})  "
                f"color={d.color:<12} name={d.name}")
    if isinstance(d, EventDef):
        return (f"eventdef  id={d.event_id:<11} color={d.color:<12} "
                f"name={d.name}")
    assert isinstance(d, RankName)
    return f"rankname  rank={d.rank:<10} name={d.name}"


def format_record(r) -> str:
    if isinstance(r, BareEvent):
        text = f'  "{r.text}"' if r.text else ""
        return f"{r.timestamp:.9f}  r{r.rank:<3} event id={r.event_id}{text}"
    assert isinstance(r, MsgEvent)
    kind = "send" if r.kind == 0 else "recv"
    arrow = "->" if kind == "send" else "<-"
    return (f"{r.timestamp:.9f}  r{r.rank:<3} {kind} {arrow} r{r.other_rank} "
            f"tag={r.tag} size={r.size}")


def run_fsck(args) -> int:
    from repro.perf import NO_PERF, PerfRecorder

    perf = (PerfRecorder(meta={"tool": "fsck", "path": args.path})
            if args.perf else NO_PERF)
    report = fsck_path(args.path, repair_to=args.repair,
                       quarantine_to=args.quarantine, perf=perf)
    if args.perf:
        perf.dump(args.path + ".fsck.perf.json")
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(report.summary())
        for issue in report.issues:
            print(f"  {issue}")
        for note in report.notes:
            print(f"  note: {note}")
        if report.repaired_to:
            print(f"  repaired -> {report.repaired_to}")
        if report.quarantined_to:
            print(f"  quarantined -> {report.quarantined_to}")
    return 0 if report.clean else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "fsck":
        return run_fsck(args)
    log = read_log(args.clog2).log
    print(f"{args.clog2}: {len(log.records)} records over "
          f"{log.num_ranks} ranks, clock resolution "
          f"{log.clock_resolution:g}s")
    print(f"definitions ({len(log.definitions)}):")
    for d in log.definitions:
        print(f"  {format_definition(d)}")
    if args.defs_only:
        return 0
    printed = 0
    for r in log.records:
        if args.rank is not None and r.rank != args.rank:
            continue
        print(format_record(r))
        printed += 1
        if args.limit is not None and printed >= args.limit:
            remaining = len(log.records) - printed
            if remaining > 0:
                print(f"... ({remaining} more records)")
            break
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    sys.exit(main())
