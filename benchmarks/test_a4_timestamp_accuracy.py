"""A4 — native-log vs MPE timestamp accuracy (paper Section I).

The paper's first complaint about the legacy log: "the timestamps were
not accurate, since they recorded the moment of arrival of API events
at a central logging process".  This bench runs the same program under
both facilities, captures ground-truth call times with a probe hook,
and measures each log's timestamp error.  The MPE log (stamped at the
call, on the calling rank's synchronized clock) should be orders of
magnitude closer to the truth.
"""

import re
import statistics

import pytest

from repro.mpe import read_log
from repro.pilot import PilotConfig, run_pilot
from repro.pilot.hooks import PilotHooks
from repro.apps import Lab2Config, lab2_main
from repro.slog2 import convert


class TruthProbe(PilotHooks):
    """Records (rank, call name, true engine time) at every call begin."""

    def __init__(self, run_getter):
        self.calls: list[tuple[int, str, float]] = []
        self._run_getter = run_getter

    def on_call_begin(self, call):
        self.calls.append((call.rank, call.name,
                           self._run_getter().engine.now))


def run_with_probe(argv, config, nprocs=6):
    from repro.pilot.program import current_run

    probe = TruthProbe(current_run)
    res = run_pilot(lambda a: lab2_main(a, Lab2Config(num=4000)), nprocs,
                    argv=argv, config=config, extra_hooks=[probe])
    assert res.ok
    return res, probe


_NATIVE_LINE = re.compile(r"@(?P<t>[0-9.]+) r(?P<rank>\d+) (?P<name>\S+)")


@pytest.mark.benchmark(group="ablations")
def test_a4_timestamp_accuracy(benchmark, comparison, tmp_path):
    box = {}

    def experiment():
        native_path = str(tmp_path / "a4.log")
        mpe_path = str(tmp_path / "a4.clog2")
        opts = PilotConfig(native_log_path=native_path,
                           mpe_log_path=mpe_path)
        # One run with both services so the two logs describe the very
        # same execution.  7 ranks: 6 app + 1 service.
        box["res"], box["probe"] = run_with_probe(
            ("-pisvc=cj",), opts, nprocs=7)
        box["native_lines"] = [
            m.groupdict() for m in map(_NATIVE_LINE.match,
                                       open(native_path))
            if m is not None]
        box["doc"], _ = convert(read_log(mpe_path).log)
        return box["doc"]

    benchmark.pedantic(experiment, rounds=1, iterations=1)
    probe, doc = box["probe"], box["doc"]

    truth = [(rank, name, t) for rank, name, t in probe.calls
             if name in ("PI_Read", "PI_Write")]

    # Native log: match the i-th (rank, name) line against the i-th
    # truth record of that (rank, name) — both are in program order.
    native_errors = _per_call_errors(
        truth, [(int(l["rank"]), l["name"], float(l["t"]))
                for l in box["native_lines"] if l["name"] in ("PI_Read",
                                                              "PI_Write")])
    # MPE log: state start times from the converted document.
    mpe_records = []
    for name in ("PI_Read", "PI_Write"):
        for s in doc.states_of(name):
            mpe_records.append((s.rank, name, s.start))
    mpe_errors = _per_call_errors(truth, mpe_records)

    native_mean = statistics.mean(abs(e) for e in native_errors)
    mpe_mean = statistics.mean(abs(e) for e in mpe_errors)

    # The central-logging delay is real and one-sided (always late);
    # MPE stamps are local and tight (within one buffering cost of the
    # probe, which observes the call a hair later than MPE stamps it).
    assert min(native_errors) > 0
    assert native_mean > 10 * mpe_mean

    table = comparison("A4: timestamp error vs ground truth (mean |err|)")
    table.add("native log (arrival-stamped)", "inaccurate (complaint 1)",
              f"{native_mean * 1e6:.2f} us, always late")
    table.add("MPE log (call-stamped)", "accurate",
              f"{mpe_mean * 1e6:.3f} us")
    table.add("improvement", "the point of the paper",
              f"{native_mean / mpe_mean:.0f}x")


def _per_call_errors(truth, recorded):
    """|recorded - true| matched per (rank, name) in order."""
    from collections import defaultdict, deque

    truth_q = defaultdict(deque)
    for rank, name, t in truth:
        truth_q[(rank, name)].append(t)
    errors = []
    for rank, name, t in recorded:
        q = truth_q.get((rank, name))
        if q:
            errors.append(t - q.popleft())
    assert errors, "no records matched ground truth"
    return errors
