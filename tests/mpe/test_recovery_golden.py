"""Golden RecoveryReports: every salvage read, pinned byte for byte.

Each line of ``golden/recovery_reports.sha256`` is ``label sha256``,
the digest of ``repr((log, report))`` for one salvage read:

* ``read_log(errors="salvage")`` over the seeded fuzz corpus (version 1
  and version 2 logs, truncated and byte-flipped);
* ``read_partial_log(errors="salvage")`` over torn and flipped
  partials;
* ``merge_partial_logs(errors="salvage")`` over a crashed salvage run,
  intact and with one partial torn.

Any change to what salvage keeps, drops, or says about it shows up as a
changed digest.  If a change is intentional, regenerate with::

    PYTHONPATH=src:. python tests/mpe/test_recovery_golden.py --regenerate
"""

import hashlib
import itertools
import os
import random
import struct
import sys
import tempfile

import pytest

from repro.mpe.api import RankLog
from repro.mpe.clocksync import SyncPoint
from repro.mpe.clog2 import read_log, write_clog2
from repro.mpe.records import BareEvent, EventDef, MsgEvent, RankName, StateDef
from repro.mpe.salvage import (
    AppendPartialWriter,
    find_partials,
    merge_partial_logs,
    read_partial_log,
)
from repro.pilot import PilotConfig, run_pilot
from repro.pilotlog.integration import JumpshotOptions
from repro.vmpi.faults import CrashFault, FaultPlan
from tests.chaos.test_chaos import pipeline_app
from tests.mpe.test_fuzz_corruption import SEEDS, fuzz_log

GOLDEN = os.path.join(os.path.dirname(os.path.dirname(__file__)), "golden",
                      "recovery_reports.sha256")

CASES_PER_KIND = 12


def digest(result) -> str:
    return hashlib.sha256(repr(tuple(result)).encode("utf-8")).hexdigest()


def damaged(data: bytes, rng: random.Random, start: int, cuts=()):
    """``(tag, bytes)`` cases: the given and seeded truncations, seeded
    bit flips at or after ``start``, then seeded high-bit sets there (in
    an ASCII text such a byte no longer decodes)."""
    seeded = {rng.randrange(len(data)) for _ in range(CASES_PER_KIND)}
    for cut in sorted(seeded.union(cuts)):
        yield f"cut{cut}", data[:cut]
    for kind in ("flip", "high"):
        for _ in range(CASES_PER_KIND):
            pos = rng.randrange(start, len(data))
            out = bytearray(data)
            if kind == "flip":
                out[pos] ^= 1 << rng.randrange(8)
            else:
                out[pos] |= 0x80
            yield f"{kind}{pos}", bytes(out)


def read_log_cases(tmp):
    path = os.path.join(tmp, "fuzz.clog2")
    for seed in SEEDS:
        for checksum in (False, True):
            write_clog2(path, fuzz_log(random.Random(seed)), checksum=checksum)
            with open(path, "rb") as fh:
                data = fh.read()
            rng = random.Random(seed * 2 + checksum)
            for tag, body in itertools.chain(
                    damaged(data, rng, 0),
                    [("magic", b"X" + data[1:]),
                     ("version", data[:8] + b"\x07" + data[9:])]):
                with open(path, "wb") as fh:
                    fh.write(body)
                yield (f"read_log/v{1 + checksum}/{seed}/{tag}",
                       digest(read_log(path, errors="salvage")))


def rank_log() -> RankLog:
    log = RankLog()
    log.definitions.extend([StateDef(1, 2, "S", "red"),
                            EventDef(3, "E", "blue"), RankName(1, "worker")])
    log.sync_points.append(SyncPoint(0.0, 0.0))
    return log


def partial_bytes(tmp) -> bytes:
    path = os.path.join(tmp, "append.part")
    log = rank_log()
    rng = random.Random(7)
    writer = AppendPartialWriter(path, 1, 1e-8)
    for i in range(60):
        t = i * 1e-3
        log.records.append(BareEvent(t, 1, 3, f"r{i}") if i % 3
                           else MsgEvent(t, 1, i % 2, 0, 5, rng.randrange(99)))
        if i == 30:
            log.sync_points.append(SyncPoint(t, 2e-6))
        if i % 10 == 9:
            writer.checkpoint(log)
    with open(path, "rb") as fh:
        return fh.read()


def chunk_starts(data: bytes) -> list[int]:
    """Offsets of an append partial's chunk frames (``<BI`` after the
    24-byte header)."""
    starts, pos = [], 24
    while pos + 5 <= len(data):
        starts.append(pos)
        pos += 5 + struct.unpack_from("<BI", data, pos)[1]
    return starts


def targeted(data: bytes):
    """Damage seeded flips rarely hit: a bad magic, and an unknown
    chunk kind, whole and torn."""
    yield "magic", b"X" + data[1:]
    pos = chunk_starts(data)[2]
    unknown = data[:pos] + b"X" + data[pos + 1:]
    yield "kind", unknown
    yield "kind-torn", unknown[:pos + 9]


def partial_cases(tmp):
    path = os.path.join(tmp, "torn.part")
    data = partial_bytes(tmp)
    rng = random.Random(len(data))
    for tag, body in itertools.chain(
            damaged(data, rng, 0, cuts=range(0, 64, 3)), targeted(data)):
        with open(path, "wb") as fh:
            fh.write(body)
        yield (f"read_partial_log/append/{tag}",
               digest(read_partial_log(path, errors="salvage")))


def merge_cases(tmp):
    base = os.path.join(tmp, "crashed-append.clog2")
    plan = FaultPlan(seed=7, rules=(CrashFault(rank=1, at=4e-3),))
    run_pilot(pipeline_app(2, 20), 3, config=PilotConfig(
        services="j", mpe_log_path=base, faults=plan,
        mpe=JumpshotOptions(salvage=True, salvage_interval=8)))
    kwargs = dict(errors="salvage", expected_ranks=3,
                  crashed_ranks=plan.crashed_ranks())
    yield ("merge_partial_logs/append/intact",
           digest(merge_partial_logs(base, **kwargs)))
    first = find_partials(base)[0]
    with open(first, "r+b") as fh:
        fh.truncate(os.path.getsize(first) - 5)
    yield ("merge_partial_logs/append/torn",
           digest(merge_partial_logs(base, **kwargs)))


PRODUCERS = {"read_log": read_log_cases, "read_partial_log": partial_cases,
             "merge_partial_logs": merge_cases}


def load_golden(prefix: str) -> dict[str, str]:
    with open(GOLDEN) as fh:
        pairs = (line.split() for line in fh if line.strip())
        return {label: sha for label, sha in pairs
                if label.startswith(prefix + "/")}


@pytest.mark.parametrize("name", sorted(PRODUCERS))
def test_salvage_matches_golden(tmp_path, name):
    got = dict(PRODUCERS[name](str(tmp_path)))
    expected = load_golden(name)
    assert expected, f"no golden entries for {name}"
    changed = sorted(label for label in expected.keys() | got.keys()
                     if expected.get(label) != got.get(label))
    assert not changed, (
        f"salvage output changed for {len(changed)} case(s), e.g. "
        f"{changed[:5]}; regenerate the golden if intentional")


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        with tempfile.TemporaryDirectory() as tmp:
            lines = [f"{label} {sha}\n" for name in sorted(PRODUCERS)
                     for label, sha in PRODUCERS[name](tmp)]
        with open(GOLDEN, "w") as fh:
            fh.writelines(lines)
        print(f"{len(lines)} golden entries written to {GOLDEN}")
    else:
        print(__doc__)
