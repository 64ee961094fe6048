"""Durable write-ahead journaling + checkpoint/replay for the engine.

PR 1 made crashes *survivable* (salvage partials, tolerant readers) but
salvage is lossy by design: whatever was buffered past the last
checkpoint dies with the run.  This module closes the gap with the
message-logging insight (Dichev & Nikolopoulos, arXiv:1905.03184): in a
message-passing program the only nondeterminism a restart has to agree
on is the *event* history — which messages were delivered, which faults
fired.  Since :class:`repro.vmpi.engine.Engine` is already deterministic
given (program, seed, fault plan), journaling those events makes a run
fully replayable — and the replay *provably* faithful, because every
replayed event is verified against the journaled prefix instead of
being trusted.

On disk, a journal directory holds:

``manifest.json``
    everything re-derivable about the run — seed, clock resolution,
    merged per-rank skews, the fault plan as JSON, and (at the Pilot
    level) nprocs/argv/log paths.  Written once, atomically
    (tmp + fsync + rename).
``rankNNNN.wal``
    one append-only write-ahead log per rank, holding that rank's
    *delivered* messages with world-rank ``src``/``dest`` — the one
    durable delivery log, which message-logging recovery and the TR009
    lint read too.  Each entry is framed ``kind u8, length u32,
    crc32 u32`` + JSON payload, so a kill at any byte leaves a loadable
    prefix: the reader stops at the first torn or checksum-failing
    frame.
``world.wal``
    world-scoped events: fault injections, checkpoint markers, the
    abort record.
``ckpt-NNNNNN.json``
    periodic engine checkpoints taken at deterministic virtual-time
    barriers (every ``checkpoint_interval`` virtual seconds): the
    barrier time plus a content digest of every rank's log buffer.
    Written atomically, fsynced; the WALs are fsynced at the same
    barrier, so a checkpoint on disk certifies the journal prefix
    before it.

Restart is *verified re-execution*: :meth:`Engine.resume
<repro.vmpi.engine.Engine.resume>` rebuilds the engine from the
manifest, re-installs the fault plan with crash rules suppressed
(message-fault decision streams stay aligned because rule indices are
preserved), and attaches the journal in replay mode.  As the rerun
executes, every delivery is checked against the journaled prefix and
every checkpoint barrier's buffer digests against the stored
checkpoint; any disagreement aborts the replay with a recorded
:class:`ReplayDivergence` instead of silently producing a *plausible*
but wrong timeline.  Past the journaled prefix the rerun is simply the
missing suffix — the part the crash destroyed — and finalize re-emits
the complete log, byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, NamedTuple

from repro._util.fsio import atomic_write_json as _atomic_write_json_impl
from repro._util.retry import RetryError, RetryPolicy
from repro.perf import NO_PERF, PerfRecorder
from repro.vmpi.clock import ClockSkew
from repro.vmpi.errors import VmpiError

if TYPE_CHECKING:  # pragma: no cover
    from repro.vmpi.comm import Message
    from repro.vmpi.engine import Engine, Task
    from repro.vmpi.faults import FaultPlan

MANIFEST_NAME = "manifest.json"
WORLD_WAL = "world.wal"

#: On-disk format version.  2: delivery records carry world ranks.
JOURNAL_VERSION = 2

#: WAL frame: entry kind u8, payload length u32, crc32 u32.  The CRC
#: covers the kind byte *and* the payload — a flipped kind must fail
#: validation, not silently retag the entry.
_FRAME = struct.Struct("<BII")


def _frame_crc(kind: int, payload: bytes) -> int:
    return zlib.crc32(payload, zlib.crc32(bytes((kind,))))

K_DELIVER = 1  # a message reached its destination mailbox
K_INJECT = 2  # the fault injector applied a rule
K_CKPT = 3  # a checkpoint barrier completed (marker; data in ckpt file)
K_ABORT = 4  # the world aborted

KIND_NAMES = {K_DELIVER: "deliver", K_INJECT: "inject",
              K_CKPT: "ckpt", K_ABORT: "abort"}


class JournalError(VmpiError):
    """The journal directory is unusable (missing/corrupt manifest...)."""


class ReplayDivergence(JournalError):
    """A replayed run disagreed with its journal.

    Either the program/options differ from the recorded run, or
    determinism broke — both mean the replay's output cannot be
    trusted, so the replay aborts instead of finishing.
    """


def _digest(text: str) -> str:
    return hashlib.blake2s(text.encode("utf-8", "replace"),
                           digest_size=16).hexdigest()


def payload_digest(payload: Any) -> str:
    """Stable content digest of an arbitrary message payload.

    ``repr`` is deterministic for the payload types the virtual
    cluster carries (numbers, strings, tuples/lists of them, frozen
    dataclasses), which is what makes digest comparison a meaningful
    replay check.
    """
    return _digest(repr(payload))


def rank_wal_name(rank: int) -> str:
    return f"rank{rank:04d}.wal"


def checkpoint_name(index: int) -> str:
    return f"ckpt-{index:06d}.json"


# The journal's sidecars share the one atomic-JSON discipline in
# repro._util.fsio (tmp + fsync + rename).
_atomic_write_json = _atomic_write_json_impl

#: How long :meth:`Journal.replay` waits out a manifest that is mid-
#: atomic-replace (or on a laggy network filesystem) before declaring
#: the directory unusable.  One shared policy type (RetryPolicy), not a
#: private sleep loop.
MANIFEST_RETRY = RetryPolicy(deadline=0.25, initial=0.02, max_delay=0.1)


@dataclass(frozen=True)
class WalEntry:
    """One decoded journal frame."""

    kind: int
    data: dict

    @property
    def kind_name(self) -> str:
        return KIND_NAMES.get(self.kind, f"kind{self.kind}")


class _WalWriter:
    """Append-only framed writer for one WAL file."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh = open(path, "ab")
        self.entries = 0
        self.bytes = 0

    def append(self, kind: int, data: dict) -> int:
        if self._fh.closed:
            return 0
        payload = json.dumps(data, sort_keys=True,
                             separators=(",", ":")).encode("utf-8")
        self._fh.write(_FRAME.pack(kind, len(payload),
                                   _frame_crc(kind, payload)))
        self._fh.write(payload)
        self.entries += 1
        n = _FRAME.size + len(payload)
        self.bytes += n
        return n

    def sync(self) -> None:
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()


def read_wal(path: str) -> tuple[list[WalEntry], int]:
    """Load the longest valid prefix of a WAL file.

    Returns ``(entries, torn_bytes)`` — ``torn_bytes`` counts the tail
    the reader refused (torn frame, bad CRC, or undecodable payload).
    A kill mid-append therefore costs at most the entry being written.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return [], 0
    entries: list[WalEntry] = []
    pos = 0
    end = len(data)
    while pos < end:
        if pos + _FRAME.size > end:
            break
        kind, length, crc = _FRAME.unpack_from(data, pos)
        start = pos + _FRAME.size
        if start + length > end:
            break
        payload = data[start:start + length]
        if _frame_crc(kind, payload) != crc:
            break
        try:
            decoded = json.loads(payload)
        except ValueError:
            break
        entries.append(WalEntry(kind, decoded))
        pos = start + length
    return entries, end - pos


def default_checkpoint_probe(task: "Task") -> dict | None:
    """Digest whatever log buffer a rank carries (duck-typed MPE
    :class:`~repro.mpe.api.RankLog`); ``None`` for ranks without one."""
    log = task.locals.get("mpe")
    if log is None:
        return None
    content = repr((list(log.definitions), list(log.records),
                    list(log.sync_points)))
    return {"records": len(log.records), "digest": _digest(content)}


def manifest_for_engine(engine: "Engine", *, nprocs: int | None = None,
                        extra: dict | None = None) -> dict:
    """Everything an :class:`Engine` needs journaled to be rebuilt."""
    from repro.vmpi.faults import plan_to_dict

    manifest: dict[str, Any] = {
        "journal_version": JOURNAL_VERSION,
        "seed": engine.seed,
        "clock_resolution": engine.clock_resolution,
        "skews": {str(rank): {"offset": skew.offset, "drift": skew.drift}
                  for rank, skew in sorted(engine._skews.items())},
    }
    if nprocs is not None:
        manifest["nprocs"] = nprocs
    injector = engine.fault_injector
    if injector is not None:
        manifest["fault_plan"] = plan_to_dict(injector.plan)
    if extra:
        manifest.update(extra)
    return manifest


class RecordedEngine(NamedTuple):
    """The engine settings a manifest records (see
    :func:`engine_from_manifest`)."""

    seed: int
    clock_resolution: float
    skews: dict[int, ClockSkew]
    fault_plan: "FaultPlan | None"


def engine_from_manifest(manifest: dict) -> RecordedEngine:
    """Decode what :func:`manifest_for_engine` recorded: seed, clock
    resolution, per-rank skews and the fault plan (``None`` when the
    run had none)."""
    from repro.vmpi.faults import plan_from_dict

    plan = manifest.get("fault_plan")
    return RecordedEngine(
        seed=int(manifest.get("seed", 0)),
        clock_resolution=float(manifest.get("clock_resolution", 1e-8)),
        skews={int(rank): ClockSkew(offset=float(s.get("offset", 0.0)),
                                    drift=float(s.get("drift", 0.0)))
               for rank, s in manifest.get("skews", {}).items()},
        fault_plan=None if plan is None else plan_from_dict(plan))


class Journal:
    """One run's journal, in ``record`` or ``replay`` mode.

    Record mode appends every delivery/injection/abort as it happens
    and takes periodic checkpoints.  Replay mode holds the recorded
    history read-only and *verifies* the rerun against it; mismatches
    land in :attr:`divergences` and abort the engine.
    """

    def __init__(self, path: str, mode: str, manifest: dict, *,
                 checkpoint_interval: float = 0.0,
                 perf: PerfRecorder = NO_PERF) -> None:
        if mode not in ("record", "replay"):
            raise JournalError(f"mode must be 'record' or 'replay', "
                               f"got {mode!r}")
        self.path = path
        self.mode = mode
        self.manifest = manifest
        self.checkpoint_interval = checkpoint_interval
        self.perf = perf
        self.divergences: list[str] = []
        self._engine: "Engine | None" = None
        self._writers: dict[str, _WalWriter] = {}
        self._ckpt_index = 0
        # Replay state: the recorded history plus verification cursors.
        self._recorded_ranks: dict[int, list[WalEntry]] = {}
        self._recorded_world: list[WalEntry] = []
        self._recorded_ckpts: dict[int, dict] = {}
        self._cursors: dict[int, int] = {}
        self._inject_cursor = 0
        # Interval-barrier checkpoints only, in index order: the stream
        # a replay's own barrier ticks verify against.  Forced
        # checkpoints (watchdog checkpoint-and-stop) happen at fire
        # time, not at a barrier, so a resumed run never re-takes them.
        self._replay_ckpts: list[dict] = []
        self._ckpt_cursor = 0
        self._ckpt_times: list[float] = []
        self.torn_bytes = 0

    # -- construction -----------------------------------------------------

    @classmethod
    def record(cls, path: str, manifest: dict, *,
               checkpoint_interval: float = 0.01,
               perf: PerfRecorder = NO_PERF) -> "Journal":
        """Create/overwrite a journal directory and start recording."""
        os.makedirs(path, exist_ok=True)
        for name in os.listdir(path):
            if name.endswith((".wal", ".json", ".tmp")):
                os.unlink(os.path.join(path, name))
        journal = cls(path, "record", dict(manifest),
                      checkpoint_interval=checkpoint_interval, perf=perf)
        stored = dict(manifest)
        stored["checkpoint_interval"] = checkpoint_interval
        _atomic_write_json(os.path.join(path, MANIFEST_NAME), stored)
        journal.manifest = stored
        return journal

    @classmethod
    def replay(cls, path: str, *,
               perf: PerfRecorder = NO_PERF) -> "Journal":
        """Open an existing journal read-only, for verified replay.

        The manifest load runs under :data:`MANIFEST_RETRY`: a manifest
        caught mid-atomic-replace or behind a slow filesystem gets a few
        backed-off re-reads before the directory is declared unusable.
        A manifest that is *still* missing or corrupt at the deadline
        raises :class:`JournalError` exactly as before.
        """
        manifest_path = os.path.join(path, MANIFEST_NAME)

        def load() -> dict:
            with open(manifest_path) as fh:
                return json.load(fh)

        try:
            manifest = MANIFEST_RETRY.call(
                load, retry_on=(FileNotFoundError, ValueError),
                describe=f"loading {manifest_path}")
        except RetryError as exc:
            cause = exc.__cause__
            if isinstance(cause, FileNotFoundError):
                raise JournalError(f"{path}: no {MANIFEST_NAME} — not a "
                                   "journal directory") from None
            raise JournalError(
                f"{manifest_path}: corrupt manifest ({cause})") from None
        version = manifest.get("journal_version")
        if version != JOURNAL_VERSION:
            raise JournalError(
                f"{manifest_path}: journal_version {version!r}, but this "
                f"build reads only version {JOURNAL_VERSION}")
        journal = cls(path, "replay", manifest,
                      checkpoint_interval=float(
                          manifest.get("checkpoint_interval", 0.0)),
                      perf=perf)
        journal._load_recorded()
        return journal

    def _load_recorded(self) -> None:
        torn = 0
        for name in sorted(os.listdir(self.path)):
            full = os.path.join(self.path, name)
            if name == WORLD_WAL:
                self._recorded_world, t = read_wal(full)
                torn += t
            elif name.startswith("rank") and name.endswith(".wal"):
                rank = int(name[4:-4])
                self._recorded_ranks[rank], t = read_wal(full)
                torn += t
            elif name.startswith("ckpt-") and name.endswith(".json"):
                try:
                    with open(full) as fh:
                        ckpt = json.load(fh)
                except ValueError:
                    continue  # torn checkpoint: the rename never happened
                self._recorded_ckpts[int(ckpt["index"])] = ckpt
        self._replay_ckpts = [self._recorded_ckpts[i]
                              for i in sorted(self._recorded_ckpts)
                              if not self._recorded_ckpts[i].get("forced")]
        self.torn_bytes = torn

    # -- engine attachment ------------------------------------------------

    def attach(self, engine: "Engine") -> "Journal":
        """Install as ``engine.journal`` and arm the checkpoint barriers.

        Both modes schedule the *same* barrier events so the recorded
        and replayed heaps stay aligned event for event.
        """
        self._engine = engine
        engine.journal = self
        if self.checkpoint_interval > 0:
            engine.call_at(self.checkpoint_interval, self._checkpoint_tick)
        return self

    def _require_engine(self) -> "Engine":
        if self._engine is None:
            raise JournalError("journal is not attached to an engine")
        return self._engine

    # -- recording hooks (called by comm/faults/engine) --------------------

    def _rank_writer(self, rank: int) -> _WalWriter:
        name = rank_wal_name(rank)
        writer = self._writers.get(name)
        if writer is None:
            writer = self._writers[name] = _WalWriter(
                os.path.join(self.path, name))
        return writer

    def _world_writer(self) -> _WalWriter:
        writer = self._writers.get(WORLD_WAL)
        if writer is None:
            writer = self._writers[WORLD_WAL] = _WalWriter(
                os.path.join(self.path, WORLD_WAL))
        return writer

    def _append(self, writer: _WalWriter, kind: int, data: dict) -> None:
        with self.perf.stage("journal-append") as timer:
            n = writer.append(kind, data)
        timer.count(records=1, bytes=n)

    def on_deliver(self, msg: "Message", now: float, src: int,
                   dest: int) -> None:
        # src/dest are world ranks (msg's are communicator-local), so
        # sub-communicator traffic lands in the right rank's file and
        # (ctx, src, seq) names one send.
        entry = {"seq": msg.seq, "src": src, "dest": dest,
                 "ctx": msg.context, "tag": msg.tag, "t": now,
                 "nbytes": msg.nbytes,
                 "payload": payload_digest(msg.payload)}
        if self.mode == "replay":
            self._verify_delivery(entry, dest)
            return
        engine = self._engine
        if engine is not None and engine.aborted is not None:
            return  # post-abort drain deliveries are not part of the prefix
        self._append(self._rank_writer(dest), K_DELIVER, entry)

    def on_injection(self, injection: Any) -> None:
        entry = {"time": injection.time, "action": injection.action,
                 "rule_index": injection.rule_index, "src": injection.src,
                 "dest": injection.dest, "tag": injection.tag,
                 "seq": injection.seq, "detail": injection.detail}
        if self.mode == "replay":
            self._verify_injection(entry)
            return
        engine = self._engine
        if engine is not None and engine.aborted is not None:
            return
        self._append(self._world_writer(), K_INJECT, entry)

    def on_abort(self, errorcode: int, origin_rank: int, reason: str,
                 now: float) -> None:
        if self.mode == "replay":
            return
        self._append(self._world_writer(), K_ABORT,
                     {"errorcode": errorcode, "origin": origin_rank,
                      "reason": reason, "t": now})
        # The abort record is the journal's last word: make the whole
        # prefix durable while the process is still alive to do it.
        self.close()

    # -- checkpoints -------------------------------------------------------

    def _checkpoint_tick(self) -> None:
        from repro.vmpi.engine import TaskState

        engine = self._require_engine()
        if engine.aborted is not None:
            return
        tasks = engine.tasks.values()
        all_done = all(t.state is TaskState.DONE for t in tasks)
        if not all_done:
            self._take_checkpoint()
            if engine._heap:
                # Only re-arm while the run is actually moving: an empty
                # heap here means the engine is about to stall (or
                # finish), and a barrier event must not mask that.
                engine.call_at(engine.now + self.checkpoint_interval,
                               self._checkpoint_tick)

    def _take_checkpoint(self, forced: bool = False) -> None:
        """Take one checkpoint now.

        ``forced=True`` marks an out-of-band checkpoint (the watchdog's
        checkpoint-and-stop) taken at fire time rather than at an
        interval barrier; replay verification skips it, because a
        resumed run — which by design does not stop there again —
        never re-takes it.
        """
        engine = self._require_engine()
        self._ckpt_index += 1
        index = self._ckpt_index
        ranks: dict[str, dict | None] = {}
        for rank, task in sorted(engine.tasks.items()):
            ranks[str(rank)] = default_checkpoint_probe(task)
        data = {"index": index, "t": engine.now, "ranks": ranks}
        if forced:
            data["forced"] = True
        if self.mode == "replay":
            self._verify_checkpoint(data)
            return
        with self.perf.stage("checkpoint-write") as timer:
            self._write_checkpoint(index, data)
        timer.count(records=1)
        if engine.msglog is not None:
            # The checkpoint barrier is the send-log GC point: the
            # durable prefix it certifies is exactly what makes older
            # retained payloads reclaimable.
            engine.msglog.gc()

    def _write_checkpoint(self, index: int, data: dict) -> None:
        # WALs first (write-ahead: the checkpoint certifies them), then
        # the checkpoint file, atomically.
        self._ckpt_times.append(float(data["t"]))
        for writer in self._writers.values():
            writer.sync()
        _atomic_write_json(os.path.join(self.path, checkpoint_name(index)),
                           data)
        marker = {"index": index, "t": data["t"]}
        if data.get("forced"):
            marker["forced"] = True
        self._append(self._world_writer(), K_CKPT, marker)

    # -- replay verification ----------------------------------------------

    def _diverge(self, message: str) -> None:
        self.divergences.append(message)
        engine = self._engine
        if engine is not None and engine.aborted is None:
            engine.abort(96, -1, f"replay divergence: {message}")

    def _verify_delivery(self, entry: dict, dest: int) -> None:
        self.perf.count("replay-verify", records=1)
        cursor = self._cursors.get(dest, 0)
        recorded = self._recorded_ranks.get(dest, ())
        if cursor >= len(recorded):
            return  # past the journaled prefix: this is the new suffix
        self._cursors[dest] = cursor + 1
        expected = recorded[cursor].data
        if expected != entry:
            diff = {k: (expected.get(k), entry.get(k))
                    for k in sorted(set(expected) | set(entry))
                    if expected.get(k) != entry.get(k)}
            self._diverge(
                f"delivery #{cursor} to rank {dest} does not match the "
                f"journal: {diff}")

    def _verify_injection(self, entry: dict) -> None:
        recorded = self._recorded_world
        cursor = self._inject_cursor
        # Crash injections are suppressed during replay; skip their
        # journal entries so the streams stay aligned.
        while cursor < len(recorded) and (
                recorded[cursor].kind != K_INJECT
                or recorded[cursor].data.get("action") == "crash"):
            cursor += 1
        if cursor >= len(recorded):
            self._inject_cursor = cursor
            return
        expected = recorded[cursor].data
        self._inject_cursor = cursor + 1
        if expected != entry:
            self._diverge(
                f"injection does not match the journal: expected "
                f"{expected}, replayed {entry}")

    def _verify_checkpoint(self, data: dict) -> None:
        # Match barrier checkpoints by order, not by stored index: a
        # forced (checkpoint-and-stop) checkpoint in the recording
        # consumes an index without consuming a barrier, and the replay
        # does not re-take it.
        cursor = self._ckpt_cursor
        if cursor >= len(self._replay_ckpts):
            return  # past the last durable checkpoint: new territory
        stored = self._replay_ckpts[cursor]
        self._ckpt_cursor = cursor + 1
        if stored.get("t") != data["t"]:
            self._diverge(
                f"checkpoint {stored['index']} barrier moved: recorded at "
                f"t={stored.get('t')!r}, replayed at t={data['t']!r}")
            return
        for rank, probe in data["ranks"].items():
            want = stored.get("ranks", {}).get(rank)
            if want != probe:
                self._diverge(
                    f"checkpoint {stored['index']}: rank {rank} buffer "
                    f"digest mismatch (recorded {want}, replayed {probe})")

    # -- reading / lifecycle ----------------------------------------------

    @property
    def last_checkpoint(self) -> dict | None:
        """The newest durable checkpoint, or None."""
        if not self._recorded_ckpts:
            return None
        return self._recorded_ckpts[max(self._recorded_ckpts)]

    def checkpoint_times(self) -> list[float]:
        """Virtual times of checkpoint barriers — recorded ones in
        replay mode, ones taken so far in record mode.  Feed these to
        the Jumpshot renderers' ``checkpoints=`` option."""
        if self.mode == "replay":
            return sorted(float(c["t"])
                          for c in self._recorded_ckpts.values())
        return list(self._ckpt_times)

    def replay_boundary(self) -> float | None:
        """Virtual time where the journaled delivery prefix ends.

        Everything before it a resumed run *verified* against the
        journal; everything after it was regenerated.  Feed to the
        renderers' ``replay_boundary=`` option.  None when the journal
        holds no deliveries (or in record mode before any were logged).
        """
        times = [e.data["t"]
                 for entries in self._recorded_ranks.values()
                 for e in entries if e.kind == K_DELIVER]
        return max(times) if times else None

    def recorded_deliveries(self, rank: int) -> list[dict]:
        return [e.data for e in self._recorded_ranks.get(rank, ())
                if e.kind == K_DELIVER]

    def recorded_injections(self) -> list[dict]:
        return [e.data for e in self._recorded_world if e.kind == K_INJECT]

    def recorded_abort(self) -> dict | None:
        for e in reversed(self._recorded_world):
            if e.kind == K_ABORT:
                return e.data
        return None

    def check(self) -> None:
        """Raise :class:`ReplayDivergence` if the replay disagreed."""
        if self.divergences:
            raise ReplayDivergence("; ".join(self.divergences))

    def close(self) -> None:
        for writer in self._writers.values():
            writer.close()

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
