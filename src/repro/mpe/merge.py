"""Heap-based k-way merge of per-rank record streams.

The pipeline's merge step — both the in-run ``MPE_Finish_log`` gather
(:meth:`repro.mpe.api.MpeLogger.finish_log`) and the post-mortem
partial salvage (:func:`repro.mpe.salvage.merge_partial_logs`) — used
to concatenate every rank's corrected records into one list and sort
it globally.  This module replaces that with the classic external-merge
shape: each rank's buffer is corrected onto the reference timebase and
kept (or made) time-sorted, then the per-rank streams are merged with
a k-entry heap, O(N log k) instead of O(N log N).

Output-order equivalence with the old global sort is a tested
contract.  The old code appended ``(t, rank, record)`` tuples in rank
order then stable-sorted by ``(t, rank)``; here each per-rank stream
is sorted by ``t`` with buffer order preserved on ties (rank is
constant within a stream, so that *is* ``(t, rank)`` order), and
:func:`heapq.merge` interleaves them.  Keys can only collide within
one stream — no two streams share a rank — so the merged sequence is
exactly the old one.

Merge tuples carry the *original* record object next to its corrected
timestamp; no record is rebuilt inside the merge itself.  Consumers
that only need field values — above all the CLOG2 writer, which packs
the corrected time straight into the output file
(:func:`repro.mpe.clog2.write_items` takes merge tuples as its items) —
never pay for new objects at all.  Consumers that need real corrected
record objects go through :func:`merged_records`, which rebuilds one
only when the correction actually moved its timestamp.

Rank buffers are normally time-sorted already (a rank's clock is
monotonic and the correction model is monotone); :func:`rank_stream`
verifies that while correcting, and only falls back to a stable
per-rank sort when skew or chaos has actually broken monotonicity.
"""

from __future__ import annotations

import heapq
from operator import itemgetter
from typing import Iterable, Iterator

from repro.mpe.clocksync import CorrectionModel, SyncPoint
from repro.mpe.records import Definition, LogRecord, definition_key

#: One merge item: (corrected time, rank, original record).
MergeItem = "tuple[float, int, LogRecord]"

_TIME_KEY = itemgetter(0)


def rank_stream(rank: int, records: Iterable[LogRecord],
                sync_points: "list[SyncPoint] | CorrectionModel"
                ) -> list[tuple[float, int, LogRecord]]:
    """One rank's records as ``(corrected time, rank, record)`` tuples
    sorted by corrected time (buffer order kept on ties).

    The record element is the *original* object — the corrected time
    lives only in the tuple.  Use :func:`merged_records` when corrected
    record objects are needed downstream.
    """
    model = (sync_points if isinstance(sync_points, CorrectionModel)
             else CorrectionModel(sync_points))
    pts = model.points
    if not pts:
        # Identity correction.  The trailing sort is adaptive
        # (Timsort): on the usual, already monotone buffer it is a
        # single linear verification pass.
        items = [(rec.timestamp, rank, rec) for rec in records]
        items.sort(key=_TIME_KEY)  # stable: buffer order survives ties
        return items
    items: list[tuple[float, int, LogRecord]] = []
    append = items.append
    prev = float("-inf")
    monotone = True
    if len(pts) == 1:
        # Constant offset: CorrectionModel.correct with one point.
        off0 = pts[0].offset
        for rec in records:
            t = rec.timestamp - off0
            if t < prev:
                monotone = False
            prev = t
            append((t, rank, rec))
        if not monotone:
            items.sort(key=_TIME_KEY)
        return items
    # >= 2 sync points: the correction is piecewise linear, and the
    # buffer is in local-clock order, so the active segment only ever
    # advances — walk it inline instead of calling model.correct()
    # (bisect + attribute walks) once per record.  The arithmetic below
    # mirrors CorrectionModel.correct operation for operation; the
    # corrected timestamps must be bit-identical, they end up packed
    # into the merged CLOG2 file.
    locs = [p.local_time for p in pts]
    offs = [p.offset for p in pts]
    t_first, t_last = locs[0], locs[-1]
    off0 = offs[0]
    last = len(pts) - 1
    i = 1
    for rec in records:
        lt = rec.timestamp
        if lt <= t_first:
            t = lt - off0
        else:
            if lt >= t_last:
                a = last - 1  # extrapolate with the last segment
            else:
                if lt < locs[i - 1]:
                    i = 1  # buffer went backwards: restart the walk
                while locs[i] <= lt:
                    i += 1
                a = i - 1
            a_loc, b_loc = locs[a], locs[a + 1]
            a_off, b_off = offs[a], offs[a + 1]
            span = b_loc - a_loc
            if span <= 0:
                t = lt - b_off
            else:
                t = lt - (a_off + (lt - a_loc) / span * (b_off - a_off))
        if t < prev:
            monotone = False
        prev = t
        append((t, rank, rec))
    if not monotone:
        items.sort(key=_TIME_KEY)  # stable: buffer order survives ties
    return items


def merge_rank_streams(streams: "Iterable[Iterable[tuple[float, int, LogRecord]]]"
                       ) -> "Iterator[tuple[float, int, LogRecord]]":
    """k-way merge of per-rank streams by ``(t, rank)``.

    Equivalent to concatenating the streams in rank order and
    stable-sorting the whole thing by ``(t, rank)`` — see the module
    docstring for the argument.

    No ``key=`` is passed: the items are already ``(t, rank, record)``
    tuples, and comparison can never reach the record element because
    the merge only ever compares heads of *different* streams, whose
    ranks differ.  Plain tuple comparison is therefore exactly the
    ``(t, rank)`` order, minus a per-item key call.
    """
    return heapq.merge(*streams)


def merged_records(streams: "Iterable[Iterable[tuple[float, int, LogRecord]]]"
                   ) -> Iterator[LogRecord]:
    """The merged sequence as corrected record objects.

    A record is rebuilt (via ``object.__new__`` — the frozen-dataclass
    constructor's per-field ``object.__setattr__`` calls are the cost
    that matters here) only when the correction actually moved its
    timestamp; identity-corrected records pass through unchanged.
    """
    new = object.__new__
    for t, _rank, rec in merge_rank_streams(streams):
        if rec.timestamp == t:
            yield rec
        else:
            fixed = new(type(rec))
            d = fixed.__dict__
            d.update(rec.__dict__)
            d["timestamp"] = t
            yield fixed


def dedup_definitions(groups: Iterable[Iterable[Definition]]
                      ) -> list[Definition]:
    """First-seen definition per :func:`definition_key` across all
    ranks, in encounter order — ranks make identical definition calls,
    so duplicates are the norm."""
    seen: set[tuple] = set()
    out: list[Definition] = []
    for defs in groups:
        for d in defs:
            key = definition_key(d)
            if key not in seen:
                seen.add(key)
                out.append(d)
    return out
