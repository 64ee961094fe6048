"""Resume cursors: the stream service's own crash recovery.

The follower persists, per rank, the byte offset of the last *clean*
frontier it consumed (whole items in version-1 terms, whole CRC-valid
chunks in the partial layout) plus how many records it has
already handed downstream.  The sidecar is written with the shared
atomic-JSON discipline (:func:`repro._util.fsio.atomic_write_json`),
so a service killed mid-save leaves either the old cursors or the new
— never a torn file.  On restart the follower re-attaches at the
recorded offsets and the emitted-record counts guarantee nothing is
handed downstream twice.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field

from repro._util.fsio import read_json

#: Sidecar naming convention: ``<mpe base path>.cursors.json``.
CURSORS_SUFFIX = ".cursors.json"

_FORMAT_VERSION = 1


def cursors_path(base_path: str) -> str:
    return base_path + CURSORS_SUFFIX


@dataclass
class RankCursor:
    """Follow state for one rank's partial file."""

    path: str
    offset: int = 0  # first unconsumed byte
    records: int = 0  # records handed downstream from this rank
    syncs: int = 0  # sync points handed downstream
    torn_bytes: int = 0  # bytes held at the tail on the last poll
    frontier: float = 0.0  # max record timestamp seen from this rank


@dataclass
class StreamCursors:
    """The whole sidecar: per-rank cursors plus run-level marks."""

    base_path: str
    ranks: dict[int, RankCursor] = field(default_factory=dict)
    finalized: bool = False
    degraded: bool = False
    reason: str = ""

    def total_records(self) -> int:
        return sum(c.records for c in self.ranks.values())

    def to_json(self) -> dict:
        """The sidecar's contents, as :meth:`load` reads them back."""
        return {
            "version": _FORMAT_VERSION,
            "base_path": os.path.basename(self.base_path),
            "finalized": self.finalized,
            "degraded": self.degraded,
            "reason": self.reason,
            "ranks": {str(rank): asdict(cur)
                      for rank, cur in sorted(self.ranks.items())},
        }

    @classmethod
    def load(cls, path: str, base_path: str) -> "StreamCursors | None":
        """Load the sidecar; ``None`` when absent, unreadable, or
        written for a different run (the base name is recorded so stale
        cursors from an unrelated log cannot poison a new attach)."""
        try:
            data = read_json(path)
        except ValueError:
            return None
        if data is None or data.get("version") != _FORMAT_VERSION:
            return None
        if data.get("base_path") != os.path.basename(base_path):
            return None
        cursors = cls(base_path=base_path,
                      finalized=bool(data.get("finalized", False)),
                      degraded=bool(data.get("degraded", False)),
                      reason=str(data.get("reason", "")))
        for key, raw in (data.get("ranks") or {}).items():
            try:
                rank = int(key)
                cursors.ranks[rank] = RankCursor(
                    path=str(raw["path"]),
                    offset=int(raw.get("offset", 0)),
                    records=int(raw.get("records", 0)),
                    syncs=int(raw.get("syncs", 0)),
                    torn_bytes=int(raw.get("torn_bytes", 0)),
                    frontier=float(raw.get("frontier", 0.0)))
            except (KeyError, TypeError, ValueError):
                return None  # damaged entry: safer to re-attach from scratch
        return cursors
