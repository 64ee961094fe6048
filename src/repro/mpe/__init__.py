"""``repro.mpe`` — MPE-style logging over the virtual MPI substrate.

Reproduces the Multi-Processing Environment facilities the paper adapts
(Section II.A / III): state and solo-event logging with names, colours
and 40-byte texts; send/receive records that become message arrows;
clock synchronisation against drift; and the merge-at-finalize step
that writes a single CLOG2 file — which is *lost* if the job aborts,
exactly as the paper laments.
"""

from repro.mpe.api import MergeReport, MpeLogger, MpeOptions, RankLog
from repro.mpe.clocksync import CorrectionModel, SyncPoint, sync_clocks
from repro.mpe.clog2 import (
    Clog2ChecksumError,
    Clog2File,
    Clog2ReadResult,
    Clog2FormatError,
    read_log,
    write_clog2,
)
from repro.mpe.fsck import FsckIssue, FsckReport, fsck_path
from repro.mpe.recovery import DroppedRange, RecoveryReport
from repro.mpe.salvage import (
    MergeResult,
    PartialReadResult,
    merge_partial_logs,
    read_partial_log,
)
from repro.mpe.records import (
    RECV,
    SEND,
    TEXT_LIMIT,
    BareEvent,
    EventDef,
    MsgEvent,
    RankName,
    StateDef,
    definition_key,
)

__all__ = [
    "RECV",
    "SEND",
    "TEXT_LIMIT",
    "BareEvent",
    "Clog2ChecksumError",
    "Clog2File",
    "Clog2FormatError",
    "Clog2ReadResult",
    "CorrectionModel",
    "DroppedRange",
    "EventDef",
    "FsckIssue",
    "FsckReport",
    "MergeReport",
    "MergeResult",
    "MpeLogger",
    "MpeOptions",
    "MsgEvent",
    "PartialReadResult",
    "RankLog",
    "RankName",
    "RecoveryReport",
    "StateDef",
    "SyncPoint",
    "definition_key",
    "fsck_path",
    "merge_partial_logs",
    "read_log",
    "read_partial_log",
    "sync_clocks",
    "write_clog2",
]
