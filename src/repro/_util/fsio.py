"""Durable small-file I/O helpers.

The journal, the stream service's resume cursors and every other
"small sidecar of JSON state" share one write discipline: serialise to
a temp file, fsync, rename.  A reader therefore sees either the old
complete contents or the new complete contents — never a torn mix —
which is what lets crash-recovery code trust these files at all.

The module also carries the one in-process "file written" signal.
:func:`notify_written` is raised by the writers a live follower reads
(a salvage partial's checkpoint and :func:`atomic_write_json`); a
reader in the same process that registered the exact path with
:func:`watch_writes` has its event set at once, instead of finding the
bytes on its next timed poll.  A writer in another process raises
nothing, so a reader keeps polling as well.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Iterable

#: Absolute path -> the events to set when it is written.  Each value
#: is a tuple replaced whole under the lock, so :func:`notify_written`
#: reads it without one.
_watchers: dict[str, tuple[threading.Event, ...]] = {}
_watchers_lock = threading.Lock()


def watch_writes(event: threading.Event, paths: Iterable[str]) -> None:
    """Set ``event`` whenever one of ``paths`` (exact paths, no
    prefixes) is written in this process."""
    with _watchers_lock:
        for path in paths:
            key = os.path.abspath(path)
            events = _watchers.get(key, ())
            if event not in events:
                _watchers[key] = (*events, event)


def unwatch_writes(event: threading.Event) -> None:
    """Stop setting ``event`` for every path it watches."""
    with _watchers_lock:
        for key, events in list(_watchers.items()):
            if event in events:
                rest = tuple(e for e in events if e is not event)
                if rest:
                    _watchers[key] = rest
                else:
                    del _watchers[key]


def notify_written(path: str) -> None:
    """``path`` was just written: wake whoever watches it."""
    if not _watchers:
        return
    for event in _watchers.get(os.path.abspath(path), ()):
        event.set()


def atomic_write_json(path: str, data: dict) -> None:
    """Write ``data`` as indented JSON via the tmp+fsync+rename dance."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    notify_written(path)


def read_json(path: str) -> dict | None:
    """Load a JSON sidecar; ``None`` when absent.  Raises ValueError on
    corrupt contents (the atomic writer never produces them, so damage
    means something else wrote here)."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        return None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return data
