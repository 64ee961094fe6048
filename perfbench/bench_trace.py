"""Spans recorded from the benchmark's side of each layer boundary.

The traced run patches a few public entry points of the program (class
and module attributes) with wrappers that time each call, and opens
spans around the calls the benchmark itself makes into a layer.  Spans
go into a per-thread list (no lock on the hot path) and are collected
only after an operation ends, outside its timed window.  Nothing in
``src/`` is changed, and the wrappers only read the clock, so virtual
time, engine counts and log bytes stay those of the untraced run.

The wrappers are named functions built by :func:`_make_wrapper`, never
lambdas: on the coroutine scheduler the weaver rewrites them like any
rank code, so a wrapped blocking call (``Communicator.wait_any``)
still suspends its rank instead of failing with ``EngineError``.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Iterator


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    thread: int
    value: Any = None  # what the call handled (records, bytes, ...)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from every thread; patches and restores entry points."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[list[Span]] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _buffer(self) -> list[Span]:
        buf = getattr(self._local, "spans", None)
        if buf is None:
            buf = self._local.spans = []
            with self._lock:
                self._buffers.append(buf)
        return buf

    def record(self, name: str, start: float, end: float,
               value: Any = None) -> None:
        self._buffer().append(
            Span(name, start, end, threading.get_ident(), value))

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[dict]:
        """Span around a call the benchmark makes; the yielded dict's
        ``value`` key, if set, is stored on the span."""
        box: dict = {}
        start = time.perf_counter()
        try:
            yield box
        finally:
            self.record(name, start, time.perf_counter(), box.get("value"))

    def drain(self) -> list[Span]:
        """Take every span recorded so far, from all threads."""
        with self._lock:
            buffers = list(self._buffers)
        out: list[Span] = []
        for buf in buffers:
            # Only the prefix seen here is taken; spans another thread
            # appends meanwhile stay for the next drain.
            taken = len(buf)
            out.extend(buf[:taken])
            del buf[:taken]
        out.sort(key=lambda s: s.start)
        return out

    # -- patching ----------------------------------------------------------

    def patch(self, owner: Any, attr: str, name: str,
              measure: Callable[[Any], Any] | None = None) -> None:
        """Replace ``owner.attr`` with a timing wrapper until
        :meth:`restore`; ``measure(result)`` becomes the span's value."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, _make_wrapper(self.record, name, original,
                                           measure))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _make_wrapper(record: Callable[..., None], name: str,
                  original: Callable[..., Any],
                  measure: Callable[[Any], Any] | None) -> Callable[..., Any]:
    clock = time.perf_counter

    def traced_call(*args: Any, **kwargs: Any) -> Any:
        start = clock()
        try:
            result = original(*args, **kwargs)
        except BaseException:
            record(name, start, clock())
            raise
        end = clock()
        record(name, start, end,
               None if measure is None else measure(result))
        return result

    # No ``__wrapped__``: the weaver reads this function's own source,
    # and inspect would follow that attribute to the original's.
    return traced_call


def pilot_hook_class() -> type:
    """A :class:`repro.pilot.hooks.PilotHooks` subclass that stamps the
    phase boundaries and counts API calls (built lazily so this module
    imports without the program)."""
    from repro.pilot.hooks import PilotHooks

    class PhaseHook(PilotHooks):
        """Wall-clock phase stamps and per-call counts for one run."""

        def __init__(self) -> None:
            self.calls: Counter = Counter()
            self.startall_last = 0.0
            self.stopmain_at = 0.0

        def on_configure(self, rank: int, callsite: Any) -> None:
            self.calls["PI_Configure"] += 1

        def on_startall(self, rank: int, callsite: Any) -> None:
            self.calls["PI_StartAll"] += 1
            self.startall_last = max(self.startall_last, time.perf_counter())

        def on_stopmain(self, rank: int, callsite: Any) -> None:
            # Workers report the end of their work function here too;
            # only PI_MAIN (rank 0) calls PI_StopMain.
            if rank == 0:
                self.calls["PI_StopMain"] += 1
                self.stopmain_at = time.perf_counter()

        def on_call_begin(self, call: Any) -> None:
            self.calls[call.name] += 1

        def on_solo(self, name: str, rank: int, text: str,
                    callsite: Any) -> None:
            self.calls[name] += 1

    return PhaseHook
