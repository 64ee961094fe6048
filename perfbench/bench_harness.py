"""Shared pieces of the benchmark: statistics, output checks, closed loop.

Nothing here imports the program under test, so the self-tests can
exercise these rules without building a workload.
"""

from __future__ import annotations

import gc
import math
import re
import statistics
import struct
import time
from dataclasses import dataclass, field
from typing import Callable

#: Metric names: a letter or digit first, then letters, digits, ``_``,
#: ``.`` and ``-``; at most 64 characters.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
#: Units: letters, digits, ``_``, ``/``, ``%``, ``.`` and ``-``; at most 16.
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10


def p50(values: list[float]) -> float:
    """Median of a non-empty sample."""
    return statistics.median(values)


def tail(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples beyond it.

    Returns ``(percentile, value)`` using nearest-rank percentiles, or
    ``None`` when there are too few samples (fewer than eleven) for any
    percentile to leave ten beyond it.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        return None
    ordered = sorted(values)
    pct = (100 * (n - TAIL_BEYOND)) // n
    index = max(0, math.ceil(pct * n / 100) - 1)
    return pct, ordered[index]


def reset_peak_rss() -> bool:
    """Start a new peak-resident-set window for this process.

    Linux resets ``VmHWM`` to the current resident set when ``5`` is
    written to ``/proc/self/clear_refs``.  Returns False where that is
    not possible.
    """
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        return False
    return True


def memory_mb() -> dict[str, float]:
    """``VmRSS`` (resident now) and ``VmHWM`` (peak since the last
    reset) of this process in MB, or ``{}`` without ``/proc``."""
    out: dict[str, float] = {}
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                key, _, rest = line.partition(":")
                if key in ("VmRSS", "VmHWM"):
                    out[key] = int(rest.split()[0]) * 1024 / 1e6  # kB
    except OSError:
        return {}
    return out


@dataclass
class Checker:
    """Counts operations and the ones whose output was wrong.

    A wrong output never raises: it is counted in ``failed`` and its
    reason kept, so ``error_rate`` reports it instead of the run dying.
    """

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def op(self, label: str, problems: list[str]) -> bool:
        """Account one operation; ``problems`` lists what was wrong."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{label}: " + "; ".join(problems))
            return False
        return True

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def expect(problems: list[str], what: str, got: object,
           want: object) -> None:
    """Append a mismatch to ``problems`` unless ``got == want``."""
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


#: Items the host-speed reference decodes, sorts, groups and formats.
_REF_ITEMS = 30_000
_REF_BUF = struct.pack(f"<{_REF_ITEMS}d",
                       *(i * 0.618034 % 1.0 for i in range(_REF_ITEMS)))
#: Seconds the reference takes at nominal host speed.  The host it was
#: set on (a shared 2-CPU x86-64 VM) took 23-43 ms, median 37 ms, as
#: its neighbours' load came and went.
REF_NOMINAL_S = 0.030


class _RefItem:
    __slots__ = ("t", "dur", "key")

    def __init__(self, t: float, dur: float, key: int) -> None:
        self.t = t
        self.dur = dur
        self.key = key


def reference_s() -> float:
    """Seconds one fixed pass of pure-Python work takes right now.

    The pass does what the program's post-mortem pipeline does (decode
    packed doubles, build small objects, sort, group by key, format
    SVG-like text) on data that never changes, so on a quiet host it
    takes the same time on every call; the collector is off during it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        values = struct.unpack_from(f"<{_REF_ITEMS}d", _REF_BUF)
        items = [_RefItem(v, v * 2.0, i % 97) for i, v in enumerate(values)]
        items.sort(key=lambda it: it.t)
        groups: dict[int, list[_RefItem]] = {}
        for it in items:
            groups.setdefault(it.key, []).append(it)
        text = "".join(f'<rect x="{it.t:.3f}" width="{it.dur:.3f}"/>'
                       for it in items[:_REF_ITEMS // 2])
        elapsed = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    assert len(groups) == 97 and text
    return elapsed


def speed_adjusted(walls: list[float], refs: list[float]) -> list[float]:
    """Each op's wall time at nominal host speed.

    ``refs[i]`` and ``refs[i + 1]`` are the reference timed just before
    and just after op ``i``; the op is scaled by ``REF_NOMINAL_S`` over
    their mean.  A program change moves the op and not the reference,
    so it moves the result by the same share as the wall time.
    """
    if len(refs) != len(walls) + 1:
        raise ValueError(f"{len(walls)} ops need {len(walls) + 1} "
                         f"reference times, got {len(refs)}")
    return [wall * REF_NOMINAL_S / ((refs[i] + refs[i + 1]) / 2)
            for i, wall in enumerate(walls)]


def closed_loop(seconds: float, op: Callable[[], None], *,
                min_ops: int = 3) -> list[float]:
    """Run ``op`` back to back until ``seconds`` have passed and at
    least ``min_ops`` ran.

    Returns the host-speed reference (:func:`reference_s`) timed before
    the first op, between each two, and after the last: one more time
    than ops ran, as :func:`speed_adjusted` takes them.
    """
    start = time.perf_counter()
    refs = [reference_s()]
    done = 0
    while done < min_ops or time.perf_counter() - start < seconds:
        op()
        refs.append(reference_s())
        done += 1
    return refs


def union_seconds(intervals: list[tuple[float, float]], lo: float,
                  hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total
