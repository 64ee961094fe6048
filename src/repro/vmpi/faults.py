"""Seeded, deterministic fault injection for the virtual cluster.

A log pipeline is only trustworthy if it has been exercised under the
failures it claims to survive.  The paper's stated future work
(Section V) is exactly such a failure — the MPE log lost to an abort —
and the salvage machinery in :mod:`repro.mpe.salvage` reproduces the
fix.  This module provides the other half: a way to *provoke* failures
on demand, repeatably, so every downstream layer (CLOG2 readers, the
``clog2TOslog2`` converter, the Jumpshot renderers) can be tested
against the artifacts failures actually leave behind.

Design requirements:

* **Declarative.**  A :class:`FaultPlan` is a seed plus a list of
  frozen rule dataclasses.  Plans are data: they can be printed,
  compared, stored in a test matrix, and re-run.
* **Deterministic.**  All randomness (probabilistic rules, jitter,
  generated clock skew) is drawn from streams derived from the plan
  seed.  Because the engine itself is deterministic, two runs of the
  same program under the same plan make identical decisions — byte-
  identical logs, identical injection records.
* **Layered at delivery.**  Message faults hook the send path
  (:meth:`repro.vmpi.comm.Communicator.isend` routes scheduled
  deliveries through the engine's installed injector), so the Pilot
  and MPE layers above need no knowledge of the injector to be
  subjected to it.

Fault kinds:

``MessageFault``
    delay (fixed + seeded jitter), drop, duplicate, payload
    corruption, and reorder (hold a message until the next one on the
    same src->dest lane overtakes it) — matched by src/dest/tag/time
    window, gated by probability and an optional max count.  Internal
    protocol traffic (collectives, MPE merge, Pilot service feed) is
    exempt unless a rule opts in.
``CrashFault``
    tear the world down MPI_Abort-style from a chosen rank at a chosen
    virtual time — the scenario that loses MPE logs.
``ClockFault``
    per-rank clock offset/drift, fixed or seeded within a jitter
    bound, feeding :class:`repro.vmpi.clock.ClockSkew`.

Typical use::

    plan = FaultPlan(seed=7, rules=[
        MessageFault("delay", delay=2e-4, jitter=1e-4, probability=0.3),
        CrashFault(rank=2, at=0.05, reason="injected rank failure"),
    ])
    result = run_pilot(main, 4, argv=("-pisvc=j",),
                       config=PilotConfig(faults=plan))
    for inj in result.vmpi.engine.fault_injector.injections:
        print(inj)
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.vmpi.clock import ClockSkew
from repro.vmpi.comm import INTERNAL_TAG_BASE, Message
from repro.vmpi.errors import VmpiError

if TYPE_CHECKING:  # pragma: no cover
    from repro.vmpi.comm import Communicator
    from repro.vmpi.engine import Engine

MESSAGE_ACTIONS = ("delay", "drop", "duplicate", "corrupt", "reorder")


class FaultPlanError(VmpiError):
    """A fault plan is malformed (unknown action, bad parameters)."""


@dataclass(frozen=True)
class MessageFault:
    """One declarative message-fault rule.

    ``src``/``dest``/``tag`` of ``None`` match anything; times are true
    virtual seconds and bound the *send* time.  ``probability`` gates
    each matching message through the plan's seeded RNG; ``max_count``
    retires the rule after that many injections.  ``delay`` plus a
    uniform draw from ``[0, jitter]`` is the extra flight time for
    ``delay`` and the lag of the duplicate copy for ``duplicate``;
    for ``reorder`` ``max_hold`` caps how long a message waits for a
    successor to overtake it before being released anyway.
    """

    action: str
    src: int | None = None
    dest: int | None = None
    tag: int | None = None
    after: float = 0.0
    before: float = math.inf
    probability: float = 1.0
    max_count: int | None = None
    delay: float = 0.0
    jitter: float = 0.0
    max_hold: float = 1e-3
    include_internal: bool = False

    def __post_init__(self) -> None:
        if self.action not in MESSAGE_ACTIONS:
            raise FaultPlanError(
                f"unknown message fault action {self.action!r}; "
                f"expected one of {MESSAGE_ACTIONS}")
        if not 0.0 <= self.probability <= 1.0:
            raise FaultPlanError(
                f"probability must be in [0, 1], got {self.probability}")
        if self.delay < 0 or self.jitter < 0 or self.max_hold <= 0:
            raise FaultPlanError(
                "delay/jitter must be >= 0 and max_hold > 0 "
                f"(got delay={self.delay}, jitter={self.jitter}, "
                f"max_hold={self.max_hold})")

    def matches(self, msg: Message, now: float) -> bool:
        if not self.include_internal and msg.tag >= INTERNAL_TAG_BASE:
            return False
        if self.src is not None and msg.src != self.src:
            return False
        if self.dest is not None and msg.dest != self.dest:
            return False
        if self.tag is not None and msg.tag != self.tag:
            return False
        return self.after <= now <= self.before


@dataclass(frozen=True)
class CrashFault:
    """Kill the job from ``rank`` at virtual time ``at`` (MPI_Abort
    semantics: one rank dying takes the world down, as mpirun would).

    ``recover`` selects what happens when the engine has a message
    logger attached (``-pirecover=msglog``): ``None`` defers to the
    run-level setting, ``"msglog"`` opts this crash into localized
    sender-based replay, and ``"never"`` forces the legacy
    world-killing abort even when recovery is available.
    """

    rank: int
    at: float
    errorcode: int = 134  # SIGABRT-flavoured, distinguishable from user aborts
    reason: str = ""
    recover: str | None = None

    def __post_init__(self) -> None:
        if self.at < 0:
            raise FaultPlanError(f"crash time must be >= 0, got {self.at}")
        if self.recover not in (None, "msglog", "never"):
            raise FaultPlanError(
                f"recover must be None, 'msglog' or 'never', "
                f"got {self.recover!r}")


@dataclass(frozen=True)
class ClockFault:
    """Give ``rank`` an imperfect clock.

    Fixed ``offset``/``drift`` are applied as-is; ``offset_jitter`` and
    ``drift_jitter`` add a symmetric uniform draw from the plan's
    seeded per-rank stream, so a matrix of chaos runs can skew every
    rank differently without enumerating values.
    """

    rank: int
    offset: float = 0.0
    drift: float = 0.0
    offset_jitter: float = 0.0
    drift_jitter: float = 0.0


@dataclass(frozen=True)
class Injection:
    """One fault the injector actually applied (the replay record)."""

    time: float
    action: str
    rule_index: int
    src: int = -1
    dest: int = -1
    tag: int = -1
    seq: int = -1
    detail: str = ""

    def __str__(self) -> str:
        where = (f" {self.src}->{self.dest} tag={self.tag} seq={self.seq}"
                 if self.seq >= 0 else "")
        tail = f" ({self.detail})" if self.detail else ""
        return f"t={self.time:.6f} {self.action}{where}{tail}"


@dataclass(frozen=True)
class CorruptedPayload:
    """Wrapper marking a payload mangled in flight.

    Payloads are arbitrary Python objects, so "bit corruption" cannot
    mutate them in place safely; receivers that look at the payload see
    this wrapper (and typically blow up trying to use it, which is the
    point — the failure is visible, attributable, and replayable).
    """

    original: Any
    rule_index: int


class FaultPlan:
    """A seed plus declarative rules; see the module docstring."""

    def __init__(self, seed: int = 0, rules: list | tuple = ()) -> None:
        self.seed = seed
        self.rules = list(rules)
        for rule in self.rules:
            if not isinstance(rule, (MessageFault, CrashFault, ClockFault)):
                raise FaultPlanError(f"not a fault rule: {rule!r}")

    @property
    def message_rules(self) -> list[MessageFault]:
        return [r for r in self.rules if isinstance(r, MessageFault)]

    @property
    def crash_rules(self) -> list[CrashFault]:
        return [r for r in self.rules if isinstance(r, CrashFault)]

    @property
    def clock_rules(self) -> list[ClockFault]:
        return [r for r in self.rules if isinstance(r, ClockFault)]

    def skews(self) -> dict[int, ClockSkew]:
        """Per-rank clock skew, deterministically derived from the seed."""
        out: dict[int, ClockSkew] = {}
        for rule in self.clock_rules:
            rng = random.Random(f"{self.seed}:clock:{rule.rank}")
            offset = rule.offset + rng.uniform(-rule.offset_jitter,
                                               rule.offset_jitter)
            drift = rule.drift + rng.uniform(-rule.drift_jitter,
                                             rule.drift_jitter)
            out[rule.rank] = ClockSkew(offset=offset, drift=drift)
        return out

    def crashed_ranks(self) -> dict[int, float]:
        """rank -> planned crash time (for annotating salvaged views)."""
        return {r.rank: r.at for r in self.crash_rules}

    def install(self, engine: "Engine", *,
                suppress_crashes: bool = False) -> "FaultInjector":
        """Attach an injector to ``engine`` and schedule crash events.

        Called by :class:`repro.vmpi.world.World` when a plan is passed
        to a launch; direct engine users can call it themselves before
        ``run()``.  ``suppress_crashes`` keeps every message/clock rule
        (with its index, so decision streams stay aligned) but does not
        schedule the crash events — journal replay uses this to run
        *past* the recorded crash and regenerate the lost suffix.
        """
        injector = FaultInjector(self, engine)
        engine.fault_injector = injector
        for i, rule in enumerate(self.rules):
            if isinstance(rule, CrashFault):
                if suppress_crashes:
                    # Schedule a no-op in the crash's slot: it must
                    # consume the same event-heap sequence number at the
                    # same time, or same-time tie-breaks would diverge
                    # between the recorded run and its replay.
                    engine.call_at(rule.at, lambda: None)
                else:
                    engine.call_at(
                        rule.at,
                        lambda r=rule, i=i: injector._fire_crash(r, i))
        return injector

    def __repr__(self) -> str:
        return f"FaultPlan(seed={self.seed}, rules={self.rules!r})"


class FaultInjector:
    """Runtime arm of a :class:`FaultPlan` for one engine.

    Holds the seeded decision stream and the mutable bookkeeping a
    frozen plan cannot (per-rule injection counts, held reorder
    messages, the :attr:`injections` replay record).
    """

    def __init__(self, plan: FaultPlan, engine: "Engine") -> None:
        self.plan = plan
        self.engine = engine
        self.injections: list[Injection] = []
        self._rng = random.Random(f"{plan.seed}:messages")
        self._counts: dict[int, int] = {}
        # (src world rank, dest world rank, context) -> held message + rule
        self._held: dict[tuple[int, int, int], tuple[Message, int]] = {}

    # -- crash path -------------------------------------------------------

    def _fire_crash(self, rule: CrashFault, rule_index: int) -> None:
        from repro.vmpi.engine import TaskState

        if self.engine.aborted is not None:
            return
        if all(t.state is TaskState.DONE for t in self.engine.tasks.values()):
            return  # the job outran the crash; nothing left to kill
        reason = rule.reason or f"injected crash of rank {rule.rank}"
        msglog = self.engine.msglog
        if msglog is not None and rule.recover != "never":
            # Localized recovery: kill only the targeted rank and replay
            # it from the peers' send logs — survivors keep running.
            self._log(Injection(self.engine.now, "recover", rule_index,
                                src=rule.rank, detail=reason))
            msglog.recover_rank(rule, rule_index)
            return
        self._log(Injection(self.engine.now, "crash", rule_index,
                            src=rule.rank, detail=reason))
        self.engine.abort(rule.errorcode, rule.rank, reason)

    # -- message path -----------------------------------------------------

    def _decide(self, msg: Message) -> tuple[int, MessageFault] | None:
        """First live matching rule wins; None means deliver normally.

        The probability draw is consumed for every matching rule
        whether or not it fires, so a rule's decision stream does not
        shift when an earlier rule retires via ``max_count``.
        """
        now = self.engine.now
        chosen: tuple[int, MessageFault] | None = None
        for i, rule in enumerate(self.plan.rules):
            if not isinstance(rule, MessageFault) or not rule.matches(msg, now):
                continue
            draw = self._rng.random() if rule.probability < 1.0 else 0.0
            if chosen is not None:
                continue
            if rule.max_count is not None and self._counts.get(i, 0) >= rule.max_count:
                continue
            if draw <= rule.probability:
                chosen = (i, rule)
        return chosen

    def _log(self, injection: Injection) -> None:
        self.injections.append(injection)
        journal = self.engine.journal
        if journal is not None:
            journal.on_injection(injection)

    def _record(self, action: str, rule_index: int, msg: Message,
                detail: str = "") -> None:
        self._counts[rule_index] = self._counts.get(rule_index, 0) + 1
        self._log(Injection(
            self.engine.now, action, rule_index, src=msg.src, dest=msg.dest,
            tag=msg.tag, seq=msg.seq, detail=detail))

    def _extra_delay(self, rule: MessageFault) -> float:
        return rule.delay + (self._rng.uniform(0.0, rule.jitter)
                             if rule.jitter > 0 else 0.0)

    def schedule_delivery(self, comm: "Communicator", msg: Message,
                          flight: float) -> None:
        """The injector-aware replacement for ``call_later(flight, deliver)``."""
        engine = self.engine
        decision = self._decide(msg)
        if decision is None:
            engine.call_later(flight, lambda: comm._deliver(msg))
            self._overtake(comm, msg, flight)
            return
        rule_index, rule = decision
        if rule.action == "drop":
            self._record("drop", rule_index, msg)
            return
        if rule.action == "delay":
            extra = self._extra_delay(rule)
            self._record("delay", rule_index, msg, detail=f"+{extra:.6f}s")
            engine.call_later(flight + extra, lambda: comm._deliver(msg))
            return
        if rule.action == "duplicate":
            lag = max(self._extra_delay(rule), engine.clock_resolution)
            self._record("duplicate", rule_index, msg, detail=f"copy +{lag:.6f}s")
            engine.call_later(flight, lambda: comm._deliver(msg))
            copy = Message(src=msg.src, dest=msg.dest, tag=msg.tag,
                           payload=msg.payload, nbytes=msg.nbytes,
                           send_start=msg.send_start, arrive_time=0.0,
                           seq=msg.seq, context=msg.context)
            engine.call_later(flight + lag, lambda: comm._deliver(copy))
            return
        if rule.action == "corrupt":
            self._record("corrupt", rule_index, msg)
            msg.payload = CorruptedPayload(msg.payload, rule_index)
            engine.call_later(flight, lambda: comm._deliver(msg))
            return
        # reorder: hold until the next message on this lane overtakes it
        # (or max_hold elapses with no successor).
        key = (msg.src, msg.dest, msg.context)
        if key in self._held:
            # Only one message per lane is held at a time; this one both
            # overtakes the held one and is delivered normally.
            engine.call_later(flight, lambda: comm._deliver(msg))
            self._overtake(comm, msg, flight)
            return
        self._record("reorder", rule_index, msg,
                     detail=f"held <= {rule.max_hold:.6f}s")
        self._held[key] = (msg, rule_index)
        engine.call_later(rule.max_hold,
                          lambda: self._release(comm, key, msg, "max_hold"))

    def _overtake(self, comm: "Communicator", msg: Message, flight: float) -> None:
        """A normally-delivered message releases any held predecessor on
        its lane just after its own arrival — the actual reordering."""
        key = (msg.src, msg.dest, msg.context)
        held = self._held.get(key)
        if held is not None:
            held_msg = held[0]
            self.engine.call_later(
                flight + max(self.engine.clock_resolution, 1e-12),
                lambda: self._release(comm, key, held_msg, "overtaken"))

    def _release(self, comm: "Communicator", key: tuple[int, int, int],
                 msg: Message, why: str) -> None:
        held = self._held.get(key)
        if held is None or held[0] is not msg:
            return  # already released
        del self._held[key]
        comm._deliver(msg)

    # -- reporting --------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Injection totals by action (handy for test assertions)."""
        out: dict[str, int] = {}
        for inj in self.injections:
            out[inj.action] = out.get(inj.action, 0) + 1
        return out


# -- serialisation ---------------------------------------------------------
#
# Plans travel: ``-pifault-plan=plan.json`` loads one from disk, and the
# journal manifest embeds one so ``Engine.resume`` can re-install it.
# The wire form is kind-tagged dataclass fields; ``math.inf`` survives
# because Python's JSON emits/accepts ``Infinity``.

_RULE_KINDS: dict[str, type] = {
    "message": MessageFault,
    "crash": CrashFault,
    "clock": ClockFault,
}


def plan_to_dict(plan: FaultPlan) -> dict:
    """A :class:`FaultPlan` as JSON-ready data (kind-tagged rules)."""
    rules = []
    for rule in plan.rules:
        for kind, cls in _RULE_KINDS.items():
            if isinstance(rule, cls):
                entry = {"kind": kind}
                entry.update(dataclasses.asdict(rule))
                rules.append(entry)
                break
    return {"seed": plan.seed, "rules": rules}


def plan_from_dict(data: dict) -> FaultPlan:
    """Inverse of :func:`plan_to_dict`; raises :class:`FaultPlanError`
    on unknown rule kinds or parameters."""
    rules = []
    for i, entry in enumerate(data.get("rules", ())):
        if not isinstance(entry, dict):
            raise FaultPlanError(
                f"rule #{i}: must be an object with a 'kind', got {entry!r}")
        entry = dict(entry)
        kind = entry.pop("kind", None)
        cls = _RULE_KINDS.get(kind)
        if cls is None:
            raise FaultPlanError(
                f"rule #{i}: unknown kind {kind!r}; "
                f"expected one of {sorted(_RULE_KINDS)}")
        try:
            rules.append(cls(**entry))
        except TypeError as exc:
            raise FaultPlanError(f"rule #{i}: {exc}") from None
        except FaultPlanError as exc:
            # Field validation (__post_init__) knows nothing about its
            # position in the plan; add it here so a bad `recover` or
            # probability in rule 7 of a 40-rule file is findable.
            raise FaultPlanError(f"rule #{i}: {exc}") from None
    return FaultPlan(seed=int(data.get("seed", 0)), rules=rules)


def load_fault_plan(path: str) -> FaultPlan:
    """Load a :class:`FaultPlan` from a JSON file (``-pifault-plan=PATH``).

    Schema::

        {"seed": 7,
         "rules": [
           {"kind": "message", "action": "drop", "src": 0, ...},
           {"kind": "crash", "rank": 1, "at": 0.5, ...},
           {"kind": "clock", "rank": 2, "offset": 1e-3, ...}]}

    Rule fields beyond ``kind`` map 1:1 onto the dataclass fields of
    :class:`MessageFault`, :class:`CrashFault` and :class:`ClockFault`;
    their own validation applies.  Raises :class:`FaultPlanError` on a
    malformed plan.
    """
    import json

    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise FaultPlanError(f"{path}: fault plan must be a JSON object")
    try:
        return plan_from_dict(data)
    except FaultPlanError as exc:
        raise FaultPlanError(f"{path}: {exc}") from None
