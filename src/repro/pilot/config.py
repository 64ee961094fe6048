"""The one run description: :class:`PilotConfig`.

A Pilot run is described by one frozen dataclass, passed to
:func:`repro.pilot.run_pilot` as ``config=``::

    from repro.pilot import PilotConfig, run_pilot

    cfg = PilotConfig(services="cdj", scheduler="coroutine",
                      watchdog_timeout=5.0)
    run_pilot(main, nprocs=8, config=cfg)

The C library's command-line enablement works the same way it does in
Pilot: ``-pi*`` flags in ``argv`` (``-pisvc=j`` switches on Jumpshot
logging without touching the code) are stripped by
:meth:`PilotConfig.from_argv` and layered over the config, flags
winning; ``main`` sees only the rest, as after PI_Configure(&argc,
&argv) in C.

=========================  =====================  ======================
flag                       field                  meaning
=========================  =====================  ======================
``-pisvc=<letters>``       ``services``           services (table below)
``-picheck=0..3``          ``check_level``        error-check level
``-pifault-plan=PATH``     ``fault_plan_path``    JSON fault plan
``-pijournal=DIR``         ``journal_dir``        journal + checkpoints
``-piwatchdog=T[:act]``    ``watchdog_timeout``   progress watchdog
                           (``watchdog_action``)  ``abort``/``checkpoint``
``-pirecover=msglog|off``  ``recover``            in-run crash recovery
``-pischeduler=NAME``      ``scheduler``          ``threads``/``coroutine``
``-pistream-port=N``       ``stream_port``        ``v`` service port
=========================  =====================  ======================

Service letters (paper Section III.C; ``s``, ``p``, ``r`` and ``v``
are this repo's additions):

=======  ============================================================
letter   service
=======  ============================================================
``c``    native call log on a dedicated service rank
``d``    deadlock detection on the same rank
``j``    MPE logging for Jumpshot
``s``    pilotcheck static analysis before launch
``p``    pipeline perf counters (JSON next to the MPE log)
``r``    resume from ``journal_dir``: a verified replay that regenerates
         the log a crash destroyed
``v``    live trace streaming (HTTP + SSE tiles; :mod:`repro.stream`)
=======  ============================================================
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.pilot import errors as perr
from repro.pilot.errors import Diagnostic, PilotError
from repro.pilot.program import PilotCosts
from repro.vmpi.engine import SCHEDULERS

#: The ``-pisvc`` letters, in display order (see the module docstring).
SERVICE_LETTERS = "cdjsprv"

# Manifest-recorded fields that resume_pilot refuses to silently
# replace; list them in ``allow_overrides`` to replace deliberately.
RESUME_GUARDED_FIELDS = ("watchdog_timeout", "watchdog_action", "recover")

# -pi<flag>=value -> the field it sets.
_FLAG_FIELDS = {
    "-pisvc": "services",
    "-picheck": "check_level",
    "-pifault-plan": "fault_plan_path",
    "-pijournal": "journal_dir",
    "-piwatchdog": "watchdog_timeout",
    "-pirecover": "recover",
    "-pischeduler": "scheduler",
    "-pistream-port": "stream_port",
}


def parse_service_letters(letters: Iterable[str]) -> frozenset[str]:
    """Validate ``-pisvc`` letters; THE unknown-letter error lives here."""
    letter_set = set(letters)
    bad = letter_set - set(SERVICE_LETTERS)
    if bad:
        raise PilotError(Diagnostic(
            "BAD_OPTION", f"unknown -pisvc letters {sorted(bad)}", None, -1))
    return frozenset(letter_set)


def _number(kind: type, arg: str, text: str) -> Any:
    try:
        return kind(text)
    except ValueError:
        raise PilotError(Diagnostic(
            "BAD_OPTION", f"bad value in {arg!r}", None, -1)) from None


@dataclass(frozen=True)
class PilotConfig:
    """One immutable description of a Pilot run.

    Only the :data:`RESUME_GUARDED_FIELDS` use ``None`` for "not chosen
    here": that is what lets :func:`repro.pilot.resume_pilot` tell "the
    caller wants a different watchdog than the journal recorded" (an
    error unless listed in :attr:`allow_overrides`) from "the caller
    didn't say".  ``watchdog_action=None`` means ``"abort"``.
    """

    # -- rank scheduling (None: the engine default, "threads") ----------
    scheduler: str | None = None
    # -- services and checking -----------------------------------------
    services: str = ""  # service letters, e.g. "cdj"
    check_level: int = perr.CHECK_API
    # -- log destinations ----------------------------------------------
    native_log_path: str = "pilot_native.log"
    mpe_log_path: str = "pilot_mpe.clog2"
    mpe_available: bool = True  # "built with MPE" (conditional compilation)
    # -- robustness machinery ------------------------------------------
    fault_plan_path: str | None = None
    journal_dir: str | None = None
    journal_checkpoint_interval: float = 1e-3  # virtual seconds
    watchdog_timeout: float | None = None
    watchdog_action: str | None = None  # "abort" | "checkpoint"
    recover: str | None = None  # "msglog"
    stream_port: int = 0  # where the ``v`` service listens (0: any)
    # -- simulation parameters ------------------------------------------
    costs: PilotCosts | None = None
    network: Any | None = None  # NetworkModel
    seed: int = 0
    clock_resolution: float = 1e-8
    skews: Mapping[int, Any] | None = None  # rank -> ClockSkew
    faults: Any | None = None  # FaultPlan; wins over fault_plan_path
    mpe: Any | None = None  # JumpshotOptions
    # -- resume escape hatch -------------------------------------------
    # Guarded manifest fields this config may deliberately replace on
    # resume (e.g. resuming past a checkpoint-and-stop needs
    # ("watchdog_timeout",)).
    allow_overrides: tuple[str, ...] = ()

    @classmethod
    def from_argv(cls, argv: list[str] | tuple[str, ...],
                  base: "PilotConfig | None" = None,
                  ) -> tuple["PilotConfig", list[str]]:
        """Strip ``-pi*`` flags from ``argv`` and layer them over ``base``.

        Returns ``(config, leftover_argv)``.  Every flag wins over
        ``base``; fields no flag spells carry over unchanged, and
        repeated ``-pisvc`` flags combine their letters.
        """
        flags: dict[str, Any] = {}
        leftover: list[str] = []
        for arg in argv:
            flag, eq, value = arg.partition("=")
            name = _FLAG_FIELDS.get(flag) if eq else None
            if name is None:
                leftover.append(arg)
            elif name == "services":
                letters = parse_service_letters(value) | set(
                    flags.get(name, ""))
                flags[name] = "".join(sorted(letters))
            elif name == "watchdog_timeout":
                timeout, _, action = value.partition(":")
                flags[name] = _number(float, arg, timeout)
                if action:
                    flags["watchdog_action"] = action
            elif name == "recover":
                flags[name] = None if value == "off" else value
            elif name in ("check_level", "stream_port"):
                flags[name] = _number(int, arg, value)
            else:
                flags[name] = value
        return dataclasses.replace(base or cls(), **flags).validate(), leftover

    # -- derived views --------------------------------------------------

    @property
    def needs_service_rank(self) -> bool:
        """The native log and deadlock detector share one dedicated rank
        (paper Section I: the central logging process is "the same one
        running the deadlock detector")."""
        return "c" in self.services or "d" in self.services

    @property
    def mpe_enabled(self) -> bool:
        return "j" in self.services and self.mpe_available

    @property
    def perf_snapshot_path(self) -> str:
        """Where the ``p`` service dumps its counters (next to the MPE log)."""
        return self.mpe_log_path + ".perf.json"

    # -- validation -----------------------------------------------------

    def validate(self) -> "PilotConfig":
        """Raise :class:`PilotError` on any out-of-range field; else self."""
        def bad(message: str) -> PilotError:
            return PilotError(Diagnostic("BAD_CONFIG", message, None, -1))

        if self.scheduler is not None and self.scheduler not in SCHEDULERS:
            raise bad(f"scheduler (-pischeduler) must be one of "
                      f"{'/'.join(SCHEDULERS)}, got {self.scheduler!r}")
        parse_service_letters(self.services)  # raises on unknown letters
        if not perr.CHECK_NONE <= self.check_level <= perr.CHECK_POINTERS:
            raise bad(f"check_level (-picheck) must be 0..3, "
                      f"got {self.check_level}")
        if self.journal_dir == "":
            raise bad("journal_dir (-pijournal) needs a directory")
        if self.watchdog_timeout is not None and self.watchdog_timeout <= 0:
            raise bad(f"watchdog_timeout (-piwatchdog) must be > 0, "
                      f"got {self.watchdog_timeout}")
        if self.watchdog_action is not None:
            if self.watchdog_action not in ("abort", "checkpoint"):
                raise bad(f"watchdog_action must be 'abort' or 'checkpoint', "
                          f"got {self.watchdog_action!r}")
            if self.watchdog_timeout is None:
                raise bad("watchdog_action without watchdog_timeout "
                          "arms nothing; set both")
        if self.recover is not None and self.recover != "msglog":
            raise bad(f"recover must be 'msglog' (-pirecover=msglog|off), "
                      f"got {self.recover!r}")
        if not 0 <= self.stream_port <= 65535:
            raise bad(f"stream_port (-pistream-port) must be 0..65535, "
                      f"got {self.stream_port}")
        if self.journal_checkpoint_interval <= 0:
            raise bad("journal_checkpoint_interval must be > 0, "
                      f"got {self.journal_checkpoint_interval}")
        if self.clock_resolution <= 0:
            raise bad(f"clock_resolution must be > 0, "
                      f"got {self.clock_resolution}")
        unknown = set(self.allow_overrides) - set(RESUME_GUARDED_FIELDS)
        if unknown:
            raise bad(f"allow_overrides only accepts "
                      f"{RESUME_GUARDED_FIELDS}, got {sorted(unknown)}")
        return self
