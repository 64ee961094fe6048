"""Shared helpers for Pilot-layer tests: tiny program harnesses."""

from __future__ import annotations

from typing import Any, Callable

from repro.pilot import PilotConfig, run_pilot
from repro.pilot.api import (
    PI_MAIN,
    PI_Configure,
    PI_CreateChannel,
    PI_CreateProcess,
    PI_StartAll,
    PI_StopMain,
)


def run_main_worker(main_body: Callable[[Any], Any],
                    worker_body: Callable[[Any], Any], *,
                    nprocs: int = 3, nworkers: int = 1, argv=(),
                    config: PilotConfig | None = None, **kw):
    """Run a program with PI_MAIN plus ``nworkers`` workers.

    Each worker gets channels ``(to_worker, from_worker)``; bodies are
    called as ``main_body(ctx)`` / ``worker_body(ctx)`` where ``ctx``
    has ``.to``, ``.frm`` channel lists and ``.index`` on workers.
    """

    class Ctx:
        pass

    def main(argv_inner):
        ctx = Ctx()
        ctx.to, ctx.frm, ctx.procs = [], [], []

        def work(index, _arg2):
            wctx = Ctx()
            wctx.to, wctx.frm = ctx.to, ctx.frm
            wctx.index = index
            return worker_body(wctx) or 0

        PI_Configure(argv_inner)
        for i in range(nworkers):
            p = PI_CreateProcess(work, i, None)
            ctx.procs.append(p)
            ctx.to.append(PI_CreateChannel(PI_MAIN, p))
            ctx.frm.append(PI_CreateChannel(p, PI_MAIN))
        PI_StartAll()
        out = main_body(ctx)
        PI_StopMain(0)
        return out

    return run_pilot(main, nprocs, argv=argv, config=config, **kw)


def expect_abort_with(result, code: str) -> None:
    """Assert the run aborted with the given diagnostic code."""
    assert result.aborted is not None, "expected the run to abort"
    assert code in result.diagnostics.codes, (
        f"expected diagnostic {code}, got {result.diagnostics.codes}")
