"""Job launch: the virtual ``mpiexec``.

``mpirun(main, nprocs)`` builds an engine, a COMM_WORLD, spawns one task
per rank all executing ``main(comm)`` (SPMD, like ``mpiexec -n``), runs
to completion and returns the :class:`repro.vmpi.engine.RunResult` with
``engine`` and ``comm`` attached for post-mortem inspection — the
figure-level tests read the MPE log and engine statistics from there.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Any, Callable

from repro.vmpi.clock import ClockSkew
from repro.vmpi.comm import Communicator, NetworkModel
from repro.vmpi.engine import Engine, RunResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.vmpi.faults import FaultPlan


class World:
    """An un-started virtual MPI job; create, customise, then :meth:`run`."""

    def __init__(self, nprocs: int, *, network: NetworkModel | None = None,
                 seed: int = 0, clock_resolution: float = 1e-8,
                 skews: dict[int, ClockSkew] | None = None,
                 faults: "FaultPlan | None" = None,
                 suppress_crashes: bool = False,
                 scheduler: str = "threads") -> None:
        if nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {nprocs}")
        merged_skews = dict(faults.skews()) if faults is not None else {}
        merged_skews.update(skews or {})  # explicit skews win
        self.engine = Engine(seed=seed, clock_resolution=clock_resolution,
                             skews=merged_skews, scheduler=scheduler)
        self.comm = Communicator(self.engine, nprocs, network)
        if faults is not None:
            faults.install(self.engine, suppress_crashes=suppress_crashes)

    def run(self, main: Callable[..., Any], *args: Any) -> RunResult:
        """Spawn ``main(comm, *args)`` on every rank and run to the end."""
        for rank in range(self.comm.size):
            # functools.partial rather than a lambda: the coroutine
            # scheduler's call rewriter unwraps partials, but never
            # looks inside a lambda body.
            self.engine.spawn(functools.partial(main, self.comm, *args), rank)
        result = self.engine.run()
        result.engine = self.engine  # type: ignore[attr-defined]
        result.comm = self.comm  # type: ignore[attr-defined]
        return result


def mpirun(main: Callable[..., Any], nprocs: int, *args: Any,
           network: NetworkModel | None = None, seed: int = 0,
           clock_resolution: float = 1e-8,
           skews: dict[int, ClockSkew] | None = None,
           faults: "FaultPlan | None" = None,
           scheduler: str = "threads") -> RunResult:
    """One-shot launch; see :class:`World`."""
    world = World(nprocs, network=network, seed=seed,
                  clock_resolution=clock_resolution, skews=skews,
                  faults=faults, scheduler=scheduler)
    return world.run(main, *args)


def compute(comm: Communicator, seconds: float) -> None:
    """Declare ``seconds`` of local computation on the calling rank.

    This is the simulation's stand-in for actually burning CPU: virtual
    time advances, other ranks interleave, and the timeline shows the
    work.  Application kernels (the JPEG codec, the CSV queries) compute
    for real with numpy and *declare* a calibrated virtual duration.
    """
    comm.engine.advance(seconds, "compute")
