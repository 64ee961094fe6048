"""``repro.pilot`` — the Pilot library, reproduced in Python.

Pilot ("A friendly face for MPI") is a CSP-flavoured process/channel
layer over MPI aimed at novice HPC programmers.  This package
reproduces its V3.x API surface on top of :mod:`repro.vmpi`: the PI_*
functions, fscanf-style formats, command-line selectable error-check
levels, the native call log and the integrated deadlock detector —
everything the paper's log-visualization work builds on.

Hello, Pilot::

    from repro.pilot import (PI_MAIN, PI_Configure, PI_CreateChannel,
                             PI_CreateProcess, PI_Read, PI_StartAll,
                             PI_StopMain, PI_Write, run_pilot)

    def main(argv):
        def worker(index, arg2):
            PI_Write(result, "%d", index * index)
            return 0

        PI_Configure(argv)
        w = PI_CreateProcess(worker, 0)
        result = PI_CreateChannel(w, PI_MAIN)
        PI_StartAll()
        print(PI_Read(result, "%d"))
        PI_StopMain(0)

    run_pilot(main, nprocs=2)
"""

from repro.pilot.api import (
    PI_MAIN,
    BundleUsage,
    PI_Abort,
    PI_CopyChannels,
    PI_Broadcast,
    PI_ChannelHasData,
    PI_Compute,
    PI_Configure,
    PI_CreateBundle,
    PI_CreateChannel,
    PI_CreateProcess,
    PI_DefineState,
    PI_EndTime,
    PI_Gather,
    PI_GetName,
    PI_IsLogging,
    PI_Log,
    PI_Read,
    PI_Reduce,
    PI_Scatter,
    PI_Select,
    PI_SetName,
    PI_StartAll,
    PI_State,
    PI_StartTime,
    PI_StopMain,
    PI_TrySelect,
    PI_Write,
)
from repro.pilot.errors import (
    CHECK_API,
    CHECK_FORMATS,
    CHECK_NONE,
    CHECK_POINTERS,
    Diagnostic,
    PilotError,
)
from repro.pilot.config import PilotConfig
from repro.pilot.objects import PI_BUNDLE, PI_CHANNEL, PI_PROCESS
from repro.pilot.program import PilotCosts, PilotRun, current_run
from repro.pilot.runner import PilotResult, resume_pilot, run_pilot
from repro.vmpi.faults import load_fault_plan

__all__ = [
    "PI_MAIN",
    "PI_BUNDLE",
    "PI_CHANNEL",
    "PI_PROCESS",
    "BundleUsage",
    "CHECK_API",
    "CHECK_FORMATS",
    "CHECK_NONE",
    "CHECK_POINTERS",
    "Diagnostic",
    "PilotConfig",
    "PilotCosts",
    "PilotError",
    "PilotResult",
    "PilotRun",
    "PI_Abort",
    "PI_Broadcast",
    "PI_ChannelHasData",
    "PI_Compute",
    "PI_CopyChannels",
    "PI_Configure",
    "PI_CreateBundle",
    "PI_CreateChannel",
    "PI_CreateProcess",
    "PI_DefineState",
    "PI_EndTime",
    "PI_Gather",
    "PI_GetName",
    "PI_IsLogging",
    "PI_Log",
    "PI_Read",
    "PI_Reduce",
    "PI_Scatter",
    "PI_Select",
    "PI_SetName",
    "PI_StartAll",
    "PI_StartTime",
    "PI_State",
    "PI_StopMain",
    "PI_TrySelect",
    "PI_Write",
    "current_run",
    "load_fault_plan",
    "resume_pilot",
    "run_pilot",
]
