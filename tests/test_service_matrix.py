"""Integration sweep: every app under every service combination.

The paper's options are combinable (``-pisvc=cj``); this matrix pins
down that all workloads stay correct and all logs stay convertible for
every sensible combination, at small scale.
"""

import os

import numpy as np
import pytest

from repro.apps import (
    DYNAMIC,
    GOOD,
    CollisionConfig,
    Lab2Config,
    Lab3Config,
    ThumbnailConfig,
    collisions_main,
    lab2_main,
    lab3_main,
    thumbnail_main,
)
from repro.mpe import read_log
from repro.pilot import PilotConfig, run_pilot
from repro.slog2 import convert

SERVICE_COMBOS = ["", "c", "d", "j", "cd", "cj", "cdj"]

APPS = {
    "lab2": (lambda argv: lab2_main(argv, Lab2Config()), 6,
             lambda out: out["total"] == out["expected"]),
    "lab3": (lambda argv: lab3_main(argv, DYNAMIC, Lab3Config(ntasks=16)), 5,
             lambda out: out["total"] == 16),
    "thumbnail": (lambda argv: thumbnail_main(argv, ThumbnailConfig(
        nfiles=10)), 5, lambda out: out["thumbs"] == 10),
    "collisions": (lambda argv: collisions_main(argv, GOOD, CollisionConfig(
        nrecords=500)), 4,
        lambda out: all(np.array_equal(out["results"][k], out["expected"][k])
                        for k in out["expected"])),
}


@pytest.mark.parametrize("services", SERVICE_COMBOS)
@pytest.mark.parametrize("app", sorted(APPS))
def test_app_under_services(app, services, tmp_path):
    main, base_procs, check = APPS[app]
    # A service rank displaces a worker: add one so the app still fits.
    nprocs = base_procs + (1 if set(services) & {"c", "d"} else 0)
    argv = (f"-pisvc={services}",) if services else ()
    opts = PilotConfig(native_log_path=str(tmp_path / "n.log"),
                       mpe_log_path=str(tmp_path / "m.clog2"))
    res = run_pilot(main, nprocs, argv=argv, config=opts)
    assert res.ok, f"{app} under -pisvc={services!r} aborted"
    assert check(res.vmpi.results[0]), f"{app} wrong under {services!r}"

    if "c" in services:
        assert os.path.exists(tmp_path / "n.log")
    if "j" in services:
        doc, report = convert(read_log(str(tmp_path / "m.clog2")).log)
        assert report.clean, f"{app}/{services}: {report.summary()}"
        assert doc.states  # something was actually logged
    else:
        assert not os.path.exists(tmp_path / "m.clog2")
