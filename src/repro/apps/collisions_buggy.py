"""The paper's two buggy collision-app student submissions, packaged
as first-class apps and as trace-diff fixtures.

:mod:`repro.apps.collisions` models all three submissions behind one
``variant`` switch; this module gives the two *buggy* ones (Fig. 4's
serialized query loop, Fig. 5's single-process parse) their own app
names — ``collisions-buggy-a`` / ``collisions-buggy-b`` in
``python -m repro.apps`` — and a fixture helper that produces the
good/buggy CLOG2 pair ``pilotcheck diff-trace`` localizes on.  Both
bugs live in PI_MAIN's communication pattern, so the localizer should
rank rank 0 first; the chaos tests assert exactly that.
"""

from __future__ import annotations

from typing import Any

from repro.apps.collisions import (
    GOOD,
    INSTANCE_A,
    INSTANCE_B,
    CollisionConfig,
    collisions_main,
)

VARIANT_A = "a"  # Fig. 4: write/read pairs serialize the query work
VARIANT_B = "b"  # Fig. 5: PI_MAIN parses everything itself
BUGGY_VARIANTS = (VARIANT_A, VARIANT_B)

_INSTANCE = {VARIANT_A: INSTANCE_A, VARIANT_B: INSTANCE_B}


def collisions_buggy_main(argv: list[str], variant: str,
                          config: CollisionConfig = CollisionConfig()
                          ) -> dict[str, Any]:
    """Run one of the buggy submissions (``"a"`` or ``"b"``)."""
    if variant not in _INSTANCE:
        raise ValueError(
            f"variant must be one of {BUGGY_VARIANTS}, got {variant!r}")
    return collisions_main(argv, _INSTANCE[variant], config)


def fixture_config(nrecords: int = 2_000, seed: int = 7) -> CollisionConfig:
    """A small, fast workload for diff fixtures and CI smoke runs."""
    return CollisionConfig(nrecords=nrecords, seed=seed)


def write_diff_fixture(out_dir: str, variant: str, *, nprocs: int = 4,
                       seed: int = 0,
                       config: CollisionConfig | None = None
                       ) -> tuple[str, str]:
    """Produce the localizer's natural input: ``(good, buggy)`` CLOG2s.

    Runs the intended solution and the requested buggy variant with the
    same seed and workload, logging both; returns the two trace paths,
    ready for ``pilotcheck diff-trace good buggy``.
    """
    import os

    from repro.pilot import PilotConfig, run_pilot
    from repro.pilotlog.integration import JumpshotOptions

    cfg = config or fixture_config()
    paths = []
    for tag, inst in (("good", GOOD), (f"buggy_{variant}",
                                       _INSTANCE[variant])):
        log = os.path.join(out_dir, f"collisions_{tag}.clog2")
        result = run_pilot(
            lambda argv, _inst=inst: collisions_main(argv, _inst, cfg),
            nprocs, config=PilotConfig(services="j", mpe_log_path=log,
                                       mpe=JumpshotOptions(), seed=seed))
        if result.aborted is not None:
            raise RuntimeError(f"fixture run {tag} aborted: "
                               f"{result.aborted}")
        paths.append(log)
    return paths[0], paths[1]


__all__ = [
    "BUGGY_VARIANTS",
    "VARIANT_A",
    "VARIANT_B",
    "collisions_buggy_main",
    "fixture_config",
    "write_diff_fixture",
]
