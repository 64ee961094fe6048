"""PilotConfig: the one run description and the ``-pi*`` flags over it.

The flag grammar (:meth:`PilotConfig.from_argv`, flags win over the
base config), validation, and the one launch path behind
:func:`run_pilot` and :func:`resume_pilot`.
"""

import pytest

from repro.pilot import PilotConfig, resume_pilot, run_pilot
from repro.pilot.api import (
    PI_Configure,
    PI_CreateProcess,
    PI_StartAll,
    PI_StopMain,
)
from repro.pilot.config import RESUME_GUARDED_FIELDS
from repro.pilot.errors import PilotError


def tiny_main(argv):
    PI_Configure(argv)
    PI_StartAll()
    PI_StopMain(0)
    return "done"


def _idle(index, arg2):
    return 0


def argv_main(argv):
    """A configuration that depends on the app argv: one worker per
    count in ``argv[0]``."""
    PI_Configure(argv)
    for i in range(int(argv[0])):
        PI_CreateProcess(_idle, i)
    PI_StartAll()
    PI_StopMain(0)
    return list(argv)


class TestRoundTrips:
    def test_from_argv_strips_flags_and_layers(self):
        cfg, leftover = PilotConfig.from_argv(
            ["prog", "-pisvc=dj", "-picheck=2", "-piwatchdog=5:checkpoint",
             "-pirecover=msglog", "-pischeduler=coroutine", "app-arg"])
        assert leftover == ["prog", "app-arg"]
        assert cfg.services == "dj"
        assert cfg.check_level == 2
        assert cfg.watchdog_timeout == 5.0
        assert cfg.watchdog_action == "checkpoint"
        assert cfg.recover == "msglog"
        assert cfg.scheduler == "coroutine"

    def test_bare_watchdog_leaves_action_unset(self):
        # -piwatchdog=5 must not pin watchdog_action: an explicit
        # "abort" would manufacture resume conflicts out of thin air.
        cfg, _ = PilotConfig.from_argv(["-piwatchdog=5"])
        assert cfg.watchdog_timeout == 5.0
        assert cfg.watchdog_action is None

    def test_from_argv_layers_on_base(self):
        base = PilotConfig(scheduler="coroutine", seed=11)
        cfg, _ = PilotConfig.from_argv(["-picheck=0"], base)
        assert cfg.scheduler == "coroutine"  # carried over
        assert cfg.seed == 11  # flags exist for neither -> untouched
        assert cfg.check_level == 0

    @pytest.mark.parametrize("argv,base,field,expected", [
        (["-picheck=1"], dict(check_level=0), "check_level", 1),
        (["-pirecover=off"], dict(recover="msglog"), "recover", None),
        (["-pistream-port=5000"], dict(services="jv"), "stream_port", 5000),
        (["-pisvc=d"], dict(services="cj"), "services", "d"),
        (["-piwatchdog=2"], dict(watchdog_timeout=9.0), "watchdog_timeout",
         2.0),
    ])
    def test_flags_win_over_base(self, argv, base, field, expected):
        cfg, _ = PilotConfig.from_argv(argv, PilotConfig(**base))
        assert getattr(cfg, field) == expected

    def test_defaults_are_concrete(self):
        cfg = PilotConfig()
        assert cfg.services == "" and cfg.check_level == 1
        assert cfg.seed == 0 and cfg.clock_resolution == 1e-8
        assert cfg.mpe_log_path == "pilot_mpe.clog2"
        assert all(getattr(cfg, name) is None
                   for name in RESUME_GUARDED_FIELDS)


class TestValidation:
    @pytest.mark.parametrize("bad", [
        dict(scheduler="fibers"),
        dict(services="zq"),
        dict(check_level=7),
        dict(watchdog_timeout=-1.0),
        dict(watchdog_timeout=5.0, watchdog_action="panic"),
        dict(watchdog_action="abort"),  # action without timeout
        dict(recover="prayer"),
        dict(journal_checkpoint_interval=0.0),
        dict(clock_resolution=-1e-9),
        dict(allow_overrides=("seed",)),
    ])
    def test_bad_field_raises(self, bad):
        with pytest.raises(PilotError, match="BAD_CONFIG|BAD_OPTION"):
            PilotConfig(**bad).validate()

    def test_valid_config_returns_self(self):
        cfg = PilotConfig(services="cdjs", scheduler="coroutine",
                          watchdog_timeout=1.0, watchdog_action="checkpoint",
                          allow_overrides=RESUME_GUARDED_FIELDS)
        assert cfg.validate() is cfg


class TestRunPilotPaths:
    def test_config_path_runs_clean_without_warnings(self, recwarn):
        res = run_pilot(tiny_main, 2, config=PilotConfig(check_level=1))
        assert res.ok and res.vmpi.results[0] == "done"
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]

    def test_pi_flags_in_argv_run_without_warning(self, recwarn):
        res = run_pilot(tiny_main, 2, argv=("-picheck=1",))
        assert res.ok
        assert not recwarn.list

    def test_config_plus_legacy_kwarg_is_an_error(self):
        with pytest.raises(TypeError, match="seed"):
            run_pilot(tiny_main, 2, config=PilotConfig(), seed=3)

    def test_pi_argv_flags_layer_over_config(self):
        res = run_pilot(tiny_main, 3, argv=("-pisvc=d", "-picheck=0"),
                        config=PilotConfig(check_level=3, seed=5))
        assert res.ok
        opts = res.run.options
        assert (opts.services, opts.check_level, opts.seed) == ("d", 0, 5)

    def test_resume_rejects_config_and_options_together(self, tmp_path):
        with pytest.raises(TypeError, match="options"):
            resume_pilot(tiny_main, str(tmp_path / "nonexistent"),
                         config=PilotConfig(), options=None)

    def test_paper_flag_and_config_write_identical_clog2(self, tmp_path):
        from repro.apps.lab2 import lab2_main

        flag, cfg = str(tmp_path / "flag.clog2"), str(tmp_path / "cfg.clog2")
        run_pilot(lab2_main, 6, argv=("-pisvc=j",),
                  config=PilotConfig(mpe_log_path=flag))
        run_pilot(lab2_main, 6,
                  config=PilotConfig(services="j", mpe_log_path=cfg))
        with open(flag, "rb") as a, open(cfg, "rb") as b:
            assert a.read() == b.read()

    def test_argv_resume_honours_guarded_flags(self, tmp_path):
        jdir = str(tmp_path / "journal")
        rec = run_pilot(tiny_main, 2,
                        argv=(f"-pijournal={jdir}", "-piwatchdog=100"))
        assert rec.ok
        resume = ("-pisvc=r", f"-pijournal={jdir}")
        with pytest.raises(PilotError, match="RESUME_CONFLICT"):
            run_pilot(tiny_main, 2, argv=resume + ("-piwatchdog=200",))
        with pytest.raises(PilotError, match="RESUME_CONFLICT"):
            resume_pilot(tiny_main, jdir,
                         config=PilotConfig(watchdog_timeout=200))
        res = run_pilot(tiny_main, 2, argv=resume)
        assert res.ok and res.journal.mode == "replay"
        assert res.watchdog.timeout == 100.0

    def test_resume_runs_main_with_recorded_argv(self, tmp_path):
        jdir = str(tmp_path / "journal")
        rec = run_pilot(argv_main, 3, argv=(f"-pijournal={jdir}", "2"))
        assert rec.ok and rec.vmpi.results[0] == ["2"]
        res = run_pilot(argv_main, 3, argv=("-pisvc=r", f"-pijournal={jdir}"))
        assert res.ok and res.journal.mode == "replay"
        assert res.vmpi.results[0] == ["2"]
        res = resume_pilot(argv_main, jdir)
        assert res.ok and res.vmpi.results[0] == ["2"]

    def test_invalid_config_rejected_before_launch(self):
        with pytest.raises(PilotError, match="scheduler"):
            run_pilot(tiny_main, 2, config=PilotConfig(scheduler="nope"))

    def test_services_r_requires_journal_dir(self):
        with pytest.raises(PilotError, match="journal_dir"):
            run_pilot(tiny_main, 2, config=PilotConfig(services="r"))
