"""Public API hygiene: every ``__all__`` name must resolve, and key
entry points must be importable exactly as the README shows."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro._util",
    "repro.vmpi",
    "repro.pilot",
    "repro.mpe",
    "repro.slog2",
    "repro.jumpshot",
    "repro.pilotlog",
    "repro.apps",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    for attr in exported:
        assert hasattr(module, attr), f"{name}.__all__ lists missing {attr!r}"


@pytest.mark.parametrize("name", PACKAGES)
def test_all_sorted_unique(name):
    module = importlib.import_module(name)
    exported = list(getattr(module, "__all__", []))
    assert len(exported) == len(set(exported)), f"duplicates in {name}.__all__"


def test_readme_imports():
    from repro import jumpshot, slog2  # noqa: F401
    from repro.mpe import read_log  # noqa: F401
    from repro.pilot import (  # noqa: F401
        PI_MAIN,
        PilotConfig,
        PI_Configure,
        PI_CreateChannel,
        PI_CreateProcess,
        PI_Read,
        PI_StartAll,
        PI_StopMain,
        PI_Write,
        run_pilot,
    )


def test_cli_entry_points_importable():
    from repro.apps.__main__ import main as apps_main  # noqa: F401
    from repro.jumpshot.__main__ import main as js_main  # noqa: F401
    from repro.mpe.__main__ import main as mpe_main  # noqa: F401
    from repro.slog2.__main__ import main as conv_main  # noqa: F401


class TestClog2Print:
    @pytest.fixture(scope="class")
    def clog(self, tmp_path_factory):
        from repro.apps import lab2_main
        from repro.pilot import PilotConfig, run_pilot

        path = str(tmp_path_factory.mktemp("print") / "l.clog2")
        run_pilot(lab2_main, 6, argv=("-pisvc=j",),
                  config=PilotConfig(mpe_log_path=path))
        return path

    def test_full_dump(self, clog, capsys):
        from repro.mpe.__main__ import main

        assert main(["print", clog]) == 0
        out = capsys.readouterr().out
        assert "definitions (" in out
        assert "statedef" in out and "eventdef" in out and "rankname" in out
        assert "send -> " in out and "recv <- " in out

    def test_limit_and_rank_filter(self, clog, capsys):
        from repro.mpe.__main__ import main

        assert main(["print", clog, "--limit", "5", "--rank", "0"]) == 0
        out = capsys.readouterr().out
        body = [l for l in out.splitlines()
                if l and l[0].isdigit()]
        assert len(body) == 5
        assert all(" r0 " in l for l in body)
        assert "more records" in out

    def test_defs_only(self, clog, capsys):
        from repro.mpe.__main__ import main

        assert main(["print", clog, "--defs-only"]) == 0
        out = capsys.readouterr().out
        assert "statedef" in out
        assert not any(l and l[0].isdigit() for l in out.splitlines()[2:])
