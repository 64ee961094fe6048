"""The weave's "never blocks" proof: which repro functions run unwoven.

``repro.vmpi.weave`` proves, once per process, which functions in its
allow-list have no path to a registered twin; those run as plain
Python on the coroutine scheduler.  These tests pin the verdicts the
hot paths rely on, each proof rule on small synthetic modules, the
lazy once-per-process computation, the loud failure when a rebinding
defeats the proof, and the dispatch budget it buys on the classroom
workload.
"""

import ast
import functools
import os
import subprocess
import sys
import textwrap
import types

import pytest

from repro.apps import ThumbnailConfig, thumbnail_main
from repro.mpe import api as mpe_api
from repro.mpe.api import MpeLogger
from repro.mpe.records import BareEvent
from repro.pilot import PilotConfig, run_pilot
from repro.pilot import program as pilot_program
from repro.pilot import api as api_mod
from repro.pilot import rw as pilot_rw
from repro.pilot.api import (
    PI_MAIN,
    PI_Configure,
    PI_CreateChannel,
    PI_CreateProcess,
    PI_Read,
    PI_StartAll,
    PI_StopMain,
    PI_Write,
)
from repro.pilot.program import PilotRun, current_run, pilot_callsite
from repro.pilotlog.integration import JumpshotLoggerHook
from repro.vmpi import weave
from repro.vmpi.comm import Communicator, _make_matcher
from repro.vmpi.errors import EngineError, TaskFailed


def _prove(tmp_path, source, outside=None):
    """Sync definition names of one synthetic allow-list module.

    ``outside`` is the source of a module the text scan reads but the
    proof does not parse: repro code outside the allow-list."""
    path = tmp_path / "mod.py"
    path.write_text(textwrap.dedent(source))
    scan = None
    if outside is not None:
        other = tmp_path / "outside.py"
        other.write_text(textwrap.dedent(outside))
        scan = [str(path), str(other)]
    return {name for _, _, name in weave._prove_sync([str(path)], scan)}


class TestVerdicts:
    @pytest.mark.parametrize("fn", [
        PilotRun.rank_state, Communicator.wtime, _make_matcher,
        current_run, pilot_callsite,
    ], ids=lambda f: f.__qualname__)
    def test_hot_helpers_are_proven_sync(self, fn):
        assert weave._proven_sync(fn.__code__)
        assert not weave.weavable(fn)

    @pytest.mark.parametrize("fn", [
        PilotRun.check,  # -> fail -> hooks.on_abort -> engine.advance
        PilotRun.fail,
        PilotRun.require_phase,
        JumpshotLoggerHook._maybe_checkpoint,  # engine.advance
        Communicator._pop_pending,  # calls its matcher parameter
    ], ids=lambda f: f.__qualname__)
    def test_may_block_functions_stay_woven(self, fn):
        assert not weave._proven_sync(fn.__code__)
        assert weave.weavable(fn)

    def test_no_allow_list_function_with_a_with_is_sync(self):
        def has_own_with(fn):
            stack = list(fn.body)
            while stack:
                node = stack.pop()
                if isinstance(node, ast.With):
                    return True
                if not isinstance(node, (ast.FunctionDef, ast.ClassDef,
                                         ast.Lambda)):
                    stack.extend(ast.iter_child_nodes(node))
            return False

        sync = weave._prove_sync(weave._allow_list_files())
        with_defs = []
        for path in weave._allow_list_files():
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and has_own_with(node):
                    line = min([node.lineno]
                               + [d.lineno for d in node.decorator_list])
                    with_defs.append((os.path.abspath(path), line, node.name))
        assert with_defs, "the allow-list should contain with-blocks"
        assert not set(with_defs) & sync


class TestCallSites:
    def test_log_event_dispatches_only_its_may_block_callee(
            self, monkeypatch):
        """``MpeLogger.log_event`` runs once per MPE record: inside its
        woven twin only ``_charge`` (which may advance virtual time) goes
        through the dispatcher; ``_state``, ``wtime``, ``append`` and
        ``BareEvent`` are plain calls."""
        twin = weave.woven_twin(MpeLogger.log_event)
        dispatched = []

        def recording_w_call(fn, /, *args, **kwargs):
            dispatched.append(fn.__name__)
            return fn(*args, **kwargs)
            yield  # a generator, like the real dispatcher

        monkeypatch.setattr(mpe_api, "_pilot_w_call", recording_w_call)
        records = []

        class Comm:
            rank = 3

            def wtime(self):
                return 1.5

        class Logger:
            comm = Comm()

            def _state(self):
                return types.SimpleNamespace(records=records)

            def _charge(self):
                pass

        list(twin(Logger(), 7, "hi"))
        assert dispatched == ["_charge"]
        assert records == [BareEvent(1.5, 3, 7, "hi")]

    def test_user_work_function_call_stays_woven(self):
        """``proc.work(...)`` in PI_StartAll calls a user function that
        pilot/objects.py stores under ``work``: that call site must go
        through the dispatcher so the work function is woven."""
        path = os.path.abspath(api_mod.__file__)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        (site,) = [node for node in ast.walk(tree)
                   if isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Attribute)
                   and node.func.attr == "work"]
        calls = weave._sync_defs().calls[path]
        assert (site.lineno, site.col_offset, site.end_lineno,
                site.end_col_offset) not in calls
        # ...while the same function's plain helpers are plain calls.
        assert calls

    def test_rebound_plain_call_site_callee_that_blocks_raises(
            self, monkeypatch, tmp_path):
        """``_parse_or_fail`` may block (it can abort the run) but its
        ``parse_format(...)`` call site is plain; rebinding that global
        to something that blocks must fail loudly, not hang."""
        real = pilot_rw.parse_format

        def blocking_parse(*args, **kwargs):
            current_run().engine.advance(1e-6, "rebound")
            return real(*args, **kwargs)

        monkeypatch.setattr(pilot_rw, "parse_format", blocking_parse)
        with pytest.raises(TaskFailed) as ei:
            run_pilot(_pingpong_main, 2,
                      config=PilotConfig(scheduler="coroutine"))
        assert isinstance(ei.value.original, EngineError)
        assert "reached the engine synchronously" in str(ei.value.original)


class TestRules:
    def test_with_block_may_block(self, tmp_path):
        assert _prove(tmp_path, """
            def f(lock):
                with lock:
                    pass
            def g():
                return 1
        """) == {"g"}

    def test_twin_named_attribute_may_block(self, tmp_path):
        assert _prove(tmp_path, """
            def f(engine):
                engine.advance(1.0)
            def g(res):
                res.acquire()
            def h(engine):
                engine.block("x")
            def k(engine):
                engine.wake(None)
        """, outside="""
            class Engine:
                def wake(self, task):
                    return task
        """) == {"k"}

    @pytest.mark.parametrize("call", [
        "cb()",  # a parameter
        "local = len; local()",  # a local
        "table[0]()",  # a subscript
        "make()()",  # a call result
        "getattr(obj, 'name')()",  # getattr(...)(...)
        "(lambda: 1)()",
        "UNKNOWN()",  # a name bound nowhere
        "ASSIGNED()",  # a module name bound by assignment
        "obj.stored()",  # an attribute something assigns
        "obj.hook()",  # an override point (empty method body)
        "decorated()",  # behind a non-transparent decorator
    ])
    def test_unresolvable_calls_may_block(self, tmp_path, call):
        src = f"""
            import functools
            ASSIGNED = print
            def make():
                return len
            @functools.lru_cache
            def decorated():
                return 1
            class Base:
                def hook(self):
                    \"\"\"Subclasses override this.\"\"\"
                def setup(self, fn):
                    self.stored = fn
            def f(cb, table, obj):
                {call}
        """
        assert "f" not in _prove(tmp_path, src)

    def test_resolved_calls_follow_their_definitions(self, tmp_path):
        sync = _prove(tmp_path, """
            from os.path import join
            def leaf(x):
                return len(x) + max(x)
            def blocker(engine):
                engine.advance(1.0)
            class Box:
                def size(self):
                    return leaf([1])
                def wait(self, engine):
                    blocker(engine)
            def uses_leaf(box):
                box.size()
                return leaf([2]), join("a", "b"), Box(), sorted([3])
            def uses_blocker(box, engine):
                box.wait(engine)
            def even(n):
                return n == 0 or odd(n - 1)
            def odd(n):
                return n != 0 and even(n - 1)
            def gen(engine):
                engine.advance(1.0)
                yield 1
        """)
        assert sync == {"leaf", "size", "uses_leaf", "even", "odd", "gen"}

    def test_attribute_naming_no_def_may_block(self, tmp_path):
        # ``obj.unknown`` names no def anywhere: whatever it holds was
        # put there by code the scan did not see.  Builtin-type methods
        # and calls into non-repro modules resolve.
        assert _prove(tmp_path, """
            import os.path
            def f(obj):
                obj.unknown()
            def g(items):
                items.append(os.path.join("a", "b"))
        """) == {"g"}

    def test_attribute_stored_outside_the_allow_list_may_block(self, tmp_path):
        # PI_StartAll's ``proc.work(...)``: ``work`` names a def, but
        # pilot/objects.py, outside the allow-list, stores a user
        # function under it.
        src = """
            def start(proc):
                proc.work(0)
            def work(index):
                return index
        """
        assert _prove(tmp_path, src, outside="") == {"start", "work"}
        assert _prove(tmp_path, src, outside="""
            class Process:
                def __init__(self, work):
                    self.work = work
        """) == {"work"}

    @pytest.mark.parametrize("outside, sync", [
        ("class Spec:\n    hook: Callable\n", False),
        ("class Spec:\n    hook = staticmethod(print)\n", False),
        ("hook = print\n", False),
        ("class Spec:\n    hook: int = 0\n", True),  # holds no callable
        ("def make():\n    hook = print\n    return hook\n", True),  # a local
    ])
    def test_fields_and_globals_count_as_stores(self, tmp_path, outside,
                                                 sync):
        names = _prove(tmp_path, """
            def f(obj):
                obj.hook()
            def hook():
                return 1
        """, outside=outside)
        assert ("f" in names) is sync

    def test_call_sites_are_judged_one_by_one(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(textwrap.dedent("""
            def blocker(engine):
                engine.advance(1.0)
            def leaf():
                return 1
            def mixed(engine, cb):
                leaf()
                blocker(engine)
                cb()
                len(leaf())
        """))
        verdicts = weave._prove_sync([str(path)])
        assert {name for _, _, name in verdicts} == {"leaf"}
        lines = {pos[0] for pos in verdicts.calls[str(path)]}
        # leaf(), len(...) and the leaf() inside it; not blocker(engine),
        # not cb() and nothing inside blocker, which only calls a twin.
        assert lines == {7, 10}

    def test_nested_defs_and_closures(self, tmp_path):
        sync = _prove(tmp_path, """
            def outer(engine, fn):
                def inner(x):
                    return x + 1
                def calls_closure():
                    return fn()
                return inner, calls_closure
            def local_import():
                from os.path import join
                return join("a")
        """)
        assert sync == {"outer", "inner", "local_import"}


def _tiny_main(argv):
    PI_Configure(argv)
    PI_StartAll()
    PI_StopMain(0)
    return "done"


def _pingpong_main(argv):
    chans = []

    def work(index, _arg):
        PI_Write(chans[0], "%d", PI_Read(chans[1], "%d") + 1)
        return 0

    PI_Configure(argv)
    proc = PI_CreateProcess(work, 0)
    chans.extend([PI_CreateChannel(proc, PI_MAIN),
                  PI_CreateChannel(PI_MAIN, proc)])
    PI_StartAll()
    PI_Write(chans[1], "%d", 41)
    assert PI_Read(chans[0], "%d") == 42
    PI_StopMain(0)


class TestLazyOncePerProcess:
    def test_not_at_import_and_once_per_process(self):
        script = textwrap.dedent("""
            import repro.apps, repro.pilot, repro.pilotlog, repro.vmpi.weave as w
            assert w._SYNC_DEFS is None, "proof ran at import time"
            calls = []
            real = w._prove_sync
            w._prove_sync = lambda *args: calls.append(1) or real(*args)
            from repro.apps.lab2 import lab2_main
            from repro.pilot import PilotConfig, run_pilot
            for _ in range(2):
                res = run_pilot(lab2_main, 6,
                                config=PilotConfig(scheduler="coroutine"))
                assert res.ok
            assert len(calls) == 1, calls
            print("ok")
        """)
        env = dict(os.environ)
        package = os.path.dirname(os.path.dirname(weave.__file__))
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.dirname(package), env.get("PYTHONPATH", "")])
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "ok"


class TestLoudFailure:
    def test_rebound_global_that_blocks_raises(self, monkeypatch, tmp_path):
        """``pilot_callsite`` is proven sync and runs unwoven; rebinding
        the global it calls to something that blocks must fail loudly
        (the engine's synchronous-block error), not hang or mis-log."""
        assert not weave.weavable(pilot_callsite)
        real = pilot_program.capture_callsite

        def blocking_capture(*args, **kwargs):
            current_run().engine.advance(1e-6, "rebound")
            return real(*args, **kwargs)

        monkeypatch.setattr(pilot_program, "capture_callsite",
                            blocking_capture)
        log = tmp_path / "run.clog2"
        cfg = PilotConfig(scheduler="coroutine", services="j",
                          mpe_log_path=str(log))
        with pytest.raises(TaskFailed) as ei:
            run_pilot(_tiny_main, 2, config=cfg)
        assert isinstance(ei.value.original, EngineError)
        assert "reached the engine synchronously" in str(ei.value.original)
        assert not log.exists()


def test_dispatch_budget_on_classroom(tmp_path, monkeypatch):
    """thumbnail-150 on 11 ranks with ``services="j"``: woven call sites
    may dispatch at most 8 times per blocking twin call (21 when every
    allow-list function was woven, 15.2 with per-function verdicts
    only)."""
    counts = {"dispatch": 0, "twin": 0}
    real_w_call = weave.w_call

    def counting_w_call(fn, /, *args, **kwargs):
        counts["dispatch"] += 1
        return (yield from real_w_call(fn, *args, **kwargs))

    def counting_twin(twin):
        def gen(*args, **kwargs):
            counts["twin"] += 1
            return (yield from twin(*args, **kwargs))
        return gen

    monkeypatch.setattr(weave, "w_call", counting_w_call)
    for original, twin in list(weave._TWINS.items()):
        monkeypatch.setitem(weave._TWINS, original, counting_twin(twin))
    for mod in list(sys.modules.values()):
        if getattr(mod, "_pilot_w_call", None) is real_w_call:
            monkeypatch.setattr(mod, "_pilot_w_call", counting_w_call)
    main = functools.partial(thumbnail_main,
                             config=ThumbnailConfig(nfiles=150, seed=0))
    try:
        res = run_pilot(main, 11, config=PilotConfig(
            services="j", scheduler="coroutine", seed=0,
            mpe_log_path=str(tmp_path / "classroom.clog2")))
    finally:
        # Modules first woven during the run got the shim installed.
        for mod in list(sys.modules.values()):
            if getattr(mod, "_pilot_w_call", None) is counting_w_call:
                mod._pilot_w_call = real_w_call
    assert res.ok
    assert counts["twin"] > 10_000
    assert counts["dispatch"] <= 8 * counts["twin"], counts
