"""Runtime weaving: run unmodified blocking code on the coroutine scheduler.

The coroutine backend (``Engine(scheduler="coroutine")``) runs every rank
as a *generator* driven by a single-threaded trampoline.  Rank programs,
however, are written as ordinary synchronous Python — ``comm.recv(...)``,
``PI_Read(...)``, ``with engine.resource(...)`` — with no ``yield`` in
sight.  Without native stack switching (greenlet is deliberately not a
dependency) a blocking call buried five frames deep cannot suspend the
task unless *every* frame between the task entry point and the blocking
call is a generator.

This module makes that true at runtime.  When a function is first called
on the coroutine backend it is *woven*: its source is re-parsed and every
call expression ``f(x)`` is rewritten to ``(yield from _pilot_w_call(f, x))``.
:func:`w_call` then dispatches:

* engine/resource blocking primitives go to hand-written generator twins
  (registered by :mod:`repro.vmpi.engine` via :func:`register_twin`), whose
  ``yield`` propagates up the woven ``yield from`` chain to the trampoline;
* calls into weavable code recurse into the callee's woven twin;
* everything else (stdlib, numpy, non-blocking repro internals) runs as a
  plain synchronous call.

Woven functions keep their original ``co_filename``/line numbers, so
callsite capture, tracebacks, and the produced CLOG2 logs are identical
to the thread backend's.

Which code gets woven
---------------------

Only functions that may sit on a blocking path need weaving.  For
``repro.*`` an explicit allow-list (:data:`_WEAVE_MODULES`) names the
modules; hot numeric helpers are denied to keep their loops at full
speed.  Code outside the interpreter installation (user programs,
tests) is woven by default.  Stdlib and site-packages are never woven.

Within the allow-list, a conservative static proof — run lazily, once
per process, over the allow-list's source files — finds the functions
with no path to a registered twin.  :func:`weavable` says no to them:
their bodies run as plain Python, and :func:`w_call` calls them
directly (a nested ``def`` proven sync also stays plain inside a woven
function).  A function *may block* if any of these hold:

* it contains a ``with`` (``Resource.__enter__`` is a twin);
* it calls an attribute named like a twin (``advance``, ``block``,
  ``acquire``);
* it calls something the proof cannot resolve statically: a parameter,
  a local or closure variable, a subscript, a call result (so
  ``getattr(...)(...)``), a lambda, a name bound nowhere; a name that
  the allow-list binds by assignment (module globals, class
  attributes), behind a decorator other than
  ``staticmethod``/``classmethod`` (calling a property's name calls
  what it returns), or as a method with an empty body (an override
  point: the override may live outside the allow-list); or an
  attribute that fails the attribute rule below;
* it calls a name or attribute whose definitions in the allow-list
  (matched by name, across all its modules) include a function that may
  block.

The attribute rule: ``x.name(...)`` resolves only if ``name`` is the
name of a ``def`` somewhere in ``repro`` or of a builtin-type method
(``append``, ``get``), and nothing in ``repro`` stores under it: no
``x.name = ...``, ``setattr(x, "name", ...)``, class-body field or
assignment, or module global.  Otherwise ``x.name`` may hold anything —
``proc.work`` is the user's work function, stored by
``pilot/objects.py``.  A field annotated with a builtin data type
(``count: int``) is not such a store.  These facts come from a text
scan of every ``repro`` source file (parsing them all would cost
several times the proof), which takes a line ``name = ...`` whose
nearest enclosing ``def``/``class`` header is a ``def`` as a local; a
header or a store inside a string literal can mislead it.  A call into
a module imported with a plain ``import`` from outside ``repro``
(``os.path.join``, ``np.asarray``) resolves too.

May-block is the least fixpoint of those rules; every other definition
is sync.  Builtins, classes and functions outside the allow-list count
as sync, because :func:`w_call` already runs them synchronously.
Generator and async functions are never woven, so calling one is sync.

The proof also judges every call site: inside a woven function, a call
whose callee resolves and whose definitions are all sync is emitted as
a plain call, not a dispatch (the rewriter matches call sites by their
source span).  Only ``repro`` functions get per-call-site verdicts; user
code is woven call by call.  Rebinding at run time a global that a sync
function or a plain call site calls, to something that blocks, fails as
loudly as a blocking lambda (the engine's "reached the engine
synchronously" ``EngineError``).

Known, checked limitations: ``nonlocal`` rebinding a free variable of
the woven function is refused (closure cells are copied by value);
generator/async functions are never woven (they are called directly);
``lambda`` bodies are not woven — a lambda that blocks raises a loud
``EngineError`` instead of deadlocking.  Comprehensions are desugared
into explicit loops when they form the whole value of an assignment or
return; in any other position their bodies stay synchronous (same loud
error if they block).
"""

from __future__ import annotations

import ast
import builtins
import functools
import inspect
import os
import re
import sys
import sysconfig
import textwrap
import types
from typing import Any, Callable, Iterable

from repro.vmpi.errors import EngineError

__all__ = [
    "WeaveError",
    "WovenCallable",
    "register_twin",
    "w_call",
    "weavable",
    "woven_twin",
]


class WeaveError(EngineError):
    """A function could not be woven for the coroutine scheduler."""


# ---------------------------------------------------------------------------
# Twin registry: sync blocking primitive -> hand-written generator twin.
# ---------------------------------------------------------------------------

_TWINS: dict[Any, Callable[..., Any]] = {}


def register_twin(original: Callable[..., Any],
                  twin: Callable[..., Any]) -> None:
    """Register a generator twin for a synchronous blocking primitive.

    ``original`` is the plain function object (for methods, the function
    behind the bound method — ``Engine.advance``, not ``engine.advance``).
    Register before the first weave decision: the "never blocks" proof
    reads the twins' names once per process.
    """
    _TWINS[original] = twin


# ---------------------------------------------------------------------------
# Weave policy.
# ---------------------------------------------------------------------------

#: repro modules whose functions may sit on a blocking path.  Matched as
#: exact name or dotted prefix.
_WEAVE_MODULES = (
    "repro.pilot.api",
    "repro.pilot.rw",
    "repro.pilot.select",
    "repro.pilot.program",
    "repro.pilot.service",
    "repro.pilot.hooks",
    "repro.pilot.runner",
    "repro.vmpi.comm",
    "repro.vmpi.collectives",
    "repro.vmpi.world",
    "repro.mpe.api",
    "repro.mpe.clocksync",
    "repro.pilotlog.integration",
    "repro.apps",
)

#: repro modules explicitly kept synchronous (hot numeric loops that never
#: block; weaving them would only slow them down).
_DENY_MODULES = (
    "repro.apps.datagen",
    "repro.apps.jpeglite",
)

_INSTALL_PREFIXES = tuple({
    sys.prefix,
    sys.base_prefix,
    sys.exec_prefix,
    sysconfig.get_paths()["stdlib"],
})


def _matches(mod: str, names: Iterable[str]) -> bool:
    return any(mod == m or mod.startswith(m + ".") for m in names)


#: co_flags bits that disqualify a function from weaving outright.
_GENERATORISH = (inspect.CO_GENERATOR | inspect.CO_COROUTINE
                 | inspect.CO_ASYNC_GENERATOR)

#: Weavability verdict per code object.  The verdict depends only on
#: the code object (flags, name, filename) and the defining module —
#: and every function sharing a code object (closures from one factory
#: def) shares the module too — so one entry serves them all.  w_call
#: consults this on every single call from woven code; without the
#: cache the inspect flag checks and prefix matches dominate large-rank
#: runs.
_WEAVABLE_CACHE: dict[types.CodeType, bool] = {}


def weavable(fn: Any) -> bool:
    """True if ``fn`` should be rewritten for the coroutine scheduler."""
    if not isinstance(fn, types.FunctionType):
        return False
    code = fn.__code__
    cached = _WEAVABLE_CACHE.get(code)
    if cached is None:
        cached = _WEAVABLE_CACHE[code] = _weavable_uncached(fn, code)
    return cached


def _weavable_uncached(fn: types.FunctionType, code: types.CodeType) -> bool:
    if code.co_flags & _GENERATORISH:
        return False
    if code.co_name == "<lambda>":
        return False
    mod = fn.__module__ or ""
    if _matches(mod, ("repro",)):
        if _matches(mod, _DENY_MODULES) or not _matches(mod, _WEAVE_MODULES):
            return False
        return not _proven_sync(code)
    filename = code.co_filename
    if not filename or filename.startswith("<"):
        return False
    # User programs and tests live outside the interpreter installation.
    return not filename.startswith(_INSTALL_PREFIXES)


# ---------------------------------------------------------------------------
# The "never blocks" proof over the allow-list.
# ---------------------------------------------------------------------------

#: A function definition: (absolute source path, first line counting its
#: decorators — which is ``co_firstlineno`` — and name).
_Key = tuple[str, int, str]

#: A call expression's span in its file: (line, column, end line, end
#: column), as ``ast`` reports them.  The end tells ``f(x)(y)`` from
#: ``f(x)``.
_Pos = tuple[int, int, int, int]


class _Verdicts(frozenset):
    """The proof's result: the keys of the definitions proven sync.

    ``calls`` maps a source path to the call sites, inside definitions
    that may block, whose callee is proven never to block.
    """

    calls: dict[str, frozenset[_Pos]]


#: The proof's verdicts over the allow-list; None until the first weave
#: decision about a repro function needs them.
_SYNC_DEFS: _Verdicts | None = None

#: Decorators that leave a call of the decorated name running the def's
#: own body (any other decorator makes the name opaque; calling a
#: property's name calls whatever the property returns).
_TRANSPARENT_DECORATORS = frozenset({
    "staticmethod", "classmethod", "abstractmethod", "overload"})

_BUILTIN_NAMES = frozenset(dir(builtins))

#: Method names of the builtin types: ``x.append(...)`` is sync unless
#: a definition in the allow-list of the same name may block.
_BUILTIN_METHODS = frozenset().union(*(dir(t) for t in (
    object, bool, int, float, complex, str, bytes, bytearray, memoryview,
    list, tuple, dict, set, frozenset, range, slice)))


def _sync_defs() -> _Verdicts:
    global _SYNC_DEFS
    if _SYNC_DEFS is None:
        _SYNC_DEFS = _prove_sync(_allow_list_files(), _repro_files())
    return _SYNC_DEFS


def _proven_sync(code: types.CodeType) -> bool:
    key = (os.path.abspath(code.co_filename), code.co_firstlineno,
           code.co_name)
    return key in _sync_defs()


def _first_line(node: ast.FunctionDef | ast.AsyncFunctionDef) -> int:
    """The line ``co_firstlineno`` reports: the first decorator's."""
    return min([node.lineno] + [d.lineno for d in node.decorator_list])


def _repro_files(allow_list_only: bool = False) -> list[str]:
    """Source files of the repro package (or of its allow-list)."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    top = os.path.dirname(root)
    files = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        pkg = os.path.relpath(dirpath, top).replace(os.sep, ".")
        for fname in sorted(filenames):
            if not fname.endswith(".py"):
                continue
            mod = pkg if fname == "__init__.py" else f"{pkg}.{fname[:-3]}"
            if not allow_list_only or (_matches(mod, _WEAVE_MODULES)
                                       and not _matches(mod, _DENY_MODULES)):
                files.append(os.path.join(dirpath, fname))
    return files


def _allow_list_files() -> list[str]:
    """Source files of the repro modules :func:`weavable` may weave."""
    return _repro_files(allow_list_only=True)


# The repo-wide text scan.  Parsing every repro file would cost several
# times the proof itself, and the scan only needs names: every ``def``,
# and every name an attribute or field may be bound under.  The line
# pattern starts at a newline (the scan prefixes one to every file), and
# ``(?=(x))\N`` matches ``x`` without ever giving part of it back, so
# ``re`` spends a few steps per line.
_AUG = r"(?:[-+*/%@&|^]|//|\*\*|<<|>>)?="
_LINE_RE = re.compile(
    r"\n(?=([ \t]*))\1(?:"
    # 2, 3: a ``def``/``class`` header and its name.
    r"(class|def|async[ \t]+def)[ \t]+(\w+)"
    # 4: ``global a, b``.
    r"|global[ \t]+(\w+(?:[ \t]*,[ \t]*\w+)*)"
    # 5, 6: the targets of ``a.x, b = ...`` or ``name: T``, and the
    # annotation's first word.
    r"|(?=([\w.]+(?:[ \t]*,[ \t]*[\w.]+)*))\5[ \t]*"
    rf"(?::[ \t]*(\w*)|,?[ \t]*{_AUG}(?!=)))")
#: ``x.name = ...``, ``x.name += ...``.
_ATTR_STORE_RE = re.compile(rf"\.(?=(\w+))\1[ \t]*{_AUG}(?!=)")
#: ``setattr(x, "name", ...)``, ``object.__setattr__(x, "name", ...)``.
_SETATTR_RE = re.compile(r"setattr(?:__)?\([^,]*,[ \t]*[\"'](\w+)")
_SPLIT_RE = re.compile(r"[ \t]*,[ \t]*")
#: A field annotated with one of these holds no callable.
_DATA_TYPES = frozenset({
    "bool", "int", "float", "complex", "str", "bytes", "bytearray", "list",
    "tuple", "dict", "set", "frozenset"})


class _Scan:
    """What a text scan of source files finds: every ``def`` name, and
    every name something may store a callable under: ``x.name = ...``,
    ``setattr``, a class-body field or assignment, a module global.  A
    line ``name = ...`` whose nearest enclosing header is a ``def`` is a
    local; a field annotated with a builtin data type (``count: int``)
    holds no callable."""

    def __init__(self, texts: Iterable[str]) -> None:
        self.defs: set[str] = set()
        self.assigned: set[str] = set()
        for text in texts:
            self._add("\n" + text)

    def _add(self, text: str) -> None:
        defs, assigned = self.defs, self.assigned
        scopes: list[tuple[int, bool]] = [(-1, True)]  # (indent, class?)
        for indent, header, name, names, targets, ann in _LINE_RE.findall(
                text):
            depth = len(indent)
            if header:
                while scopes[-1][0] >= depth:
                    scopes.pop()
                scopes.append((depth, header == "class"))
                if header != "class":
                    defs.add(name)
            elif names:
                assigned.update(_SPLIT_RE.split(names))
            elif ann not in _DATA_TYPES:
                for store in _SPLIT_RE.split(targets):
                    if "." in store:
                        assigned.add(store.rpartition(".")[2])
                        continue
                    # The nearest header indented less: a class body or
                    # the module (the sentinel) binds a field or a
                    # global; a def binds a local.
                    i = len(scopes) - 1
                    while scopes[i][0] >= depth:
                        i -= 1
                    if scopes[i][1]:
                        assigned.add(store)
        assigned.update(_ATTR_STORE_RE.findall(text))
        assigned.update(_SETATTR_RE.findall(text))


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _trailing_name(node: ast.expr) -> str:
    while isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _is_override_point(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """A method whose body does nothing (docstring, ``pass``, ``...`` or
    ``raise NotImplementedError``) exists to be overridden — possibly by
    code outside the allow-list, which the proof cannot see."""
    for stmt in node.body:
        if isinstance(stmt, ast.Pass):
            continue
        if (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
                and (isinstance(stmt.value.value, str)
                     or stmt.value.value is Ellipsis)):
            continue
        if (isinstance(stmt, ast.Raise) and stmt.exc is not None
                and _trailing_name(stmt.exc) == "NotImplementedError"):
            continue
        return False
    return True


class _Def:
    """One function definition in the allow-list, as the proof sees it."""

    __slots__ = ("key", "module", "parent", "bound", "imports", "calls",
                 "blocks", "generator")

    def __init__(self, key: _Key, module: "_Module",
                 parent: "_Def | None") -> None:
        self.key = key
        self.module = module
        self.parent = parent  # innermost enclosing def (closure scope)
        self.bound: set[str] = set()  # parameters and locals
        self.imports: dict[str, str] = {}  # ``from m import f`` in the body
        # Each call's span and callee: ("name", id, ""), ("attr", attr,
        # root name of the receiver or ""), or None for any other
        # expression.
        self.calls: list[tuple[_Pos, tuple[str, str, str] | None]] = []
        self.blocks = False
        self.generator = False


class _Module:
    """Module-level bindings of one allow-list source file."""

    def __init__(self) -> None:
        self.defs: dict[str, list[_Def]] = {}
        self.classes: set[str] = set()
        self.imports: dict[str, str | None] = {}  # alias -> name (None: module)
        self.foreign: set[str] = set()  # aliases of non-repro modules
        self.other: set[str] = set()  # bound any other way


def _callee(func: ast.expr) -> tuple[str, str, str] | None:
    if isinstance(func, ast.Name):
        return ("name", func.id, "")
    if not isinstance(func, ast.Attribute):
        return None
    root = func.value
    while isinstance(root, ast.Attribute):
        root = root.value
    return ("attr", func.attr, root.id if isinstance(root, ast.Name) else "")


class _Proof:
    """Which allow-list functions can never reach a registered twin, and
    which of their call sites cannot.

    See "Which code gets woven" in the module docstring for the rules.
    """

    def __init__(self, twin_names: set[str], scan: _Scan) -> None:
        self.defs: list[_Def] = []
        self.by_name: dict[str, list[_Def]] = {}
        # Names a call cannot be resolved through, wherever they appear:
        # twins, attributes, fields and globals assigned anywhere the
        # scan saw, module-level names bound other than by
        # def/class/import, names behind a non-transparent decorator,
        # and override points.
        self.opaque: set[str] = set(twin_names) | scan.assigned
        # The attribute names a call may resolve through: methods.
        self.methods = scan.defs | _BUILTIN_METHODS

    def add_module(self, path: str, tree: ast.Module) -> None:
        """One pass over a module: every node is filed under the frame
        that runs it (a def, or the module when ``owner`` is None);
        ``cls`` marks statements of a class body."""
        module = _Module()
        opaque = self.opaque
        node_of: dict[_Def, ast.FunctionDef | ast.AsyncFunctionDef] = {}
        yielding: list[_Def] = []
        stack: list[tuple[ast.AST, _Def | None, bool]] = [
            (n, None, False) for n in tree.body]
        while stack:
            node, owner, cls = stack.pop()
            t = node.__class__
            # The commonest nodes first; neither has a child to visit
            # but its context.
            if t is ast.Name:
                if node.ctx.__class__ is not ast.Load:
                    if cls:
                        opaque.add(node.id)
                    elif owner is None:
                        module.other.add(node.id)
                    else:
                        owner.bound.add(node.id)
                continue
            if t is ast.Constant or t is ast.Load:
                continue
            if t is ast.Attribute:
                if node.ctx.__class__ is not ast.Load:
                    opaque.add(node.attr)
                stack.append((node.value, owner, cls))
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                stack.extend((x, owner, False) for x in (
                    *node.decorator_list, *a.defaults,
                    *(x for x in a.kw_defaults if x is not None)))
                d = _Def((path, _first_line(node), node.name), module, owner)
                d.generator = isinstance(node, ast.AsyncFunctionDef)
                node_of[d] = node
                self.defs.append(d)
                self.by_name.setdefault(node.name, []).append(d)
                if any(_trailing_name(x) not in _TRANSPARENT_DECORATORS
                       for x in node.decorator_list):
                    opaque.add(node.name)
                if cls and _is_override_point(node):
                    opaque.add(node.name)
                if owner is not None:
                    owner.bound.add(node.name)
                elif not cls:
                    module.defs.setdefault(node.name, []).append(d)
                d.bound.update(x.arg for x in (
                    *a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                    if x is not None)
                stack.extend((x, d, False) for x in node.body)
                continue
            if isinstance(node, ast.ClassDef):
                if owner is not None:
                    # A class body inside a def runs in its frame.
                    owner.blocks = True
                    owner.bound.add(node.name)
                elif not cls:
                    module.classes.add(node.name)
                stack.extend((x, owner, False) for x in (
                    *node.decorator_list, *node.bases, *node.keywords))
                stack.extend((x, owner, True) for x in node.body)
                continue
            if isinstance(node, ast.Call):
                if owner is not None:
                    owner.calls.append(((node.lineno, node.col_offset,
                                         node.end_lineno, node.end_col_offset),
                                        _callee(node.func)))
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                if owner is not None:
                    owner.blocks = True
            elif isinstance(node, (ast.Yield, ast.YieldFrom)):
                if owner is not None and not owner.generator:
                    owner.generator = True  # confirmed below
                    yielding.append(owner)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for al in node.names:
                    name = al.asname or al.name.partition(".")[0]
                    orig = (al.name if isinstance(node, ast.ImportFrom)
                            else None)
                    if owner is None:
                        module.imports[name] = orig
                        if orig is None and not _matches(al.name, ("repro",)):
                            module.foreign.add(name)
                    elif orig is None:
                        owner.bound.add(name)
                    else:
                        owner.imports[name] = orig
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                if isinstance(node, ast.Global):
                    module.other.update(node.names)
                if owner is not None:
                    owner.bound.update(node.names)
            elif isinstance(node, ast.arg):
                if owner is not None:
                    owner.bound.add(node.arg)  # a lambda's parameter
            elif isinstance(node, (ast.ExceptHandler, ast.MatchAs,
                                   ast.MatchStar, ast.MatchMapping)):
                name = getattr(node, "name", None) or getattr(node, "rest", None)
                if name is not None:  # except-as, match captures
                    if owner is None:
                        module.other.add(name)
                    else:
                        owner.bound.add(name)
            stack.extend((x, owner, cls) for x in ast.iter_child_nodes(node))
        opaque |= module.other
        for d in yielding:  # a yield inside a lambda is the lambda's
            d.generator = _has_own_yield(node_of[d])

    def _lookup(self, name: str | None) -> list[_Def] | None:
        """Definitions of an imported or attribute name, or None."""
        if name is None or name in self.opaque:
            return None
        return self.by_name.get(name, [])

    @staticmethod
    def _local(d: _Def, name: str) -> bool:
        """A parameter, local, closure variable or local import."""
        scope: _Def | None = d
        while scope is not None:
            if name in scope.bound or name in scope.imports:
                return True
            scope = scope.parent
        return False

    def _resolve(self, d: _Def, callee: tuple[str, str, str] | None
                 ) -> list[_Def] | None:
        """The definitions a call of ``callee`` inside ``d`` can run,
        or None when it may block whatever they are."""
        if callee is None:
            return None  # subscript, call result, lambda, ...
        kind, name, root = callee
        module = d.module
        if kind == "attr":
            if (root in module.foreign and root not in module.other
                    and not self._local(d, root)):
                return []  # into a non-repro module: never woven
            return self._lookup(name) if name in self.methods else None
        if name in d.imports and name not in d.bound:
            return self._lookup(d.imports[name])
        if self._local(d, name) or name in module.other:
            return None
        if name in module.imports:
            return self._lookup(module.imports[name])
        if name in module.defs:
            return None if name in self.opaque else module.defs[name]
        if name in module.classes or name in _BUILTIN_NAMES:
            return []
        return None

    def verdicts(self) -> _Verdicts:
        """May-block is the least fixpoint; everything else is sync.  A
        call site is sync when its callee resolves and none of the
        definitions it can run may block."""
        callers: dict[_Def, list[_Def]] = {}
        resolved: list[tuple[_Def, _Pos, list[_Def]]] = []
        for d in self.defs:
            if d.generator:
                # Calling a generator or coroutine function runs none of
                # its body, and the body is never woven.
                d.blocks = False
                continue
            for pos, callee in d.calls:
                callees = self._resolve(d, callee)
                if callees is None:
                    d.blocks = True
                    continue
                resolved.append((d, pos, callees))
                for c in callees:
                    callers.setdefault(c, []).append(d)
        may_block = {d for d in self.defs if d.blocks}
        work = list(may_block)
        while work:
            for caller in callers.get(work.pop(), ()):
                if caller not in may_block:
                    may_block.add(caller)
                    work.append(caller)
        calls: dict[str, set[_Pos]] = {}
        for d, pos, callees in resolved:
            # Only the bodies of may-block definitions are ever woven.
            if d in may_block and may_block.isdisjoint(callees):
                calls.setdefault(d.key[0], set()).add(pos)
        verdicts = _Verdicts(d.key for d in self.defs if d not in may_block)
        verdicts.calls = {path: frozenset(pos) for path, pos in calls.items()}
        return verdicts


def _prove_sync(paths: Iterable[str],
                scan_paths: Iterable[str] | None = None) -> _Verdicts:
    """Run the proof over the source files ``paths``; attribute names
    resolve against a text scan of ``scan_paths`` (default: ``paths``)."""
    paths = list(paths)
    # One file in memory at a time: the scan would otherwise hold all of
    # repro's source at once, and the heap keeps what it grows to.
    scan = _Scan(_read(p) for p in (paths if scan_paths is None
                                    else scan_paths))
    proof = _Proof({getattr(f, "__name__", "") for f in _TWINS}, scan)
    for path in paths:
        proof.add_module(path, ast.parse(_read(path), path))
    return proof.verdicts()


# ---------------------------------------------------------------------------
# WovenCallable: a woven nested function that still works when called from
# a synchronous context (comm observers, stall hooks, slot matchers).
# ---------------------------------------------------------------------------

class WovenCallable:
    """Callable wrapper over a woven (generator) function.

    Calling it synchronously drives the generator to completion; that
    succeeds exactly when the function does not block — anything that
    blocked from such a context would have deadlocked or failed on the
    thread backend too.  Woven callers dispatch through :func:`w_call`,
    which recognises the wrapper and ``yield from``s the underlying
    generator so blocking works as usual.
    """

    def __init__(self, gen_fn: Callable[..., Any],
                 original: Callable[..., Any] | None = None) -> None:
        self.gen_fn = gen_fn
        src = original if original is not None else gen_fn
        self.__name__ = getattr(src, "__name__", "woven")
        self.__qualname__ = getattr(src, "__qualname__", self.__name__)
        self.__doc__ = getattr(src, "__doc__", None)
        self.__module__ = getattr(src, "__module__", None)
        self.__wrapped__ = src

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        gen = self.gen_fn(*args, **kwargs)
        try:
            gen.send(None)
        except StopIteration as stop:
            return stop.value
        gen.close()
        raise EngineError(
            f"{self.__qualname__} tried to block while called from a "
            "synchronous context on the coroutine scheduler; only code "
            "reached through woven calls may block")

    def __repr__(self) -> str:
        return f"<woven {self.__qualname__}>"


def _mark(obj: Any) -> Any:
    """Post-definition hook for nested ``def``s inside woven functions.

    The rewrite turned them into generator functions; wrap those so they
    remain callable from synchronous contexts.  Anything that did not
    become a generator (no calls in its body) is returned unchanged."""
    if (obj.__class__ is types.FunctionType
            and obj.__code__.co_flags & inspect.CO_GENERATOR):
        return WovenCallable(obj)
    return obj


# ---------------------------------------------------------------------------
# The call dispatcher every woven call site goes through.
# ---------------------------------------------------------------------------

def w_call(fn, /, *args, **kwargs):  # noqa: ANN001 - generator protocol
    """Dispatch one call from woven code (generator; used via yield from).

    Every call expression in woven code funnels through here, so the
    common shapes are dispatched on exact type before the generic
    attribute-probing tail: plain functions, builtins/slot wrappers and
    class constructors (which never weave and never block), bound
    methods, partials and woven nested defs."""
    t = fn.__class__
    if t is types.FunctionType:
        twin = _TWINS.get(fn)
        if twin is not None:
            return (yield from twin(*args, **kwargs))
        if weavable(fn):
            return (yield from woven_twin(fn)(*args, **kwargs))
        return fn(*args, **kwargs)
    if (t is types.BuiltinFunctionType or t is types.MethodWrapperType
            or t is type):
        return fn(*args, **kwargs)
    if t is types.MethodType:
        func = fn.__func__
        twin = _TWINS.get(func)
        if twin is not None:
            return (yield from twin(fn.__self__, *args, **kwargs))
        if isinstance(func, WovenCallable):
            return (yield from func.gen_fn(fn.__self__, *args, **kwargs))
        if weavable(func):
            return (yield from woven_twin(func)(fn.__self__, *args, **kwargs))
        return fn(*args, **kwargs)
    # Generic tail: partial chains, WovenCallable, callable objects,
    # classmethods/staticmethods, metaclass instances.
    while isinstance(fn, functools.partial):
        if fn.keywords:
            kwargs = {**fn.keywords, **kwargs}
        args = fn.args + args
        fn = fn.func
        if fn.__class__ is not functools.partial:
            return (yield from w_call(fn, *args, **kwargs))
    if isinstance(fn, WovenCallable):
        return (yield from fn.gen_fn(*args, **kwargs))
    func = getattr(fn, "__func__", None)
    if func is not None and getattr(fn, "__self__", None) is not None:
        # Bound method: dispatch on the underlying function.
        twin = _TWINS.get(func)
        if twin is not None:
            return (yield from twin(fn.__self__, *args, **kwargs))
        if isinstance(func, WovenCallable):
            return (yield from func.gen_fn(fn.__self__, *args, **kwargs))
        if weavable(func):
            woven = woven_twin(func)
            return (yield from woven(fn.__self__, *args, **kwargs))
        return fn(*args, **kwargs)
    twin = _TWINS.get(fn)
    if twin is not None:
        return (yield from twin(*args, **kwargs))
    if weavable(fn):
        woven = woven_twin(fn)
        return (yield from woven(*args, **kwargs))
    return fn(*args, **kwargs)


def _w_enter(mgr):
    """``with`` support: run ``type(mgr).__enter__`` through the weave."""
    enter = type(mgr).__enter__
    return (yield from w_call(enter, mgr))


def _w_exit(mgr, exc):
    """``with`` support: run ``type(mgr).__exit__`` through the weave."""
    exit_ = type(mgr).__exit__
    if exc is None:
        return (yield from w_call(exit_, mgr, None, None, None))
    return (yield from w_call(exit_, mgr, type(exc), exc, exc.__traceback__))


# ---------------------------------------------------------------------------
# The AST rewrite.
# ---------------------------------------------------------------------------

def _has_own_yield(fndef: ast.AST) -> bool:
    """True if the function body contains a yield of its *own* scope."""
    barriers = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

    def scan(nodes: Iterable[ast.AST]) -> bool:
        for n in nodes:
            if isinstance(n, (ast.Yield, ast.YieldFrom)):
                return True
            if isinstance(n, barriers):
                continue
            if scan(ast.iter_child_nodes(n)):
                return True
        return False

    return scan(ast.iter_child_nodes(fndef))


def _nonlocal_names(fndef: ast.AST) -> set[str]:
    names: set[str] = set()
    for n in ast.walk(fndef):
        if isinstance(n, ast.Nonlocal):
            names.update(n.names)
    return names


class _Rename(ast.NodeTransformer):
    """Rename ``Name`` nodes per a mapping (comprehension desugaring)."""

    def __init__(self, mapping: dict[str, str]) -> None:
        self.mapping = mapping

    def visit_Name(self, node: ast.Name) -> ast.AST:
        new = self.mapping.get(node.id)
        if new is not None:
            node.id = new
        return node


class _Weaver(ast.NodeTransformer):
    """Rewrites every call to ``yield from _pilot_w_call(...)`` and every
    ``with`` block to explicit woven ``__enter__``/``__exit__`` calls.

    ``is_sync`` and ``plain`` name the nested defs and the call sites
    proven never to block; those stay plain Python."""

    def __init__(self, is_sync: Callable[[ast.FunctionDef], bool]
                 | None = None,
                 plain: Callable[[ast.Call], bool] | None = None) -> None:
        self._tmp = 0
        self._is_sync = is_sync
        self._plain = plain

    def transform_body(self, body: list[ast.stmt]) -> list[ast.stmt]:
        out: list[ast.stmt] = []
        for stmt in body:
            res = self.visit(stmt)
            if res is None:
                continue
            if isinstance(res, list):
                out.extend(res)
            else:
                out.append(res)
        return out

    # Scope barriers: yield is illegal (or scope-crossing) inside these,
    # and their bodies run synchronously anyway.
    def visit_Lambda(self, node: ast.Lambda) -> ast.AST:
        return node

    def visit_ListComp(self, node: ast.ListComp) -> ast.AST:
        return node

    def visit_SetComp(self, node: ast.SetComp) -> ast.AST:
        return node

    def visit_DictComp(self, node: ast.DictComp) -> ast.AST:
        return node

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> ast.AST:
        return node

    def visit_ClassDef(self, node: ast.ClassDef) -> ast.AST:
        return node

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> ast.AST:
        return node

    # -- comprehension desugaring ---------------------------------------
    #
    # Comprehension bodies compile to their own code objects, which the
    # weave never rewrites — a PI call inside one would reach the engine
    # synchronously.  When a list/set/dict comprehension is the *entire*
    # value of an assignment or return (the common Pilot idiom, e.g.
    # ``procs = [PI_CreateProcess(w, i) for i in range(n)]``), it is
    # desugared into an explicit loop over uniquely-renamed iteration
    # variables, whose calls then weave as usual.  Those positions are
    # the ones where desugaring cannot change evaluation order; anywhere
    # else the comprehension stays synchronous (and a blocking call in
    # it raises the loud EngineError).

    def _comp_desugarable(self, node: ast.expr) -> bool:
        if not isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp)):
            return False
        if any(g.is_async for g in node.generators):
            return False
        # Scope barriers inside would make the variable renaming unsound;
        # without any call there is nothing to gain.
        barriers = (ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp,
                    ast.GeneratorExp, ast.Await, ast.Yield, ast.YieldFrom)
        has_call = False
        for sub in ast.iter_child_nodes(node):
            for x in ast.walk(sub):
                if isinstance(x, barriers):
                    return False
                if isinstance(x, ast.Call):
                    has_call = True
        if not has_call:
            return False
        for g in node.generators:
            for t in ast.walk(g.target):
                if not isinstance(t, (ast.Name, ast.Tuple, ast.List,
                                      ast.Starred, ast.Store)):
                    return False
        return True

    def _desugar_comp(self, comp: ast.expr,
                      src: ast.AST) -> tuple[list[ast.stmt], str]:
        """Expand a comprehension into loop statements filling an
        accumulator; returns ``(statements, accumulator_name)``."""
        n = self._tmp
        self._tmp += 1
        acc = f"_pilot_w_acc{n}"
        renames: dict[str, str] = {}

        def woven(expr: ast.expr) -> ast.expr:
            return self.visit(_Rename(renames).visit(expr))

        def load(ident: str) -> ast.Name:
            return ast.Name(id=ident, ctx=ast.Load())

        # Generators process outermost-first: each iterable sees the
        # renames of the targets bound before it, matching real
        # comprehension scoping; renamed loop variables cannot clobber
        # (or be clobbered by) the enclosing function's locals.
        pieces = []
        for g in comp.generators:
            iter_expr = woven(g.iter)
            for t in ast.walk(g.target):
                if isinstance(t, ast.Name):
                    renames[t.id] = f"_pilot_w_it{n}_{t.id}"
            target = _Rename(renames).visit(g.target)
            conds = [woven(c) for c in g.ifs]
            pieces.append((target, iter_expr, conds))

        # The element expression sees every target, i.e. the full map.
        if isinstance(comp, ast.ListComp):
            init: ast.expr = ast.List(elts=[], ctx=ast.Load())
            inner: ast.stmt | list[ast.stmt] = ast.Expr(value=ast.Call(
                func=ast.Attribute(value=load(acc), attr="append",
                                   ctx=ast.Load()),
                args=[woven(comp.elt)], keywords=[]))
        elif isinstance(comp, ast.SetComp):
            init = ast.Call(func=load("set"), args=[], keywords=[])
            inner = ast.Expr(value=ast.Call(
                func=ast.Attribute(value=load(acc), attr="add",
                                   ctx=ast.Load()),
                args=[woven(comp.elt)], keywords=[]))
        else:
            assert isinstance(comp, ast.DictComp)
            init = ast.Dict(keys=[], values=[])
            # Temps preserve the comprehension's key-then-value
            # evaluation order (``acc[k] = v`` would evaluate v first).
            key_tmp, val_tmp = f"_pilot_w_k{n}", f"_pilot_w_v{n}"
            inner = [
                ast.Assign(targets=[ast.Name(id=key_tmp, ctx=ast.Store())],
                           value=woven(comp.key)),
                ast.Assign(targets=[ast.Name(id=val_tmp, ctx=ast.Store())],
                           value=woven(comp.value)),
                ast.Assign(
                    targets=[ast.Subscript(value=load(acc),
                                           slice=load(key_tmp),
                                           ctx=ast.Store())],
                    value=load(val_tmp)),
            ]

        body: list[ast.stmt] = inner if isinstance(inner, list) else [inner]
        for target, iter_expr, conds in reversed(pieces):
            for cond in reversed(conds):
                body = [ast.If(test=cond, body=body, orelse=[])]
            body = [ast.For(target=target, iter=iter_expr, body=body,
                            orelse=[])]
        stmts: list[ast.stmt] = [
            ast.Assign(targets=[ast.Name(id=acc, ctx=ast.Store())],
                       value=init),
            *body,
        ]
        for s in stmts:
            ast.copy_location(s, src)
            ast.fix_missing_locations(s)
        return stmts, acc

    def visit_Assign(self, node: ast.Assign) -> Any:
        if self._comp_desugarable(node.value):
            stmts, acc = self._desugar_comp(node.value, node)
            store = ast.Assign(
                targets=[self.visit(t) for t in node.targets],
                value=ast.Name(id=acc, ctx=ast.Load()))
            ast.copy_location(store, node)
            ast.fix_missing_locations(store)
            return stmts + [store]
        self.generic_visit(node)
        return node

    def visit_Return(self, node: ast.Return) -> Any:
        if node.value is not None and self._comp_desugarable(node.value):
            stmts, acc = self._desugar_comp(node.value, node)
            ret = ast.Return(value=ast.Name(id=acc, ctx=ast.Load()))
            ast.copy_location(ret, node)
            ast.fix_missing_locations(ret)
            return stmts + [ret]
        self.generic_visit(node)
        return node

    def visit_Call(self, node: ast.Call) -> ast.AST:
        self.generic_visit(node)
        if self._plain is not None and self._plain(node):
            return node
        call = ast.Call(
            func=ast.Name(id="_pilot_w_call", ctx=ast.Load()),
            args=[node.func, *node.args],
            keywords=node.keywords,
        )
        new = ast.YieldFrom(value=call)
        for n in (call, call.func, new):
            ast.copy_location(n, node)
        return new

    def visit_FunctionDef(self, node: ast.FunctionDef):
        # A genuine generator function: leave it (and its body) alone.
        if _has_own_yield(node):
            return node
        # A nested def proven never to block stays plain Python.
        if self._is_sync is not None and self._is_sync(node):
            return node
        node.body = self.transform_body(node.body)
        # The transformed def is now a generator function; re-bind the
        # name to a sync-callable wrapper so non-woven callers still work.
        mark = ast.Assign(
            targets=[ast.Name(id=node.name, ctx=ast.Store())],
            value=ast.Call(
                func=ast.Name(id="_pilot_w_mark", ctx=ast.Load()),
                args=[ast.Name(id=node.name, ctx=ast.Load())],
                keywords=[]),
        )
        ast.copy_location(mark, node)
        return [node, mark]

    def visit_With(self, node: ast.With) -> list[ast.stmt]:
        self.generic_visit(node)
        body = node.body
        for item in reversed(node.items):
            body = self._expand_with(item, body, node)
        return body

    def _expand_with(self, item: ast.withitem, body: list[ast.stmt],
                     src: ast.AST) -> list[ast.stmt]:
        n = self._tmp
        self._tmp += 1
        mgr = f"_pilot_w_mgr{n}"
        ok = f"_pilot_w_ok{n}"
        excname = f"_pilot_w_exc{n}"

        def name(ident: str, ctx: ast.expr_context) -> ast.Name:
            return ast.Name(id=ident, ctx=ctx)

        def exit_call(exc_arg: ast.expr) -> ast.YieldFrom:
            return ast.YieldFrom(value=ast.Call(
                func=name("_pilot_w_exit", ast.Load()),
                args=[name(mgr, ast.Load()), exc_arg], keywords=[]))

        stmts: list[ast.stmt] = [
            ast.Assign(targets=[name(mgr, ast.Store())],
                       value=item.context_expr),
        ]
        enter = ast.YieldFrom(value=ast.Call(
            func=name("_pilot_w_enter", ast.Load()),
            args=[name(mgr, ast.Load())], keywords=[]))
        if item.optional_vars is not None:
            stmts.append(ast.Assign(targets=[item.optional_vars],
                                    value=enter))
        else:
            stmts.append(ast.Expr(value=enter))
        stmts.append(ast.Assign(targets=[name(ok, ast.Store())],
                                value=ast.Constant(value=True)))
        handler = ast.ExceptHandler(
            type=name("BaseException", ast.Load()),
            name=excname,
            body=[
                ast.Assign(targets=[name(ok, ast.Store())],
                           value=ast.Constant(value=False)),
                ast.If(
                    test=ast.UnaryOp(
                        op=ast.Not(),
                        operand=exit_call(name(excname, ast.Load()))),
                    body=[ast.Raise()],
                    orelse=[]),
            ])
        inner = ast.Try(body=body, handlers=[handler], orelse=[],
                        finalbody=[])
        outer = ast.Try(
            body=[inner], handlers=[], orelse=[],
            finalbody=[ast.If(test=name(ok, ast.Load()),
                              body=[ast.Expr(value=exit_call(
                                  ast.Constant(value=None)))],
                              orelse=[])])
        stmts.append(outer)
        for s in stmts:
            ast.copy_location(s, src)
        return stmts


# ---------------------------------------------------------------------------
# Compilation and caching.
# ---------------------------------------------------------------------------

_WOVEN_BY_CODE: dict[types.CodeType, Callable[..., Any]] = {}
_FACTORY_BY_CODE: dict[types.CodeType, Callable[..., Any]] = {}


def _install_helpers(g: dict[str, Any]) -> None:
    g["_pilot_w_call"] = w_call
    g["_pilot_w_mark"] = _mark
    g["_pilot_w_enter"] = _w_enter
    g["_pilot_w_exit"] = _w_exit


def _compile_woven(fn: types.FunctionType, *, factory: bool) -> Any:
    code = fn.__code__
    try:
        raw = inspect.getsource(fn)
    except (OSError, TypeError) as exc:
        raise WeaveError(
            f"cannot weave {fn.__qualname__}: source unavailable ({exc})"
        ) from exc
    src = textwrap.dedent(raw)
    try:
        mod = ast.parse(src)
    except SyntaxError as exc:  # pragma: no cover - getsource artifacts
        raise WeaveError(
            f"cannot weave {fn.__qualname__}: {exc}") from exc
    fndef = next((n for n in mod.body
                  if isinstance(n, ast.FunctionDef)
                  and n.name == code.co_name), None)
    if fndef is None:
        raise WeaveError(
            f"cannot weave {fn.__qualname__}: no function definition "
            f"named {code.co_name!r} at the top of its source block "
            "(lambdas and class bodies are not weavable)")
    if _nonlocal_names(fndef) & set(code.co_freevars):
        raise WeaveError(
            f"cannot weave {fn.__qualname__}: it rebinds enclosing-scope "
            "variables via 'nonlocal', which the coroutine scheduler's "
            "closure copying cannot preserve; restructure to return the "
            "value or mutate a shared object instead")
    fndef.decorator_list = []
    weaver = _Weaver()
    if _matches(fn.__module__ or "", ("repro",)):
        path = os.path.abspath(code.co_filename)
        line = code.co_firstlineno - 1
        # The columns the dedent removed from every line.
        col = (len(raw) - len(raw.lstrip())) - (len(src) - len(src.lstrip()))
        sync = _sync_defs()
        sync_calls = sync.calls.get(path, frozenset())

        def is_sync(node: ast.FunctionDef) -> bool:
            return (path, _first_line(node) + line, node.name) in sync

        def plain(node: ast.Call) -> bool:
            return (node.lineno + line, node.col_offset + col,
                    node.end_lineno + line,
                    node.end_col_offset + col) in sync_calls

        weaver = _Weaver(is_sync, plain)
    fndef.body = weaver.transform_body(fndef.body)
    # A body with no call expressions gains no yields; this dead guard
    # still marks the code object as a generator so w_call can always
    # ``yield from`` the twin.
    fndef.body.append(ast.If(
        test=ast.Constant(value=False),
        body=[ast.Expr(value=ast.Yield(value=None))],
        orelse=[]))
    if factory:
        freevars = code.co_freevars
        wrapper = ast.FunctionDef(
            name="__pilot_weave_factory__",
            args=ast.arguments(
                posonlyargs=[], args=[ast.arg(arg=v) for v in freevars],
                kwonlyargs=[], kw_defaults=[], defaults=[]),
            body=[fndef,
                  ast.Return(value=ast.Name(id=fndef.name, ctx=ast.Load()))],
            decorator_list=[],
        )
        out_mod = ast.Module(body=[wrapper], type_ignores=[])
    else:
        out_mod = ast.Module(body=[fndef], type_ignores=[])
    ast.fix_missing_locations(out_mod)
    ast.increment_lineno(out_mod, code.co_firstlineno - 1)
    g = fn.__globals__
    _install_helpers(g)
    ns: dict[str, Any] = {}
    exec(compile(out_mod, code.co_filename, "exec"), g, ns)
    return ns["__pilot_weave_factory__" if factory else fndef.name]


def woven_twin(fn: types.FunctionType) -> Callable[..., Any]:
    """Return (building and caching if needed) the woven generator twin."""
    cached = getattr(fn, "__pilot_woven_twin__", None)
    if cached is not None:
        return cached
    code = fn.__code__
    if code.co_freevars:
        fac = _FACTORY_BY_CODE.get(code)
        if fac is None:
            fac = _compile_woven(fn, factory=True)
            _FACTORY_BY_CODE[code] = fac
        if fn.__closure__ is None or len(fn.__closure__) != len(code.co_freevars):
            raise WeaveError(
                f"cannot weave {fn.__qualname__}: closure unavailable")
        try:
            cells = [c.cell_contents for c in fn.__closure__]
        except ValueError as exc:
            raise WeaveError(
                f"cannot weave {fn.__qualname__}: empty closure cell "
                "(self-referential closure defined but not yet bound)"
            ) from exc
        twin = fac(*cells)
    else:
        twin = _WOVEN_BY_CODE.get(code)
        if twin is None:
            twin = _compile_woven(fn, factory=False)
            _WOVEN_BY_CODE[code] = twin
    # The rewrite wraps every nested def via _pilot_w_mark; the top-level
    # twin itself must expose the original defaults and identity.
    twin.__defaults__ = fn.__defaults__
    twin.__kwdefaults__ = fn.__kwdefaults__
    twin.__qualname__ = fn.__qualname__
    try:
        fn.__pilot_woven_twin__ = twin  # type: ignore[attr-defined]
    except (AttributeError, TypeError):  # pragma: no cover
        pass
    return twin
