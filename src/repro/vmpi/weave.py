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
call expression ``f(x)`` — and each ``with`` block's ``__enter__`` and
``__exit__`` — is rewritten to a cached call site (see below).  One
resolver, :func:`_site_entry`, says what a callee runs:

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
their bodies run as plain Python, and call sites call them directly (a
nested ``def`` proven sync also stays plain inside a woven function).
A function *may block* if any of these hold:

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
as sync, because a call site already runs them synchronously.
Generator and async functions are never woven, so calling one is sync.

The proof also judges every call site: inside a woven function, a call
whose callee resolves and whose definitions are all sync is emitted as
a plain call, not a dispatch (the rewriter matches call sites by their
source span).  Only ``repro`` functions get per-call-site verdicts; user
code is woven call by call.  Rebinding at run time a global that a sync
function or a plain call site calls, to something that blocks, fails as
loudly as a blocking lambda (the engine's "reached the engine
synchronously" ``EngineError``).

Call-site caches
----------------

Every call site of a woven function (apart from the ``repro`` call
sites the proof emits as plain calls) remembers its last callee in a
one-entry cache.  The site evaluates its callee once, first.  If the
callee is the cached key — a bound method's ``__func__``, or a
function, class, woven nested def or unbound C-type method itself —
the site runs the cached target directly: ``yield from`` the generator
twin (the target gets the bound ``self`` first), or a plain call for a
callee with no twin (so an event no hook overrides, ``HookSet``'s
``_ignore``, a ``nullcontext``'s ``__exit__``, or a file's or a lock's
``__enter__`` costs one plain call).  A builtin
(``len``, a bound ``list.append``) is called plainly without touching
the cache.  Any other callee takes the slow path (:func:`_site_miss`):
it fills the cache from :func:`_site_entry` and dispatches through
:func:`w_call`, which runs what the same resolver names.  The
arguments are evaluated once, after the callee, in the branch that
runs.  A ``with`` block looks up ``type(mgr).__enter__`` and
``__exit__`` first, as Python does, then calls them through two such
sites (three with the exception path).  Two rules keep a cache from
running a stale target:

* an entry is one ``(key, target)`` tuple, stored in one step and read
  once per call, so two coroutine engines on two threads that share a
  site never pair one callee's key with another's target;
* :func:`register_twin` empties every cache, so a twin registered after
  a site was filled is still honoured.

A rebound global or method is a new key, so the site's next call takes
the slow path; a rebound callee that blocks synchronously still fails
loudly.  The caches of a woven function are free variables of its
twin, one set per code object, all listed in :data:`_SITES`.

Each function object gets its own twin, built by one factory per code
object, which takes the cache lists and the closure's cell values; the
twin takes the original's defaults, so they are evaluated once, where
the ``def`` ran.

Known, checked limitations: ``nonlocal`` rebinding a free variable of
the woven function is refused (closure cells are copied by value);
generator/async functions are never woven (they are called directly);
``lambda`` bodies are not woven — a lambda that blocks raises a loud
``EngineError`` instead of deadlocking.  Comprehensions are desugared
into explicit loops when they form the whole value of an assignment or
return; in any other position their bodies stay synchronous (same loud
error if they block).  A method's zero-argument ``super()`` is
rewritten to ``super(__class__, <first parameter>)``: the bare form
reads its class and instance from the frame that makes the call, which
a site's slow path is not.
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

#: Every call-site cache of every woven repro function: a two-slot list,
#: ``[method entry, function entry]``, each entry one ``(key, target)``
#: tuple (see "Call-site caches" in the module docstring).
_SITES: list[list[tuple[Any, Any]]] = []

#: The entry of an empty slot: its key is no callee.
_EMPTY_ENTRY: tuple[Any, Any] = (object(), None)


def register_twin(original: Callable[..., Any],
                  twin: Callable[..., Any]) -> None:
    """Register a generator twin for a synchronous blocking primitive.

    ``original`` is the plain function object (for methods, the function
    behind the bound method — ``Engine.advance``, not ``engine.advance``).
    Register before the first weave decision: the "never blocks" proof
    reads the twins' names once per process.  Registering empties every
    call-site cache, so a site filled before still honours the new twin.
    """
    _TWINS[original] = twin
    _empty_sites()


def _empty_sites() -> None:
    """Empty every call-site cache: each site's next call takes the
    slow path."""
    for site in _SITES:
        site[0] = site[1] = _EMPTY_ENTRY


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
#: def) shares the module too — so one entry serves them all.  The
#: callee resolver consults this on every slow-path call; without the
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
    thread backend too.  A woven call site recognises the wrapper
    (:func:`_site_entry`) and ``yield from``s the underlying generator,
    so blocking works as usual.
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
# The callee resolver and the slow path every call site falls back to.
# ---------------------------------------------------------------------------

def w_call(fn, /, *args, **kwargs):  # noqa: ANN001 - generator protocol
    """Dispatch one call from woven code (generator; used via yield from).

    The slow path of every call site (:func:`_site_miss`) and the entry
    of every coroutine task.  It unwraps partials, then runs what
    :func:`_site_entry` names: the generator twin, ``yield from``-ed
    (a bound method's ``self`` first), or else a plain call."""
    while isinstance(fn, functools.partial):
        args = fn.args + args
        kwargs = {**fn.keywords, **kwargs}
        fn = fn.func
    entry = _site_entry(fn)
    target = None if entry is None else entry[1][1]
    if target is None:
        return fn(*args, **kwargs)
    if entry[0] == 0:
        return (yield from target(fn.__self__, *args, **kwargs))
    return (yield from target(*args, **kwargs))


def _target(fn: Any) -> Callable[..., Any] | None:
    """The generator twin a call of ``fn`` runs, or None for a plain
    call: a registered twin, a woven nested def's generator, or the
    woven twin of a weavable function."""
    twin = _TWINS.get(fn)
    if twin is not None:
        return twin
    if fn.__class__ is WovenCallable:
        return fn.gen_fn
    return woven_twin(fn) if weavable(fn) else None


#: Unbound methods of C types: never woven, never twins.
_C_METHODS = (types.MethodDescriptorType, types.WrapperDescriptorType)


def _site_entry(fn: Any) -> tuple[int, tuple[Any, Any]] | None:
    """The one callee resolver: the cache slot and ``(key, target)``
    entry for callee ``fn``, or None for a callee no site caches (a
    partial, a bound builtin, a callable object), which is called
    plainly once unwrapped.

    The target is the generator twin (:func:`_target`), or None for a
    plain call.  A bound method goes in slot 0, keyed by its
    ``__func__`` (its target takes ``self`` first); a function, a woven
    nested def, a class or an unbound method of a C type (the
    ``__enter__``/``__exit__`` a ``with`` over a file or a lock looks
    up) in slot 1, keyed by itself."""
    t = fn.__class__
    if t is types.MethodType:
        func = fn.__func__
        return 0, (func, _target(func))
    if t is types.FunctionType or t is WovenCallable:
        return 1, (fn, _target(fn))
    if t in _C_METHODS or isinstance(fn, type):
        return 1, (fn, None)
    return None


def _site_miss(site, fn, /, *args, **kwargs):  # noqa: ANN001
    """A call site's slow path: fill its cache, then dispatch through
    :func:`w_call`.  The entry is one tuple, stored in one step."""
    entry = _site_entry(fn)
    if entry is not None:
        site[entry[0]] = entry[1]
    return (yield from w_call(fn, *args, **kwargs))


# ---------------------------------------------------------------------------
# The AST rewrite.
# ---------------------------------------------------------------------------

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_nodes(fndef: ast.AST) -> Iterable[ast.AST]:
    """The nodes of a function's *own* scope: nested defs, lambdas and
    classes are yielded but not entered."""
    stack = list(ast.iter_child_nodes(fndef))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _has_own_yield(fndef: ast.AST) -> bool:
    """True if the function body contains a yield of its *own* scope."""
    return any(isinstance(n, (ast.Yield, ast.YieldFrom))
               for n in _own_nodes(fndef))


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


#: A cached call site ``CALLEE(ARGS)``.  ``S`` is the site's cache,
#: ``F``, ``E`` and ``T`` its temporaries; the callee is evaluated once,
#: first, and the arguments once, in the one branch that runs.  A
#: builtin (``len``, a bound ``list.append``: never woven, never a twin,
#: and a new object on every access when bound) is called plainly
#: without touching the cache.
_SITE_TEMPLATE = ast.parse("""(
    ((yield from T(F.__self__, ARGS)) if (T := E[1]) is not None
     else F(ARGS))
    if (F := CALLEE).__class__ is _pilot_w_method
    and (E := S[0])[0] is F.__func__
    else ((yield from T(ARGS)) if (T := E[1]) is not None else F(ARGS))
    if (E := S[1])[0] is F
    else F(ARGS) if F.__class__ is _pilot_w_builtin
    else (yield from _pilot_w_miss(S, F, ARGS))
)""", mode="eval").body


def _clone(node: Any) -> Any:
    """A deep copy of an AST node or list of nodes; ``copy.deepcopy``
    takes several times as long, and every site copies its arguments
    once per branch."""
    if node.__class__ is list:
        return [_clone(x) for x in node]
    if not isinstance(node, ast.AST):
        return node
    new = node.__class__.__new__(node.__class__)
    new.__dict__.update({k: _clone(v) for k, v in node.__dict__.items()})
    return new


class _FillSite(ast.NodeTransformer):
    """Instantiates :data:`_SITE_TEMPLATE` for one call: renames its
    temporaries, puts in the callee and each call's arguments."""

    def __init__(self, names: dict[str, str], callee: ast.expr,
                 args: Callable[[], tuple[list[ast.expr],
                                          list[ast.keyword]]]) -> None:
        self.names = names
        self.callee = callee
        self.args = args

    def visit_Name(self, node: ast.Name) -> ast.expr:
        if node.id == "CALLEE":
            return self.callee
        new = self.names.get(node.id)
        if new is not None:
            node.id = new
        return node

    def visit_Call(self, node: ast.Call) -> ast.Call:
        # ``ARGS`` is the last argument of every call in the template.
        self.generic_visit(node)
        args, node.keywords = self.args()
        node.args[-1:] = args
        return node


#: A ``with`` item ``with CONTEXT as TARGET: BODY``, expanded.  ``M``
#: holds the manager, ``N`` and ``Q`` its type's ``__enter__`` and
#: ``__exit__`` (both looked up before ``__enter__`` runs, as ``with``
#: does); ``K`` is true from ``__enter__``'s return until the body
#: raises; ``X`` is the exception.  No argument of ``__exit__`` holds a
#: call: a site would keep them in temporaries, and a traceback held
#: there keeps its frame alive.
_WITH_TEMPLATE = ast.parse("""
M = CONTEXT
N, Q = _pilot_w_cm(M)
TARGET = N(M)
K = True
try:
    try:
        BODY
    except BaseException as X:
        K = False
        if not Q(M, X.__class__, X, X.__traceback__):
            raise
finally:
    if K:
        Q(M, None, None, None)
""").body


def _cm_methods(mgr: Any) -> tuple[Any, Any]:
    """``type(mgr).__enter__`` and ``type(mgr).__exit__``.  A manager
    that lacks either fails with the interpreter's own error, raised
    by a real ``with`` before anything is entered."""
    t = type(mgr)
    try:
        return t.__enter__, t.__exit__
    except AttributeError:
        pass
    with mgr:
        pass
    raise AssertionError(f"{t!r} entered without __enter__/__exit__")


class _FillWith(ast.NodeTransformer):
    """Instantiates :data:`_WITH_TEMPLATE` for one ``with`` item: renames
    its temporaries, makes each ``__enter__``/``__exit__`` call a
    site, and puts in the item's context, target and the body (all
    already woven).  Without a target the ``__enter__`` result goes to
    ``K``, which the next statement sets."""

    def __init__(self, n: int, item: ast.withitem, body: list[ast.stmt],
                 site: Callable[[ast.Call], ast.expr]) -> None:
        ok = f"_pilot_w_ok{n}"
        self.names = {"M": f"_pilot_w_mgr{n}", "K": ok, "TARGET": ok,
                      "X": f"_pilot_w_exc{n}", "N": f"_pilot_w_enter{n}",
                      "Q": f"_pilot_w_exit{n}"}
        self.item = item
        self.body = body
        self.site = site

    def visit_Name(self, node: ast.Name) -> ast.expr:
        if node.id == "CONTEXT":
            return self.item.context_expr
        if node.id == "TARGET" and self.item.optional_vars is not None:
            return self.item.optional_vars
        node.id = self.names.get(node.id, node.id)
        return node

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> ast.AST:
        node.name = self.names["X"]
        self.generic_visit(node)
        return node

    def visit_Expr(self, node: ast.Expr) -> Any:
        if isinstance(node.value, ast.Name) and node.value.id == "BODY":
            return self.body
        self.generic_visit(node)
        return node

    def visit_Call(self, node: ast.Call) -> ast.expr:
        self.generic_visit(node)
        if isinstance(node.func, ast.Name) and node.func.id == "_pilot_w_cm":
            return node
        return self.site(node)  # __enter__, __exit__


class _Weaver(ast.NodeTransformer):
    """Rewrites every call to a cached call site, and every ``with``
    block to explicit ``__enter__``/``__exit__`` calls through sites.

    ``is_sync`` and ``plain`` name the nested defs and the call sites
    proven never to block; those stay plain Python.  ``sites`` counts
    the call sites emitted: site ``n`` reads its cache from the free
    variable ``_pilot_w_s{n}``."""

    def __init__(self, is_sync: Callable[[ast.FunctionDef], bool]
                 | None = None,
                 plain: Callable[[ast.Call], bool] | None = None) -> None:
        self._tmp = 0
        self._is_sync = is_sync
        self._plain = plain
        self.sites = 0

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
        return self._site(node)

    def _site(self, node: ast.Call) -> ast.expr:
        """A cached call site for ``node`` (its arguments already woven).

        The arguments appear once per branch.  When one of them holds a
        call, they are evaluated into temporaries first, callee first,
        so a nested site is not emitted five times; the temporaries are
        cleared once the call returns.  A ``*args`` or
        ``**kwargs`` temporary holds a copy, ``(*args,)`` or
        ``{**kwargs}``, taken where the call would spread it (so an
        iterator is drained before the arguments after it run), and
        its loads spread the copy."""
        n = self.sites
        self.sites += 1
        names = {x: f"_pilot_w_{x.lower()}{n}" for x in "SFET"}
        site = _clone(_SITE_TEMPLATE)
        for x in ast.walk(site):
            ast.copy_location(x, node)
        values = [
            *(ast.Tuple(elts=[a], ctx=ast.Load())
              if isinstance(a, ast.Starred) else a for a in node.args),
            *(k.value if k.arg else ast.Dict(keys=[None], values=[k.value])
              for k in node.keywords)]
        if not any(isinstance(x, (ast.Call, ast.YieldFrom, ast.NamedExpr))
                   for v in values for x in ast.walk(v)):
            return _FillSite(names, node.func, lambda: (
                _clone(node.args), _clone(node.keywords))).visit(site)

        temps = [f"_pilot_w_a{n}_{i}" for i in range(len(values))]

        def loads() -> tuple[list[ast.expr], list[ast.keyword]]:
            vals = [ast.Name(id=t, ctx=ast.Load()) for t in temps]
            return ([ast.Starred(value=v, ctx=ast.Load())
                     if isinstance(a, ast.Starred) else v
                     for a, v in zip(node.args, vals)],
                    [ast.keyword(arg=k.arg, value=v) for k, v in
                     zip(node.keywords, vals[len(node.args):])])

        held = [names["F"], *temps]

        def store(name: str, value: ast.expr) -> ast.NamedExpr:
            return ast.NamedExpr(target=ast.Name(id=name, ctx=ast.Store()),
                                 value=value)

        # (F := CALLEE, A0 := ..., SITE, F := None, A0 := None, ...)[k]:
        # once the call returns, the temporaries let go of the callee
        # and the arguments, which would otherwise stay alive until the
        # woven function returns.
        callee = ast.Name(id=names["F"], ctx=ast.Load())
        elts = [*(store(name, value)
                  for name, value in zip(held, [node.func, *values])),
                _FillSite(names, callee, loads).visit(site),
                *(store(name, ast.Constant(value=None)) for name in held)]
        new = ast.Subscript(
            value=ast.Tuple(elts=elts, ctx=ast.Load()),
            slice=ast.Constant(value=len(held)), ctx=ast.Load())
        # The new nodes take the call's location from ``new``.
        return ast.fix_missing_locations(ast.copy_location(new, node))

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
            expanded = ast.Module(body=_clone(_WITH_TEMPLATE),
                                  type_ignores=[])
            for x in ast.walk(expanded):
                ast.copy_location(x, node)
            body = _FillWith(self._tmp, item, body, self._site).visit(
                expanded).body
            self._tmp += 1
        return body


# ---------------------------------------------------------------------------
# Compilation and caching.
# ---------------------------------------------------------------------------

_FACTORY_BY_CODE: dict[types.CodeType, Callable[..., Any]] = {}


def _install_helpers(g: dict[str, Any]) -> None:
    g["_pilot_w_mark"] = _mark
    g["_pilot_w_miss"] = _site_miss
    g["_pilot_w_method"] = types.MethodType
    g["_pilot_w_builtin"] = types.BuiltinFunctionType
    g["_pilot_w_cm"] = _cm_methods


_FACTORY_PREFIX = "__pilot_weave_factory__.<locals>."


def _requalify(code: types.CodeType) -> types.CodeType:
    """``code`` with the factory's name taken out of every qualified
    name, so a woven nested def keeps the ``__qualname__`` it has
    unwoven (Python 3.11+ keeps it on the code object, 3.10 in a
    constant of the enclosing code)."""
    consts = tuple(
        _requalify(c) if isinstance(c, types.CodeType)
        else c.removeprefix(_FACTORY_PREFIX) if isinstance(c, str)
        else c for c in code.co_consts)
    if hasattr(code, "co_qualname"):
        return code.replace(
            co_consts=consts,
            co_qualname=code.co_qualname.removeprefix(_FACTORY_PREFIX))
    return code.replace(co_consts=consts)


def _compile_woven(fn: types.FunctionType) -> Callable[..., Any]:
    """Weave ``fn``'s source; returns a factory that takes the values of
    its free variables and returns the woven generator function.  The
    factory binds the call-site caches, one set per code object."""
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
    # Defaults are the original's (woven_twin copies them); evaluated
    # here, in the factory, they could name what only it can see.
    a = fndef.args
    a.defaults = [ast.Constant(value=None) for _ in a.defaults]
    a.kw_defaults = [None if d is None else ast.Constant(value=None)
                     for d in a.kw_defaults]
    params = [*a.posonlyargs, *a.args]
    if "__class__" in code.co_freevars and params:
        # Zero-argument super() reads its class and instance from the
        # frame that calls it, which a site's slow path is not.
        for node in _own_nodes(fndef):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "super"
                    and not node.args and not node.keywords):
                node.args = [ast.Name(id="__class__", ctx=ast.Load()),
                             ast.Name(id=params[0].arg, ctx=ast.Load())]
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
    # still marks the code object as a generator so a site can always
    # ``yield from`` the twin.
    fndef.body.append(ast.If(
        test=ast.Constant(value=False),
        body=[ast.Expr(value=ast.Yield(value=None))],
        orelse=[]))
    sites = [[_EMPTY_ENTRY, _EMPTY_ENTRY] for _ in range(weaver.sites)]
    wrapper = ast.FunctionDef(
        name="__pilot_weave_factory__",
        args=ast.arguments(
            posonlyargs=[], args=[ast.arg(arg=v) for v in (
                *(f"_pilot_w_s{n}" for n in range(len(sites))),
                *code.co_freevars)],
            kwonlyargs=[], kw_defaults=[], defaults=[]),
        body=[fndef,
              ast.Return(value=ast.Name(id=fndef.name, ctx=ast.Load()))],
        decorator_list=[],
    )
    out_mod = ast.Module(body=[wrapper], type_ignores=[])
    ast.fix_missing_locations(out_mod)
    ast.increment_lineno(out_mod, code.co_firstlineno - 1)
    g = fn.__globals__
    _install_helpers(g)
    ns: dict[str, Any] = {}
    exec(_requalify(compile(out_mod, code.co_filename, "exec")), g, ns)
    _SITES.extend(sites)
    return functools.partial(ns["__pilot_weave_factory__"], *sites)


def woven_twin(fn: types.FunctionType) -> Callable[..., Any]:
    """Return (building and caching if needed) the woven generator twin
    of ``fn``: one per function object, from one factory per code
    object."""
    cached = getattr(fn, "__pilot_woven_twin__", None)
    if cached is not None:
        return cached
    code = fn.__code__
    fac = _FACTORY_BY_CODE.get(code)
    if fac is None:
        fac = _FACTORY_BY_CODE[code] = _compile_woven(fn)
    try:
        cells = [c.cell_contents for c in fn.__closure__ or ()]
    except ValueError as exc:
        raise WeaveError(
            f"cannot weave {fn.__qualname__}: empty closure cell "
            "(self-referential closure defined but not yet bound)"
        ) from exc
    twin = fac(*cells)
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
