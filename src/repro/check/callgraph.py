"""Import-aware call graph over a python package tree (pure stdlib).

The whole-program half of :mod:`repro.check` (the ``dataflow`` subcommand)
needs to answer one question the per-file linter cannot: *which functions
are reachable from a determinism perimeter* — a task function handed to
:func:`repro.parallel.run_tasks`, a cached artifact builder, or a seeded
``sim``/``fault`` entry point.  This module builds the graph those passes
walk:

* every module under the scanned paths is parsed once; module-level
  functions and one level of class methods become :class:`FunctionNode`
  records keyed by dotted qualname (``repro.fault.sweep._fault_trial``,
  ``repro.sim.simulator.PacketSimulator.run``);
* calls **and** bare references to known functions become edges — a
  function passed as a callback (``run_tasks(_fault_trial, ...)``) is
  reachable from the passing function even though it is never called by
  name there;
* name resolution honours module-level *and* function-local imports
  (the codebase imports lazily inside functions), relative imports,
  ``self.method()``, ``Class.method``, constructor calls (edge to
  ``__init__``), local variables bound to a constructor result
  (``sim = PacketSimulator(...)`` then ``sim.run(...)``), and
  ``super().method()`` (the first scanned base class defining it,
  depth-first over the bases);
* re-export chains through package ``__init__`` modules are followed
  (``repro.cache.cache_key`` resolves to
  ``repro.cache.artifacts.cache_key`` when both files are scanned);
* attribute calls whose receiver cannot be typed fall back to *every*
  scanned method of that bare name — a deliberate over-approximation:
  for a reachability analysis, scanning too much is safe and scanning
  too little is a missed bug.

The graph is an analysis substrate, not a precise semantic model: calls
through data structures (``REGISTRY[name](...)``) and dunder dispatch are
invisible, which is why the rules it feeds are backed by seeded-violation
tests and a runtime sanitizer (:mod:`repro.check.sanitize`).
"""

from __future__ import annotations

import ast
from collections import deque
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from pathlib import Path

from repro import obs

from .findings import Emitter, Report
from .lint import _iter_py_files, _module_name, _top_level, _TopLevel

__all__ = ["FunctionNode", "ModuleScope", "CallGraph", "build_callgraph", "scan_tier"]


@dataclass
class FunctionNode:
    """One module-level function or class method in the scanned tree."""

    qualname: str  #: dotted name, e.g. ``repro.fault.sweep._fault_trial``
    module: str  #: dotted module name
    name: str  #: bare function name
    cls: str | None  #: enclosing class name, or None for plain functions
    path: str  #: source file (display form)
    lineno: int  #: 1-based line of the ``def``
    node: ast.FunctionDef | ast.AsyncFunctionDef  #: the parsed body
    params: list[str] = field(default_factory=list)  #: parameter names in order


@dataclass
class ModuleScope:
    """Per-module facts the resolver needs."""

    modname: str
    path: str
    tree: ast.Module
    source: str
    #: local binding -> dotted target ("numpy", "repro.cache.cache_key", ...)
    imports: dict[str, str] = field(default_factory=dict)
    #: names bound at module top level (constants, functions, classes, aliases)
    globals: set[str] = field(default_factory=set)
    #: module-level names rebound via a ``global`` statement somewhere
    rebound_globals: set[str] = field(default_factory=set)
    #: class name -> {method name -> qualname}
    classes: dict[str, dict[str, str]] = field(default_factory=dict)
    #: class name -> dotted names of its bases, in order
    bases: dict[str, list[str]] = field(default_factory=dict)


class CallGraph:
    """Functions, modules, and (call ∪ reference) edges over a scanned tree."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleScope] = {}
        self.functions: dict[str, FunctionNode] = {}
        #: qualname -> set of callee/referenced qualnames (known functions only)
        self.edges: dict[str, set[str]] = {}
        #: the subset of :attr:`edges` added by the untyped-receiver
        #: method-name fallback (over-approximate); precision-first
        #: consumers (the perf perimeter) subtract these
        self.fallback_edges: dict[str, set[str]] = {}
        #: bare method name -> every scanned method qualname with that name
        self.method_index: dict[str, list[str]] = {}
        #: dotted alias (via ``__init__`` re-export) -> defining dotted name
        self.aliases: dict[str, str] = {}
        self._resolvers: dict[str, FunctionResolver] = {}

    # -- resolution -----------------------------------------------------
    def canonical(self, dotted: str) -> str:
        """Follow re-export aliases to the defining dotted name."""
        seen = set()
        while dotted in self.aliases and dotted not in seen:
            seen.add(dotted)
            dotted = self.aliases[dotted]
        return dotted

    def lookup(self, dotted: str) -> FunctionNode | None:
        """The function a dotted name denotes, if it is in the scanned set.

        A dotted name denoting a scanned *class* resolves to its
        ``__init__`` (a constructor call runs it).
        """
        dotted = self.canonical(dotted)
        fn = self.functions.get(dotted)
        if fn is not None:
            return fn
        mod, _, last = dotted.rpartition(".")
        scope = self.modules.get(mod)
        if scope is not None and last in scope.classes:
            init = scope.classes[last].get("__init__")
            if init is not None:
                return self.functions.get(init)
        return None

    def super_method(self, fn: FunctionNode, name: str) -> str | None:
        """What ``super().name`` in method ``fn`` calls: ``name`` on the
        first scanned base class that defines it, depth-first over the
        bases; ``None`` when no scanned base does."""
        todo = self.modules[fn.module].bases.get(fn.cls or "", [])[::-1]
        seen: set[str] = set()
        while todo:
            dotted = self.canonical(todo.pop())
            mod, _, cls = dotted.rpartition(".")
            scope = self.modules.get(mod)
            if dotted in seen or scope is None or cls not in scope.classes:
                continue
            seen.add(dotted)
            if name in scope.classes[cls]:
                return scope.classes[cls][name]
            todo.extend(scope.bases.get(cls, [])[::-1])
        return None

    def resolver(self, fn: FunctionNode) -> "FunctionResolver":
        """The resolver of one scanned function (built once, then shared by
        edge extraction and every rule pass)."""
        got = self._resolvers.get(fn.qualname)
        if got is None:
            got = FunctionResolver(self, self.modules[fn.module], fn)
            self._resolvers[fn.qualname] = got
        return got

    def close(self, roots: Iterable[str], typed: bool = False) -> dict[str, str]:
        """The one call-graph closure: BFS from ``roots``, mapping every
        reachable function qualname to the root it was first reached from.

        ``typed=True`` skips the :attr:`fallback_edges` (the hot-path
        perimeter's precision-first closure).  Roots absent from the
        scanned tree are skipped.
        """
        reached: dict[str, str] = {}
        queue: deque[str] = deque()
        for root in roots:
            if root in self.functions and root not in reached:
                reached[root] = root
                queue.append(root)
        while queue:
            cur = queue.popleft()
            nxt_all = self.edges.get(cur, set())
            if typed:
                nxt_all = nxt_all - self.fallback_edges.get(cur, set())
            for nxt in nxt_all:
                if nxt not in reached:
                    reached[nxt] = reached[cur]
                    queue.append(nxt)
        return reached

    def reachable(self, roots: Iterable[str]) -> set[str]:
        """Every function qualname reachable from ``roots`` (inclusive)."""
        return set(self.close(roots))


# ----------------------------------------------------------------------
# per-function resolver
# ----------------------------------------------------------------------
class FunctionResolver:
    """Resolves dotted references inside one function body.

    Combines the module import table with function-local imports, local
    constructor-typed variables, and ``self`` (when the function is a
    method).  Shared by the edge extractor and the rule passes in
    :mod:`repro.check.determinism` / :mod:`repro.check.cachekeys`.
    """

    def __init__(
        self,
        cg: CallGraph,
        scope: ModuleScope,
        fn: FunctionNode,
        refs: list[ast.expr] | None = None,
    ):
        """``refs``, when given, collects the body's Call/Name/Attribute
        nodes in walk order (the edge extractor reads them instead of
        walking the body a second time)."""
        self.cg = cg
        self.scope = scope
        self.fn = fn
        self.imports = dict(scope.imports)
        #: local variable -> dotted class name (from ``v = ClassName(...)``)
        self.var_types: dict[str, str] = {}
        is_init = scope.path.endswith("__init__.py")
        local_imports = _TopLevel(imports=self.imports)
        ctor_assigns: list[ast.Assign] = []
        for sub in ast.walk(fn.node):
            if isinstance(sub, (ast.Import, ast.ImportFrom)):
                _top_level([sub], scope.modname, is_init, local_imports)
            elif isinstance(sub, ast.Assign) and isinstance(sub.value, ast.Call):
                ctor_assigns.append(sub)
            elif refs is not None and isinstance(sub, (ast.Call, ast.Name, ast.Attribute)):
                refs.append(sub)
        # typed locals resolve through the function's imports, all of them
        # collected first (the codebase imports lazily, anywhere in a body)
        for sub in ctor_assigns:
            dotted = self.resolve_expr(sub.value.func)
            if dotted is None:
                continue
            dotted = cg.canonical(dotted)
            mod, _, last = dotted.rpartition(".")
            target = cg.modules.get(mod)
            if target is not None and last in target.classes:
                for t in sub.targets:
                    if isinstance(t, ast.Name):
                        self.var_types[t.id] = dotted

    @staticmethod
    def _chain(expr: ast.expr) -> list[str] | None:
        """``a.b.c`` -> ["a", "b", "c"]; None for non-name chains."""
        parts: list[str] = []
        while isinstance(expr, ast.Attribute):
            parts.append(expr.attr)
            expr = expr.value
        if not isinstance(expr, ast.Name):
            return None
        parts.append(expr.id)
        return parts[::-1]

    def resolve_expr(self, expr: ast.expr) -> str | None:
        """Dotted name an expression denotes (scanned or external), or None.

        ``self.method`` resolves to the enclosing class's method;
        ``var.method`` uses constructor-typed locals; otherwise the chain
        root is resolved through the import table and module bindings.
        """
        chain = self._chain(expr)
        if chain is None:
            return None
        root, rest = chain[0], chain[1:]
        if root == "self" and self.fn.cls is not None and rest:
            return f"{self.fn.module}.{self.fn.cls}.{rest[0]}"
        if root in self.var_types and rest:
            return f"{self.var_types[root]}.{rest[0]}"
        if root in self.imports:
            return ".".join([self.imports[root], *rest])
        if root in self.scope.globals:
            return ".".join([self.scope.modname, root, *rest])
        return None

    def resolve_function(self, expr: ast.expr) -> FunctionNode | None:
        """The scanned function an expression denotes, or None."""
        dotted = self.resolve_expr(expr)
        return self.cg.lookup(dotted) if dotted is not None else None


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------
def _scan_module(path: Path) -> ModuleScope | None:
    try:
        source = path.read_text()
        tree = ast.parse(source, filename=str(path))
    except (OSError, SyntaxError):
        return None
    modname = _module_name(path)
    scope = ModuleScope(modname=modname, path=str(path), tree=tree, source=source)
    is_init = path.name == "__init__.py"
    if "global" in source:  # cheap pre-filter for the full-tree walk
        for node in ast.walk(tree):
            if isinstance(node, ast.Global):
                scope.rebound_globals.update(node.names)
    top = _top_level(tree.body, modname, is_init)
    scope.globals, scope.imports = top.bound, top.imports
    return scope


def _param_names(node: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    a = node.args
    out = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)]
    if a.vararg:
        out.append(a.vararg.arg)
    if a.kwarg:
        out.append(a.kwarg.arg)
    return out


def _register_functions(cg: CallGraph, scope: ModuleScope) -> None:
    def add(node: ast.FunctionDef | ast.AsyncFunctionDef, cls: str | None) -> None:
        qual = (
            f"{scope.modname}.{cls}.{node.name}" if cls else f"{scope.modname}.{node.name}"
        )
        cg.functions[qual] = FunctionNode(
            qualname=qual,
            module=scope.modname,
            name=node.name,
            cls=cls,
            path=scope.path,
            lineno=node.lineno,
            node=node,
            params=_param_names(node),
        )
        if cls is not None:
            cg.method_index.setdefault(node.name, []).append(qual)
            cg.modules[scope.modname].classes.setdefault(cls, {})[node.name] = qual

    cg.modules[scope.modname] = scope
    for node in scope.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            add(node, None)
        elif isinstance(node, ast.ClassDef):
            scope.classes.setdefault(node.name, {})
            for base in node.bases:  # dotted, as the module's names bind them
                chain = FunctionResolver._chain(base) or [""]
                if chain[0] in scope.imports:
                    chain[0] = scope.imports[chain[0]]
                elif chain[0] in scope.globals:
                    chain.insert(0, scope.modname)
                else:
                    continue
                scope.bases.setdefault(node.name, []).append(".".join(chain))
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    add(sub, node.name)


def _register_aliases(cg: CallGraph, scope: ModuleScope) -> None:
    """Record ``__init__`` re-exports so ``pkg.name`` follows to ``pkg.mod.name``."""
    if not scope.path.endswith("__init__.py"):
        return
    for local, target in scope.imports.items():
        cg.aliases[f"{scope.modname}.{local}"] = target


def _is_super(expr: ast.expr) -> bool:
    return isinstance(expr, ast.Call) and getattr(expr.func, "id", None) == "super"


def _extract_edges(cg: CallGraph, fn: FunctionNode) -> None:
    refs: list[ast.expr] = []
    resolver = FunctionResolver(cg, cg.modules[fn.module], fn, refs)
    cg._resolvers[fn.qualname] = resolver
    out = cg.edges.setdefault(fn.qualname, set())
    for node in refs:
        if isinstance(node, ast.Call):
            target = resolver.resolve_function(node.func)
            if target is not None:
                out.add(target.qualname)
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and _is_super(func.value):
                qual = cg.super_method(fn, func.attr)  # typed, or no edge
                if qual is not None:
                    out.add(qual)
                continue
            # untyped receiver: fall back to every scanned method of that name
            if isinstance(node.func, ast.Attribute) and resolver.resolve_expr(node.func) is None:
                fallback = cg.fallback_edges.setdefault(fn.qualname, set())
                for qual in cg.method_index.get(node.func.attr, ()):
                    out.add(qual)
                    fallback.add(qual)
        elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(
            getattr(node, "ctx", None), ast.Load
        ):
            # bare reference (callback argument, dict value, decorator):
            # reachable even though never called by name here
            dotted = resolver.resolve_expr(node)
            if dotted is not None:
                target = cg.lookup(dotted)
                if target is not None and target.qualname != fn.qualname:
                    out.add(target.qualname)


def build_callgraph(paths: Iterable[str | Path]) -> CallGraph:
    """Parse every ``.py`` file under ``paths`` into a :class:`CallGraph`."""
    cg = CallGraph()
    files = _iter_py_files(paths)
    with obs.span("check.callgraph", files=len(files)):
        scopes: list[ModuleScope] = []
        for path in files:
            scope = _scan_module(path)
            if scope is not None:
                scopes.append(scope)
        for scope in scopes:
            _register_functions(cg, scope)
        for scope in scopes:
            _register_aliases(cg, scope)
        for fn in cg.functions.values():
            _extract_edges(cg, fn)
        reg = obs.registry()
        reg.incr("check.dataflow.modules", len(cg.modules))
        reg.incr("check.dataflow.functions", len(cg.functions))
    return cg


def scan_tier(
    tier: str,
    paths: Iterable[str | Path],
    reached_of: Callable[[CallGraph], dict[str, str]],
    visit: Callable[[FunctionNode, FunctionResolver, Callable], int],
    def_line: bool = False,
    after: Callable[[CallGraph, Emitter], int] | None = None,
) -> Report:
    """The one scan loop of the call-graph tiers (dataflow, perf, shapes).

    Builds the call graph of ``paths``, closes the tier's perimeter with
    ``reached_of``, and calls ``visit(fn, resolver, emit)`` on every
    reached function in qualname order; ``visit`` returns how many checks
    it ran.  ``after(cg, emitter)`` runs whole-graph passes.  Findings go
    through one :class:`~repro.check.findings.Emitter` (``def_line=True``
    adds def-line suppression and per-line dedupe), and the
    ``check.<tier>.{reachable,findings,suppressed}`` counters are
    recorded.
    """
    report = Report()
    emitter = Emitter(report, def_line=def_line)
    with obs.span(f"check.{tier}"):
        cg = build_callgraph(paths)
        reached = reached_of(cg)
        for qual in sorted(reached):
            fn = cg.functions[qual]
            scope = cg.modules[fn.module]
            emit = emitter.bind(fn.path, scope.source, fn.lineno)
            report.checked += visit(fn, cg.resolver(fn), emit)
        if after is not None:
            report.checked += after(cg, emitter)
        reg = obs.registry()
        reg.incr(f"check.{tier}.reachable", len(reached))
        reg.incr(f"check.{tier}.findings", len(report.findings))
        reg.incr(f"check.{tier}.suppressed", emitter.suppressed)
    return report
