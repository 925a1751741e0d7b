"""Whole-program determinism analysis (``python -m repro.check dataflow``).

PR 4 made the headline numbers depend on two invariants a per-file linter
cannot see: seeded process-pool fan-out must be bit-identical to serial
execution, and cached artifacts must be keyed by everything that
influences them.  This module walks the :mod:`repro.check.callgraph` from
the three **determinism perimeters** and reports what it finds:

*parallel*
    every function handed to :func:`repro.parallel.run_tasks` as a task
    function (plus everything it can reach) runs in forked workers — any
    hidden nondeterminism or shared-state write silently diverges from the
    serial run;
*cache*
    every function that computes a :func:`repro.cache.cache_key` (plus its
    reachable callees) produces content-addressed artifacts — its output
    must be a pure function of the key material;
*seeded*
    every ``repro.sim`` / ``repro.fault`` function taking a ``seed`` /
    ``rng`` parameter promises bit-reproducibility from that seed.

Rules (stable codes, ``# repro: noqa[CODE]`` suppression as in the lint
tier):

========  =============================================================
RPR010    Nondeterminism source reachable from a perimeter: iterating a
          ``set``/``frozenset`` into ordered output, ``hash()``/``id()``
          (``PYTHONHASHSEED``/address dependent), wall-clock or ``uuid``
          reads, unsorted directory listings, process-global RNG calls.
          Measurement clocks (``perf_counter``/``monotonic``/
          ``process_time``) are exempt: their values feed obs timers,
          never artifacts.  Order-insensitive consumers (``sorted``,
          ``len``, ``sum``, ``min``/``max``, ``any``/``all``, membership
          tests, set algebra) are exempt.
RPR011    A ``run_tasks`` task function (or one of its callees) mutates
          module-level state — rebinding a ``global``, writing through a
          module-global name (``STATE[k] = v``, ``obj.attr = v``), or
          calling a container mutator on one (``STATE.append(...)``).
          Such writes are a process-pool race: under ``jobs=1`` they
          accumulate, under ``jobs>1`` each forked worker mutates its own
          copy, so results silently depend on the worker layout.
========  =============================================================

RPR012 (cache-key incompleteness) lives in
:mod:`repro.check.cachekeys`; :func:`dataflow_paths` runs all three and
merges them into one :class:`~repro.check.findings.Report`.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable
from pathlib import Path

from .cachekeys import _CACHE_KEY_TARGETS, check_cache_keys
from .callgraph import CallGraph, FunctionNode, FunctionResolver, scan_tier
from .findings import Report
from .lint import _NP_RANDOM_OK, _RANDOM_OK

__all__ = [
    "DATAFLOW_RULES",
    "Perimeter",
    "find_perimeters",
    "dataflow_paths",
]

#: rule code -> one-line summary (catalog in DESIGN.md §7)
DATAFLOW_RULES: dict[str, str] = {
    "RPR010": "nondeterminism source reachable from a determinism perimeter",
    "RPR011": "run_tasks task function mutates module-level state",
    "RPR012": "cache-key incompleteness (input read but not in key material)",
}

#: resolved dotted names that mark the parallel perimeter
_RUN_TASKS_TARGETS = ("repro.parallel.run_tasks",)

#: wall-clock / environment reads that must never feed an artifact
_WALLCLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.ctime",
    "time.asctime",
    "time.localtime",
    "time.gmtime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
    "os.urandom",
    "os.getpid",
}
#: unsorted filesystem enumerations (free functions)
_FS_LISTING_CALLS = {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}
#: unsorted filesystem enumerations (path-object methods)
_FS_LISTING_METHODS = {"iterdir", "glob", "rglob", "scandir"}
#: consumers whose result does not depend on input order
_ORDER_SAFE_CONSUMERS = {
    "sorted",
    "len",
    "sum",
    "min",
    "max",
    "any",
    "all",
    "set",
    "frozenset",
    "bool",
}
#: container mutators that constitute a module-state write (RPR011)
_MUTATING_METHODS = {
    "append",
    "appendleft",
    "add",
    "clear",
    "discard",
    "extend",
    "extendleft",
    "insert",
    "pop",
    "popitem",
    "popleft",
    "remove",
    "reverse",
    "setdefault",
    "sort",
    "update",
}


# ----------------------------------------------------------------------
# perimeters
# ----------------------------------------------------------------------
class Perimeter:
    """Reachability closure of one determinism perimeter kind.

    ``roots`` maps root qualnames to a human-readable origin; ``reached``
    maps every reachable function to the root it was first reached from.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.roots: dict[str, str] = {}
        self.reached: dict[str, str] = {}

    def close(self, cg: CallGraph, typed: bool = False) -> None:
        """Fill ``reached`` from ``roots`` (:meth:`CallGraph.close`)."""
        self.reached = cg.close(self.roots, typed)


def _is_seeded_entry(fn: FunctionNode) -> bool:
    """Seeded-perimeter predicate: a ``sim``/``fault`` function taking a
    ``seed``/``rng``-style parameter."""
    parts = fn.module.split(".")
    if "sim" not in parts and "fault" not in parts:
        return False
    return any(p in ("seed", "rng") or p.endswith("_rng") for p in fn.params)


def find_perimeters(cg: CallGraph) -> dict[str, Perimeter]:
    """The three determinism perimeters of a scanned tree, closed over
    reachability: ``parallel`` (run_tasks task functions), ``cache``
    (cache_key-computing builders), ``seeded`` (seeded sim/fault entry
    points)."""
    parallel = Perimeter("parallel")
    cache = Perimeter("cache")
    seeded = Perimeter("seeded")
    for fn in cg.functions.values():
        resolver = cg.resolver(fn)
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            dotted = resolver.resolve_expr(node.func)
            if dotted is None:
                continue
            dotted = cg.canonical(dotted)
            if dotted in _RUN_TASKS_TARGETS:
                task_expr = node.args[0] if node.args else None
                for kw in node.keywords:
                    if kw.arg == "fn":
                        task_expr = kw.value
                if task_expr is not None:
                    task = resolver.resolve_function(task_expr)
                    if task is not None:
                        parallel.roots[task.qualname] = (
                            f"submitted to run_tasks at {fn.qualname}"
                        )
            elif dotted in _CACHE_KEY_TARGETS and fn.name != "cache_key":
                cache.roots[fn.qualname] = f"computes a cache key ({fn.qualname})"
        if _is_seeded_entry(fn):
            seeded.roots[fn.qualname] = f"seeded entry point {fn.qualname}"
    for p in (parallel, cache, seeded):
        p.close(cg)
    return {p.kind: p for p in (parallel, cache, seeded)}


def _origin_tag(qual: str, perimeters: dict[str, Perimeter]) -> str:
    """``[perimeter: parallel via repro.fault.sweep._fault_trial]`` text."""
    tags = []
    for kind in ("parallel", "cache", "seeded"):
        origin = perimeters[kind].reached.get(qual)
        if origin is not None:
            tags.append(f"{kind} via {origin}")
    return "; ".join(tags)


# ----------------------------------------------------------------------
# RPR010: nondeterminism sources
# ----------------------------------------------------------------------
def _parent_map(root: ast.AST) -> dict[ast.AST, ast.AST]:
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(root):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def _set_valued_names(fn_node: ast.AST) -> set[str]:
    """Local names bound (anywhere in the function) to a set-typed value."""
    names: set[str] = set()

    def is_set_expr(expr: ast.expr) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
            if expr.func.id in ("set", "frozenset"):
                return True
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
            if expr.func.attr in ("union", "intersection", "difference",
                                  "symmetric_difference", "copy"):
                base = expr.func.value
                if isinstance(base, ast.Name) and base.id in names:
                    return True
        if isinstance(expr, ast.BinOp) and isinstance(
            expr.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            for side in (expr.left, expr.right):
                if is_set_expr(side):
                    return True
                if isinstance(side, ast.Name) and side.id in names:
                    return True
        if isinstance(expr, ast.Name):
            return expr.id in names
        return False

    # two passes so ``s2 = s1`` chains settle
    for _ in range(2):
        for node in ast.walk(fn_node):
            if isinstance(node, ast.Assign) and is_set_expr(node.value):
                for t in node.targets:
                    if isinstance(t, ast.Name):
                        names.add(t.id)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name) and is_set_expr(node.value):
                    names.add(node.target.id)
    return names


def _is_set_valued(expr: ast.expr, set_vars: set[str]) -> bool:
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        if expr.func.id in ("set", "frozenset"):
            return True
    if isinstance(expr, ast.Name):
        return expr.id in set_vars
    return False


def _consumer_name(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


class _NondeterminismScan:
    """RPR010 checks over one reachable function body."""

    def __init__(self, fn: FunctionNode, resolver: FunctionResolver, tag: str, emit):
        self.fn = fn
        self.resolver = resolver
        self.tag = tag
        self.emit = emit
        self.set_vars = _set_valued_names(fn.node)
        self.parents = _parent_map(fn.node)

    def run(self) -> None:
        for node in ast.walk(self.fn.node):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                self._check_iteration(node.iter, node)
            elif isinstance(node, (ast.ListComp, ast.DictComp, ast.GeneratorExp)):
                for comp in node.generators:
                    self._check_iteration(comp.iter, node, comprehension=node)
            elif isinstance(node, ast.Call):
                self._check_call(node)

    # -- set ordering --------------------------------------------------
    def _check_iteration(
        self, iter_expr: ast.expr, node: ast.AST, comprehension: ast.AST | None = None
    ) -> None:
        if not _is_set_valued(iter_expr, self.set_vars):
            return
        if comprehension is not None and isinstance(comprehension, ast.GeneratorExp):
            parent = self.parents.get(comprehension)
            if isinstance(parent, ast.Call):
                name = _consumer_name(parent)
                if name in _ORDER_SAFE_CONSUMERS:
                    return
        what = (
            f"`{iter_expr.id}`" if isinstance(iter_expr, ast.Name) else "a set expression"
        )
        self.emit(
            node,
            "RPR010",
            f"iteration over set {what} produces ordered output "
            f"(set order is arbitrary); sort it or keep the consumer "
            f"order-insensitive [{self.tag}]",
        )

    # -- calls ---------------------------------------------------------
    def _check_call(self, node: ast.Call) -> None:
        # list(S) / tuple(S) / enumerate(S) / "".join(S) over a set
        name = _consumer_name(node)
        if name in ("list", "tuple", "enumerate", "iter", "reversed", "join"):
            for arg in node.args:
                if _is_set_valued(arg, self.set_vars):
                    what = f"`{arg.id}`" if isinstance(arg, ast.Name) else "a set expression"
                    self.emit(
                        node,
                        "RPR010",
                        f"`{name}(...)` materializes set {what} in arbitrary "
                        f"order; wrap it in `sorted(...)` [{self.tag}]",
                    )
        # S.pop() on a set pops an arbitrary element
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "pop"
            and not node.args
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in self.set_vars
        ):
            self.emit(
                node,
                "RPR010",
                f"`.pop()` on set `{node.func.value.id}` removes an arbitrary "
                f"element [{self.tag}]",
            )
        # hash()/id()
        if isinstance(node.func, ast.Name) and node.func.id in ("hash", "id"):
            which = node.func.id
            detail = (
                "str/bytes hashes vary per process under PYTHONHASHSEED"
                if which == "hash"
                else "object addresses vary per process"
            )
            self.emit(
                node,
                "RPR010",
                f"`{which}()` in a determinism perimeter: {detail} [{self.tag}]",
            )
        # wall-clock / uuid / global RNG / fs listings via dotted resolution
        dotted = self.resolver.resolve_expr(node.func)
        if dotted is not None:
            self._check_dotted(node, dotted)
        elif isinstance(node.func, ast.Attribute) and node.func.attr in _FS_LISTING_METHODS:
            self._check_listing(node, f".{node.func.attr}()")

    def _check_dotted(self, node: ast.Call, dotted: str) -> None:
        if dotted in _WALLCLOCK_CALLS or dotted.startswith(("uuid.", "secrets.")):
            self.emit(
                node,
                "RPR010",
                f"`{dotted}()` reads wall-clock/environment state in a "
                f"determinism perimeter [{self.tag}]",
            )
        elif dotted in _FS_LISTING_CALLS:
            self._check_listing(node, f"`{dotted}()`")
        elif dotted.startswith("random.") and dotted.split(".")[1] not in _RANDOM_OK:
            self.emit(
                node,
                "RPR010",
                f"process-global `{dotted}()` in a determinism perimeter; "
                f"derive a `random.Random(seed)` from the task identity [{self.tag}]",
            )
        elif (
            dotted.startswith("numpy.random.")
            and dotted.split(".")[2] not in _NP_RANDOM_OK
        ):
            self.emit(
                node,
                "RPR010",
                f"process-global `np.random` call (`{dotted}`) in a determinism "
                f"perimeter; use `np.random.default_rng([seed, ...ids])` [{self.tag}]",
            )

    def _check_listing(self, node: ast.Call, what: str) -> None:
        parent = self.parents.get(node)
        if isinstance(parent, ast.Call):
            name = _consumer_name(parent)
            if name in _ORDER_SAFE_CONSUMERS:
                return
        self.emit(
            node,
            "RPR010",
            f"filesystem enumeration {what} yields OS-dependent order; "
            f"wrap it in `sorted(...)` [{self.tag}]",
        )


# ----------------------------------------------------------------------
# RPR011: worker-task mutation of module-level state
# ----------------------------------------------------------------------
def _local_bindings(fn: FunctionNode) -> set[str]:
    """Names bound locally in a function (they shadow module globals)."""
    out = set(fn.params)
    declared_global: set[str] = set()
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            out.add(node.name)
    return out - declared_global


class _MutationScan:
    """RPR011 checks over one parallel-perimeter function body."""

    def __init__(self, fn: FunctionNode, resolver: FunctionResolver, tag: str, emit):
        self.fn = fn
        self.resolver = resolver
        self.tag = tag
        self.emit = emit
        self.locals = _local_bindings(fn)
        scope = resolver.scope
        self.module_globals = scope.globals | set(scope.imports)

    def _is_global_base(self, expr: ast.expr) -> str | None:
        """Module-global name a write target's base chain is rooted at."""
        while isinstance(expr, (ast.Attribute, ast.Subscript)):
            expr = expr.value
        if not isinstance(expr, ast.Name):
            return None
        root = expr.id
        if root in self.locals or root == "self" or root == "cls":
            return None
        if root in self.module_globals:
            return root
        return None

    def run(self) -> None:
        declared_global: set[str] = set()
        for node in ast.walk(self.fn.node):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
        for node in ast.walk(self.fn.node):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for t in targets:
                    if t is None:
                        continue
                    if isinstance(t, ast.Name) and t.id in declared_global:
                        self.emit(
                            node,
                            "RPR011",
                            f"task-reachable function rebinds module global "
                            f"`{t.id}`; forked workers mutate private copies, "
                            f"so jobs>1 silently diverges from serial [{self.tag}]",
                        )
                    elif isinstance(t, (ast.Attribute, ast.Subscript)):
                        root = self._is_global_base(t)
                        if root is not None:
                            kind = "attribute" if isinstance(t, ast.Attribute) else "item"
                            self.emit(
                                node,
                                "RPR011",
                                f"task-reachable function writes {kind} of "
                                f"module-level `{root}`; this is a process-pool "
                                f"race (lost in forked workers) [{self.tag}]",
                            )
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in _MUTATING_METHODS:
                    root = self._is_global_base(node.func.value)
                    if root is not None:
                        self.emit(
                            node,
                            "RPR011",
                            f"task-reachable function calls mutator "
                            f"`.{node.func.attr}()` on module-level `{root}`; "
                            f"this is a process-pool race [{self.tag}]",
                        )


# ----------------------------------------------------------------------
# orchestrator
# ----------------------------------------------------------------------
def dataflow_paths(paths: Iterable[str | Path]) -> Report:
    """Run the whole-program determinism pass (RPR010–RPR012) over a tree.

    Builds the call graph, computes the three determinism perimeters,
    scans every perimeter-reachable function for nondeterminism sources
    (RPR010) and worker-state mutation (RPR011), and runs the cache-key
    completeness pass (RPR012, :mod:`repro.check.cachekeys`).  Findings
    honour ``# repro: noqa[CODE]`` line suppressions.
    """
    perimeters: dict[str, Perimeter] = {}

    def reached_of(cg: CallGraph) -> dict[str, str]:
        perimeters.update(find_perimeters(cg))
        reached: dict[str, str] = {}
        for p in perimeters.values():
            reached.update(p.reached)
        return reached

    def visit(fn: FunctionNode, resolver: FunctionResolver, emit) -> int:
        _NondeterminismScan(fn, resolver, _origin_tag(fn.qualname, perimeters), emit).run()
        origin = perimeters["parallel"].reached.get(fn.qualname)
        if origin is None:
            return 1
        _MutationScan(fn, resolver, f"parallel via {origin}", emit).run()
        return 2

    return scan_tier("dataflow", paths, reached_of, visit, after=check_cache_keys)
