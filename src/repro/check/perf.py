"""Hot-path performance analysis (``python -m repro.check perf``).

The closure engine, the next-hop builder and every sweep downstream of
them depend on a handful of kernels staying *array-batched*: a single
per-node Python loop reintroduced into one of them silently costs
10–100× at the sizes the paper's structures reach (Theorem 3.2:
``|HSN(l, G)| = M^l``).  The correctness tiers (lint/contracts/dataflow)
cannot see that regression; this module is the matching *performance*
tier.

The **hot-path perimeter** is declared once — :data:`HOT_PERIMETER`, a
tuple of :class:`HotKernel` records naming the closure engine, the
``NextHopTable`` construction, the BFS distance kernel, the
survivor-detour BFS, the simulator event core and its
fault decision stage, and the percolation component labeling —
and closed over the import-aware call graph
(:mod:`repro.check.callgraph`), exactly like the determinism perimeters
of :mod:`repro.check.determinism`.  Every function reachable from a hot
kernel is scanned by an AST pass that reads the kind and dtype facts of
:class:`repro.check.arrayfacts.ArrayFacts` and emits stable rules:

========  =============================================================
RPR020    Per-element Python ``for``/``while`` loop over ndarray/CSR
          data inside the perimeter: direct iteration over an array
          (or its ``.tolist()``), ``enumerate``/``zip`` over arrays,
          1–2-argument ``range`` loops that scalar-index an array with
          the loop variable, and manual-cursor ``while`` loops.
          Chunked block loops (3-argument ``range``) are exempt.
RPR021    Growth-in-loop allocation: ``np.append``/``np.concatenate``/
          ``np.hstack``/``np.vstack`` inside a loop (O(n) realloc per
          iteration), or scalar ``list.append`` in a loop whose list is
          later converted via ``np.asarray``/``np.array``/``np.stack``.
          Appending whole *arrays* to a block list is the sanctioned
          pattern and exempt.
RPR022    Per-label dict/set probe in a loop where lexsort/unique
          batching is expected — the per-label dedup shape the closure
          engine replaced: ``d.get(k)`` / ``d[k]`` / ``k in d`` / ``s.add(k)``
          on a dict/set with a loop-varying key.
RPR023    Dtype-contract violation against a kernel's declared array
          signature (:attr:`HotKernel.contracts`): wrong family or
          narrower width for a declared name (explicit ``.astype`` does
          not excuse a contract conflict), silent int→float64 upcasts
          on rebind, and float-dtyped scalars used as indices.
RPR024    Loop-invariant array expression recomputed every iteration: an
          expensive NumPy call (sort/unique/repeat/where/...) inside a
          loop none of whose argument names vary in that loop.
========  =============================================================

Findings carry ``file:line`` anchors and an origin tag (``[hot via
repro.routing.table.NextHopTable.__init__]``).  Suppression uses the
shared ``# repro: noqa[CODE]`` comment — on the finding's own line, or
on the enclosing ``def`` line to cover a whole deliberately-scalar
function (e.g. ``repro.core.ipgraph._encode_seed``, which runs once per
build on the seed label).  The runtime
half of this tier (cProfile attribution, SAN004–SAN005, and the recorded
shape contracts, SAN006) lives in :mod:`repro.check.perfsanitize`.
"""

from __future__ import annotations

import ast
import functools
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

from .callgraph import CallGraph, FunctionNode, FunctionResolver, scan_tier
from .determinism import Perimeter, _parent_map
from .findings import Report
from .arrayfacts import (
    DTYPE_WIDTH,
    EXPENSIVE_FNS,
    FLOAT_DTYPES,
    INT_DTYPES,
    ArrayFacts,
)

__all__ = [
    "PERF_RULES",
    "HotKernel",
    "HOT_PERIMETER",
    "hot_path_perimeter",
    "perf_paths",
]

#: rule code -> one-line summary (catalog in DESIGN.md §7.5)
PERF_RULES: dict[str, str] = {
    "RPR020": "per-element Python loop over ndarray/CSR data in a hot kernel",
    "RPR021": "growth-in-loop allocation (np.concatenate in loop / list-append-then-convert)",
    "RPR022": "per-label dict/set probe in a loop where lexsort/unique batching is expected",
    "RPR023": "dtype contract violation (declared kernel signature / silent upcast / float index)",
    "RPR024": "loop-invariant array expression recomputed every iteration",
}


@dataclass(frozen=True)
class HotKernel:
    """One declared hot-path root: a qualname, why it is hot, and its
    array contracts.

    ``contracts`` are ``(name, dtype)`` pairs checked by RPR023
    throughout the kernel's reachable closure."""

    qualname: str
    reason: str
    contracts: tuple[tuple[str, str], ...] = ()


#: the declared hot-path perimeter (registered in one place; tests build
#: fixture perimeters by passing their own kernels to :func:`perf_paths`)
HOT_PERIMETER: tuple[HotKernel, ...] = (
    HotKernel(
        "repro.core.ipgraph.build_ip_graph",
        "batched BFS closure engine",
        contracts=(("known_ids", "int64"), ("new_ids", "int64"), ("dst", "int64")),
    ),
    HotKernel(
        "repro.routing.table.NextHopTable.__init__",
        "all-pairs next-hop table construction",
        contracts=(("nh", "int32"),),
    ),
    HotKernel(
        "repro.metrics.distances.bfs_distances",
        "validated (S, N) int32 view of the bit-parallel BFS",
        contracts=(("dist", "int32"),),
    ),
    HotKernel(
        "repro.metrics.distances.multi_source_bfs",
        "bit-parallel multi-source BFS (64 sources per uint64 word)",
        contracts=(("frontier", "uint64"), ("visited", "uint64")),
    ),
    HotKernel(
        "repro.fault.resilient.ResilientRouter._compute_survivor_path",
        "per-deroute survivor BFS (one sparse mat-vec per level, stopped at "
        "the packet's level) and shortest-path walk",
    ),
    HotKernel(
        "repro.sim.simulator.PacketSimulator.run",
        "batched event-driven simulator core",
    ),
    HotKernel(
        "repro.sim.simulator._Degraded.decide",
        "per-bucket fault decisions over the compiled timeline intervals",
    ),
    HotKernel(
        "repro.sim.policies.ChannelIndex.lookup",
        "scalar channel arbitration (one hop per call: the wormhole "
        "simulator and the degraded stage's residue loop)",
    ),
    HotKernel(
        "repro.sim.policies.ChannelIndex.find",
        "batched channel arbitration",
    ),
    HotKernel(
        "repro.serve.service.RouteService.resolve",
        "batched route-query serving (gather-per-hop, no per-query Python)",
        contracts=(("out", "int32"), ("paths", "int32")),
    ),
    HotKernel(
        "repro.fault.percolation.masked_components",
        "batched connected-component labeling",
        contracts=(("label", "int64"), ("flat_src", "int64"), ("flat_dst", "int64")),
    ),
)


def hot_path_perimeter(
    cg: CallGraph, kernels: Iterable[HotKernel] | None = None
) -> Perimeter:
    """The hot-path perimeter of a scanned tree, closed over reachability.

    ``kernels`` defaults to :data:`HOT_PERIMETER`; fixture tests pass
    their own.  Roots absent from the scanned tree are skipped (the
    perimeter-membership test in ``tests/test_check_perf.py`` pins the
    real roots against the real call graph).

    Unlike the determinism perimeters, the closure follows only *typed*
    call edges — the untyped-receiver method-name fallback
    (:attr:`CallGraph.fallback_edges`) would drag every ``.get``/``.add``
    method in the tree into the hot set and bury real findings in noqa
    spam.  Precision over recall is safe here because the perimeter is a
    two-sided contract: the runtime half (SAN004 in
    :mod:`repro.check.perfsanitize`) flags any *measured*-hot function
    the static closure missed.
    """
    perimeter = Perimeter("hot")
    for kernel in kernels if kernels is not None else HOT_PERIMETER:
        perimeter.roots[kernel.qualname] = kernel.qualname
    perimeter.close(cg, typed=True)
    return perimeter


# ----------------------------------------------------------------------
# NumPy call vocabulary
# ----------------------------------------------------------------------
#: numpy free functions that grow an array (RPR021 inside loops)
_GROWTH_FNS = frozenset({"append", "concatenate", "hstack", "vstack", "insert"})
#: numpy functions that convert a python list into an array (RPR021 sink)
_CONVERT_FNS = frozenset(
    {"array", "asarray", "asanyarray", "stack", "concatenate", "fromiter",
     "column_stack", "vstack", "hstack"}
)


# ----------------------------------------------------------------------
# loop helpers
# ----------------------------------------------------------------------
def _stored_names(node: ast.AST) -> set[str]:
    """Every name assigned/augassigned/for-bound anywhere inside ``node``."""
    out: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
            out.add(sub.id)
    return out


def _target_names(target: ast.expr) -> set[str]:
    return {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}


def _enclosing_loop(
    node: ast.AST, parents: dict[ast.AST, ast.AST]
) -> ast.For | ast.While | None:
    """Innermost For/While loop whose *body* contains ``node`` (the
    ``iter``/``test`` expressions run once/none-per-element and don't count)."""
    cur, prev = parents.get(node), node
    while cur is not None:
        if isinstance(cur, ast.For) and prev is not cur.iter:
            return cur
        if isinstance(cur, ast.While) and prev is not cur.test:
            return cur
        cur, prev = parents.get(cur), cur
    return None


_ITER_WRAPPERS = ("enumerate", "zip", "reversed", "sorted")


# ----------------------------------------------------------------------
# the scan
# ----------------------------------------------------------------------
class _PerfScan:
    """RPR020–RPR024 checks over one hot-perimeter function body."""

    def __init__(
        self,
        fn: FunctionNode,
        resolver: FunctionResolver,
        tag: str,
        contracts: dict[str, str],
        emit,
    ) -> None:
        self.fn = fn
        self.tag = tag
        self.contracts = contracts
        self.emit = emit
        self.facts = ArrayFacts(fn.node, resolver)
        self.parents = _parent_map(fn.node)
        #: loop node -> names that vary across its iterations
        self._varying: dict[ast.AST, set[str]] = {}

    def run(self) -> None:
        for node in ast.walk(self.fn.node):
            if isinstance(node, ast.For):
                self._check_for(node)
            elif isinstance(node, ast.While):
                self._check_while(node)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                self._check_comprehension(node)
            elif isinstance(node, ast.Call):
                self._check_call(node)
            elif isinstance(node, ast.Compare):
                self._check_membership(node)
            elif isinstance(node, ast.Subscript):
                self._check_subscript(node)
        self._check_dtypes()

    def varying(self, loop: ast.For | ast.While) -> set[str]:
        """Names that change across iterations of ``loop`` (memoized)."""
        got = self._varying.get(loop)
        if got is None:
            got = _stored_names(loop)
            if isinstance(loop, ast.For):
                got |= _target_names(loop.target)
            self._varying[loop] = got
        return got

    def _uses_varying(self, expr: ast.expr, loop: ast.For | ast.While) -> bool:
        varying = self.varying(loop)
        return any(
            isinstance(n, ast.Name) and n.id in varying for n in ast.walk(expr)
        )

    # -- RPR020: per-element loops -------------------------------------
    def _check_for(self, node: ast.For) -> None:
        it = node.iter
        sources = [it]
        if isinstance(it, ast.Call) and isinstance(it.func, ast.Name):
            if it.func.id in _ITER_WRAPPERS:
                sources = list(it.args)
            elif it.func.id == "range" and len(it.args) <= 2:
                self._check_range_loop(node)
                return
        for src in sources:
            if self.facts.is_arraylike_iter(src):
                what = src.id if isinstance(src, ast.Name) else "an ndarray expression"
                self.emit(
                    node,
                    "RPR020",
                    f"per-element Python loop over ndarray data (`{what}`); "
                    f"batch the body with vectorized NumPy ops [{self.tag}]",
                )
                return

    def _scalar_index(self, loop: ast.For | ast.While, cursors: set[str]) -> str | None:
        """A cursor name the loop body uses as a scalar index into an array."""
        for sub in loop.body:
            for n in ast.walk(sub):
                if (
                    isinstance(n, ast.Subscript)
                    and self.facts.is_array(n.value)
                    and isinstance(n.slice, ast.Name)
                    and n.slice.id in cursors
                    and n.slice.id not in self.facts.arrays
                ):
                    return n.slice.id
        return None

    def _check_range_loop(self, node: ast.For) -> None:
        """1–2-arg ``range`` loop scalar-indexing an array with the loop var.

        3-arg ``range`` (chunked block loops) never reaches here: stepping
        through offsets and slicing blocks is the sanctioned batch shape.
        """
        name = self._scalar_index(node, _target_names(node.target))
        if name is not None:
            self.emit(
                node,
                "RPR020",
                f"`range` loop scalar-indexes an ndarray with "
                f"`{name}` (one element per iteration); slice or "
                f"gather the whole block instead [{self.tag}]",
            )

    def _check_while(self, node: ast.While) -> None:
        """Manual-cursor ``while`` loop: scalar-indexes an array with a name
        the body itself advances.  Whole-array convergence loops (pointer
        doubling, frontier expansion) index with *arrays* and are exempt."""
        name = self._scalar_index(node, _stored_names(node))
        if name is not None:
            self.emit(
                node,
                "RPR020",
                f"manual-cursor `while` loop scalar-indexes an ndarray "
                f"with `{name}`; batch the traversal [{self.tag}]",
            )

    def _check_comprehension(self, node: ast.expr) -> None:
        for comp in node.generators:
            if self.facts.is_arraylike_iter(comp.iter):
                what = (
                    comp.iter.id
                    if isinstance(comp.iter, ast.Name)
                    else "an ndarray expression"
                )
                self.emit(
                    node,
                    "RPR020",
                    f"comprehension iterates ndarray `{what}` element by "
                    f"element; use a vectorized expression [{self.tag}]",
                )
                return

    # -- RPR021 / RPR022 / RPR024: calls --------------------------------
    def _check_call(self, node: ast.Call) -> None:
        loop = _enclosing_loop(node, self.parents)
        name = self.facts.np_name(node)
        if loop is not None and name in _GROWTH_FNS:
            self.emit(
                node,
                "RPR021",
                f"`np.{name}` inside a loop reallocates the array every "
                f"iteration (O(n²) growth); collect blocks and concatenate "
                f"once after the loop [{self.tag}]",
            )
        elif loop is not None and name in EXPENSIVE_FNS:
            if not self._uses_varying(node, loop):
                self.emit(
                    node,
                    "RPR024",
                    f"loop-invariant `np.{name}(...)` recomputed every "
                    f"iteration (no argument varies in this loop); hoist it "
                    f"above the loop [{self.tag}]",
                )
        if loop is not None and isinstance(node.func, ast.Attribute):
            self._check_keyed_call(node, loop)
        if isinstance(node.func, ast.Attribute) and node.func.attr == "append":
            self._check_list_append(node)

    def _check_keyed_call(self, node: ast.Call, loop: ast.For | ast.While) -> None:
        """RPR022: ``d.get(k)`` / ``d.setdefault`` / ``s.add(k)`` with a
        loop-varying key — the per-label dedup probe shape."""
        func = node.func
        assert isinstance(func, ast.Attribute)
        base = func.value
        if not isinstance(base, ast.Name):
            return
        is_dict = base.id in self.facts.dicts
        is_set = base.id in self.facts.sets
        probe = func.attr
        if is_dict and probe in ("get", "setdefault", "pop") or is_set and probe in (
            "add",
            "discard",
        ):
            if node.args and self._uses_varying(node.args[0], loop):
                kind = "dict" if is_dict else "set"
                self.emit(
                    node,
                    "RPR022",
                    f"per-label {kind} probe `{base.id}.{probe}(...)` inside a "
                    f"loop; batch the dedup with lexsort/np.unique over the "
                    f"whole frontier [{self.tag}]",
                )

    def _check_list_append(self, node: ast.Call) -> None:
        """RPR021 (list half): scalar ``.append`` in a loop on a list that is
        later converted to an array.  Appending array *blocks* is exempt —
        that is the sanctioned collect-then-concatenate pattern."""
        loop = _enclosing_loop(node, self.parents)
        if loop is None:
            return
        func = node.func
        assert isinstance(func, ast.Attribute)
        base = func.value
        if not isinstance(base, ast.Name) or base.id in self.facts.dicts:
            return
        if not node.args or self.facts.is_array(node.args[0]):
            return
        if base.id not in self._converted_lists:
            return
        self.emit(
            node,
            "RPR021",
            f"scalar `{base.id}.append(...)` in a loop feeds an array "
            f"conversion; build whole blocks per frontier and convert once "
            f"[{self.tag}]",
        )

    @functools.cached_property
    def _converted_lists(self) -> set[str]:
        """Names passed to an array-conversion call anywhere in the function."""
        out: set[str] = set()
        for node in ast.walk(self.fn.node):
            if not isinstance(node, ast.Call):
                continue
            if self.facts.np_name(node) not in _CONVERT_FNS:
                continue
            for arg in node.args:
                exprs = (
                    arg.elts if isinstance(arg, (ast.List, ast.Tuple)) else [arg]
                )
                for e in exprs:
                    if isinstance(e, ast.Name):
                        out.add(e.id)
        return out

    # -- RPR022: subscripts and membership ------------------------------
    def _check_subscript(self, node: ast.Subscript) -> None:
        base = node.value
        if not (isinstance(base, ast.Name) and base.id in self.facts.dicts):
            return
        loop = _enclosing_loop(node, self.parents)
        if loop is None or not self._uses_varying(node.slice, loop):
            return
        self.emit(
            node,
            "RPR022",
            f"per-label dict access `{base.id}[...]` with a loop-varying key; "
            f"batch the lookup with searchsorted over sorted keys [{self.tag}]",
        )

    def _check_membership(self, node: ast.Compare) -> None:
        for op, comparator in zip(node.ops, node.comparators):
            if not isinstance(op, (ast.In, ast.NotIn)):
                continue
            if not isinstance(comparator, ast.Name):
                continue
            if comparator.id not in self.facts.dicts | self.facts.sets:
                continue
            loop = _enclosing_loop(node, self.parents)
            if loop is None or not self._uses_varying(node.left, loop):
                continue
            kind = "dict" if comparator.id in self.facts.dicts else "set"
            self.emit(
                node,
                "RPR022",
                f"per-label membership test against {kind} `{comparator.id}` "
                f"inside a loop; batch with np.isin/searchsorted [{self.tag}]",
            )

    # -- RPR023: dtype contracts -----------------------------------------
    def _check_dtypes(self) -> None:
        """Every binding in source order, as the interpreter's dtype facts
        saw it: contract conflicts, silent int→float upcasts, float indices."""
        for node, name, dtype, prev, is_astype in self.facts.dtype_events:
            declared = self.contracts.get(name)
            if dtype is not None and declared is not None:
                self._check_contract(node, name, declared, dtype)
            if (
                dtype in FLOAT_DTYPES
                and prev in INT_DTYPES
                and prev not in ("pyint",)
                and not is_astype
            ):
                self.emit(
                    node,
                    "RPR023",
                    f"silent upcast: `{name}` was {prev} and is rebound to "
                    f"a float64 expression (doubles memory, breaks integer "
                    f"semantics); use an explicit `.astype` if intended "
                    f"[{self.tag}]",
                )
        self._check_float_indices(self.facts.dtypes)

    def _check_contract(
        self, node: ast.AST, name: str, declared: str, actual: str
    ) -> None:
        if actual == declared or actual == "pyint" and declared in INT_DTYPES:
            return
        same_family = (
            actual in INT_DTYPES
            and declared in INT_DTYPES
            or actual in FLOAT_DTYPES
            and declared in FLOAT_DTYPES
        )
        if same_family:
            narrower = DTYPE_WIDTH.get(actual, 0) < DTYPE_WIDTH.get(declared, 0)
            detail = (
                f"{actual} truncates the declared {declared} range"
                if narrower
                else f"{actual} silently widens the declared {declared} layout"
            )
        else:
            detail = f"{actual} breaks the declared {declared} family"
        self.emit(
            node,
            "RPR023",
            f"dtype contract violation: kernel declares `{name}: {declared}` "
            f"but this binding is {actual} ({detail}) [{self.tag}]",
        )

    def _check_float_indices(self, env: dict[str, str]) -> None:
        for node in ast.walk(self.fn.node):
            if not isinstance(node, ast.Subscript):
                continue
            if not self.facts.is_array(node.value):
                continue
            if (
                isinstance(node.slice, ast.Name)
                and env.get(node.slice.id) in FLOAT_DTYPES
            ):
                self.emit(
                    node,
                    "RPR023",
                    f"float-dtyped `{node.slice.id}` used as an ndarray index "
                    f"(raises at runtime or hides an unintended cast) "
                    f"[{self.tag}]",
                )


# ----------------------------------------------------------------------
# orchestrator
# ----------------------------------------------------------------------
def perf_paths(
    paths: Iterable[str | Path], kernels: Iterable[HotKernel] | None = None
) -> Report:
    """Run the hot-path performance pass (RPR020–RPR024) over a tree.

    Builds the call graph, closes the declared hot-path perimeter
    (``kernels`` defaults to :data:`HOT_PERIMETER`), and scans every
    perimeter-reachable function.  Findings honour ``# repro:
    noqa[CODE]`` on their own line *or* on the enclosing ``def`` line
    (whole-function suppression for deliberately-scalar reference
    kernels).
    """
    kernels = tuple(kernels) if kernels is not None else HOT_PERIMETER
    contracts_by_root = {k.qualname: dict(k.contracts) for k in kernels}
    reached: dict[str, str] = {}

    def reached_of(cg: CallGraph) -> dict[str, str]:
        reached.update(hot_path_perimeter(cg, kernels).reached)
        return reached

    def visit(fn: FunctionNode, resolver: FunctionResolver, emit) -> int:
        origin = reached[fn.qualname]
        contracts = contracts_by_root.get(origin, {})
        _PerfScan(fn, resolver, f"hot via {origin}", contracts, emit).run()
        return 1

    return scan_tier("perf", paths, reached_of, visit, def_line=True)
