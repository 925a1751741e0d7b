"""Hot-path performance analysis (``python -m repro.check perf``).

ROADMAP item 1 (vectorized closure + routing kernels) and every sweep
downstream of it depend on a handful of kernels staying *array-batched*:
a single per-node Python loop reintroduced into the closure engine or the
next-hop builder silently costs 10–100× at the sizes the paper's
structures reach (Theorem 3.2: ``|HSN(l, G)| = M^l``).  The correctness
tiers (lint/contracts/dataflow) cannot see that regression; this module
is the matching *performance* tier.

The **hot-path perimeter** is declared once — :data:`HOT_PERIMETER`, a
tuple of :class:`HotKernel` records naming the closure engine, the
``NextHopTable`` construction, the BFS distance kernel, the
node-disjoint-paths flow kernel, the simulator event core and its
fault decision stage, the percolation union-find, and the orbit signature kernels —
and closed over the import-aware call graph
(:mod:`repro.check.callgraph`), exactly like the determinism perimeters
of :mod:`repro.check.determinism`.  Every function reachable from a hot
kernel is scanned by an AST/dataflow pass emitting stable rules:

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
          batching is expected — the exact dedup shape ROADMAP item 1
          targets: ``d.get(k)`` / ``d[k]`` / ``k in d`` / ``s.add(k)``
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
function (e.g. ``NodeDisjointPaths._paths``, which replays networkx's
Edmonds–Karp step for step).  The runtime
half of this tier (cProfile attribution, SAN004–SAN005) lives in
:mod:`repro.check.perfsanitize`.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

from repro import obs

from .callgraph import CallGraph, FunctionNode, FunctionResolver, build_callgraph
from .determinism import Perimeter, _parent_map, _set_valued_names
from .findings import Finding, Report
from .lint import _noqa_map

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
    throughout the kernel's reachable closure.  ``shape`` are
    ``(name, shape-spec)`` pairs — e.g. ``("starts", "(n,)")``, with the
    special name ``"return"`` for the return value — parsed by
    :func:`repro.check.shapeinfer.parse_shape` and checked by RPR034 at
    the kernel root; all of one kernel's specs share a symbol namespace,
    so ``(q,)`` declared twice must mean the same extent."""

    qualname: str
    reason: str
    contracts: tuple[tuple[str, str], ...] = ()
    shape: tuple[tuple[str, str], ...] = ()


#: the declared hot-path perimeter (registered in one place; tests build
#: fixture perimeters by passing their own kernels to :func:`perf_paths`)
HOT_PERIMETER: tuple[HotKernel, ...] = (
    HotKernel(
        "repro.core.ipgraph.build_ip_graph",
        "batched BFS closure engine",
        contracts=(("known_ids", "int64"), ("frontier_ids", "int64"), ("dst", "int64")),
    ),
    HotKernel(
        "repro.routing.table.NextHopTable.__init__",
        "all-pairs next-hop table construction",
        contracts=(("nh", "int32"),),
        shape=(
            ("degree", "(n,)"),
            ("dsts", "(r,)"),
        ),
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
        "repro.routing.disjoint.NodeDisjointPaths._build",
        "node-split flow network built from the arc list (once per router)",
        contracts=(("head", "int64"), ("rev", "int64")),
    ),
    HotKernel(
        "repro.routing.disjoint.NodeDisjointPaths.__call__",
        "unit-capacity Edmonds–Karp survivor-path query (per deroute)",
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
        "scalar channel arbitration (one hop per call; the per-event test oracle's path)",
    ),
    HotKernel(
        "repro.sim.policies.ChannelIndex.lookup_many",
        "batched channel arbitration",
    ),
    HotKernel(
        "repro.serve.service.RouteService.resolve",
        "batched route-query serving (gather-per-hop, no per-query Python)",
        contracts=(("out", "int32"), ("paths", "int32")),
        shape=(
            ("src_ids", "(q,)"),
            ("dst_ids", "(q,)"),
            ("hops", "(q,)"),
            ("distance", "(q,)"),
        ),
    ),
    HotKernel(
        "repro.fault.percolation.masked_components",
        "batched union-find component labeling",
        contracts=(("label", "int64"), ("flat_src", "int64"), ("flat_dst", "int64")),
    ),
    HotKernel(
        "repro.fault.orbits.fault_signature",
        "canonical fault-signature kernel",
    ),
    HotKernel(
        "repro.fault.orbits._canonical_codes",
        "orbit-canonical code kernel",
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
    from collections import deque

    perimeter = Perimeter("hot")
    queue: deque[str] = deque()
    for kernel in kernels if kernels is not None else HOT_PERIMETER:
        qual = kernel.qualname
        perimeter.roots[qual] = qual
        if qual in cg.functions and qual not in perimeter.reached:
            perimeter.reached[qual] = qual
            queue.append(qual)
    while queue:
        cur = queue.popleft()
        origin = perimeter.reached[cur]
        typed = cg.edges.get(cur, set()) - cg.fallback_edges.get(cur, set())
        for nxt in typed:
            if nxt not in perimeter.reached:
                perimeter.reached[nxt] = origin
                queue.append(nxt)
    return perimeter


# ----------------------------------------------------------------------
# NumPy call vocabulary
# ----------------------------------------------------------------------
#: expensive whole-array operations (RPR024 hoisting candidates).  Plain
#: allocations (zeros/empty/arange) are excluded: reallocating a buffer
#: per iteration is sometimes the point (double-buffering).
_EXPENSIVE_FNS = frozenset(
    {
        "sort", "argsort", "lexsort", "unique", "searchsorted", "concatenate",
        "where", "nonzero", "flatnonzero", "argwhere", "cumsum", "diff",
        "repeat", "tile", "dot", "matmul", "einsum", "minimum", "maximum",
        "stack", "hstack", "vstack", "column_stack", "bincount", "isin",
        "in1d", "setdiff1d", "intersect1d", "union1d", "add", "logical_and",
        "logical_or",
    }
)
#: numpy free functions returning ndarrays (array-valued inference)
_NP_ARRAY_FNS = _EXPENSIVE_FNS | frozenset(
    {
        "array", "asarray", "asanyarray", "ascontiguousarray", "zeros",
        "empty", "ones", "full", "zeros_like", "empty_like", "ones_like",
        "full_like", "arange", "linspace", "fromiter", "frombuffer", "copy",
        "atleast_1d", "atleast_2d", "clip", "abs", "sign", "mod",
    }
)
#: ndarray methods returning ndarrays
_ARRAY_METHODS = frozenset(
    {
        "astype", "copy", "ravel", "reshape", "view", "take", "clip",
        "repeat", "flatten", "transpose", "squeeze", "cumsum", "round",
    }
)
#: CSR / edge-bundle attributes that are ndarray-valued wherever they appear
_CSR_ATTRS = frozenset({"indptr", "indices", "data"})
#: numpy free functions that grow an array (RPR021 inside loops)
_GROWTH_FNS = frozenset({"append", "concatenate", "hstack", "vstack", "insert"})
#: numpy functions that convert a python list into an array (RPR021 sink)
_CONVERT_FNS = frozenset(
    {"array", "asarray", "asanyarray", "stack", "concatenate", "fromiter",
     "column_stack", "vstack", "hstack"}
)
#: numpy tuple-returning functions whose unpacked targets are all arrays
_TUPLE_ARRAY_FNS = frozenset({"nonzero", "unique", "meshgrid", "divmod", "histogram"})

_INT_DTYPES = frozenset(
    {"int8", "int16", "int32", "int64", "intp", "uint8", "uint16", "uint32",
     "uint64", "bool", "bool_", "pyint"}
)
_FLOAT_DTYPES = frozenset({"float16", "float32", "float64", "pyfloat"})
#: relative width rank inside a family (for truncation vs widening wording)
_DTYPE_WIDTH = {
    "bool": 1, "bool_": 1, "int8": 8, "uint8": 8, "int16": 16, "uint16": 16,
    "int32": 32, "uint32": 32, "int64": 64, "uint64": 64, "intp": 64,
    "float16": 16, "float32": 32, "float64": 64, "pyint": 64, "pyfloat": 64,
}


def _np_call_name(resolver: FunctionResolver, call: ast.Call) -> str | None:
    """``"concatenate"`` for ``np.concatenate(...)`` (also for ufunc-method
    chains like ``np.minimum.reduceat``), else None."""
    dotted = resolver.resolve_expr(call.func)
    if dotted is None:
        return None
    parts = dotted.split(".")
    if parts[0] == "numpy" and len(parts) >= 2:
        return parts[1]
    return None


# ----------------------------------------------------------------------
# local type inference (array / dict / set / dtype)
# ----------------------------------------------------------------------
class _LocalTypes:
    """Flow-insensitive value kinds for one function body.

    Fixpoint over assignments classifies local names as array-valued,
    dict-valued, or set-valued, and records locally-inferable dtypes.
    Deliberately shallow: attribute reads, call results of unscanned
    functions, and anything ambiguous stay unknown — the rules only fire
    on what can be proven locally, which is how the pass stays quiet on
    clean code without a noqa budget.
    """

    def __init__(self, fn: FunctionNode, resolver: FunctionResolver) -> None:
        self.resolver = resolver
        self.arrays: set[str] = set()
        self.dicts: set[str] = set()
        self.sets: set[str] = _set_valued_names(fn.node)
        self._annotate_params(fn.node)
        for _ in range(2):  # two passes so ``b = a`` chains settle
            for node in ast.walk(fn.node):
                self._classify_stmt(node)

    def _annotate_params(self, fn_node: ast.AST) -> None:
        args = getattr(fn_node, "args", None)
        if args is None:
            return
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            if arg.annotation is None:
                continue
            try:
                ann = ast.unparse(arg.annotation)
            except Exception:  # pragma: no cover — malformed annotation
                continue
            if "ndarray" in ann or "NDArray" in ann:
                self.arrays.add(arg.arg)
            elif ann.startswith(("dict", "Dict", "Mapping")) or "Mapping[" in ann:
                self.dicts.add(arg.arg)

    def _classify_stmt(self, node: ast.AST) -> None:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            return
        # tuple unpack: np.nonzero / paired array expressions
        for t in targets:
            if isinstance(t, (ast.Tuple, ast.List)):
                self._classify_unpack(t, value)
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if not names:
            return
        if self.is_array(value):
            self.arrays.update(names)
        elif self._is_dict_expr(value):
            self.dicts.update(names)

    def _classify_unpack(self, target: ast.Tuple | ast.List, value: ast.expr) -> None:
        if isinstance(value, ast.Call):
            name = _np_call_name(self.resolver, value)
            if name in _TUPLE_ARRAY_FNS:
                for elt in target.elts:
                    if isinstance(elt, ast.Name):
                        self.arrays.add(elt.id)
        elif isinstance(value, (ast.Tuple, ast.List)) and len(value.elts) == len(
            target.elts
        ):
            for elt, val in zip(target.elts, value.elts):
                if isinstance(elt, ast.Name) and self.is_array(val):
                    self.arrays.add(elt.id)

    def _is_dict_expr(self, expr: ast.expr) -> bool:
        if isinstance(expr, (ast.Dict, ast.DictComp)):
            return True
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
            if expr.func.id in ("dict", "defaultdict", "OrderedDict", "Counter"):
                return True
        if isinstance(expr, ast.Name):
            return expr.id in self.dicts
        return False

    # -- array-valuedness ----------------------------------------------
    def is_array(self, expr: ast.expr) -> bool:
        """Is this expression provably ndarray-valued?"""
        if isinstance(expr, ast.Name):
            return expr.id in self.arrays
        if isinstance(expr, ast.Attribute):
            return expr.attr in _CSR_ATTRS
        if isinstance(expr, ast.Subscript):
            return self.is_array(expr.value)
        if isinstance(expr, ast.UnaryOp):
            return self.is_array(expr.operand)
        if isinstance(expr, ast.BinOp):
            return self.is_array(expr.left) or self.is_array(expr.right)
        if isinstance(expr, ast.Compare):
            return self.is_array(expr.left) or any(
                self.is_array(c) for c in expr.comparators
            )
        if isinstance(expr, ast.IfExp):
            return self.is_array(expr.body) or self.is_array(expr.orelse)
        if isinstance(expr, ast.Call):
            name = _np_call_name(self.resolver, expr)
            if name in _NP_ARRAY_FNS:
                return True
            if isinstance(expr.func, ast.Attribute):
                if expr.func.attr in _ARRAY_METHODS and self.is_array(expr.func.value):
                    return True
        return False

    def is_arraylike_iter(self, expr: ast.expr) -> bool:
        """Array-valued, or array data flattened element-wise (``.tolist()``)."""
        if self.is_array(expr):
            return True
        return (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr == "tolist"
            and self.is_array(expr.func.value)
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
        self.resolver = resolver
        self.tag = tag
        self.contracts = contracts
        self.emit = emit
        self.types = _LocalTypes(fn, resolver)
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
            if self.types.is_arraylike_iter(src):
                what = src.id if isinstance(src, ast.Name) else "an ndarray expression"
                self.emit(
                    node,
                    "RPR020",
                    f"per-element Python loop over ndarray data (`{what}`); "
                    f"batch the body with vectorized NumPy ops [{self.tag}]",
                )
                return

    def _check_range_loop(self, node: ast.For) -> None:
        """1–2-arg ``range`` loop scalar-indexing an array with the loop var.

        3-arg ``range`` (chunked block loops) never reaches here: stepping
        through offsets and slicing blocks is the sanctioned batch shape.
        """
        loop_vars = _target_names(node.target)
        for sub in node.body:
            for n in ast.walk(sub):
                if (
                    isinstance(n, ast.Subscript)
                    and self.types.is_array(n.value)
                    and isinstance(n.slice, ast.Name)
                    and n.slice.id in loop_vars
                    and n.slice.id not in self.types.arrays
                ):
                    self.emit(
                        node,
                        "RPR020",
                        f"`range` loop scalar-indexes an ndarray with "
                        f"`{n.slice.id}` (one element per iteration); slice or "
                        f"gather the whole block instead [{self.tag}]",
                    )
                    return

    def _check_while(self, node: ast.While) -> None:
        """Manual-cursor ``while`` loop: scalar-indexes an array with a name
        the body itself advances.  Whole-array convergence loops (pointer
        doubling, frontier expansion) index with *arrays* and are exempt."""
        stored = _stored_names(node)
        for sub in node.body:
            for n in ast.walk(sub):
                if (
                    isinstance(n, ast.Subscript)
                    and self.types.is_array(n.value)
                    and isinstance(n.slice, ast.Name)
                    and n.slice.id in stored
                    and n.slice.id not in self.types.arrays
                ):
                    self.emit(
                        node,
                        "RPR020",
                        f"manual-cursor `while` loop scalar-indexes an ndarray "
                        f"with `{n.slice.id}`; batch the traversal "
                        f"[{self.tag}]",
                    )
                    return

    def _check_comprehension(self, node: ast.expr) -> None:
        for comp in node.generators:
            if self.types.is_arraylike_iter(comp.iter):
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
        name = _np_call_name(self.resolver, node)
        if loop is not None and name in _GROWTH_FNS:
            self.emit(
                node,
                "RPR021",
                f"`np.{name}` inside a loop reallocates the array every "
                f"iteration (O(n²) growth); collect blocks and concatenate "
                f"once after the loop [{self.tag}]",
            )
        elif loop is not None and name in _EXPENSIVE_FNS:
            if not self._uses_varying(node, loop):
                self.emit(
                    node,
                    "RPR024",
                    f"loop-invariant `np.{name}(...)` recomputed every "
                    f"iteration (no argument varies in this loop); hoist it "
                    f"above the loop [{self.tag}]",
                )
        if loop is not None and isinstance(node.func, ast.Attribute):
            self._check_probe_call(node, loop)
        if isinstance(node.func, ast.Attribute) and node.func.attr == "append":
            self._check_list_append(node)

    def _check_probe_call(self, node: ast.Call, loop: ast.For | ast.While) -> None:
        """RPR022: ``d.get(k)`` / ``d.setdefault`` / ``s.add(k)`` with a
        loop-varying key — the per-label dedup probe shape."""
        func = node.func
        assert isinstance(func, ast.Attribute)
        base = func.value
        if not isinstance(base, ast.Name):
            return
        is_dict = base.id in self.types.dicts
        is_set = base.id in self.types.sets
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
        if not isinstance(base, ast.Name) or base.id in self.types.dicts:
            return
        if not node.args or self.types.is_array(node.args[0]):
            return
        if base.id not in self._converted_lists():
            return
        self.emit(
            node,
            "RPR021",
            f"scalar `{base.id}.append(...)` in a loop feeds an array "
            f"conversion; build whole blocks per frontier and convert once "
            f"[{self.tag}]",
        )

    def _converted_lists(self) -> set[str]:
        """Names passed to an array-conversion call anywhere in the function."""
        got = getattr(self, "_converted_cache", None)
        if got is not None:
            return got
        out: set[str] = set()
        for node in ast.walk(self.fn.node):
            if not isinstance(node, ast.Call):
                continue
            if _np_call_name(self.resolver, node) not in _CONVERT_FNS:
                continue
            for arg in node.args:
                exprs = (
                    arg.elts if isinstance(arg, (ast.List, ast.Tuple)) else [arg]
                )
                for e in exprs:
                    if isinstance(e, ast.Name):
                        out.add(e.id)
        self._converted_cache = out
        return out

    # -- RPR022: subscripts and membership ------------------------------
    def _check_subscript(self, node: ast.Subscript) -> None:
        base = node.value
        if not (isinstance(base, ast.Name) and base.id in self.types.dicts):
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
            if comparator.id not in self.types.dicts | self.types.sets:
                continue
            loop = _enclosing_loop(node, self.parents)
            if loop is None or not self._uses_varying(node.left, loop):
                continue
            kind = "dict" if comparator.id in self.types.dicts else "set"
            self.emit(
                node,
                "RPR022",
                f"per-label membership test against {kind} `{comparator.id}` "
                f"inside a loop; batch with np.isin/searchsorted [{self.tag}]",
            )

    # -- RPR023: dtype contracts -----------------------------------------
    def _dtype_name(self, expr: ast.expr) -> str | None:
        """``"int64"`` for ``np.int64`` / ``"int64"`` / ``int``/``float``/``bool``."""
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            return expr.value
        if isinstance(expr, ast.Name):
            return {"int": "int64", "float": "float64", "bool": "bool"}.get(expr.id)
        dotted = self.resolver.resolve_expr(expr)
        if dotted is not None and dotted.startswith("numpy."):
            leaf = dotted.split(".")[-1]
            if leaf in _INT_DTYPES or leaf in _FLOAT_DTYPES:
                return leaf
        return None

    def _dtype_of(self, expr: ast.expr, env: dict[str, str]) -> str | None:
        """Locally-inferable element dtype of an expression, or None."""
        if isinstance(expr, ast.Constant):
            if isinstance(expr.value, bool):
                return "bool"
            if isinstance(expr.value, int):
                return "pyint"
            if isinstance(expr.value, float):
                return "pyfloat"
            return None
        if isinstance(expr, ast.Name):
            return env.get(expr.id)
        if isinstance(expr, ast.Subscript):
            return self._dtype_of(expr.value, env)
        if isinstance(expr, ast.UnaryOp):
            return self._dtype_of(expr.operand, env)
        if isinstance(expr, ast.BinOp):
            if isinstance(expr.op, ast.Div):
                return "float64"  # true division always yields float
            left = self._dtype_of(expr.left, env)
            right = self._dtype_of(expr.right, env)
            if left in _FLOAT_DTYPES or right in _FLOAT_DTYPES:
                return "float64"
            if left in _INT_DTYPES and right in _INT_DTYPES:
                return max((left, right), key=lambda d: _DTYPE_WIDTH.get(d, 0))
            return None
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Attribute) and func.attr == "astype":
                if expr.args:
                    return self._dtype_name(expr.args[0])
                return None
            name = _np_call_name(self.resolver, expr)
            if name is None:
                return None
            if name in _INT_DTYPES or name in _FLOAT_DTYPES:
                return name  # np.int64(x) scalar constructor
            for kw in expr.keywords:
                if kw.arg == "dtype":
                    return self._dtype_name(kw.value)
            if name in ("zeros", "ones", "empty", "linspace"):
                return "float64"  # numpy's default dtype
            if name == "arange" and all(
                self._dtype_of(a, env) in _INT_DTYPES for a in expr.args
            ):
                return "int64"
        return None

    def _check_dtypes(self) -> None:
        """Linear abstract-interpretation pass over assignments in source
        order: contract conflicts, silent int→float upcasts, float indices."""
        env: dict[str, str] = {}
        assigns = [
            n
            for n in ast.walk(self.fn.node)
            if isinstance(n, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        ]
        for node in sorted(assigns, key=lambda n: (n.lineno, n.col_offset)):
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign):
                if node.value is None:
                    continue
                targets, value = [node.target], node.value
            else:  # AugAssign: x op= v keeps/loosens x's dtype
                targets, value = [node.target], node.value
                if isinstance(node.target, ast.Name) and isinstance(node.op, ast.Div):
                    value = ast.BinOp(node.target, ast.Div(), node.value)
                    ast.copy_location(value, node)
                else:
                    continue
            dtype = self._dtype_of(value, env)
            is_astype = (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr == "astype"
            )
            for t in targets:
                if not isinstance(t, ast.Name):
                    continue
                declared = self.contracts.get(t.id)
                prev = env.get(t.id)
                if dtype is not None and declared is not None:
                    self._check_contract(node, t.id, declared, dtype)
                if (
                    dtype in _FLOAT_DTYPES
                    and prev in _INT_DTYPES
                    and prev not in ("pyint",)
                    and not is_astype
                ):
                    self.emit(
                        node,
                        "RPR023",
                        f"silent upcast: `{t.id}` was {prev} and is rebound to "
                        f"a float64 expression (doubles memory, breaks integer "
                        f"semantics); use an explicit `.astype` if intended "
                        f"[{self.tag}]",
                    )
                if dtype is not None:
                    env[t.id] = dtype
        self._check_float_indices(env)

    def _check_contract(
        self, node: ast.AST, name: str, declared: str, actual: str
    ) -> None:
        if actual == declared or actual == "pyint" and declared in _INT_DTYPES:
            return
        same_family = (
            actual in _INT_DTYPES
            and declared in _INT_DTYPES
            or actual in _FLOAT_DTYPES
            and declared in _FLOAT_DTYPES
        )
        if same_family:
            narrower = _DTYPE_WIDTH.get(actual, 0) < _DTYPE_WIDTH.get(declared, 0)
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
            if not self.types.is_array(node.value):
                continue
            if (
                isinstance(node.slice, ast.Name)
                and env.get(node.slice.id) in _FLOAT_DTYPES
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
    report = Report()
    with obs.span("check.perf"):
        cg = build_callgraph(paths)
        perimeter = hot_path_perimeter(cg, kernels)
        noqa_cache: dict[str, dict[int, frozenset[str] | None]] = {}
        seen: set[tuple[str, int, str]] = set()
        suppressed = 0

        for qual in sorted(perimeter.reached):
            fn = cg.functions[qual]
            scope = cg.modules[fn.module]
            resolver = FunctionResolver(cg, scope, fn)
            origin = perimeter.reached[qual]
            tag = f"hot via {origin}"
            contracts = contracts_by_root.get(origin, {})
            noqa = noqa_cache.setdefault(fn.path, _noqa_map(scope.source))

            def emit(
                node: ast.AST,
                code: str,
                message: str,
                _noqa=noqa,
                _fn=fn,
            ) -> None:
                nonlocal suppressed
                lineno = getattr(node, "lineno", 0)
                key = (_fn.path, lineno, code)
                if key in seen:
                    return
                for ln in (lineno, _fn.lineno):
                    mask = _noqa.get(ln, frozenset())
                    if mask is None or code in mask:
                        seen.add(key)
                        suppressed += 1
                        return
                seen.add(key)
                report.add(Finding(_fn.path, lineno, code, message))

            _PerfScan(fn, resolver, tag, contracts, emit).run()
            report.checked += 1

        reg = obs.registry()
        reg.incr("check.perf.reachable", len(perimeter.reached))
        reg.incr("check.perf.findings", len(report.findings))
        reg.incr("check.perf.suppressed", suppressed)
    return report
