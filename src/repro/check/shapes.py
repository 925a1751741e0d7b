"""Shape & broadcast analysis (``python -m repro.check shapes``).

The perf tier (:mod:`repro.check.perf`) keeps the hot kernels
*array-batched*; this tier keeps them *geometrically sound*.  The
dominant silent-failure mode of a batched rewrite is not logic but
shape: an accidental ``(n, 1)`` against ``(n,)`` broadcast that
materializes an ``(n, n)`` intermediate, a reduction along the wrong
axis that still returns an array, a ``reshape`` whose element count only
matches on the test topology, or an in-place write through a view of the
read-only mmapped tables :mod:`repro.serve` shares across workers.  All
of those run — they just run wrong or enormous.

The scan walks the same hot-path perimeter as the perf tier (the
:data:`~repro.check.perf.HOT_PERIMETER` closure over typed call-graph
edges, plus the :mod:`repro.serve` resolve paths declared in
:data:`SERVE_SHAPE_ROOTS`) and evaluates every function body under the
symbolic shape interpreter of :mod:`repro.check.shapeinfer`, emitting
stable rules:

========  =============================================================
RPR030    Provably incompatible broadcast (two known unequal extents,
          or same-symbol extents at different offsets such as ``n`` vs
          ``n+1``), and the silent rank-promoting broadcast
          ``(n, 1) ⊕ (n,) → (n, n)``.
RPR031    Reduction axis outside the operand's inferred rank
          (``sum``/``min``/``reduce``/``reduceat``/... with a literal
          ``axis``).
RPR032    ``reshape``/``concatenate``/``stack`` geometry errors:
          element-count mismatches, unresolvable or duplicated ``-1``,
          rank or off-axis dimension disagreements.
RPR033    In-place write through a view or slice that aliases a later
          read of its base, and any write into an array opened
          ``mmap_mode="r"`` (``np.load``/``ArtifactCache.load_mmap``).
RPR034    Drift between a kernel's declared shape contracts
          (:attr:`~repro.check.perf.HotKernel.shape`) and the shapes
          inferred for the named bindings / return values — checked at
          the kernel root, with symbols unified across all of its
          declarations (``(n,)`` twice must mean the same ``n``).
========  =============================================================

Everything fires on *proof*, never on suspicion: an unknown shape
silences every downstream check, which is how the tier stays quiet on
clean code without a noqa budget.  Suppression uses the shared
``# repro: noqa[CODE]`` comment on the finding's line or the enclosing
``def`` line.  The runtime half (SAN006: concrete shapes/dtypes recorded
from the live workloads against ``benchmarks/shape_contracts.json``)
lives in :mod:`repro.check.shapesanitize`.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable
from pathlib import Path

from .callgraph import CallGraph, FunctionNode, FunctionResolver, scan_tier
from .findings import Report
from .perf import HOT_PERIMETER, HotKernel, hot_path_perimeter
from .shapeinfer import ShapeInterp, parse_shape, unify_shapes

__all__ = [
    "SHAPE_RULES",
    "SERVE_SHAPE_ROOTS",
    "shape_paths",
]

#: rule code -> one-line summary (catalog in DESIGN.md §7.6)
SHAPE_RULES: dict[str, str] = {
    "RPR030": "provably incompatible or silently rank-promoting broadcast",
    "RPR031": "reduction axis out of the operand's inferred rank",
    "RPR032": "reshape/concatenate/stack element-count or dimension mismatch",
    "RPR033": "in-place write through an aliasing view or a read-only mmap",
    "RPR034": "drift between declared kernel shape contracts and inferred shapes",
}

#: interpreter issue kind -> rule code
_ISSUE_CODES = {
    "broadcast": "RPR030",
    "rank_promote": "RPR030",
    "axis": "RPR031",
    "reshape": "RPR032",
    "concat": "RPR032",
    "stack": "RPR032",
}

#: extra shape-tier roots: the serve resolve paths that touch the
#: read-only mmapped shards (worker re-open, table materialization,
#: parallel fan-out) — exactly where an RPR033 write would corrupt or
#: copy-on-write pages shared across processes
SERVE_SHAPE_ROOTS: tuple[HotKernel, ...] = (
    HotKernel(
        "repro.serve.service.RouteService.open",
        "mmap shard materialization and re-open path",
    ),
    HotKernel(
        "repro.serve.service.RouteService.from_spec",
        "worker-side mmap re-open path",
    ),
    HotKernel(
        "repro.serve.workers.parallel_resolve",
        "parallel resolve fan-out over shared shards",
    ),
)


# ----------------------------------------------------------------------
# RPR033: aliasing / read-only write analysis
# ----------------------------------------------------------------------
#: ndarray methods producing a *view* of their receiver
_VIEW_METHODS = frozenset({"view", "reshape", "ravel", "transpose", "swapaxes"})
#: ndarray methods that mutate their receiver in place
_MUTATING_METHODS = frozenset({"fill", "sort", "partition", "put", "itemset"})


class _AliasScan:
    """RPR033 over one function body, in source order.

    Tracks two facts per local name: *readonly provenance* (bound from
    ``np.load(..., mmap_mode="r")`` or ``ArtifactCache.load_mmap``,
    directly or through views/aliases) and *view provenance* (bound to a
    slice/``.T``/``.view()``/``.reshape()`` of another local).  A
    subscript write or mutating method call then fires when the target is
    readonly-backed (always wrong: raises, or worse, copy-on-writes pages
    shared across workers), or when it is a view whose base is read again
    on a later line (the write silently lands in that read).
    """

    def __init__(
        self, fn: FunctionNode, resolver: FunctionResolver, tag: str, emit
    ) -> None:
        self.fn = fn
        self.resolver = resolver
        self.tag = tag
        self.emit = emit
        self.readonly: set[str] = set()
        self.views: dict[str, str] = {}

    # -- provenance -----------------------------------------------------
    def _is_readonly_call(self, expr: ast.expr) -> bool:
        if not isinstance(expr, ast.Call):
            return False
        if isinstance(expr.func, ast.Attribute) and expr.func.attr == "load_mmap":
            return True
        dotted = self.resolver.resolve_expr(expr.func)
        if dotted == "numpy.load":
            for kw in expr.keywords:
                if (
                    kw.arg == "mmap_mode"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value == "r"
                ):
                    return True
        return False

    def _view_base(self, expr: ast.expr) -> str | None:
        """The base name when ``expr`` is a view of a local array."""
        if isinstance(expr, ast.Subscript) and isinstance(expr.value, ast.Name):
            # basic slicing yields a view; pure integer/fancy indexing copies
            items = (
                expr.slice.elts
                if isinstance(expr.slice, ast.Tuple)
                else [expr.slice]
            )
            if any(isinstance(i, ast.Slice) for i in items):
                return expr.value.id
            return None
        if isinstance(expr, ast.Attribute) and expr.attr == "T":
            if isinstance(expr.value, ast.Name):
                return expr.value.id
            return None
        if (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr in _VIEW_METHODS
            and isinstance(expr.func.value, ast.Name)
        ):
            return expr.func.value.id
        return None

    def _classify(self, name: str, value: ast.expr) -> None:
        if self._is_readonly_call(value):
            self.readonly.add(name)
            return
        base = self._view_base(value)
        if base is not None:
            self.views[name] = self.views.get(base, base)
            if base in self.readonly:
                self.readonly.add(name)
            return
        if isinstance(value, ast.Name):  # plain alias
            if value.id in self.readonly:
                self.readonly.add(name)
            if value.id in self.views:
                self.views[name] = self.views[value.id]
            return
        # rebound to something fresh: provenance is gone
        self.readonly.discard(name)
        self.views.pop(name, None)

    # -- later reads ----------------------------------------------------
    def _last_read_after(self, name: str, lineno: int) -> int | None:
        """Line of a ``Load`` of ``name`` strictly after ``lineno``."""
        for node in ast.walk(self.fn.node):
            if (
                isinstance(node, ast.Name)
                and node.id == name
                and isinstance(node.ctx, ast.Load)
                and getattr(node, "lineno", 0) > lineno
            ):
                return node.lineno
        return None

    # -- writes ---------------------------------------------------------
    def _check_write(self, node: ast.stmt, target: ast.expr) -> None:
        """A write through ``target`` (a subscript chain or a bare name)."""
        while isinstance(target, ast.Subscript):
            target = target.value
        if not isinstance(target, ast.Name):
            return
        root = target.id
        if root in self.readonly:
            self.emit(
                node,
                "RPR033",
                f"in-place write into `{root}`, which is backed by a "
                f"read-only mmap (np.load(..., mmap_mode=\"r\") / "
                f"load_mmap); the write raises — or copy-on-writes pages "
                f"shared across workers [{self.tag}]",
            )
            return
        base = self.views.get(root)
        if base is None:
            return
        later = self._last_read_after(base, getattr(node, "lineno", 0))
        if later is not None:
            self.emit(
                node,
                "RPR033",
                f"in-place write through `{root}`, a view of `{base}` that "
                f"is read again at line {later}; the write aliases that "
                f"read — copy the slice, or reorder the write past the "
                f"last read [{self.tag}]",
            )

    def run(self, statements: list[ast.stmt]) -> None:
        """Scan the function's statements (source order, nested scopes
        included — :attr:`ShapeInterp.statements`)."""
        for node in statements:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if node.value is None:
                    continue
                for target in targets:
                    if isinstance(target, ast.Name):
                        self._classify(target.id, node.value)
                    elif isinstance(target, ast.Subscript):
                        self._check_write(node, target)
            elif isinstance(node, ast.AugAssign):
                if isinstance(node.target, ast.Subscript):
                    self._check_write(node, node.target)
            elif isinstance(node, ast.Expr):
                call = node.value
                if (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr in _MUTATING_METHODS
                    and isinstance(call.func.value, ast.Name)
                ):
                    self._check_write(node, call.func.value)


# ----------------------------------------------------------------------
# RPR034: declared contract drift
# ----------------------------------------------------------------------
def _parse_contracts(kernel: HotKernel) -> dict[str, tuple]:
    """``{name: parsed shape}`` for a kernel's declared shape contracts.

    A malformed declaration is a programming error in the perimeter
    itself, so :func:`~repro.check.shapeinfer.parse_shape` raising here
    (at scan time, loudly) is the intended behaviour.
    """
    return {name: parse_shape(spec) for name, spec in kernel.shape}


def _check_contracts(interp: ShapeInterp, declared: dict, tag: str, emit) -> None:
    """RPR034: every observed binding / return against the declarations.

    One shared symbol table spans all of the kernel's declarations, so
    two names both declared ``(q,)`` must resolve to provably consistent
    extents — that *relation* is most of a shape contract's value.
    """
    bindings: dict = {}
    observed = [(node, name, f"`{name}`", shape) for node, name, shape in interp.bindings]
    observed += [(node, "return", "the return value", shape) for node, shape in interp.returns]
    for node, name, what, shape in observed:
        want = declared.get(name)
        if want is None or shape is None:
            continue
        conflict = unify_shapes(want, shape, bindings)
        if conflict is not None:
            emit(node, "RPR034", f"shape contract drift on {what}: {conflict} [{tag}]")


# ----------------------------------------------------------------------
# orchestrator
# ----------------------------------------------------------------------
def shape_paths(
    paths: Iterable[str | Path], kernels: Iterable[HotKernel] | None = None
) -> Report:
    """Run the shape pass (RPR030–RPR034) over a tree.

    Builds the call graph, closes the shape perimeter (``kernels``
    defaults to :data:`~repro.check.perf.HOT_PERIMETER` plus
    :data:`SERVE_SHAPE_ROOTS`; fixture tests pass their own), and
    interprets every perimeter-reachable function under
    :class:`~repro.check.shapeinfer.ShapeInterp`.  Declared shape
    contracts are seeded into — and checked against (RPR034) — the
    kernel *root* function only; symbols in an inner helper are a
    different namespace.  Findings honour ``# repro: noqa[CODE]`` on
    their own line or the enclosing ``def`` line.
    """
    kernels = (
        tuple(kernels)
        if kernels is not None
        else HOT_PERIMETER + SERVE_SHAPE_ROOTS
    )
    kernels_by_qual = {k.qualname: k for k in kernels}
    reached: dict[str, str] = {}

    def reached_of(cg: CallGraph) -> dict[str, str]:
        reached.update(hot_path_perimeter(cg, kernels).reached)
        return reached

    def visit(fn: FunctionNode, resolver: FunctionResolver, emit) -> int:
        tag = f"hot via {reached[fn.qualname]}"
        kernel = kernels_by_qual.get(fn.qualname)
        declared = _parse_contracts(kernel) if kernel is not None else {}
        interp = ShapeInterp(
            fn.node,
            resolver,
            seed_shapes={k: v for k, v in declared.items() if k != "return"},
            on_issue=lambda node, issue: emit(
                node, _ISSUE_CODES[issue.kind], f"{issue.detail} [{tag}]"
            ),
        )
        interp.run()
        if declared:
            _check_contracts(interp, declared, tag, emit)
        _AliasScan(fn, resolver, tag, emit).run(interp.statements)
        return 1

    return scan_tier("shapes", paths, reached_of, visit, def_line=True)
