"""The array-fact interpreter of the perf and shape tiers.

One local abstract interpreter answers every question the kernel tiers
ask about a function's names: is it an array, a dict or a set (RPR020–
RPR022), what is its element dtype (RPR023), and what is its rank and
extent (RPR030–RPR034) — so that an ``(n, 1) ⊕ (n,)`` broadcast blow-up,
an out-of-rank reduction axis, or an element-count-mismatched
``reshape`` is provable before any code runs.

**Domain.**  A shape is a tuple of dimensions or ``None`` (nothing is
known, not even the rank).  A dimension is an ``int``, a :class:`SymDim`
(a named symbol plus an integer offset, so ``indptr``'s ``n+1`` and
``np.diff(indptr)``'s ``n`` stay provably related), or ``None`` (unknown
extent, known to exist).  Symbols are seeded from constructor arguments
(``np.zeros(n)`` ⇒ ``(n,)``), CSR attributes (``x.indptr`` ⇒
``(x.rows+1,)``, ``x.indices``/``x.data`` ⇒ ``(x.nnz,)``), constant-bound
slices (``indptr[:-1]`` ⇒ ``(x.rows,)``), and declared shape contracts.

**Evaluation.**  :class:`ShapeInterp` walks one function body once, in
source order, and records every statement it meets (nested ``def`` and
``class`` bodies included).  Shapes are evaluated on that walk —
deliberately flow-insensitive across branches (both arms are
interpreted, the later binding wins) and never inside nested scopes —
through the numpy vocabulary: ctors, ``reshape``/``ravel``/``T``/
indexing/``newaxis``, ufunc broadcasting, ``reduce``/``reduceat``,
``unique``, ``concatenate``/``stack``.  Anything outside the vocabulary
evaluates to ``None``, which silences every downstream check — the rules
fire only on what is *proven*, which is how the tiers stay quiet on
clean code.  From the recorded statements the interpreter then settles
the *kind* facts (array / dict / set; flow-insensitive, a least fixpoint
over every binding, ``np.ndarray``-annotated parameters and CSR
attributes included) and the *dtype* facts (one pass over the bindings
in source order, keeping each rebinding as an event for RPR023).

Structural problems discovered during evaluation (impossible broadcasts,
bad axes, unsatisfiable reshapes) are reported through an ``on_issue``
callback as :class:`ShapeIssue` records; :mod:`repro.check.shapes` maps
issue kinds onto stable rule codes.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Callable
from dataclasses import dataclass

from .callgraph import FunctionResolver
from .determinism import _set_valued_names

__all__ = [
    "SymDim",
    "ShapeIssue",
    "ShapeInterp",
    "broadcast_dims",
    "broadcast_shapes",
    "concat_shapes",
    "dims_equal",
    "parse_shape",
    "reduce_shape",
    "reshape_shape",
    "shape_str",
    "stack_shapes",
    "unify_shapes",
]


@dataclass(frozen=True)
class SymDim:
    """A symbolic extent: a named length plus an integer offset.

    ``SymDim("rows", 1)`` renders as ``rows+1`` and is provably unequal to
    ``SymDim("rows")`` — the relation that catches ``indptr``-vs-``data``
    confusions.  Symbols with different bases are incomparable.
    """

    base: str
    offset: int = 0

    def __str__(self) -> str:
        if self.offset > 0:
            return f"{self.base}+{self.offset}"
        if self.offset < 0:
            return f"{self.base}{self.offset}"
        return self.base

    def shift(self, delta: int) -> "SymDim":
        return SymDim(self.base, self.offset + delta)


#: one dimension: known int, named symbol, or unknown extent
Dim = "int | SymDim | None"
#: a whole shape: tuple of dims, or None when nothing (not even rank) is known
Shape = "tuple | None"


@dataclass(frozen=True)
class ShapeIssue:
    """One provable geometry problem found during evaluation.

    ``kind`` is one of ``broadcast`` / ``rank_promote`` (RPR030 material),
    ``axis`` (RPR031), ``reshape`` / ``concat`` / ``stack`` (RPR032);
    ``detail`` is a human-readable explanation with both shapes rendered.
    """

    kind: str
    detail: str


def dim_str(dim) -> str:
    return "?" if dim is None else str(dim)


def shape_str(shape) -> str:
    """``(n, 1)`` / ``(m+1,)`` / ``?`` rendering for messages."""
    if shape is None:
        return "?"
    if len(shape) == 1:
        return f"({dim_str(shape[0])},)"
    return "(" + ", ".join(dim_str(d) for d in shape) + ")"


def dims_equal(a, b) -> bool | None:
    """True / False when equality is provable, None when it is not."""
    if a is None or b is None:
        return None
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    if isinstance(a, SymDim) and isinstance(b, SymDim):
        if a.base == b.base:
            return a.offset == b.offset
        return None
    return None  # symbol vs literal: never provable either way


def _merge_dim(a, b):
    """Join of two dims for rebinding: keep what still holds."""
    return a if dims_equal(a, b) else None


def broadcast_dims(a, b) -> tuple:
    """One aligned dim pair under ufunc broadcasting.

    Returns ``(result_dim, ok)`` where ``ok`` is False only when the pair
    *provably* cannot broadcast: two different extents, neither of which
    is (or could be) 1.  A symbol might be 1 at runtime, so symbol
    mismatches stay silent — except same-base symbols with different
    offsets (``n`` vs ``n+1``), which can never be equal and only slip
    through the degenerate ``n == 1`` escape hatch.
    """
    if dims_equal(a, b):
        # prefer the more concrete rendering (int over symbol)
        if isinstance(a, int):
            return a, True
        return (a if a is not None else b), True
    if a == 1:
        return b, True
    if b == 1:
        return a, True
    if a is None or b is None:
        return None, True
    if isinstance(a, int) and isinstance(b, int):
        return None, False  # two known extents, neither 1: impossible
    if isinstance(a, SymDim) and isinstance(b, SymDim) and a.base == b.base:
        return None, False  # n vs n+k: provably different lengths
    return None, True


def broadcast_shapes(a, b):
    """Broadcast two shapes; returns ``(result, ShapeIssue | None)``.

    Issues: ``broadcast`` when an aligned dim pair is provably
    incompatible, ``rank_promote`` for the silent ``(n, 1) ⊕ (n,) →
    (n, n)`` blow-up — a well-formed broadcast that almost always means a
    forgotten ``ravel``/missing ``axis`` rather than an intended outer
    product.
    """
    if a is None or b is None:
        return None, None
    la, lb = len(a), len(b)
    rank = max(la, lb)
    out = []
    for i in range(rank):
        da = a[la - rank + i] if la - rank + i >= 0 else 1
        db = b[lb - rank + i] if lb - rank + i >= 0 else 1
        dim, ok = broadcast_dims(da, db)
        if not ok:
            return None, ShapeIssue(
                "broadcast",
                f"operands with shapes {shape_str(a)} and {shape_str(b)} "
                f"have provably incompatible lengths {dim_str(da)} and "
                f"{dim_str(db)}",
            )
        out.append(dim)
    result = tuple(out)
    promo = _rank_promotion(a, b) or _rank_promotion(b, a)
    if promo is not None:
        return result, ShapeIssue(
            "rank_promote",
            f"broadcasting {shape_str(a)} with {shape_str(b)} silently "
            f"expands to {shape_str(result)} — a column vector against its "
            f"own flat form; ravel the column (or add the missing axis) if "
            f"an outer product is not intended",
        )
    return result, None


def _rank_promotion(col, flat):
    """The ``(s, 1) ⊕ (s,)`` pattern with the *same* provable ``s``."""
    if col is None or flat is None or len(col) != 2 or len(flat) != 1:
        return None
    s, one = col
    if one != 1 or s == 1:
        return None
    if dims_equal(s, flat[0]):
        return (s, s)
    return None


def _int_product(dims):
    """Product of a dim tuple when every dim is a known int, else None."""
    total = 1
    for d in dims:
        if not isinstance(d, int):
            return None
        total *= d
    return total


def flatten_shape(shape):
    """Shape of ``ravel``/``flatten``/``reshape(-1)``."""
    if shape is None:
        return None
    if len(shape) == 1:
        return shape
    total = _int_product(shape)
    return (total,)


def reshape_shape(old, new_dims):
    """``old.reshape(new_dims)``; returns ``(result, ShapeIssue | None)``.

    Proves what it can: more than one ``-1`` is always an error; with the
    old element count known, a ``-1`` must divide evenly and a fully
    literal target must match the count exactly.
    """
    holes = sum(1 for d in new_dims if d == -1)
    if holes > 1:
        return None, ShapeIssue(
            "reshape",
            f"reshape target {shape_str(tuple(new_dims))} has {holes} "
            f"inferred (-1) dimensions; at most one is allowed",
        )
    total_old = None if old is None else _int_product(old)
    if holes == 1:
        if len(new_dims) == 1:  # reshape(-1) is ravel
            return flatten_shape(old), None
        known = [d for d in new_dims if d != -1]
        partial = _int_product(known) if all(
            isinstance(d, int) for d in known
        ) else None
        resolved = None
        if total_old is not None and partial:
            if total_old % partial != 0:
                return None, ShapeIssue(
                    "reshape",
                    f"cannot infer -1 in reshape of {shape_str(old)} "
                    f"({total_old} elements) to {shape_str(tuple(new_dims))}: "
                    f"{total_old} is not divisible by {partial}",
                )
            resolved = total_old // partial
        return tuple(resolved if d == -1 else d for d in new_dims), None
    partial = _int_product(new_dims) if all(
        isinstance(d, int) for d in new_dims
    ) else None
    if total_old is not None and partial is not None and total_old != partial:
        return None, ShapeIssue(
            "reshape",
            f"reshape of {shape_str(old)} ({total_old} elements) to "
            f"{shape_str(tuple(new_dims))} ({partial} elements) changes the "
            f"element count",
        )
    return tuple(new_dims), None


def reduce_shape(shape, axis, keepdims=False, rank_hint=None):
    """Shape after reducing ``axis``; returns ``(result, ShapeIssue | None)``.

    ``axis=None`` reduces everything.  A known-int axis outside the known
    rank is the RPR031 condition.  ``rank_hint`` lets callers validate the
    axis even when only the rank (not the dims) is known.
    """
    rank = len(shape) if shape is not None else rank_hint
    if axis is None:
        return (), None
    axes = axis if isinstance(axis, tuple) else (axis,)
    if any(a is None for a in axes):
        return None, None
    if rank is None:
        return None, None
    for a in axes:
        if not -rank <= a < rank:
            return None, ShapeIssue(
                "axis",
                f"axis {a} is out of range for a rank-{rank} array "
                f"(valid axes: {-rank}..{rank - 1})",
            )
    if shape is None:
        return None, None
    norm = {a % rank for a in axes}
    out = tuple(
        1 if i in norm else d
        for i, d in enumerate(shape)
        if keepdims or i not in norm
    )
    return out, None


def concat_shapes(shapes, axis=0):
    """``np.concatenate(shapes, axis)``; ``(result, ShapeIssue | None)``.

    Unknown members are tolerated (they just weaken the result); known
    members must agree on rank and on every non-axis dimension.
    """
    known = [s for s in shapes if s is not None]
    if not known:
        return None, None
    rank = len(known[0])
    for s in known[1:]:
        if len(s) != rank:
            return None, ShapeIssue(
                "concat",
                f"concatenate of rank-{rank} {shape_str(known[0])} with "
                f"rank-{len(s)} {shape_str(s)}: all inputs must have the "
                f"same rank",
            )
    if rank == 0:
        return None, ShapeIssue("concat", "cannot concatenate 0-d arrays")
    if not -rank <= axis < rank:
        return None, ShapeIssue(
            "concat",
            f"concatenate axis {axis} is out of range for rank-{rank} inputs",
        )
    axis %= rank
    first = known[0]
    for s in known[1:]:
        for i in range(rank):
            if i == axis:
                continue
            if dims_equal(first[i], s[i]) is False:
                return None, ShapeIssue(
                    "concat",
                    f"concatenate along axis {axis} needs matching off-axis "
                    f"lengths, but {shape_str(first)} and {shape_str(s)} "
                    f"differ at axis {i} ({dim_str(first[i])} vs "
                    f"{dim_str(s[i])})",
                )
    out = list(first)
    if len(known) == len(shapes):
        axis_dims = [s[axis] for s in known]
        if all(isinstance(d, int) for d in axis_dims):
            out[axis] = sum(axis_dims)
        else:
            out[axis] = None
    else:
        out[axis] = None
    for i in range(rank):
        if i == axis:
            continue
        for s in known[1:]:
            out[i] = _merge_dim(out[i], s[i]) if dims_equal(
                out[i], s[i]
            ) is not False else out[i]
    return tuple(out), None


def stack_shapes(shapes, axis=0):
    """``np.stack(shapes, axis)``; every member must match exactly."""
    known = [s for s in shapes if s is not None]
    if not known:
        return None, None
    first = known[0]
    for s in known[1:]:
        if len(s) != len(first) or any(
            dims_equal(a, b) is False for a, b in zip(first, s)
        ):
            return None, ShapeIssue(
                "stack",
                f"stack needs identically-shaped inputs, got "
                f"{shape_str(first)} and {shape_str(s)}",
            )
    rank = len(first) + 1
    if not -rank <= axis < rank:
        return None, ShapeIssue(
            "stack", f"stack axis {axis} is out of range for rank-{rank} output"
        )
    axis %= rank
    count = len(shapes) if len(known) == len(shapes) else None
    out = list(first)
    out.insert(axis, count)
    return tuple(out), None


def unify_shapes(declared, actual, bindings=None):
    """Match a declared (contract) shape against an inferred one.

    Returns ``None`` when ``actual`` is consistent with ``declared``
    (unknowns unify with anything), else a human-readable description of
    the first provable conflict.  ``bindings`` accumulates what each
    declared symbol stood for, so ``(n, n)`` rejects ``(4, 5)`` even
    though neither 4 nor 5 conflicts in isolation.
    """
    if actual is None or declared is None:
        return None
    if len(actual) != len(declared):
        return (
            f"declared rank {len(declared)} {shape_str(declared)} but the "
            f"inferred shape is rank {len(actual)} {shape_str(actual)}"
        )
    bindings = bindings if bindings is not None else {}
    for want, got in zip(declared, actual):
        if want is None or got is None:
            continue
        if isinstance(want, SymDim):
            bound = bindings.get(want)
            if bound is None:
                bindings[want] = got
                continue
            if dims_equal(bound, got) is False:
                return (
                    f"declared symbol `{want}` bound to {dim_str(bound)} "
                    f"cannot also be {dim_str(got)} (inferred "
                    f"{shape_str(actual)} vs declared {shape_str(declared)})"
                )
            continue
        if dims_equal(want, got) is False:
            return (
                f"declared {shape_str(declared)} but inferred "
                f"{shape_str(actual)} (length {dim_str(got)} where "
                f"{dim_str(want)} was promised)"
            )
    return None


_SHAPE_DIM_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_.]*)\s*(?:([+-])\s*(\d+))?$")


def parse_shape(spec: str):
    """Parse a contract shape string: ``"(n, n)"``, ``"(n+1,)"``, ``"(3, q)"``.

    Integer tokens become literal extents, names (with an optional
    ``±int`` offset) become :class:`SymDim` symbols, ``?`` means unknown.
    Raises :class:`ValueError` on anything else, so a typo in a declared
    contract fails loudly at perimeter-build time.
    """
    body = spec.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    dims = []
    for token in body.split(","):
        token = token.strip()
        if not token:
            continue
        if token == "?":
            dims.append(None)
        elif re.fullmatch(r"-?\d+", token):
            dims.append(int(token))
        else:
            m = _SHAPE_DIM_RE.match(token)
            if m is None:
                raise ValueError(
                    f"unparseable dimension {token!r} in shape contract {spec!r}"
                )
            name, sign, off = m.groups()
            offset = int(off) * (-1 if sign == "-" else 1) if off else 0
            dims.append(SymDim(name, offset))
    return tuple(dims)


# ----------------------------------------------------------------------
# numpy vocabulary
# ----------------------------------------------------------------------
#: expensive whole-array operations (RPR024 hoisting candidates).  Plain
#: allocations (zeros/empty/arange) are excluded: reallocating a buffer
#: per iteration is sometimes the point (double-buffering).
EXPENSIVE_FNS = frozenset(
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
_NP_ARRAY_FNS = EXPENSIVE_FNS | frozenset(
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
#: numpy tuple-returning functions whose unpacked targets are all arrays
_TUPLE_ARRAY_FNS = frozenset({"nonzero", "unique", "meshgrid", "divmod", "histogram"})
#: constructors of dict-valued locals
_DICT_CTORS = frozenset({"dict", "defaultdict", "OrderedDict", "Counter"})

INT_DTYPES = frozenset(
    {"int8", "int16", "int32", "int64", "intp", "uint8", "uint16", "uint32",
     "uint64", "bool", "bool_", "pyint"}
)
FLOAT_DTYPES = frozenset({"float16", "float32", "float64", "pyfloat"})
#: relative width rank inside a family (for truncation vs widening wording)
DTYPE_WIDTH = {
    "bool": 1, "bool_": 1, "int8": 8, "uint8": 8, "int16": 16, "uint16": 16,
    "int32": 32, "uint32": 32, "int64": 64, "uint64": 64, "intp": 64,
    "float16": 16, "float32": 32, "float64": 64, "pyint": 64, "pyfloat": 64,
}


def _child_bodies(stmt: ast.stmt):
    """A statement's nested statement lists, in source order."""
    yield getattr(stmt, "body", [])
    for handler in getattr(stmt, "handlers", ()):
        yield handler.body
    for case in getattr(stmt, "cases", ()):
        yield case.body
    yield getattr(stmt, "orelse", [])
    yield getattr(stmt, "finalbody", [])


# ----------------------------------------------------------------------
# the interpreter
# ----------------------------------------------------------------------
#: numpy ctors whose first argument is a shape spec
_SHAPE_CTORS = frozenset({"zeros", "empty", "ones", "full"})
#: numpy fns preserving their first argument's shape
_LIKE_FNS = frozenset(
    {"zeros_like", "empty_like", "ones_like", "full_like", "copy", "abs",
     "sign", "asarray", "array", "asanyarray", "ascontiguousarray", "clip",
     "mod", "sort", "argsort", "cumsum", "isin", "in1d", "logical_not",
     "negative", "sqrt", "exp", "log", "floor", "ceil", "rint"}
)
#: binary ufuncs (broadcasting semantics)
_BINARY_UFUNCS = frozenset(
    {"minimum", "maximum", "add", "subtract", "multiply", "divide",
     "true_divide", "floor_divide", "power", "mod", "remainder", "hypot",
     "logical_and", "logical_or", "logical_xor", "bitwise_and", "bitwise_or",
     "bitwise_xor", "equal", "not_equal", "less", "less_equal", "greater",
     "greater_equal"}
)
#: reductions taking (a, axis=...)
_REDUCE_FNS = frozenset(
    {"sum", "prod", "mean", "std", "var", "median", "amin", "amax", "min",
     "max", "argmin", "argmax", "any", "all", "count_nonzero", "ptp",
     "nanmin", "nanmax", "nansum"}
)
#: ndarray methods with reduction semantics
_REDUCE_METHODS = frozenset(
    {"sum", "prod", "mean", "std", "var", "min", "max", "argmin", "argmax",
     "any", "all", "ptp"}
)
#: ndarray methods preserving shape
_SAME_SHAPE_METHODS = frozenset(
    {"astype", "copy", "clip", "round", "view", "conj", "fill"}
)
#: fns yielding an unpredictable-length 1-D result
_FLAT_UNKNOWN_FNS = frozenset(
    {"unique", "flatnonzero", "intersect1d", "union1d", "setdiff1d",
     "bincount", "trim_zeros"}
)

_PURE_DIM_NODES = (ast.Name, ast.Attribute, ast.Subscript, ast.Constant)


class ShapeInterp:
    """The array-fact interpretation of one function body.

    Parameters
    ----------
    fn_node:
        The parsed ``def``.
    resolver:
        The :class:`~repro.check.callgraph.FunctionResolver` for numpy
        alias resolution (``np``, ``numpy``, ``from numpy import ...``).
    seed_shapes:
        Name → :data:`Shape` facts known before the body runs (declared
        contracts on the enclosing kernel).
    on_issue:
        ``(node, ShapeIssue) -> None`` callback for every provable
        geometry problem; deduplication is the caller's concern.

    After :meth:`run`, :attr:`bindings` holds every ``(node, name,
    shape)`` assignment observed and :attr:`returns` every ``(node,
    shape)`` from a ``return`` statement — the raw material for RPR034
    contract checks — and :attr:`statements` lists every statement of the
    body in source order, nested scopes included.  After
    :meth:`settle_facts`:

    * :attr:`arrays`, :attr:`dicts` and :attr:`sets` name the locals of
      each kind, and :meth:`is_array` classifies expressions;
    * :attr:`dtype_events` holds ``(node, name, dtype, previous dtype,
      explicit astype)`` for every name binding in source order, and
      :attr:`dtypes` each name's last inferred dtype.
    """

    def __init__(
        self,
        fn_node: ast.FunctionDef | ast.AsyncFunctionDef,
        resolver: FunctionResolver,
        seed_shapes: dict | None = None,
        on_issue: Callable[[ast.AST, ShapeIssue], None] = lambda n, i: None,
    ) -> None:
        self.fn_node = fn_node
        self.resolver = resolver
        self.on_issue = on_issue
        self.env: dict[str, tuple | None] = {}
        self.bindings: list[tuple[ast.AST, str, tuple | None]] = []
        self.returns: list[tuple[ast.AST, tuple | None]] = []
        self.statements: list[ast.stmt] = []
        self.arrays: set[str] = set()
        self.dicts: set[str] = set()
        self.sets: set[str] = set()
        self.dtypes: dict[str, str] = {}
        self.dtype_events: list[tuple[ast.stmt, str, str | None, str | None, bool]] = []
        self._memo: dict[ast.AST, tuple | None] = {}
        args = fn_node.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            self.env.setdefault(arg.arg, None)
            ann = self._annotation_shape(arg.annotation)
            if ann is not None:
                self.env[arg.arg] = ann
            if arg.annotation is not None:
                text = ast.unparse(arg.annotation)
                # a container of arrays is the container: test it first
                if text.startswith(("dict", "Dict", "Mapping")) or "Mapping[" in text:
                    self.dicts.add(arg.arg)
                elif "ndarray" in text or "NDArray" in text:
                    self.arrays.add(arg.arg)
        if seed_shapes:
            self.env.update(seed_shapes)

    @staticmethod
    def _annotation_shape(annotation: ast.expr | None):
        """A shape declared as a string annotation: ``x: "(n, 3)" = ...``."""
        if (
            isinstance(annotation, ast.Constant)
            and isinstance(annotation.value, str)
            and annotation.value.lstrip().startswith("(")
        ):
            try:
                return parse_shape(annotation.value)
            except ValueError:
                return None
        return None

    # -- numpy call identification -------------------------------------
    def _np_parts(self, call: ast.Call) -> list[str] | None:
        """``["concatenate"]`` / ``["minimum", "reduceat"]`` for numpy calls."""
        dotted = self.resolver.resolve_expr(call.func)
        if dotted is None:
            return None
        parts = dotted.split(".")
        if parts[0] != "numpy" or len(parts) < 2:
            return None
        return parts[1:]

    def np_name(self, call: ast.Call) -> str | None:
        """``"concatenate"`` for ``np.concatenate(...)`` (also for ufunc-method
        chains like ``np.minimum.reduceat``), else None."""
        parts = self._np_parts(call)
        return parts[0] if parts is not None else None

    # -- dimension extraction ------------------------------------------
    def dim_of(self, expr: ast.expr):
        """The :data:`Dim` an expression denotes when used as an extent."""
        if isinstance(expr, ast.Constant):
            return expr.value if isinstance(expr.value, int) else None
        if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.USub):
            inner = self.dim_of(expr.operand)
            return -inner if isinstance(inner, int) else None
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, (ast.Add, ast.Sub)):
            left = self.dim_of(expr.left)
            right = self.dim_of(expr.right)
            sign = 1 if isinstance(expr.op, ast.Add) else -1
            if isinstance(left, int) and isinstance(right, int):
                return left + sign * right
            if isinstance(left, SymDim) and isinstance(right, int):
                return left.shift(sign * right)
            if (
                isinstance(left, int)
                and isinstance(right, SymDim)
                and isinstance(expr.op, ast.Add)
            ):
                return right.shift(left)
            return None
        if isinstance(expr, ast.Call):
            if (
                isinstance(expr.func, ast.Name)
                and expr.func.id == "len"
                and len(expr.args) == 1
            ):
                target = expr.args[0]
                shape = self.infer(target)
                if shape is not None and len(shape) >= 1:
                    return shape[0]
                if isinstance(target, _PURE_DIM_NODES):
                    return SymDim(f"len({ast.unparse(target)})")
            if (
                isinstance(expr.func, ast.Name)
                and expr.func.id == "int"
                and len(expr.args) == 1
            ):
                return self.dim_of(expr.args[0])
            return None
        # a call-free name chain is its own stable symbol: `n`, `self.n`,
        # `a.shape[0]` — textual identity gives symbolic identity
        if isinstance(expr, _PURE_DIM_NODES) and not any(
            isinstance(sub, (ast.Call, ast.BinOp, ast.BoolOp))
            for sub in ast.walk(expr)
        ):
            return SymDim(ast.unparse(expr))
        return None

    def _shape_spec(self, expr: ast.expr):
        """A ctor shape argument: tuple literal of dims, or a single dim."""
        if isinstance(expr, (ast.Tuple, ast.List)):
            return tuple(self.dim_of(e) for e in expr.elts)
        shape = self.infer(expr)
        if shape is not None and len(shape) == 1:
            # np.zeros(existing_shape_var) — a 1-tuple variable; opaque
            return None
        return (self.dim_of(expr),)

    def _axis_arg(self, call: ast.Call, pos: int | None = None):
        """The ``axis=`` value: int, tuple of ints, ``None`` (= reduce all),
        or the string ``"unknown"`` when present but not a literal."""
        expr = None
        for kw in call.keywords:
            if kw.arg == "axis":
                expr = kw.value
        if expr is None and pos is not None and len(call.args) > pos:
            expr = call.args[pos]
        if expr is None:
            return None
        if isinstance(expr, ast.Constant):
            if expr.value is None or isinstance(expr.value, int):
                return expr.value
            return "unknown"
        if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.USub):
            inner = expr.operand
            if isinstance(inner, ast.Constant) and isinstance(inner.value, int):
                return -inner.value
        if isinstance(expr, (ast.Tuple, ast.List)):
            dims = []
            for e in expr.elts:
                d = self.dim_of(e)
                if not isinstance(d, int):
                    return "unknown"
                dims.append(d)
            return tuple(dims)
        return "unknown"

    # -- expression inference ------------------------------------------
    def infer(self, expr: ast.expr):
        got = self._memo.get(expr)
        if got is None and expr not in self._memo:
            got = self._infer(expr)
            self._memo[expr] = got
        return got

    def _checked(self, node: ast.AST, outcome):
        """Report the issue of a ``(result, ShapeIssue | None)`` pair at
        ``node``; return the result."""
        result, issue = outcome
        if issue is not None:
            self.on_issue(node, issue)
        return result

    def _infer(self, expr: ast.expr):  # noqa: C901 - one dispatch point
        if isinstance(expr, ast.Constant):
            if isinstance(expr.value, (bool, int, float, complex)):
                return ()
            return None
        if isinstance(expr, ast.Name):
            return self.env.get(expr.id)
        if isinstance(expr, ast.Attribute):
            return self._infer_attribute(expr)
        if isinstance(expr, ast.Subscript):
            return self._infer_subscript(expr)
        if isinstance(expr, ast.UnaryOp):
            if isinstance(expr.op, ast.Not):
                return ()
            return self.infer(expr.operand)
        if isinstance(expr, ast.BinOp):
            return self._infer_binop(expr)
        if isinstance(expr, ast.Compare):
            return self._infer_compare(expr)
        if isinstance(expr, ast.BoolOp):
            return None
        if isinstance(expr, ast.IfExp):
            a = self.infer(expr.body)
            b = self.infer(expr.orelse)
            if a is not None and b is not None and len(a) == len(b):
                return tuple(_merge_dim(x, y) for x, y in zip(a, b))
            return None
        if isinstance(expr, (ast.Tuple, ast.List)):
            return self._infer_literal_seq(expr)
        if isinstance(expr, ast.Call):
            return self._infer_call(expr)
        if isinstance(expr, ast.Starred):
            return self.infer(expr.value)
        return None

    def _infer_attribute(self, expr: ast.Attribute):
        if expr.attr == "T":
            base = self.infer(expr.value)
            return None if base is None else tuple(reversed(base))
        if expr.attr in _CSR_ATTRS and isinstance(expr.value, _PURE_DIM_NODES):
            key = ast.unparse(expr.value)
            if expr.attr == "indptr":
                return (SymDim(f"{key}.rows", 1),)
            return (SymDim(f"{key}.nnz"),)
        if expr.attr == "flat":
            return flatten_shape(self.infer(expr.value))
        return None

    def _infer_literal_seq(self, expr: ast.Tuple | ast.List):
        """A list/tuple literal used as array data: ``[a, b]`` of scalars is
        ``(2,)``; of equal 1-D members, ``(2, m)``; anything else opaque."""
        if not expr.elts:
            return (0,)
        shapes = [self.infer(e) for e in expr.elts]
        if all(s == () for s in shapes):
            return (len(shapes),)
        if all(s is not None and len(s) == 1 for s in shapes):
            dim = shapes[0][0]
            for s in shapes[1:]:
                dim = _merge_dim(dim, s[0])
            return (len(shapes), dim)
        return None

    def _infer_binop(self, expr: ast.BinOp):
        if isinstance(
            expr.op, (ast.MatMult,)
        ):
            a, b = self.infer(expr.left), self.infer(expr.right)
            if a is not None and b is not None and len(a) == 2 and len(b) == 2:
                return (a[0], b[1])
            return None
        a = self.infer(expr.left)
        b = self.infer(expr.right)
        if a is None or b is None:
            return None
        return self._checked(expr, broadcast_shapes(a, b))

    def _infer_compare(self, expr: ast.Compare):
        shapes = [self.infer(expr.left)] + [self.infer(c) for c in expr.comparators]
        if any(s is None for s in shapes):
            return None
        if any(isinstance(op, (ast.In, ast.NotIn, ast.Is, ast.IsNot)) for op in expr.ops):
            return ()
        out = shapes[0]
        for s in shapes[1:]:
            out = self._checked(expr, broadcast_shapes(out, s))
            if out is None:
                return None
        return out

    # -- subscripts -----------------------------------------------------
    def _slice_dim(self, dim, sl: ast.Slice):
        """Extent surviving a constant-bound slice of ``dim``."""
        if sl.step is not None:
            step = self.dim_of(sl.step)
            if step != 1:
                return None
        lo = self.dim_of(sl.lower) if sl.lower is not None else 0
        hi = self.dim_of(sl.upper) if sl.upper is not None else None
        if lo == 0 and sl.upper is None:
            return dim  # a[:] keeps the extent
        if not isinstance(lo, int) or lo < 0:
            return None
        if sl.upper is None:
            if isinstance(dim, int):
                return max(dim - lo, 0)
            if isinstance(dim, SymDim):
                return dim.shift(-lo)
            return None
        if isinstance(hi, int) and hi < 0:
            delta = hi - lo
            if isinstance(dim, int):
                return max(dim + delta, 0)
            if isinstance(dim, SymDim):
                return dim.shift(delta)
        return None

    def _infer_subscript(self, expr: ast.Subscript):
        base = self.infer(expr.value)
        if base is None:
            return None
        items = list(expr.slice.elts) if isinstance(expr.slice, ast.Tuple) else [
            expr.slice
        ]
        if any(
            isinstance(i, ast.Constant) and i.value is Ellipsis for i in items
        ):
            return None
        out = []
        pos = 0
        fancy_done = False
        for item in items:
            if (isinstance(item, ast.Constant) and item.value is None) or (
                isinstance(item, ast.Attribute)
                and item.attr == "newaxis"
                and self.resolver.resolve_expr(item) == "numpy.newaxis"
            ):
                out.append(1)  # None / np.newaxis
                continue
            if pos >= len(base):
                return None  # too many indices: not provably wrong here
            dim = base[pos]
            pos += 1
            if isinstance(item, ast.Slice):
                out.append(self._slice_dim(dim, item))
                continue
            item_shape = self.infer(item)
            if item_shape == ():
                continue  # integer index: consume the axis
            if item_shape is not None and len(item_shape) >= 1:
                if fancy_done:
                    return None  # multiple advanced indices: give up
                fancy_done = True
                # advanced index: the axis takes the index's extents; a
                # boolean mask compresses to an unknown length, and an
                # untyped 1-D index could *be* a mask, so only a provably
                # integer gather (e.g. arange) would keep its extent —
                # unknown is the safe answer for both
                out.extend([None] * len(item_shape))
                continue
            return None  # unknown index expression: unknown result
        out.extend(base[pos:])
        return tuple(out)

    # -- calls ----------------------------------------------------------
    def _call_arg(self, call: ast.Call, pos: int, kw: str | None = None):
        if len(call.args) > pos:
            return call.args[pos]
        if kw is not None:
            for k in call.keywords:
                if k.arg == kw:
                    return k.value
        return None

    def _infer_call(self, call: ast.Call):  # noqa: C901 - numpy vocabulary
        parts = self._np_parts(call)
        if parts is not None:
            return self._infer_np_call(call, parts)
        if isinstance(call.func, ast.Name) and call.func.id in (
            "len", "int", "float", "bool",
        ):
            return ()  # scalar-valued builtins
        if isinstance(call.func, ast.Attribute):
            return self._infer_method(call, call.func)
        return None

    def _seq_shapes(self, expr: ast.expr | None):
        if isinstance(expr, (ast.Tuple, ast.List)):
            return [self.infer(e) for e in expr.elts], True
        return [None], False

    def _infer_np_call(self, call: ast.Call, parts: list[str]):  # noqa: C901
        name = parts[0]
        if len(parts) >= 2 and parts[1] in ("reduce", "reduceat", "accumulate", "outer"):
            return self._infer_ufunc_method(call, parts[1])
        if name in _SHAPE_CTORS:
            arg = self._call_arg(call, 0, "shape")
            return None if arg is None else self._shape_spec(arg)
        if name in _LIKE_FNS:
            arg = self._call_arg(call, 0)
            if arg is None:
                return None
            shape = self.infer(arg)
            if name in ("cumsum", "sort", "argsort"):
                axis = self._axis_arg(call)
                if axis is None and name == "cumsum":
                    return flatten_shape(shape)
            return shape
        if name == "arange":
            if len(call.args) == 1:
                return (self.dim_of(call.args[0]),)
            return (None,)
        if name == "linspace":
            num = self._call_arg(call, 2, "num")
            return (self.dim_of(num) if num is not None else 50,)
        if name in ("fromiter", "frombuffer"):
            count = self._call_arg(call, 2, "count")
            return (self.dim_of(count),) if count is not None else (None,)
        if name == "atleast_1d":
            shape = self.infer(self._call_arg(call, 0)) if call.args else None
            if shape == ():
                return (1,)
            return shape
        if name in _REDUCE_FNS:
            arg = self._call_arg(call, 0)
            shape = self.infer(arg) if arg is not None else None
            axis = self._axis_arg(call, pos=1)
            if axis == "unknown":
                return None
            return self._checked(call, reduce_shape(shape, axis))
        if name in _BINARY_UFUNCS:
            if len(call.args) < 2:
                return None
            a, b = self.infer(call.args[0]), self.infer(call.args[1])
            if a is None or b is None:
                return None
            return self._checked(call, broadcast_shapes(a, b))
        if name == "where":
            if len(call.args) == 1:
                shape = self.infer(call.args[0])
                return None if shape is None else (None,)
            if len(call.args) == 3:
                out = self.infer(call.args[0])
                for arg in call.args[1:]:
                    s = self.infer(arg)
                    if out is None or s is None:
                        out = None
                        continue
                    out = self._checked(call, broadcast_shapes(out, s))
                return out
            return None
        if name == "concatenate":
            shapes, literal = self._seq_shapes(self._call_arg(call, 0))
            if not literal:
                return None
            axis = self._axis_arg(call, pos=1)
            if axis == "unknown":
                return None
            if axis is None:
                axis = 0
            return self._checked(call, concat_shapes(shapes, axis))
        if name in ("stack", "vstack", "hstack", "column_stack", "row_stack"):
            return self._infer_stack(call, name)
        if name == "reshape":
            arg = self._call_arg(call, 0)
            spec = self._call_arg(call, 1, "shape")
            if arg is None or spec is None:
                return None
            return self._reshape(call, self.infer(arg), spec)
        if name == "ravel":
            arg = self._call_arg(call, 0)
            return flatten_shape(self.infer(arg)) if arg is not None else None
        if name == "transpose":
            arg = self._call_arg(call, 0)
            shape = self.infer(arg) if arg is not None else None
            return None if shape is None else tuple(reversed(shape))
        if name == "repeat":
            axis = self._axis_arg(call, pos=2)
            arg = self._call_arg(call, 0)
            shape = self.infer(arg) if arg is not None else None
            if axis is None or axis == "unknown":
                return (None,)
            if shape is not None and isinstance(axis, int) and -len(shape) <= axis < len(shape):
                out = list(shape)
                out[axis] = None
                return tuple(out)
            return None
        if name in _FLAT_UNKNOWN_FNS:
            return (None,)
        if name == "nonzero":
            shape = self.infer(call.args[0]) if call.args else None
            rank = len(shape) if shape is not None else None
            return None if rank is None else tuple((None,) for _ in range(rank))
        if name == "argwhere":
            shape = self.infer(call.args[0]) if call.args else None
            return (None, len(shape)) if shape is not None else (None, None)
        if name == "searchsorted":
            v = self._call_arg(call, 1)
            return self.infer(v) if v is not None else None
        if name == "diff":
            arg = self._call_arg(call, 0)
            shape = self.infer(arg) if arg is not None else None
            if shape is None or not shape:
                return None
            axis = self._axis_arg(call)
            idx = len(shape) - 1 if axis is None else axis
            if axis == "unknown" or not -len(shape) <= idx < len(shape):
                return None
            out = list(shape)
            d = out[idx % len(shape)]
            if isinstance(d, int):
                out[idx % len(shape)] = max(d - 1, 0)
            elif isinstance(d, SymDim):
                out[idx % len(shape)] = d.shift(-1)
            else:
                out[idx % len(shape)] = None
            return tuple(out)
        if name == "dot":
            if len(call.args) == 2:
                a, b = (self.infer(x) for x in call.args)
                if a is not None and b is not None and len(a) == 2 and len(b) == 2:
                    return (a[0], b[1])
                if a is not None and b is not None and len(a) == 1 and len(b) == 1:
                    return ()
            return None
        if name in ("int8", "int16", "int32", "int64", "float32", "float64",
                    "intp", "uint8", "uint16", "uint32", "uint64", "bool_"):
            return ()
        return None

    def _infer_stack(self, call: ast.Call, name: str):
        shapes, literal = self._seq_shapes(self._call_arg(call, 0))
        if not literal:
            return None
        axis = self._axis_arg(call, pos=1) if name == "stack" else 0
        if axis == "unknown" or axis is None:
            axis = 0
        known = [s for s in shapes if s is not None]
        if name == "stack":
            return self._checked(call, stack_shapes(shapes, axis))
        flat = known and all(len(s) == 1 for s in known)
        if name in ("vstack", "row_stack"):
            return self._checked(
                call, stack_shapes(shapes, 0) if flat else concat_shapes(shapes, 0)
            )
        if name == "hstack":
            return self._checked(call, concat_shapes(shapes, 0 if flat else 1))
        if name == "column_stack":
            if flat:
                dim = known[0][0]
                for s in known[1:]:
                    if dims_equal(dim, s[0]) is False:
                        self.on_issue(
                            call,
                            ShapeIssue(
                                "stack",
                                f"column_stack needs equal-length columns, "
                                f"got {shape_str(known[0])} and {shape_str(s)}",
                            ),
                        )
                        return None
                    dim = _merge_dim(dim, s[0])
                count = len(shapes) if len(known) == len(shapes) else None
                return (dim, count)
            return self._checked(call, concat_shapes(shapes, 1))
        return None

    def _reshape(self, node: ast.AST, old, spec: ast.expr):
        if isinstance(spec, (ast.Tuple, ast.List)):
            dims = [self.dim_of(e) for e in spec.elts]
        else:
            dims = [self.dim_of(spec)]
        return self._checked(node, reshape_shape(old, dims))

    def _infer_ufunc_method(self, call: ast.Call, method: str):
        arg = self._call_arg(call, 0)
        shape = self.infer(arg) if arg is not None else None
        if method == "accumulate":
            return shape
        if method == "outer":
            if len(call.args) == 2:
                a, b = (self.infer(x) for x in call.args)
                if a is not None and b is not None:
                    return a + b
            return None
        axis = self._axis_arg(call, pos=2 if method == "reduceat" else 1)
        if axis == "unknown":
            return None
        if method == "reduce":
            return self._checked(call, reduce_shape(shape, axis))
        # reduceat: the reduced axis takes the indices' extent
        idx = self._call_arg(call, 1, "indices")
        idx_shape = self.infer(idx) if idx is not None else None
        ax = 0 if axis is None else axis
        rank = len(shape) if shape is not None else None
        if rank is not None and not -rank <= ax < rank:
            self.on_issue(
                call,
                ShapeIssue(
                    "axis",
                    f"reduceat axis {ax} is out of range for a rank-{rank} "
                    f"array (valid axes: {-rank}..{rank - 1})",
                ),
            )
            return None
        if shape is None:
            return None
        out = list(shape)
        out[ax % rank] = (
            idx_shape[0] if idx_shape is not None and len(idx_shape) == 1 else None
        )
        return tuple(out)

    def _infer_method(self, call: ast.Call, func: ast.Attribute):  # noqa: C901
        base = self.infer(func.value)
        name = func.attr
        if base is None:
            return None  # unknown base means unknown rank: nothing to prove
        if name == "reshape":
            if not call.args:
                return None
            spec = (
                call.args[0]
                if len(call.args) == 1
                else ast.Tuple(elts=list(call.args), ctx=ast.Load())
            )
            return self._reshape(call, base, spec)
        if name in ("ravel", "flatten"):
            return flatten_shape(base)
        if name == "transpose":
            if not call.args:
                return tuple(reversed(base))
            perm = [self.dim_of(a) for a in call.args]
            if all(isinstance(p, int) and 0 <= p < len(base) for p in perm) and len(
                perm
            ) == len(base):
                return tuple(base[p] for p in perm)
            return None
        if name in _SAME_SHAPE_METHODS:
            return base
        if name in _REDUCE_METHODS:
            axis = self._axis_arg(call, pos=0)
            if axis == "unknown":
                return None
            return self._checked(call, reduce_shape(base, axis))
        if name == "cumsum":
            axis = self._axis_arg(call, pos=0)
            if axis is None:
                return flatten_shape(base)
            if axis == "unknown":
                return None
            result = self._checked(call, reduce_shape(base, axis, keepdims=True))
            return base if result is not None else None
        if name == "nonzero":
            return tuple((None,) for _ in range(len(base)))
        if name == "repeat":
            axis = self._axis_arg(call, pos=1)
            if axis is None or axis == "unknown":
                return (None,)
            return None
        if name == "searchsorted":
            v = self._call_arg(call, 0)
            return self.infer(v) if v is not None else None
        return None

    # -- statements -----------------------------------------------------
    def run(self) -> None:
        """Interpret the whole body once, in source order, recording every
        statement; shapes are evaluated on the way."""
        self._run_body(self.fn_node.body)

    def settle_facts(self) -> None:
        """Derive the kind and dtype facts from the recorded statements
        (after :meth:`run`; the shape rules do not need them)."""
        self._settle_kinds()
        self._settle_dtypes()

    def _run_body(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self._run_stmt(stmt)

    def _record_dark(self, stmt: ast.stmt) -> None:
        """Record the statements nested in ``stmt`` without evaluating shapes."""
        for body in _child_bodies(stmt):
            for sub in body:
                self.statements.append(sub)
                self._record_dark(sub)

    def _run_stmt(self, stmt: ast.stmt) -> None:  # noqa: C901 - dispatch
        self.statements.append(stmt)
        if isinstance(stmt, ast.Assign):
            shape = self.infer(stmt.value)
            for target in stmt.targets:
                self._bind_target(stmt, target, stmt.value, shape)
        elif isinstance(stmt, ast.AnnAssign):
            declared = self._annotation_shape(stmt.annotation)
            if stmt.value is not None:
                shape = self.infer(stmt.value)
                self._bind_target(
                    stmt, stmt.target, stmt.value,
                    declared if declared is not None else shape,
                )
            elif declared is not None and isinstance(stmt.target, ast.Name):
                self.env[stmt.target.id] = declared
        elif isinstance(stmt, ast.AugAssign):
            if isinstance(stmt.target, ast.Name):
                old = self.env.get(stmt.target.id)
                inc = self.infer(stmt.value)
                if old is not None and inc is not None and not isinstance(
                    stmt.op, ast.MatMult
                ):
                    self._checked(stmt, broadcast_shapes(old, inc))
                    # in-place ops cannot grow the left side; keep it
                    self._record(stmt, stmt.target.id, old)
                else:
                    self.infer(stmt.value)
            else:
                self.infer(stmt.value)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.returns.append((stmt, self.infer(stmt.value)))
        elif isinstance(stmt, ast.Expr):
            self.infer(stmt.value)
        elif isinstance(stmt, (ast.If, ast.For, ast.While, ast.With, ast.Try)):
            if isinstance(stmt, (ast.If, ast.While)):
                self.infer(stmt.test)
            elif isinstance(stmt, ast.For):
                self.infer(stmt.iter)
                self._bind_loop_target(stmt.target, stmt.iter)
            elif isinstance(stmt, ast.With):
                for item in stmt.items:
                    self.infer(item.context_expr)
            for body in _child_bodies(stmt):
                self._run_body(body)
        else:
            # nested defs/classes are separate scan units (and other
            # compound statements are outside the vocabulary): no shapes,
            # but their bindings still feed the kind and dtype facts
            self._record_dark(stmt)

    def _bind_loop_target(self, target: ast.expr, it: ast.expr) -> None:
        """``for row in matrix`` peels the leading axis."""
        shape = self.infer(it)
        if isinstance(target, ast.Name):
            if shape is not None and len(shape) >= 1:
                self.env[target.id] = shape[1:]
            else:
                self.env[target.id] = None
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                if isinstance(elt, ast.Name):
                    self.env[elt.id] = None

    def _record(self, node: ast.AST, name: str, shape) -> None:
        self.env[name] = shape
        self.bindings.append((node, name, shape))

    def _bind_target(
        self, stmt: ast.stmt, target: ast.expr, value: ast.expr, shape
    ) -> None:
        if isinstance(target, ast.Name):
            self._record(stmt, target.id, shape)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            self._bind_unpack(stmt, target, value)
            return
        if isinstance(target, ast.Subscript):
            # `a[idx] = v`: the write must broadcast into the selected slot
            slot = self.infer(target)
            if slot is not None and shape is not None:
                self._checked(stmt, broadcast_shapes(slot, shape))

    def _bind_unpack(
        self, stmt: ast.stmt, target: ast.Tuple | ast.List, value: ast.expr
    ) -> None:
        values: list = []
        if isinstance(value, (ast.Tuple, ast.List)) and len(value.elts) == len(
            target.elts
        ):
            values = [self.infer(v) for v in value.elts]
        elif isinstance(value, ast.Call):
            parts = self._np_parts(value)
            result = self.infer(value)
            if (
                parts is not None
                and parts[0] == "nonzero"
                and isinstance(result, tuple)
                and result
                and isinstance(result[0], tuple)
            ):
                values = list(result)
        if not values:
            values = [None] * len(target.elts)
        for elt, shape in zip(target.elts, values):
            if isinstance(elt, ast.Name):
                self._record(stmt, elt.id, shape)

    # -- kind facts (array / dict / set) ---------------------------------
    def _bindings(self):
        """``(stmt, targets, value)`` per binding statement, in source order;
        ``value`` is None for ``x /= y`` (a float rebinding)."""
        for stmt in self.statements:
            if isinstance(stmt, ast.Assign):
                yield stmt, stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                yield stmt, [stmt.target], stmt.value
            elif (
                isinstance(stmt, ast.AugAssign)
                and isinstance(stmt.target, ast.Name)
                and isinstance(stmt.op, ast.Div)
            ):
                yield stmt, [stmt.target], None

    def _settle_kinds(self) -> None:
        """Least fixpoint of the kind rules over every recorded binding."""
        self.sets = _set_valued_names(self.fn_node)
        pairs = [(t, v) for _, t, v in self._bindings() if v is not None]
        size = -1
        while size != len(self.arrays) + len(self.dicts):
            size = len(self.arrays) + len(self.dicts)
            for targets, value in pairs:
                for t in targets:
                    if isinstance(t, (ast.Tuple, ast.List)):
                        self._classify_unpack(t, value)
                names = [t.id for t in targets if isinstance(t, ast.Name)]
                if self.is_array(value):
                    self.arrays.update(names)
                elif self._is_dict(value):
                    self.dicts.update(names)

    def _classify_unpack(self, target: ast.Tuple | ast.List, value: ast.expr) -> None:
        if isinstance(value, ast.Call):
            if self.np_name(value) in _TUPLE_ARRAY_FNS:
                self.arrays.update(e.id for e in target.elts if isinstance(e, ast.Name))
        elif isinstance(value, (ast.Tuple, ast.List)) and len(value.elts) == len(
            target.elts
        ):
            for elt, val in zip(target.elts, value.elts):
                if isinstance(elt, ast.Name) and self.is_array(val):
                    self.arrays.add(elt.id)

    def _is_dict(self, expr: ast.expr) -> bool:
        if isinstance(expr, (ast.Dict, ast.DictComp)):
            return True
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
            return expr.func.id in _DICT_CTORS
        return isinstance(expr, ast.Name) and expr.id in self.dicts

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
            if self.np_name(expr) in _NP_ARRAY_FNS:
                return True
            func = expr.func
            return (
                isinstance(func, ast.Attribute)
                and func.attr in _ARRAY_METHODS
                and self.is_array(func.value)
            )
        return False

    def is_arraylike_iter(self, expr: ast.expr) -> bool:
        """Array-valued, or array data flattened element-wise (``.tolist()``)."""
        return self.is_array(expr) or (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr == "tolist"
            and self.is_array(expr.func.value)
        )

    # -- dtype facts -----------------------------------------------------
    def _settle_dtypes(self) -> None:
        """One pass over the bindings in source order: each name's dtype
        as it is rebound (``x /= y`` always rebinds to float64)."""
        for stmt, targets, value in self._bindings():
            dtype = "float64" if value is None else self.dtype(value)
            is_astype = (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr == "astype"
            )
            for t in targets:
                if isinstance(t, ast.Name):
                    self.dtype_events.append(
                        (stmt, t.id, dtype, self.dtypes.get(t.id), is_astype)
                    )
                    if dtype is not None:
                        self.dtypes[t.id] = dtype

    def _dtype_arg(self, expr: ast.expr) -> str | None:
        """``"int64"`` for ``np.int64`` / ``"int64"`` / ``int``/``float``/``bool``."""
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            return expr.value
        if isinstance(expr, ast.Name):
            return {"int": "int64", "float": "float64", "bool": "bool"}.get(expr.id)
        dotted = self.resolver.resolve_expr(expr)
        if dotted is not None and dotted.startswith("numpy."):
            leaf = dotted.split(".")[-1]
            if leaf in INT_DTYPES or leaf in FLOAT_DTYPES:
                return leaf
        return None

    def dtype(self, expr: ast.expr) -> str | None:
        """Element dtype of an expression under the current dtype facts."""
        if isinstance(expr, ast.Constant):
            if isinstance(expr.value, bool):
                return "bool"
            if isinstance(expr.value, int):
                return "pyint"
            if isinstance(expr.value, float):
                return "pyfloat"
            return None
        if isinstance(expr, ast.Name):
            return self.dtypes.get(expr.id)
        if isinstance(expr, ast.Subscript):
            return self.dtype(expr.value)
        if isinstance(expr, ast.UnaryOp):
            return self.dtype(expr.operand)
        if isinstance(expr, ast.BinOp):
            if isinstance(expr.op, ast.Div):
                return "float64"  # true division always yields float
            left, right = self.dtype(expr.left), self.dtype(expr.right)
            if left in FLOAT_DTYPES or right in FLOAT_DTYPES:
                return "float64"
            if left in INT_DTYPES and right in INT_DTYPES:
                return max((left, right), key=lambda d: DTYPE_WIDTH.get(d, 0))
            return None
        if not isinstance(expr, ast.Call):
            return None
        if isinstance(expr.func, ast.Attribute) and expr.func.attr == "astype":
            return self._dtype_arg(expr.args[0]) if expr.args else None
        name = self.np_name(expr)
        if name is None:
            return None
        if name in INT_DTYPES or name in FLOAT_DTYPES:
            return name  # np.int64(x) scalar constructor
        for kw in expr.keywords:
            if kw.arg == "dtype":
                return self._dtype_arg(kw.value)
        if name in ("zeros", "ones", "empty", "linspace"):
            return "float64"  # numpy's default dtype
        if name == "arange" and all(self.dtype(a) in INT_DTYPES for a in expr.args):
            return "int64"
        return None
