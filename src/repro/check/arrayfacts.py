"""The array-fact pass of the perf tier.

One local pass answers what the perf rules ask about a function's names:
is it an array, a dict or a set (RPR020–RPR022), and what is its element
dtype (RPR023).  :class:`ArrayFacts` lists every statement of the body in
source order (a pre-order walk, nested ``def`` and ``class`` bodies
included), then settles the *kind* facts (array / dict / set;
flow-insensitive, a least fixpoint over every binding, ``np.ndarray``-
annotated parameters and CSR attributes included) and the *dtype* facts
(one pass over the bindings in source order, keeping each rebinding as
an event for RPR023).
"""

from __future__ import annotations

import ast

from .callgraph import FunctionResolver
from .determinism import _set_valued_names

__all__ = ["ArrayFacts"]

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


def _walk(body: list[ast.stmt]):
    """``body`` and every statement nested in it, in source order."""
    for stmt in body:
        yield stmt
        for child in _child_bodies(stmt):
            yield from _walk(child)


class ArrayFacts:
    """The kind and dtype facts of one function body, settled on construction.

    ``resolver`` is the :class:`~repro.check.callgraph.FunctionResolver`
    for numpy alias resolution (``np``, ``numpy``, ``from numpy import
    ...``).  Afterwards:

    * :attr:`statements` lists every statement of the body in source
      order, nested scopes included;
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
    ) -> None:
        self.fn_node = fn_node
        self.resolver = resolver
        self.statements: list[ast.stmt] = list(_walk(fn_node.body))
        self.arrays: set[str] = set()
        self.dicts: set[str] = set()
        self.sets: set[str] = set()
        self.dtypes: dict[str, str] = {}
        self.dtype_events: list[tuple[ast.stmt, str, str | None, str | None, bool]] = []
        args = fn_node.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            if arg.annotation is not None:
                text = ast.unparse(arg.annotation)
                # a container of arrays is the container: test it first
                if text.startswith(("dict", "Dict", "Mapping")) or "Mapping[" in text:
                    self.dicts.add(arg.arg)
                elif "ndarray" in text or "NDArray" in text:
                    self.arrays.add(arg.arg)
        self._settle_kinds()
        self._settle_dtypes()

    def np_name(self, call: ast.Call) -> str | None:
        """``"concatenate"`` for ``np.concatenate(...)`` (also for ufunc-method
        chains like ``np.minimum.reduceat``), else None."""
        dotted = self.resolver.resolve_expr(call.func)
        if dotted is None:
            return None
        parts = dotted.split(".")
        if parts[0] != "numpy" or len(parts) < 2:
            return None
        return parts[1]

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
