"""RPR012 — cache-key completeness for content-addressed builders.

A cached artifact is sound only if its :func:`repro.cache.cache_key`
covers **every input that influences the stored bytes**: a parameter (or
mutable closed-over module value) that changes the built artifact but not
its key makes a warm cache serve stale data — which, for this
reproduction, silently corrupts Theorem 3.2 node counts and Theorem
4.1/4.3 diameters recomputed from cached graphs.

The pass finds every function that computes a ``cache_key`` and checks
that each of its *influencing inputs* flows into the key material:

1. collect the names read inside the ``cache_key(...)`` call's arguments
   — the directly-covered set;
2. close that set backwards through local dataflow: if a covered local
   was assigned from (or mutated via ``.append``/``.extend``/``.update``
   with) other names, those names are covered too — so
   ``key = cache_key(..., graph=net_key)`` with
   ``net_key = net.cache_key`` covers ``net``;
3. report every function parameter that is read in the body but never
   reaches the covered set, and every *rebound* module global (mutable
   module state, the only closed-over values that can change between
   runs) read but not covered.

``self``/``cls``/``cache`` parameters are exempt (the cache handle
stores the artifact, it does not influence it).  Genuine
non-influencing knobs — batching sizes, verbosity — are suppressed at
the call site with ``# repro: noqa[RPR012]`` plus a one-line reason,
e.g. a size guard that only decides whether the artifact is built at
all (the stored content is identical whenever the call succeeds).
"""

from __future__ import annotations

import ast

from .callgraph import CallGraph, FunctionNode, FunctionResolver

__all__ = ["check_cache_keys"]

#: resolved dotted names recognized as the key constructor
_CACHE_KEY_TARGETS = ("repro.cache.cache_key", "repro.cache.artifacts.cache_key")

#: parameters that never influence artifact *content*
_EXEMPT_PARAMS = {"self", "cls", "cache"}

#: container mutators whose arguments flow into the target
_FLOW_METHODS = {"append", "extend", "add", "update", "insert", "setdefault"}


def _names_in(expr: ast.AST) -> set[str]:
    """Every Name loaded inside an expression (chain roots included)."""
    return {
        n.id
        for n in ast.walk(expr)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }


def _local_dataflow(fn_node: ast.AST) -> dict[str, set[str]]:
    """``var -> names its value was derived from`` (union over all bindings).

    Covers plain/annotated/augmented assignments, tuple unpacking,
    ``for`` targets, ``with ... as`` targets, and in-place container
    mutators (``gens.extend(...)``).
    """
    flows: dict[str, set[str]] = {}

    def feed(target: ast.expr, reads: set[str]) -> None:
        for n in ast.walk(target):
            if isinstance(n, ast.Name):
                flows.setdefault(n.id, set()).update(reads)

    for node in ast.walk(fn_node):
        if isinstance(node, ast.Assign):
            # pair up parallel unpacking so `l, m = sgs.l, nucleus.m` stays
            # precise; fall back to all-reads-to-all-targets otherwise
            for target in node.targets:
                if (
                    isinstance(target, ast.Tuple)
                    and isinstance(node.value, ast.Tuple)
                    and len(target.elts) == len(node.value.elts)
                ):
                    for t, v in zip(target.elts, node.value.elts):
                        feed(t, _names_in(v))
                else:
                    feed(target, _names_in(node.value))
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            feed(node.target, _names_in(node.value))
        elif isinstance(node, ast.AugAssign):
            feed(node.target, _names_in(node.value))
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            feed(node.target, _names_in(node.iter))
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    feed(item.optional_vars, _names_in(item.context_expr))
        elif (
            isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
            and node.value.func.attr in _FLOW_METHODS
            and isinstance(node.value.func.value, ast.Name)
        ):
            reads: set[str] = set()
            for arg in node.value.args:
                reads |= _names_in(arg)
            for kw in node.value.keywords:
                reads |= _names_in(kw.value)
            flows.setdefault(node.value.func.value.id, set()).update(reads)
    return flows


def _close_covered(covered: set[str], flows: dict[str, set[str]]) -> set[str]:
    """Backward transitive closure of the covered set through local flows."""
    out = set(covered)
    changed = True
    while changed:
        changed = False
        for var in list(out):
            for src in flows.get(var, ()):
                if src not in out:
                    out.add(src)
                    changed = True
    return out


def _check_one(
    cg: CallGraph,
    fn: FunctionNode,
    resolver: FunctionResolver,
    key_calls: list[ast.Call],
    emit,
) -> int:
    """RPR012 on one cached builder; returns the number of checks run."""
    flows = _local_dataflow(fn.node)
    covered: set[str] = set()
    for call in key_calls:
        for arg in call.args:
            covered |= _names_in(arg)
        for kw in call.keywords:
            covered |= _names_in(kw.value)
    covered = _close_covered(covered, flows)

    read_names = _names_in(fn.node)

    anchor = key_calls[0]
    checks = 0
    for param in fn.params:
        if param in _EXEMPT_PARAMS or param not in read_names:
            continue
        checks += 1
        if param not in covered:
            emit(
                anchor,
                "RPR012",
                f"parameter `{param}` of cached builder `{fn.qualname}` is "
                f"read but never enters the cache_key material — a stale "
                f"artifact can be served for a different `{param}`",
            )
    # closed-over *mutable* module state (names rebound via `global`
    # elsewhere): the only module values that can change between runs
    scope = resolver.scope
    local = set(fn.params) | {
        n.id for n in ast.walk(fn.node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
    }
    for name in sorted(scope.rebound_globals & read_names - local):
        checks += 1
        if name not in covered:
            emit(
                anchor,
                "RPR012",
                f"cached builder `{fn.qualname}` reads mutable module global "
                f"`{name}` (rebound elsewhere) that never enters the "
                f"cache_key material",
            )
    return checks


def check_cache_keys(cg: CallGraph, emitter) -> int:
    """Run RPR012 over every ``cache_key``-computing function in ``cg``
    through the dataflow tier's :class:`~repro.check.findings.Emitter`;
    returns the number of checks run."""
    checks = 0
    for qual in sorted(cg.functions):
        fn = cg.functions[qual]
        if fn.name == "cache_key":  # the constructor itself is not a builder
            continue
        resolver = cg.resolver(fn)
        key_calls = []
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call):
                dotted = resolver.resolve_expr(node.func)
                if dotted is not None and cg.canonical(dotted) in _CACHE_KEY_TARGETS:
                    key_calls.append(node)
        if key_calls:
            emit = emitter.bind(fn.path, resolver.scope.source)
            checks += _check_one(cg, fn, resolver, key_calls, emit)
    return checks
