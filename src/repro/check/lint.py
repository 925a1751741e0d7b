"""Repo-specific AST linter (``python -m repro.check lint src``).

Five rules with stable codes, each guarding a contract the test suite
cannot economically enforce everywhere:

========  =============================================================
RPR001    No process-global RNG calls (``random.*`` / ``np.random.*``)
          in library code — determinism contract shared with the sim and
          fault subsystems; pass a seeded ``np.random.Generator`` or
          ``random.Random`` instead.
RPR002    No mutable default arguments (list/dict/set literals or
          constructor calls) — defaults are evaluated once and shared.
RPR003    No bare ``assert`` for argument validation in library code —
          asserts vanish under ``python -O``; raise ``ValueError`` /
          ``RoutingError``.  Internal-consistency asserts are kept and
          marked ``# repro: noqa[RPR003]``.
RPR004    No ``__all__`` drift: every ``__all__`` entry must be bound in
          its module, and every name a package ``__init__`` re-exports
          must be listed in the defining module's ``__all__``.
RPR005    Public functions in ``repro.core`` / ``repro.networks`` must
          declare a return type (the strict-typing perimeter).
========  =============================================================

Any finding can be suppressed on its line with ``# repro: noqa[CODE]``
(or every rule at once with a bare ``# repro: noqa``).  The linter is
pure stdlib (``ast`` + ``tokenize``) and needs no third-party tooling.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro import obs

from .findings import Emitter, Finding, Report

__all__ = ["RULES", "lint_source", "lint_paths"]

#: rule code -> one-line summary (the catalog lives in DESIGN.md)
RULES: dict[str, str] = {
    "RPR001": "unseeded process-global RNG call in library code",
    "RPR002": "mutable default argument",
    "RPR003": "bare assert used for argument validation",
    "RPR004": "__all__ drift (unbound export or unlisted re-export)",
    "RPR005": "public repro.core/repro.networks function missing return type",
}

#: attributes of the stdlib ``random`` module that are NOT global-state RNG
_RANDOM_OK = {"Random", "SystemRandom"}
#: attributes of ``numpy.random`` that construct seedable generators
_NP_RANDOM_OK = {
    "default_rng",
    "Generator",
    "RandomState",
    "SeedSequence",
    "BitGenerator",
    "MT19937",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
}
#: constructor names whose call as a default argument is a shared mutable
_MUTABLE_CTORS = {
    "list",
    "dict",
    "set",
    "bytearray",
    "defaultdict",
    "deque",
    "Counter",
    "OrderedDict",
}
#: the strict-typing perimeter for RPR005
_TYPED_PREFIXES = ("repro.core", "repro.networks")


def _module_name(path: Path) -> str:
    """Dotted module name inferred from the package layout on disk.

    Walks parent directories while they contain ``__init__.py``, so it
    works for ``src/repro/...`` and for throwaway test packages alike.
    """
    path = path.resolve()
    parts = [path.stem] if path.stem != "__init__" else []
    d = path.parent
    while (d / "__init__.py").exists():
        parts.insert(0, d.name)
        parent = d.parent
        if parent == d:
            break
        d = parent
    return ".".join(parts) if parts else path.stem


@dataclass
class _ModuleInfo:
    """Everything the cross-file RPR004 pass needs about one module."""

    path: Path
    modname: str
    tree: ast.Module
    bound: set[str] = field(default_factory=set)
    all_names: list[str] | None = None
    all_lineno: int = 0
    all_dynamic: bool = False
    #: (lineno, source module dotted name, original name) for ``from X import Y``
    reexports: list[tuple[int, str, str]] = field(default_factory=list)

    @property
    def is_init(self) -> bool:
        return self.path.name == "__init__.py"


@dataclass
class _TopLevel:
    """What a module binds at top level (descending into If/Try branches)."""

    bound: set[str] = field(default_factory=set)
    #: local binding -> dotted target ("numpy", "repro.cache.cache_key", ...)
    imports: dict[str, str] = field(default_factory=dict)
    #: (lineno, source module, original name) of every resolved ``from X import Y``
    froms: list[tuple[int, str, str]] = field(default_factory=list)
    star: bool = False  #: a ``from X import *`` (untrackable bindings)


def _resolve_relative(module: str, level: int, target: str | None, is_init: bool) -> str | None:
    """Absolute dotted module for a ``from ...x import y`` (None if broken).

    Relative imports resolve against the containing package: the module
    itself for ``__init__.py``, its parent otherwise.
    """
    base = module.split(".") if is_init else module.split(".")[:-1]
    base = base[: len(base) - (level - 1)]
    if target:
        base.append(target)
    return ".".join(base) if base else None


def _top_level(
    body: Sequence[ast.stmt], modname: str, is_init: bool, out: _TopLevel | None = None
) -> _TopLevel:
    """The module-level bindings of ``body`` (shared by the linter and the
    call graph)."""
    out = out if out is not None else _TopLevel()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                out.bound.update(n.id for n in ast.walk(t) if isinstance(n, ast.Name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                out.bound.add(local)
                out.imports[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                src = _resolve_relative(modname, node.level, node.module, is_init)
            else:
                src = node.module
            for alias in node.names:
                if alias.name == "*":
                    out.star = True
                    continue
                local = alias.asname or alias.name
                out.bound.add(local)
                if src is not None:
                    out.imports[local] = f"{src}.{alias.name}"
                    out.froms.append((node.lineno, src, alias.name))
        elif isinstance(node, (ast.If, ast.Try)):
            _top_level(node.body, modname, is_init, out)
            for handler in getattr(node, "handlers", []):
                _top_level(handler.body, modname, is_init, out)
            _top_level(node.orelse, modname, is_init, out)
            _top_level(getattr(node, "finalbody", []), modname, is_init, out)
    return out


def _bind(info: _ModuleInfo) -> None:
    """Fill the RPR004 facts of ``info`` from its top-level bindings."""
    pkg = info.modname.split(".")[0]
    top = _top_level(info.tree.body, info.modname, info.is_init)
    info.bound = top.bound
    info.all_dynamic |= top.star  # can't track star imports
    # re-exports from inside the package (relative imports always are)
    info.reexports = [r for r in top.froms if r[1] == pkg or r[1].startswith(pkg + ".")]


def _extract_all(info: _ModuleInfo) -> None:
    for node in info.tree.body:
        if isinstance(node, ast.Assign):
            names = [t for t in node.targets if isinstance(t, ast.Name)]
            if any(t.id == "__all__" for t in names):
                info.all_lineno = node.lineno
                if isinstance(node.value, (ast.List, ast.Tuple)) and all(
                    isinstance(e, ast.Constant) and isinstance(e.value, str)
                    for e in node.value.elts
                ):
                    info.all_names = [e.value for e in node.value.elts]
                else:
                    info.all_dynamic = True
        elif isinstance(node, ast.AugAssign):
            if isinstance(node.target, ast.Name) and node.target.id == "__all__":
                info.all_dynamic = True


class _FileLinter(ast.NodeVisitor):
    """Single-module rules: RPR001, RPR002, RPR003, RPR005."""

    def __init__(self, info: _ModuleInfo, emit):
        self.info = info
        self.emit = emit
        # import aliases for RPR001
        self.random_aliases: set[str] = set()
        self.np_aliases: set[str] = set()
        self.np_random_aliases: set[str] = set()
        self.random_funcs: dict[str, str] = {}  # local name -> random.<orig>
        self.np_random_funcs: dict[str, str] = {}
        # function nesting for RPR003/RPR005
        self._func_params: list[set[str]] = []
        self._class_depth = 0
        self._class_public: list[bool] = []
        self._func_depth = 0
        self.typed_module = self.info.modname.startswith(_TYPED_PREFIXES)

    # -- imports (RPR001 bookkeeping) ----------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            if alias.name == "random":
                self.random_aliases.add(local)
            elif alias.name in ("numpy", "numpy.random"):
                self.np_aliases.add(local)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            for alias in node.names:
                if alias.name not in _RANDOM_OK and alias.name != "*":
                    self.random_funcs[alias.asname or alias.name] = alias.name
        elif node.module == "numpy":
            for alias in node.names:
                if alias.name == "random":
                    self.np_random_aliases.add(alias.asname or alias.name)
        elif node.module == "numpy.random":
            for alias in node.names:
                if alias.name not in _NP_RANDOM_OK and alias.name != "*":
                    self.np_random_funcs[alias.asname or alias.name] = alias.name
        self.generic_visit(node)

    # -- RPR001 --------------------------------------------------------
    def _np_random_base(self, value: ast.expr) -> bool:
        """True when ``value`` denotes the ``numpy.random`` module."""
        if isinstance(value, ast.Name):
            return value.id in self.np_random_aliases
        return (
            isinstance(value, ast.Attribute)
            and value.attr == "random"
            and isinstance(value.value, ast.Name)
            and value.value.id in self.np_aliases
        )

    def _global_rng(self, node: ast.Call, module: str, fn: str, how: str = "") -> None:
        fix = (
            "a seeded `random.Random(seed)` instance"
            if module == "random"
            else "`np.random.default_rng(seed)`"
        )
        self.emit(node, "RPR001", f"call to process-global `{module}.{fn}()`{how}; use {fix}")

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            if (
                isinstance(func.value, ast.Name)
                and func.value.id in self.random_aliases
                and func.attr not in _RANDOM_OK
            ):
                self._global_rng(node, "random", func.attr)
            elif self._np_random_base(func.value) and func.attr not in _NP_RANDOM_OK:
                self._global_rng(node, "np.random", func.attr)
        elif isinstance(func, ast.Name):
            if func.id in self.random_funcs:
                self._global_rng(node, "random", self.random_funcs[func.id], " (imported name)")
            elif func.id in self.np_random_funcs:
                self._global_rng(
                    node, "np.random", self.np_random_funcs[func.id], " (imported name)"
                )
        self.generic_visit(node)

    # -- RPR002 / RPR003 / RPR005 --------------------------------------
    def _check_defaults(self, node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda) -> None:
        args = node.args
        defaults = list(args.defaults) + [d for d in args.kw_defaults if d is not None]
        for d in defaults:
            if isinstance(d, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.SetComp, ast.DictComp)):
                self.emit(d, "RPR002", "mutable default argument; use None and create inside")
            elif (
                isinstance(d, ast.Call)
                and isinstance(d.func, ast.Name)
                and d.func.id in _MUTABLE_CTORS
            ):
                self.emit(
                    d,
                    "RPR002",
                    f"mutable default argument `{d.func.id}(...)`; "
                    "use None and create inside",
                )

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        public = not node.name.startswith("_")
        top_level = self._func_depth == 0 and (
            self._class_depth == 0 or (self._class_depth == 1 and self._class_public[-1])
        )
        decorators = {
            d.id if isinstance(d, ast.Name) else getattr(d, "attr", None)
            for d in node.decorator_list
        }
        if (
            self.typed_module
            and public
            and top_level
            and node.returns is None
            and "overload" not in decorators
        ):
            kind = "method" if self._class_depth else "function"
            self.emit(
                node,
                "RPR005",
                f"public {kind} `{node.name}` in typed module "
                f"`{self.info.modname}` is missing a return-type annotation",
            )
        params = {
            a.arg
            for a in (
                list(node.args.posonlyargs)
                + list(node.args.args)
                + list(node.args.kwonlyargs)
                + ([node.args.vararg] if node.args.vararg else [])
                + ([node.args.kwarg] if node.args.kwarg else [])
            )
        } - {"self", "cls"}
        self._func_params.append(params)
        self._func_depth += 1
        self.generic_visit(node)
        self._func_depth -= 1
        self._func_params.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_depth += 1
        self._class_public.append(not node.name.startswith("_"))
        self.generic_visit(node)
        self._class_public.pop()
        self._class_depth -= 1

    def visit_Assert(self, node: ast.Assert) -> None:
        if self._func_params:
            referenced = {
                n.id
                for n in ast.walk(node.test)
                if isinstance(n, ast.Name)
            } & self._func_params[-1]
            if referenced:
                names = ", ".join(sorted(referenced))
                self.emit(
                    node,
                    "RPR003",
                    f"bare assert validates argument(s) {names}; raise "
                    "ValueError/RoutingError (or mark internal invariants "
                    "with `# repro: noqa[RPR003]`)",
                )
        self.generic_visit(node)


def _lint_module(info: _ModuleInfo, emitter: Emitter, display_path: str, source: str) -> None:
    emit = emitter.bind(display_path, source)
    _FileLinter(info, emit).visit(info.tree)
    # intra-module half of RPR004: __all__ entries must be bound
    if info.all_names is not None and not info.all_dynamic:
        for name in info.all_names:
            if name not in info.bound:
                emit(
                    info.all_lineno,
                    "RPR004",
                    f"`__all__` lists `{name}` but the module never binds it",
                )


def _load(path: Path) -> tuple[_ModuleInfo, str]:
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    info = _ModuleInfo(path=path, modname=_module_name(path), tree=tree)
    _extract_all(info)
    _bind(info)
    return info, source


def lint_source(source: str, path: str = "<string>", modname: str = "module") -> Report:
    """Lint one in-memory module (single-file rules + intra-module RPR004).

    Used by tests to feed known-bad snippets; cross-module RPR004
    re-export checks need :func:`lint_paths` over a real package tree.
    """
    report = Report()
    tree = ast.parse(source, filename=path)
    info = _ModuleInfo(path=Path(path), modname=modname, tree=tree)
    _extract_all(info)
    _bind(info)
    _lint_module(info, Emitter(report), path, source)
    report.checked += 1
    return report


def _iter_py_files(paths: Iterable[str | Path]) -> list[Path]:
    out: list[Path] = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            out.extend(sorted(p.rglob("*.py")))
        elif p.suffix == ".py":
            out.append(p)
    return out


def lint_paths(paths: Iterable[str | Path]) -> Report:
    """Lint every ``.py`` file under ``paths`` (all five rules).

    Directories are walked recursively; the cross-module half of RPR004
    (package ``__init__`` re-exports vs. defining-module ``__all__``) runs
    over all files collected in the same call.
    """
    report = Report()
    files = _iter_py_files(paths)
    modules: dict[str, tuple[_ModuleInfo, str]] = {}
    with obs.span("check.lint", files=len(files)):
        for path in files:
            try:
                info, source = _load(path)
            except SyntaxError as exc:
                report.add(
                    Finding(str(path), exc.lineno or 0, "RPR000", f"syntax error: {exc.msg}")
                )
                continue
            modules[info.modname] = (info, source)
        emitter = Emitter(report)
        for info, source in modules.values():
            _lint_module(info, emitter, str(info.path), source)
            report.checked += 1
        _check_reexports(modules, emitter)
        reg = obs.registry()
        reg.incr("check.lint.files", len(files))
        reg.incr("check.lint.findings", len(report.findings))
    return report


def _check_reexports(
    modules: dict[str, tuple[_ModuleInfo, str]], emitter: Emitter
) -> None:
    """Cross-module half of RPR004: ``__init__`` re-exports vs. ``__all__``."""
    for info, source in modules.values():
        if not info.is_init:
            continue
        emit = emitter.bind(str(info.path), source)
        for lineno, srcmod, name in info.reexports:
            target = modules.get(srcmod)
            if name.startswith("_") or target is None or f"{srcmod}.{name}" in modules:
                # private, outside the linted set (the runtime import covers
                # it), or a re-exported submodule rather than a name
                continue
            tinfo, _ = target
            if tinfo.all_dynamic:
                continue
            if tinfo.all_names is not None and name not in tinfo.all_names:
                emit(
                    lineno,
                    "RPR004",
                    f"re-exports `{name}` from `{srcmod}` but "
                    f"`{srcmod}.__all__` does not list it",
                )
            elif tinfo.all_names is None and name not in tinfo.bound:
                emit(lineno, "RPR004", f"re-exports `{name}` but `{srcmod}` never binds it")
