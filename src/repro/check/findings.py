"""Shared findings/report model for the static-analysis layers.

Every tier — the AST linter (:mod:`repro.check.lint`), the
paper-invariant contract checker (:mod:`repro.check.invariants`), the
determinism dataflow analyzer (:mod:`repro.check.determinism`), the
kernel-perf pass (:mod:`repro.check.perf`), and the runtime sanitizers
(:mod:`~repro.check.sanitize` / :mod:`~repro.check.perfsanitize`) —
emits :class:`Finding` records and collects them into a :class:`Report`,
so CLI rendering, exit codes, and obs accounting are identical across
tiers.

A finding is ``location: CODE message`` where the location is a
``file:line`` pair for source-anchored findings and a descriptor string
(e.g. ``hsn(l=2, n=1)`` or ``shapes[route_resolve]``) for
instance/workload findings.

Source tiers emit through one :class:`Emitter`, which honours
``# repro: noqa[CODE]`` comments (read from COMMENT tokens, so a string
literal that spells the marker suppresses nothing).
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field

__all__ = ["Finding", "Report", "Emitter", "noqa_map"]

_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\[\s*([A-Z0-9_,\s]+?)\s*\])?")


@dataclass(frozen=True, order=True)
class Finding:
    """One violation: a stable rule code, a location, and a message.

    Attributes
    ----------
    path:
        Source file (lint) or family/instance descriptor (contracts).
    line:
        1-based source line for lint findings; 0 when not applicable.
    code:
        Stable rule code (``RPR001``.. for lint, ``CTR001``.. for
        contracts).  Codes are append-only: never renumber.
    message:
        Human-readable description with enough context to act on.
    """

    path: str
    line: int
    code: str
    message: str

    def render(self) -> str:
        """``file:line: CODE message`` (line omitted when 0)."""
        loc = f"{self.path}:{self.line}" if self.line else self.path
        return f"{loc}: {self.code} {self.message}"


@dataclass
class Report:
    """A batch of findings plus how much ground the run covered.

    ``checked`` counts units inspected (files for lint, contract
    assertions for the invariant sweep) so an empty findings list can be
    distinguished from a run that inspected nothing.
    """

    findings: list[Finding] = field(default_factory=list)
    checked: int = 0

    @property
    def ok(self) -> bool:
        """True iff no findings were recorded."""
        return not self.findings

    def add(self, finding: Finding) -> None:
        """Record one finding."""
        self.findings.append(finding)

    def extend(self, other: "Report") -> None:
        """Merge another report into this one."""
        self.findings.extend(other.findings)
        self.checked += other.checked

    def counts_by_code(self) -> dict[str, int]:
        """Mapping rule code -> number of findings, sorted by code."""
        out: dict[str, int] = {}
        for f in sorted(self.findings):
            out[f.code] = out.get(f.code, 0) + 1
        return out

    def render(self) -> str:
        """One line per finding (sorted), plus a summary trailer."""
        lines = [f.render() for f in sorted(self.findings)]
        n = len(self.findings)
        if n:
            per_code = ", ".join(
                f"{code}×{cnt}" for code, cnt in self.counts_by_code().items()
            )
            lines.append(f"{n} finding{'s' if n != 1 else ''} ({per_code})")
        else:
            lines.append(f"clean ({self.checked} checks)")
        return "\n".join(lines)


def noqa_map(source: str) -> dict[int, frozenset[str] | None]:
    """Line -> suppressed codes (``None`` = all codes) from noqa comments."""
    out: dict[int, frozenset[str] | None] = {}
    hits = [i for i, line in enumerate(source.splitlines(), 1) if _NOQA_RE.search(line)]
    if not hits:
        return out
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    try:
        for tok in tokens:
            if tok.start[0] > hits[-1]:
                break
            m = _NOQA_RE.search(tok.string) if tok.type == tokenize.COMMENT else None
            if m is None:
                continue
            codes = m.group(1)
            out[tok.start[0]] = None if codes is None else frozenset(
                c.strip() for c in codes.split(",") if c.strip()
            )
    except (tokenize.TokenError, SyntaxError):
        pass
    return out


class Emitter:
    """The one noqa-aware finding sink of the source tiers.

    A finding is suppressed by a noqa comment on its own line, or — with
    ``def_line=True`` (the perf and shape tiers, which scan whole kernel
    functions) — on the ``def`` line of the function being scanned, and
    those tiers also keep one finding per ``(path, line, code)``.
    Suppressed findings are counted in :attr:`suppressed`.
    """

    def __init__(self, report: Report, def_line: bool = False):
        self.report = report
        self.def_line = def_line
        self.suppressed = 0
        self._seen: set[tuple[str, int, str]] | None = set() if def_line else None
        self._noqa: dict[str, dict[int, frozenset[str] | None]] = {}

    def bind(self, path: str, source: str, def_lineno: int = 0):
        """``emit(node, code, message)`` for findings in one file/function;
        ``node`` is an AST node or a bare line number."""
        noqa = self._noqa.get(path)
        if noqa is None:
            noqa = self._noqa[path] = noqa_map(source)
        lines = (def_lineno,) if self.def_line and def_lineno else ()

        def emit(node, code: str, message: str) -> None:
            lineno = node if isinstance(node, int) else getattr(node, "lineno", 0)
            if self._seen is not None:
                key = (path, lineno, code)
                if key in self._seen:
                    return
                self._seen.add(key)
            for ln in (lineno, *lines):
                mask = noqa.get(ln, frozenset())
                if mask is None or code in mask:
                    self.suppressed += 1
                    return
            self.report.add(Finding(path, lineno, code, message))

        return emit
