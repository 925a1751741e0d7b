"""Every ``# repro: noqa`` in ``src/`` must still be earning its keep.

The three static tiers run on a copy of ``src/`` with every noqa marker
neutralized; each marker of the real tree must then name a code that
fires on its line (or, for a ``def``-line marker of the perf tier,
anywhere in the function).  A marker that suppresses nothing
hides the next real finding on its line, so it fails this test.
"""

import ast
import shutil
from pathlib import Path

from repro.check import dataflow_paths, lint_paths, perf_paths
from repro.check.findings import noqa_map

SRC = Path(__file__).resolve().parents[1] / "src"

#: the tier whose def-line noqa covers the whole function
_DEF_LINE_CODES = ("RPR02",)


def neutralized_copy(src: Path, dest: Path) -> Path:
    """Copy ``src`` to ``dest`` with every noqa marker made inert (line
    numbers unchanged)."""
    shutil.copytree(src, dest, ignore=shutil.ignore_patterns("__pycache__"))
    for path in dest.rglob("*.py"):
        text = path.read_text()
        if "repro: noqa" in text:
            path.write_text(text.replace("repro: noqa", "repro: nada"))
    return dest


def static_findings(tree: Path):
    """Every finding of the three static tiers over ``tree``."""
    findings = []
    for tier in (lint_paths, dataflow_paths, perf_paths):
        findings.extend(tier([tree]).findings)
    return findings


def _function_spans(source: str) -> dict[int, tuple[int, int]]:
    """``def`` line -> (first, last) line of that function."""
    return {
        node.lineno: (node.lineno, node.end_lineno)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def stale_markers(src: Path, scratch: Path) -> list[str]:
    """``path:line`` of every noqa marker under ``src`` that suppresses
    nothing once the markers of a copy at ``scratch`` are neutralized."""
    copy = neutralized_copy(src, scratch)
    fired: dict[str, list[tuple[int, str]]] = {}
    for f in static_findings(copy):
        rel = str(Path(f.path).resolve().relative_to(copy.resolve()))
        fired.setdefault(rel, []).append((f.line, f.code))

    stale = []
    for path in sorted(src.rglob("*.py")):
        source = path.read_text()
        markers = noqa_map(source)
        if not markers:
            continue
        rel = str(path.relative_to(src))
        spans = _function_spans(source)
        for line, codes in markers.items():
            lo, hi = spans.get(line, (line, line))

            def covers(hit_line, code, lo=lo, hi=hi, codes=codes, line=line):
                named = codes is None or code in codes
                if hit_line == line:
                    return named
                return named and code.startswith(_DEF_LINE_CODES) and lo <= hit_line <= hi

            if not any(covers(hl, code) for hl, code in fired.get(rel, [])):
                stale.append(f"{rel}:{line}: noqa{sorted(codes or [])} suppresses nothing")
    return stale


def test_every_noqa_suppresses_a_finding(tmp_path):
    stale = stale_markers(SRC, tmp_path / "src")
    assert not stale, "\n".join(stale)


def test_a_planted_stale_marker_fails(tmp_path):
    tree = tmp_path / "tree"
    (tree / "app").mkdir(parents=True)
    (tree / "app" / "__init__.py").touch()
    (tree / "app" / "mod.py").write_text("x = 1  # repro: noqa[RPR020]\n")
    assert stale_markers(tree, tmp_path / "copy") == [
        "app/mod.py:1: noqa['RPR020'] suppresses nothing"
    ]


def test_noqa_in_a_string_literal_is_not_a_comment():
    source = 'x = "# repro: noqa[RPR020]"\ny = 1  # repro: noqa[RPR021]\n'
    assert noqa_map(source) == {2: frozenset({"RPR021"})}
