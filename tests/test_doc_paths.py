"""Every repo file the top-level docs cite in backticks exists.

A backticked token that starts with ``benchmarks/``, ``tests/``,
``examples/``, ``scripts/`` or ``src/`` and ends in a file extension is a
file path; a pytest node id suffix (``::Test...``) is dropped first and
globs (``bench_*.py``) are skipped.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "DESIGN.md", "API.md", "EXPERIMENTS.md")
_PATH = re.compile(r"(?<![\w./-])((?:benchmarks|tests|examples|scripts|src)/[\w./-]*\.\w+)")


def cited_paths(text: str) -> list[str]:
    """Repo file paths inside the backtick spans of a Markdown text."""
    found = []
    for span in re.findall(r"`([^`\n]+)`", text):
        for match in _PATH.finditer(span.split("::")[0]):
            if "*" not in match.group(1):
                found.append(match.group(1))
    return found


def test_cited_paths_parser():
    text = (
        "see `benchmarks/bench_routing.py`, `tests/test_x.py::TestA::test_b`, "
        "`benchmarks/bench_*.py`, `src/dst/next_hop/distance` and "
        "`PYTHONPATH=src python benchmarks/bench_closure.py` or tests/bare.py"
    )
    assert cited_paths(text) == [
        "benchmarks/bench_routing.py",
        "tests/test_x.py",
        "benchmarks/bench_closure.py",
    ]


@pytest.mark.parametrize("doc", DOCS)
def test_cited_repo_files_exist(doc):
    paths = cited_paths((ROOT / doc).read_text(encoding="utf-8"))
    assert paths, f"{doc} cites no repo file"
    missing = sorted({p for p in paths if not (ROOT / p).exists()})
    assert not missing, f"{doc} cites files that do not exist: {missing}"
