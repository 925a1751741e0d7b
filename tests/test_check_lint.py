"""Seeded-violation tests for the custom linter (repro.check.lint).

Every RPR rule gets a known-bad snippet that must fire and a noqa'd /
corrected twin that must stay quiet, so the rules themselves are
regression-tested — not just the clean state of the repo.
"""

import textwrap

import pytest

from repro.check import RULES, Finding, Report, lint_paths, lint_source
from repro.check.__main__ import main as check_main


def _codes(report, line=None):
    return {
        f.code
        for f in report.findings
        if line is None or f.line == line
    }


def lint(src, modname="repro.sim.sample"):
    return lint_source(textwrap.dedent(src), path="sample.py", modname=modname)


class TestRPR001UnseededRandom:
    def test_stdlib_random_call_fires(self):
        r = lint("""
            import random
            x = random.randint(0, 5)
        """)
        assert _codes(r) == {"RPR001"}

    def test_stdlib_imported_name_fires(self):
        r = lint("""
            from random import shuffle
            def scramble(items):
                shuffle(items)
        """)
        assert _codes(r) == {"RPR001"}

    def test_numpy_legacy_global_fires(self):
        r = lint("""
            import numpy as np
            noise = np.random.rand(8)
        """)
        assert _codes(r) == {"RPR001"}

    def test_numpy_seed_call_fires(self):
        r = lint("""
            import numpy
            numpy.random.seed(0)
        """)
        assert _codes(r) == {"RPR001"}

    def test_default_rng_and_seeded_random_ok(self):
        r = lint("""
            import random
            import numpy as np
            rng = np.random.default_rng(42)
            gen = random.Random(42)
            def draw(k: int, rng: np.random.Generator):
                return rng.integers(0, k)
        """)
        assert r.ok

    def test_noqa_suppresses(self):
        r = lint("""
            import random
            x = random.random()  # repro: noqa[RPR001]
        """)
        assert r.ok


class TestRPR002MutableDefaults:
    def test_list_literal_fires(self):
        r = lint("def f(xs=[]):\n    return xs\n")
        assert _codes(r) == {"RPR002"}

    def test_dict_and_ctor_fire(self):
        r = lint("""
            def f(opts={}, seen=set()):
                return opts, seen
        """)
        assert [f.code for f in r.findings] == ["RPR002", "RPR002"]

    def test_lambda_default_fires(self):
        r = lint("g = lambda xs=[]: xs\n")
        assert _codes(r) == {"RPR002"}

    def test_none_default_ok(self):
        r = lint("""
            def f(xs=None, n=3, name="x"):
                return list(xs or [])
        """)
        assert r.ok

    def test_noqa_suppresses(self):
        r = lint("def f(xs=[]):  # repro: noqa[RPR002]\n    return xs\n")
        assert r.ok


class TestRPR003ArgumentValidationAssert:
    def test_assert_on_parameter_fires(self):
        r = lint("""
            def build(n):
                assert n > 0
                return n
        """)
        assert _codes(r) == {"RPR003"}
        assert "ValueError" in r.findings[0].message

    def test_internal_assert_on_local_ok(self):
        r = lint("""
            def build(n):
                total = compute(n)
                assert total >= 0
                return total
        """)
        assert r.ok

    def test_self_attribute_assert_ok(self):
        r = lint("""
            class Box:
                def check(self):
                    assert self.size >= 0
        """)
        assert r.ok

    def test_raise_value_error_ok(self):
        r = lint("""
            def build(n):
                if n <= 0:
                    raise ValueError(f"n must be positive, got {n}")
                return n
        """)
        assert r.ok

    def test_noqa_marks_internal_invariant(self):
        r = lint("""
            def merge(a, b):
                assert len(a) == len(b)  # repro: noqa[RPR003]
                return a + b
        """)
        assert r.ok


class TestRPR004AllDrift:
    def test_unbound_export_fires(self):
        r = lint("""
            __all__ = ["exists", "ghost"]
            def exists():
                return 1
        """)
        assert _codes(r) == {"RPR004"}
        assert "ghost" in r.findings[0].message

    def test_bound_exports_ok(self):
        r = lint("""
            __all__ = ["exists", "CONST"]
            CONST = 3
            def exists():
                return 1
        """)
        assert r.ok

    def test_reexport_drift_across_package(self, tmp_path):
        pkg = tmp_path / "pkglint"
        pkg.mkdir()
        (pkg / "__init__.py").write_text(
            "from .mod import listed, unlisted\n__all__ = ['listed', 'unlisted']\n"
        )
        (pkg / "mod.py").write_text(
            "__all__ = ['listed']\n\ndef listed():\n    return 1\n\n"
            "def unlisted():\n    return 2\n"
        )
        r = lint_paths([pkg])
        assert _codes(r) == {"RPR004"}
        (f,) = r.findings
        assert "unlisted" in f.message and f.path.endswith("__init__.py")

    def test_reexport_in_sync_across_package(self, tmp_path):
        pkg = tmp_path / "pkgok"
        pkg.mkdir()
        (pkg / "__init__.py").write_text(
            "from .mod import listed\n__all__ = ['listed']\n"
        )
        (pkg / "mod.py").write_text("__all__ = ['listed']\n\ndef listed():\n    return 1\n")
        assert lint_paths([pkg]).ok

    def test_dynamic_all_skipped(self):
        r = lint("""
            __all__ = ["a"]
            __all__ += ["b"]
            def a():
                return 1
        """)
        assert r.ok


class TestRPR005ReturnAnnotations:
    def test_public_function_in_core_fires(self):
        r = lint("def degree(net):\n    return 3\n", modname="repro.core.sample")
        assert _codes(r) == {"RPR005"}

    def test_networks_method_fires(self):
        r = lint(
            """
            class Builder:
                def build(self):
                    return None
            """,
            modname="repro.networks.sample",
        )
        assert _codes(r) == {"RPR005"}

    def test_annotated_and_private_ok(self):
        r = lint(
            """
            def degree(net) -> int:
                return 3
            def _helper(net):
                return None
            """,
            modname="repro.core.sample",
        )
        assert r.ok

    def test_outside_typed_perimeter_ok(self):
        r = lint("def degree(net):\n    return 3\n", modname="repro.sim.sample")
        assert r.ok

    def test_noqa_suppresses(self):
        r = lint(
            "def degree(net):  # repro: noqa[RPR005]\n    return 3\n",
            modname="repro.core.sample",
        )
        assert r.ok


class TestNoqaAndModel:
    def test_bare_noqa_suppresses_all_rules_on_its_line(self):
        r = lint("def f(xs=[], ys={}):  # repro: noqa\n    return xs, ys\n")
        assert r.ok

    def test_noqa_inside_a_string_literal_does_not_suppress(self):
        r = lint('def f(xs=[], s="# repro: noqa"):\n    return xs, s\n')
        assert _codes(r) == {"RPR002"}

    def test_noqa_for_other_code_does_not_suppress(self):
        r = lint("def f(xs=[]):  # repro: noqa[RPR001]\n    return xs\n")
        assert _codes(r) == {"RPR002"}

    def test_rule_catalog_is_complete(self):
        assert set(RULES) == {"RPR001", "RPR002", "RPR003", "RPR004", "RPR005"}

    def test_finding_render_and_report_counts(self):
        rep = Report()
        rep.add(Finding("a.py", 3, "RPR002", "boom"))
        rep.add(Finding("a.py", 1, "RPR001", "bang"))
        assert rep.counts_by_code() == {"RPR001": 1, "RPR002": 1}
        assert rep.render().splitlines()[0] == "a.py:1: RPR001 bang"
        assert "2 findings" in rep.render()

    def test_syntax_error_reported_not_raised(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        r = lint_paths([bad])
        assert _codes(r) == {"RPR000"}


class TestRepoAndCli:
    def test_repo_src_is_clean(self):
        r = lint_paths(["src"])
        assert r.ok, r.render()
        assert r.checked >= 60  # sanity: the walk actually visited the tree

    def test_cli_exit_codes(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(xs=[]):\n    return xs\n")
        assert check_main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "RPR002" in out
        good = tmp_path / "good.py"
        good.write_text("def f(xs=None):\n    return xs\n")
        assert check_main(["lint", str(good)]) == 0

    def test_repro_check_dispatch(self, tmp_path, capsys):
        from repro.__main__ import main as repro_main

        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        assert repro_main(["check", "lint", str(good)]) == 0
        assert "clean" in capsys.readouterr().out
