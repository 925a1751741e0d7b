"""Seeded-violation tests for the kernel-perf analyzer and sanitizer.

Every perf rule (RPR020–RPR024) gets a known-bad fixture tree that must
fire with the exact code and ``file:line`` anchor, plus a corrected twin
that must stay quiet — mirroring ``test_check_dataflow.py``.  The
perimeter closure is pinned against the real call graph (typed edges
only), and the runtime sanitizer is mutation-tested: a forced perimeter
escape (SAN004), a forced budget regression (SAN005) and forced shape
drift in every direction (SAN006: changed geometry, vanished array,
uncontracted array) must all be caught, and ``--update-contracts`` must
clear the drift without clobbering the other profile.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.check import (
    DATAFLOW_RULES,
    HOT_PERIMETER,
    PERF_RULES,
    PERF_SANITIZE_RULES,
    RULES,
    RULESET_VERSION,
    SANITIZE_RULES,
    SHAPE_SANITIZE_RULES,
    HotKernel,
    build_callgraph,
    hot_path_perimeter,
    perf_paths,
    perf_sanitize,
)
from repro.check.__main__ import main as check_main
from repro.check.perfsanitize import (
    WORKLOADS,
    Workload,
    load_budgets,
    load_contracts,
    record_shapes,
    run_workload,
    update_budgets,
    write_contracts,
    write_profile,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
BUDGETS = Path(__file__).resolve().parents[1] / "benchmarks" / "perf_budgets.json"
CONTRACTS = Path(__file__).resolve().parents[1] / "benchmarks" / "shape_contracts.json"

#: fixture perimeter: one root named ``app.kern.kernel``
KERNEL = (HotKernel("app.kern.kernel", "fixture kernel"),)


def make_tree(tmp_path, files):
    """Write ``{relpath: source}`` as a package tree (inits auto-created)."""
    root = tmp_path / "tree"
    for rel, src in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        d = path.parent
        while d != root:
            (d / "__init__.py").touch()
            d = d.parent
        path.write_text(textwrap.dedent(src))
    return root


def line_of(root, rel, needle):
    """1-based line of the first source line containing ``needle``."""
    for i, line in enumerate((root / rel).read_text().splitlines(), start=1):
        if needle in line:
            return i
    raise AssertionError(f"{needle!r} not found in {rel}")


def codes(report):
    return {f.code for f in report.findings}


def anchor(report, code):
    """``(path-suffix, line)`` of the single finding with ``code``."""
    hits = [f for f in report.findings if f.code == code]
    assert len(hits) == 1, f"expected one {code}, got {hits}"
    return hits[0].path, hits[0].line


# ----------------------------------------------------------------------
# RPR020: per-element loops over array data
# ----------------------------------------------------------------------
class TestRPR020:
    def test_direct_iteration_fires_with_anchor(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/kern.py": """
                    import numpy as np

                    def kernel(arr: np.ndarray):
                        total = 0
                        for v in arr:
                            total += v
                        return total
                """
            },
        )
        r = perf_paths([root], kernels=KERNEL)
        assert codes(r) == {"RPR020"}
        path, line = anchor(r, "RPR020")
        assert path.endswith("app/kern.py")
        assert line == line_of(root, "app/kern.py", "for v in arr")

    def test_tolist_iteration_and_scalar_index_range_fire(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/kern.py": """
                    import numpy as np

                    def kernel(arr: np.ndarray):
                        total = 0
                        for v in arr.tolist():
                            total += v
                        for i in range(len(arr)):
                            total += arr[i]
                        return total
                """
            },
        )
        r = perf_paths([root], kernels=KERNEL)
        assert codes(r) == {"RPR020"}
        lines = sorted(f.line for f in r.findings)
        assert lines == [
            line_of(root, "app/kern.py", "for v in arr.tolist()"),
            line_of(root, "app/kern.py", "for i in range(len(arr))"),
        ]

    def test_vectorized_twin_is_clean(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/kern.py": """
                    import numpy as np

                    def kernel(arr: np.ndarray):
                        return int(np.sum(arr))
                """
            },
        )
        assert perf_paths([root], kernels=KERNEL).ok

    def test_outside_perimeter_is_not_scanned(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/kern.py": """
                    import numpy as np

                    def kernel(arr: np.ndarray):
                        return int(np.sum(arr))

                    def cold_helper(arr: np.ndarray):
                        total = 0
                        for v in arr:
                            total += v
                        return total
                """
            },
        )
        # cold_helper is never called from the kernel: no findings
        assert perf_paths([root], kernels=KERNEL).ok


# ----------------------------------------------------------------------
# RPR021: growth-in-loop
# ----------------------------------------------------------------------
class TestRPR021:
    def test_np_append_in_loop_fires(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/kern.py": """
                    import numpy as np

                    def kernel(n):
                        out = np.empty(0, dtype=np.int64)
                        for i in range(n):
                            out = np.append(out, i)
                        return out
                """
            },
        )
        r = perf_paths([root], kernels=KERNEL)
        assert codes(r) == {"RPR021"}
        _, line = anchor(r, "RPR021")
        assert line == line_of(root, "app/kern.py", "np.append")

    def test_list_append_then_convert_fires(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/kern.py": """
                    import numpy as np

                    def kernel(n):
                        acc = []
                        for i in range(n):
                            acc.append(i * 2)
                        return np.asarray(acc)
                """
            },
        )
        r = perf_paths([root], kernels=KERNEL)
        assert codes(r) == {"RPR021"}
        _, line = anchor(r, "RPR021")
        assert line == line_of(root, "app/kern.py", "acc.append")

    def test_preallocated_twin_is_clean(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/kern.py": """
                    import numpy as np

                    def kernel(n):
                        out = np.arange(n, dtype=np.int64)
                        return out * 2
                """
            },
        )
        assert perf_paths([root], kernels=KERNEL).ok


# ----------------------------------------------------------------------
# RPR022: per-label dict/set probes
# ----------------------------------------------------------------------
class TestRPR022:
    def test_dict_get_per_label_fires(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/kern.py": """
                    def kernel(keys, index: dict):
                        out = []
                        for k in keys:
                            v = index.get(k)
                            out.append(v)
                        return out
                """
            },
        )
        r = perf_paths([root], kernels=KERNEL)
        assert "RPR022" in codes(r)
        hits = [f for f in r.findings if f.code == "RPR022"]
        assert hits[0].line == line_of(root, "app/kern.py", "index.get(k)")

    def test_dict_of_arrays_parameter_is_a_dict(self, tmp_path):
        # the annotation names ndarray, but the parameter is the dict
        root = make_tree(
            tmp_path,
            {
                "app/kern.py": """
                    import numpy as np

                    def kernel(keys, index: dict[int, list[np.ndarray]]):
                        out = []
                        for k in keys:
                            out.append(index.get(k))
                        return out
                """
            },
        )
        r = perf_paths([root], kernels=KERNEL)
        hits = [f for f in r.findings if f.code == "RPR022"]
        assert [f.line for f in hits] == [line_of(root, "app/kern.py", "index.get(k)")]

    def test_set_add_per_label_fires(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/kern.py": """
                    def kernel(keys):
                        seen = set()
                        for k in keys:
                            seen.add(k)
                        return seen
                """
            },
        )
        r = perf_paths([root], kernels=KERNEL)
        assert "RPR022" in codes(r)
        hits = [f for f in r.findings if f.code == "RPR022"]
        assert hits[0].line == line_of(root, "app/kern.py", "seen.add(k)")

    def test_loop_invariant_probe_is_clean(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/kern.py": """
                    def kernel(keys, index: dict):
                        default = index.get("default")
                        out = []
                        for k in keys:
                            out.append(default)
                        return out
                """
            },
        )
        r = perf_paths([root], kernels=KERNEL)
        assert "RPR022" not in codes(r)


# ----------------------------------------------------------------------
# RPR023: dtype contracts
# ----------------------------------------------------------------------
class TestRPR023:
    def test_declared_contract_violation_fires(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/kern.py": """
                    import numpy as np

                    def kernel(n):
                        dist = np.zeros(n)
                        return dist
                """
            },
        )
        kernels = (
            HotKernel("app.kern.kernel", "fixture", contracts=(("dist", "int32"),)),
        )
        r = perf_paths([root], kernels=kernels)
        assert codes(r) == {"RPR023"}
        _, line = anchor(r, "RPR023")
        assert line == line_of(root, "app/kern.py", "np.zeros")

    def test_contract_honoured_is_clean(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/kern.py": """
                    import numpy as np

                    def kernel(n):
                        dist = np.zeros(n, dtype=np.int32)
                        return dist
                """
            },
        )
        kernels = (
            HotKernel("app.kern.kernel", "fixture", contracts=(("dist", "int32"),)),
        )
        assert perf_paths([root], kernels=kernels).ok

    def test_float_index_fires(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/kern.py": """
                    import numpy as np

                    def kernel(arr: np.ndarray, n):
                        mid = n / 2
                        return arr[mid]
                """
            },
        )
        r = perf_paths([root], kernels=KERNEL)
        assert codes(r) == {"RPR023"}
        _, line = anchor(r, "RPR023")
        assert line == line_of(root, "app/kern.py", "arr[mid]")


# ----------------------------------------------------------------------
# RPR024: loop-invariant recomputation
# ----------------------------------------------------------------------
class TestRPR024:
    def test_invariant_argsort_in_loop_fires(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/kern.py": """
                    import numpy as np

                    def kernel(arr: np.ndarray, reps):
                        total = 0
                        for r in range(reps):
                            order = np.argsort(arr)
                            total += int(order[0])
                        return total
                """
            },
        )
        r = perf_paths([root], kernels=KERNEL)
        assert codes(r) == {"RPR024"}
        _, line = anchor(r, "RPR024")
        assert line == line_of(root, "app/kern.py", "np.argsort")

    def test_loop_varying_argument_is_clean(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/kern.py": """
                    import numpy as np

                    def kernel(chunks, reps):
                        total = 0
                        for c in chunks:
                            order = np.argsort(c)
                            total += int(order[0])
                        return total
                """
            },
        )
        r = perf_paths([root], kernels=KERNEL)
        assert "RPR024" not in codes(r)


# ----------------------------------------------------------------------
# noqa suppression
# ----------------------------------------------------------------------
class TestNoqa:
    def test_line_noqa_suppresses_one_code(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/kern.py": """
                    import numpy as np

                    def kernel(arr: np.ndarray):
                        total = 0
                        for v in arr:  # repro: noqa[RPR020]
                            total += v
                        return total
                """
            },
        )
        assert perf_paths([root], kernels=KERNEL).ok

    def test_def_line_noqa_suppresses_whole_function(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/kern.py": """
                    import numpy as np

                    def kernel(arr: np.ndarray):  # repro: noqa[RPR020,RPR021]
                        acc = []
                        for v in arr:
                            acc.append(v)
                        return np.asarray(acc)
                """
            },
        )
        assert perf_paths([root], kernels=KERNEL).ok

    def test_noqa_spelled_in_a_string_literal_does_not_suppress(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/kern.py": """
                    import numpy as np

                    def kernel(arr: np.ndarray):
                        total = 0
                        for v in arr: total += len("# repro: noqa[RPR020]")
                        return total
                """
            },
        )
        r = perf_paths([root], kernels=KERNEL)
        assert anchor(r, "RPR020")[1] == line_of(root, "app/kern.py", "for v in arr")

    def test_def_line_noqa_does_not_cover_other_codes(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/kern.py": """
                    import numpy as np

                    def kernel(arr: np.ndarray, keys):  # repro: noqa[RPR020]
                        seen = set()
                        for k in keys:
                            seen.add(k)
                        for v in arr:
                            pass
                        return seen
                """
            },
        )
        r = perf_paths([root], kernels=KERNEL)
        assert codes(r) == {"RPR022"}


# ----------------------------------------------------------------------
# perimeter closure against the real call graph
# ----------------------------------------------------------------------
class TestPerimeter:
    def test_real_roots_and_reachable_helpers(self):
        cg = build_callgraph([SRC])
        per = hot_path_perimeter(cg)
        for kernel in HOT_PERIMETER:
            assert kernel.qualname in per.reached, kernel.qualname
        # helpers reached through typed edges join the perimeter
        for helper in ("_closure", "_row_keys", "_merge_sorted"):
            assert f"repro.core.ipgraph.{helper}" in per.reached
            assert (
                per.reached[f"repro.core.ipgraph.{helper}"]
                == "repro.core.ipgraph.build_ip_graph"
            )
        # cold construction/workload layers stay out
        assert "repro.networks.registry.build" not in per.reached
        assert "repro.sim.workloads.uniform_random" not in per.reached

    def test_untyped_receiver_fallback_edges_do_not_leak(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/kern.py": """
                    import numpy as np

                    def kernel(store, arr: np.ndarray):
                        return store.fetch(int(arr[0]))
                """,
                "app/other.py": """
                    import numpy as np

                    class Registry:
                        def fetch(self, arr: np.ndarray):
                            total = 0
                            for v in arr:
                                total += v
                            return total
                """,
            },
        )
        # `store` is untyped, so kernel -> Registry.fetch is only a
        # method-name fallback edge; the hot perimeter must not cross it
        cg = build_callgraph([root])
        per = hot_path_perimeter(cg, KERNEL)
        assert "app.other.Registry.fetch" not in per.reached
        assert perf_paths([root], kernels=KERNEL).ok


# ----------------------------------------------------------------------
# runtime sanitizer: SAN004 / SAN005
# ----------------------------------------------------------------------
def _busy_src_workload():
    """Workload whose thunk burns time in a real non-perimeter src function."""

    def prepare(smoke):
        from repro.core.permutation import from_cycles

        def run():
            for _ in range(4000):
                from_cycles(6, [(0, 1)])
            return 4000

        return run

    return Workload("busy_cold", "app.none", "call", prepare)


def _trivial_workload(name="trivial"):
    def prepare(smoke):
        def run():
            return 100

        return run

    return Workload(name, "app.none", "unit", prepare)


class TestPerfSanitize:
    def test_san004_fires_on_hot_function_outside_perimeter(self, tmp_path):
        r = perf_sanitize(
            paths=[SRC],
            workloads=[_busy_src_workload()],
            budgets_path=tmp_path / "budgets.json",
            floor_s=0.002,
        )
        assert "SAN004" in codes(r)
        msg = next(f.message for f in r.findings if f.code == "SAN004")
        assert "from_cycles" in msg

    def test_san005_fires_on_budget_regression_and_clears_after_update(
        self, tmp_path
    ):
        budgets = tmp_path / "budgets.json"
        w = _trivial_workload()
        # forced regression: an absurdly tight budget
        budgets.write_text(
            json.dumps(
                {
                    "profiles": {
                        "full": {"trivial": {"per_unit_us": 1e-9, "units": 100}}
                    }
                }
            )
        )
        r = perf_sanitize(paths=[SRC], workloads=[w], budgets_path=budgets)
        assert "SAN005" in codes(r)
        assert "per" in next(f.message for f in r.findings if f.code == "SAN005")
        # --update-budgets rewrites with margin; the rerun must be clean
        r2 = perf_sanitize(paths=[SRC], workloads=[w], budgets_path=budgets, update=True)
        assert "SAN005" not in codes(r2)
        data = load_budgets(budgets)
        assert data["profiles"]["full"]["trivial"]["per_unit_us"] > 0
        r3 = perf_sanitize(paths=[SRC], workloads=[w], budgets_path=budgets)
        assert "SAN005" not in codes(r3)

    def test_san004_checks_every_scanned_root(self, tmp_path, monkeypatch):
        # the hot frame lives under the *second* root of the scan
        root = make_tree(
            tmp_path,
            {
                "busyapp/grind.py": """
                    def grind(n):
                        total = 0
                        for i in range(n):
                            total += i * i
                        return total
                """
            },
        )
        monkeypatch.syspath_prepend(str(root))

        def prepare(smoke):
            from busyapp.grind import grind

            def run():
                grind(300_000)
                return 1

            return run

        r = perf_sanitize(
            paths=[SRC, root],
            workloads=[Workload("grind", "app.none", "call", prepare)],
            budgets_path=tmp_path / "budgets.json",
            floor_s=0.002,
        )
        assert "SAN004" in codes(r)
        assert "grind" in next(f.message for f in r.findings if f.code == "SAN004")

    def test_update_preserves_other_profile(self, tmp_path):
        budgets = tmp_path / "budgets.json"
        m = run_workload(_trivial_workload(), smoke=True, repeats=1)
        update_budgets(budgets, [m], "smoke")
        m2 = run_workload(_trivial_workload("other"), smoke=False, repeats=1)
        update_budgets(budgets, [m2], "full")
        data = load_budgets(budgets)
        assert "trivial" in data["profiles"]["smoke"]
        assert "other" in data["profiles"]["full"]

    def test_rerecord_replaces_meta(self, tmp_path):
        path = tmp_path / "profiles.json"
        write_profile(path, "smoke", {"a": 1}, {"generated_by": "old tool", "note": "x"})
        data = write_profile(path, "full", {"b": 2}, {"note": "y"})
        assert data["_meta"] == {"note": "y"}
        assert json.loads(path.read_text())["_meta"] == {"note": "y"}
        assert data["profiles"] == {"smoke": {"a": 1}, "full": {"b": 2}}

    def test_registered_workloads_have_perimeter_kernels(self):
        from repro.check.perfsanitize import WORKLOADS

        roots = {k.qualname for k in HOT_PERIMETER}
        for w in WORKLOADS:
            assert w.kernel in roots, w.kernel


# ----------------------------------------------------------------------
# CLI + repo gate
# ----------------------------------------------------------------------
class TestCLI:
    def test_perf_exit_codes(self, tmp_path, capsys):
        bad = make_tree(
            tmp_path,
            {
                # impersonates a real perimeter root by module path, so the
                # default HOT_PERIMETER picks it up through the CLI
                "repro/core/ipgraph.py": """
                    import numpy as np

                    def build_ip_graph(arr: np.ndarray):
                        total = 0
                        for v in arr:
                            total += v
                        return total
                """
            },
        )
        assert check_main(["perf", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "RPR020" in out

    def test_repo_src_is_clean(self):
        assert check_main(["perf", str(SRC)]) == 0

    def test_measure_without_budget_file_fails_naming_it(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert check_main(["perf", "--measure", "--smoke"]) != 0
        assert "benchmarks/perf_budgets.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [["perf", "--smoke"], ["perf", "--budgets", "b.json", "src"]]
    )
    def test_measure_only_flags_need_measure(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            check_main(argv)
        assert exc.value.code != 0
        assert "--measure" in capsys.readouterr().err

    def test_help_lists_all_tiers(self, capsys):
        with pytest.raises(SystemExit) as exc:
            check_main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for tier in ("lint", "contracts", "dataflow", "sanitize", "perf"):
            assert tier in out

    def test_rule_catalogs_are_stable(self):
        assert set(PERF_RULES) == {
            "RPR020",
            "RPR021",
            "RPR022",
            "RPR023",
            "RPR024",
        }
        assert set(PERF_SANITIZE_RULES) == {"SAN004", "SAN005"}
        assert RULESET_VERSION >= 3

    def test_committed_budgets_cover_all_workloads(self):
        from repro.check.perfsanitize import WORKLOADS

        data = load_budgets(BUDGETS)
        for profile in ("smoke", "full"):
            assert set(data["profiles"][profile]) == {w.name for w in WORKLOADS}


# ----------------------------------------------------------------------
# runtime sanitizer: SAN006 recorded shape contracts
# ----------------------------------------------------------------------
def _fixture_workload(arrays, calls=None):
    """A one-catalog workload whose recording pass stores ``arrays()``;
    ``calls`` (a list) logs each prepare and each run."""

    def prepare(smoke):
        if calls is not None:
            calls.append("prepare")

        def run(record=None):
            if calls is not None:
                calls.append("time" if record is None else "record")
            if record is not None:
                record.update(arrays())
            return 1

        return run

    return Workload("fixture", "app.kern.kernel", "unit", prepare)


def _arrays_fixed():
    import numpy as np

    return {
        "grid": np.zeros((3, 4), dtype=np.float64),
        "ids": np.arange(7, dtype=np.int64),
    }


def _arrays_drifted():
    import numpy as np

    # same names, changed geometry/dtype; `ids` vanished, `extra` appeared
    return {
        "grid": np.zeros((3, 5), dtype=np.float32),
        "extra": np.zeros(2, dtype=np.int32),
    }


FIXED = _fixture_workload(_arrays_fixed)
DRIFTED = _fixture_workload(_arrays_drifted)


def shape_check(tmp_path, workloads, contracts=None, update=False):
    """``perf --measure --smoke`` over ``workloads`` with SAN006 alone in
    play: no scanned tree (no SAN004) and no budget file (no SAN005)."""
    return perf_sanitize(
        paths=[],
        smoke=True,
        budgets_path=tmp_path / "budgets.json",
        workloads=workloads,
        repeats=1,
        contracts_path=contracts or tmp_path / "contracts.json",
        update_contracts=update,
    )


class TestSAN006:
    def test_record_shapes_flattens_geometry(self):
        got = record_shapes(FIXED.prepare(True))
        assert got == {
            "grid": {"shape": [3, 4], "dtype": "float64"},
            "ids": {"shape": [7], "dtype": "int64"},
        }

    def test_uncontracted_workload_is_not_recorded(self, tmp_path):
        calls = []
        report = shape_check(tmp_path, [_fixture_workload(_arrays_fixed, calls)])
        assert report.ok and "record" not in calls

    def test_each_workload_is_prepared_once_timed_then_recorded(self, tmp_path):
        calls = []
        shape_check(tmp_path, [_fixture_workload(_arrays_fixed, calls)], update=True)
        assert calls[0] == "prepare" and calls.count("prepare") == 1
        assert calls[-1] == "record" and calls.count("record") == 1
        assert set(calls[1:-1]) == {"time"}

    def test_update_then_compare_then_drift(self, tmp_path):
        path = tmp_path / "contracts.json"
        report = shape_check(tmp_path, [FIXED], update=True)
        assert report.ok
        data = load_contracts(path)
        assert data["profiles"]["smoke"]["fixture"]["grid"]["shape"] == [3, 4]

        before = shape_check(tmp_path, [FIXED], update=False)
        assert before.ok

        report = shape_check(tmp_path, [DRIFTED], update=False)
        assert codes(report) == {"SAN006"}
        assert report.checked == before.checked
        msgs = "\n".join(f.message for f in report.findings)
        assert "(3, 5)" in msgs and "float32" in msgs  # geometry drift
        assert "`ids`" in msgs and "no longer records" in msgs
        assert "`extra`" in msgs and "no contract" in msgs
        assert all(f.path == "shapes[fixture]" for f in report.findings)

    def test_update_preserves_other_profile(self, tmp_path):
        path = tmp_path / "contracts.json"
        write_contracts(path, {"other": {"x": {"shape": [1], "dtype": "int64"}}}, "full")
        shape_check(tmp_path, [FIXED], update=True)
        data = load_contracts(path)
        assert data["profiles"]["full"]["other"]["x"]["shape"] == [1]
        assert "fixture" in data["profiles"]["smoke"]

    def test_committed_contracts_cover_all_workloads(self):
        data = load_contracts(CONTRACTS)
        names = {w.name for w in WORKLOADS}
        for profile in ("smoke", "full"):
            prof = data["profiles"][profile]
            assert set(prof) == names
            for arrays in prof.values():
                for entry in arrays.values():
                    assert isinstance(entry["shape"], list)
                    assert all(isinstance(d, int) for d in entry["shape"])
                    assert isinstance(entry["dtype"], str)

    def test_contracted_workloads_have_perimeter_kernels(self):
        # every committed shape contract belongs to a registered workload
        # whose kernel lies on the hot perimeter
        kernels = {w.name: w.kernel for w in WORKLOADS}
        roots = {k.qualname for k in HOT_PERIMETER}
        data = load_contracts(CONTRACTS)
        for profile in ("smoke", "full"):
            for name in data["profiles"][profile]:
                assert kernels.get(name) in roots, (profile, name)

    def test_smoke_workload_matches_committed_contracts(self, tmp_path):
        # the cheapest live workload end-to-end: closure_fast against the
        # committed smoke profile must be drift-free
        w = next(w for w in WORKLOADS if w.name == "closure_fast")
        report = shape_check(tmp_path, [w], contracts=CONTRACTS)
        # two checks: SAN004 (over no tree) and SAN006; no budget, no SAN005
        assert report.ok and report.checked == 2, report.render()


class TestMeasuredCLI:
    def test_measured_exit_codes(self, tmp_path, monkeypatch, capsys):
        import repro.check.perfsanitize as perfsanitize

        monkeypatch.setattr(perfsanitize, "WORKLOADS", (FIXED,))
        files = ["--budgets", str(tmp_path / "b.json"), "--contracts", str(tmp_path / "c.json")]
        argv = ["perf", str(tmp_path / "empty"), "--measure", "--smoke", *files]
        (tmp_path / "empty").mkdir()
        assert check_main([*argv, "--update-budgets", "--update-contracts"]) == 0
        assert check_main(argv) == 0
        monkeypatch.setattr(perfsanitize, "WORKLOADS", (DRIFTED,))
        assert check_main(argv) == 1
        assert "SAN006" in capsys.readouterr().out

    def test_measure_without_contract_file_fails_naming_it(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "benchmarks").mkdir()
        (tmp_path / "benchmarks" / "perf_budgets.json").write_text("{}")
        assert check_main(["perf", "--measure", "--smoke"]) == 2
        assert "benchmarks/shape_contracts.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["perf", "--contracts", "c.json"], ["perf", "--smoke", "--contracts", "c.json", "src"]],
    )
    def test_contract_flag_needs_measure(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            check_main(argv)
        assert exc.value.code != 0
        assert "--contracts" in capsys.readouterr().err

    def test_help_names_the_contract_flags_and_no_shapes_tier(self, capsys):
        with pytest.raises(SystemExit) as exc:
            check_main(["perf", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--update-contracts", "--contracts", "SAN006"):
            assert flag in out
        with pytest.raises(SystemExit) as exc:
            check_main(["shapes", "src"])
        assert exc.value.code == 2

    def test_rule_catalog_union_is_append_only(self):
        # retired codes (RPR030–RPR034) are never reused
        catalogs = (
            RULES,
            DATAFLOW_RULES,
            SANITIZE_RULES,
            PERF_RULES,
            PERF_SANITIZE_RULES,
            SHAPE_SANITIZE_RULES,
        )
        union = set().union(*catalogs)
        assert len(union) == sum(len(c) for c in catalogs)
        assert union == {
            *(f"RPR00{i}" for i in range(1, 6)),
            *(f"RPR01{i}" for i in range(3)),
            *(f"RPR02{i}" for i in range(5)),
            *(f"SAN00{i}" for i in range(1, 7)),
        }
        assert RULESET_VERSION == 4

    def test_ruleset_version_is_cache_key_material(self, monkeypatch):
        from repro.cache import cache_key

        k1 = cache_key("perf.t", a=1)
        monkeypatch.setattr("repro.cache.artifacts.RULESET_VERSION", 999)
        assert cache_key("perf.t", a=1) != k1
