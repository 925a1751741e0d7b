"""Seeded-violation tests for the determinism analyzer and sanitizer.

Every dataflow rule (RPR010–RPR012) gets a known-bad fixture tree that
must fire with the exact code and ``file:line`` anchor, plus a corrected
twin that must stay quiet — the rules themselves are regression-tested,
not just the clean state of the repo.  The runtime sanitizer is mutation-
tested the same way: a forced serial/parallel divergence and a forced
global mutation must both be caught.
"""

import os
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.check import (
    DATAFLOW_RULES,
    RULESET_VERSION,
    SANITIZE_RULES,
    build_callgraph,
    dataflow_paths,
    find_perimeters,
    sanitize_sweep,
    sanitize_tasks,
)
from repro.check.__main__ import main as check_main
from repro.check.findings import Report
from repro.check.sanitize import artifact_fingerprint, compare_streams

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


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


# ----------------------------------------------------------------------
# call graph
# ----------------------------------------------------------------------
class TestCallGraph:
    def test_call_and_callback_edges(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/work.py": """
                    def helper(x):
                        return x + 1

                    def worker(ctx, task):
                        return helper(task)

                    def submit(run, tasks):
                        return run(worker, None, tasks)
                """
            },
        )
        cg = build_callgraph([root])
        assert "app.work.worker" in cg.functions
        assert "app.work.helper" in cg.edges["app.work.worker"]
        # bare reference: worker passed as an argument, never called
        assert "app.work.worker" in cg.edges["app.work.submit"]
        assert cg.reachable(["app.work.submit"]) >= {
            "app.work.submit",
            "app.work.worker",
            "app.work.helper",
        }

    def test_reexport_alias_chain(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "pkg/__init__.py": "from .impl import thing\n",
                "pkg/impl.py": "def thing():\n    return 1\n",
                "pkg/user.py": """
                    import pkg

                    def use():
                        return pkg.thing()
                """,
            },
        )
        cg = build_callgraph([root])
        assert cg.canonical("pkg.thing") == "pkg.impl.thing"
        assert "pkg.impl.thing" in cg.edges["pkg.user.use"]

    def test_method_resolution_via_constructor_typed_local(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/engine.py": """
                    class Engine:
                        def __init__(self):
                            self.state = 0

                        def step(self):
                            return self.state

                    def drive():
                        e = Engine()
                        return e.step()
                """
            },
        )
        cg = build_callgraph([root])
        assert "app.engine.Engine.step" in cg.edges["app.engine.drive"]
        assert "app.engine.Engine.__init__" in cg.edges["app.engine.drive"]

    def test_super_call_resolves_to_first_defining_base(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/base.py": """
                    class Root:
                        def __init__(self):
                            self.x = 0

                        def close(self):
                            return 1

                    class Middle(Root):
                        def close(self):
                            return super().close()
                """,
                "app/leaf.py": """
                    from app.base import Middle

                    class Other:
                        def __init__(self):
                            self.y = 1

                    class Leaf(Middle):
                        def __init__(self):
                            super().__init__()

                        def close(self):
                            return super().close()

                        def flush(self):
                            return super().flush()
                """,
            },
        )
        cg = build_callgraph([root])
        # Middle defines no __init__: the search goes on to Root
        assert cg.edges["app.leaf.Leaf.__init__"] == {"app.base.Root.__init__"}
        assert cg.edges["app.leaf.Leaf.close"] == {"app.base.Middle.close"}
        assert cg.edges["app.base.Middle.close"] == {"app.base.Root.close"}
        # no scanned base defines it: no edge, not the name fallback
        assert cg.edges["app.leaf.Leaf.flush"] == set()
        assert not any(cg.fallback_edges.get(q) for q in cg.edges)

    def test_real_super_init_stays_in_product_code(self):
        cg = build_callgraph([SRC])
        out = cg.edges["repro.core.ipgraph.IPGraph.__init__"]
        assert "repro.core.network.Network.__init__" in out
        assert not any(q.startswith("repro.check") for q in out)

    def test_real_repo_perimeters(self):
        cg = build_callgraph([SRC])
        perims = find_perimeters(cg)
        assert "repro.fault.sweep._fault_trial" in perims["parallel"].roots
        assert "repro.check.invariants._family_task" in perims["parallel"].roots
        assert "repro.cache.tables.cached_next_hop_table" in perims["cache"].roots
        assert "repro.networks.registry.build" in perims["cache"].roots
        assert any(
            q.startswith("repro.fault.sweep.fault_sweep") for q in perims["seeded"].roots
        )


# ----------------------------------------------------------------------
# RPR010: nondeterminism sources
# ----------------------------------------------------------------------
class TestRPR010:
    def test_set_iteration_in_task_fires_with_anchor(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/sweep.py": """
                    from repro.parallel import run_tasks

                    def worker(ctx, task):
                        s = {task, 1, 2}
                        return [x * 2 for x in s]

                    def sweep(tasks):
                        return run_tasks(worker, None, tasks)
                """
            },
        )
        r = dataflow_paths([root])
        assert codes(r) == {"RPR010"}
        (f,) = r.findings
        assert f.path.endswith("sweep.py")
        assert f.line == line_of(root, "app/sweep.py", "x * 2 for x in s")
        assert "worker" in f.message or "parallel" in f.message

    def test_sorted_set_iteration_is_clean(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/sweep.py": """
                    from repro.parallel import run_tasks

                    def worker(ctx, task):
                        s = {task, 1, 2}
                        return [x * 2 for x in sorted(s)]

                    def sweep(tasks):
                        return run_tasks(worker, None, tasks)
                """
            },
        )
        assert dataflow_paths([root]).ok

    def test_nondeterminism_in_reachable_callee_fires(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/sweep.py": """
                    from repro.parallel import run_tasks

                    def helper(x):
                        return hash(str(x))

                    def worker(ctx, task):
                        return helper(task)

                    def sweep(tasks):
                        return run_tasks(worker, None, tasks)
                """
            },
        )
        r = dataflow_paths([root])
        assert codes(r) == {"RPR010"}
        (f,) = r.findings
        assert f.line == line_of(root, "app/sweep.py", "hash(str(x))")

    def test_wallclock_in_seeded_sim_fires_but_perf_counter_ok(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/sim/engine.py": """
                    import time

                    def run_model(seed):
                        t0 = time.perf_counter()
                        stamp = time.time()
                        return (stamp, time.perf_counter() - t0)
                """
            },
        )
        r = dataflow_paths([root])
        assert codes(r) == {"RPR010"}
        (f,) = r.findings
        assert f.line == line_of(root, "app/sim/engine.py", "time.time()")
        assert "seeded" in f.message

    def test_unsorted_listing_fires_sorted_is_clean(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/sim/loader.py": """
                    import os

                    def load_runs(seed):
                        good = sorted(os.listdir("runs"))
                        bad = os.listdir("runs")
                        return good, bad
                """
            },
        )
        r = dataflow_paths([root])
        assert len(r.findings) == 1
        assert r.findings[0].line == line_of(
            root, "app/sim/loader.py", "bad = os.listdir"
        )

    def test_global_rng_in_task_fires(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/sweep.py": """
                    import random

                    from repro.parallel import run_tasks

                    def worker(ctx, task):
                        return random.random()

                    def sweep(tasks):
                        return run_tasks(worker, None, tasks)
                """
            },
        )
        r = dataflow_paths([root])
        assert codes(r) == {"RPR010"}

    def test_noqa_suppresses(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/sweep.py": """
                    from repro.parallel import run_tasks

                    def worker(ctx, task):
                        return hash(str(task))  # repro: noqa[RPR010]

                    def sweep(tasks):
                        return run_tasks(worker, None, tasks)
                """
            },
        )
        assert dataflow_paths([root]).ok


# ----------------------------------------------------------------------
# RPR011: worker mutation of module state
# ----------------------------------------------------------------------
class TestRPR011:
    def test_mutator_call_on_module_global_fires(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/sweep.py": """
                    from repro.parallel import run_tasks

                    RESULTS = []

                    def worker(ctx, task):
                        RESULTS.append(task)
                        return task

                    def sweep(tasks):
                        return run_tasks(worker, None, tasks)
                """
            },
        )
        r = dataflow_paths([root])
        assert codes(r) == {"RPR011"}
        (f,) = r.findings
        assert f.line == line_of(root, "app/sweep.py", "RESULTS.append")
        assert "RESULTS" in f.message

    def test_global_rebind_fires(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/sweep.py": """
                    from repro.parallel import run_tasks

                    COUNT = 0

                    def worker(ctx, task):
                        global COUNT
                        COUNT += 1
                        return COUNT

                    def sweep(tasks):
                        return run_tasks(worker, None, tasks)
                """
            },
        )
        r = dataflow_paths([root])
        assert "RPR011" in codes(r)
        assert any(
            f.line == line_of(root, "app/sweep.py", "COUNT += 1") for f in r.findings
        )

    def test_subscript_store_into_module_global_fires(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/sweep.py": """
                    from repro.parallel import run_tasks

                    STATE = {}

                    def worker(ctx, task):
                        STATE[task] = 1
                        return task

                    def sweep(tasks):
                        return run_tasks(worker, None, tasks)
                """
            },
        )
        r = dataflow_paths([root])
        assert codes(r) == {"RPR011"}

    def test_local_accumulator_is_clean(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/sweep.py": """
                    from repro.parallel import run_tasks

                    def worker(ctx, task):
                        acc = []
                        acc.append(task)
                        return acc

                    def sweep(tasks):
                        return run_tasks(worker, None, tasks)
                """
            },
        )
        assert dataflow_paths([root]).ok


# ----------------------------------------------------------------------
# RPR012: cache-key incompleteness
# ----------------------------------------------------------------------
class TestRPR012:
    def test_underkeyed_builder_fires_with_anchor(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/builder.py": """
                    from repro.cache import cache_key

                    def build_thing(name, depth, cache):
                        key = cache_key("thing", name=name)
                        data = [0] * depth
                        return (key, data)
                """
            },
        )
        r = dataflow_paths([root])
        assert codes(r) == {"RPR012"}
        (f,) = r.findings
        assert f.line == line_of(root, "app/builder.py", "key = cache_key")
        assert "`depth`" in f.message
        assert "`cache`" not in f.message  # exempt handle param

    def test_coverage_through_local_flow_is_clean(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/builder.py": """
                    from repro.cache import cache_key

                    def build_other(name, depth):
                        material = [name]
                        material.append(depth)
                        key = cache_key("other", parts=material)
                        return (key, [0] * depth)
                """
            },
        )
        assert dataflow_paths([root]).ok

    def test_rebound_module_global_read_fires(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/builder.py": """
                    from repro.cache import cache_key

                    _MODE = "fast"

                    def set_mode(m):
                        global _MODE
                        _MODE = m

                    def build_g(name):
                        key = cache_key("g", name=name)
                        return (key, _MODE)
                """
            },
        )
        r = dataflow_paths([root])
        assert codes(r) == {"RPR012"}
        assert "_MODE" in r.findings[0].message

    def test_noqa_suppresses(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/builder.py": """
                    from repro.cache import cache_key

                    def build_thing(name, depth):
                        key = cache_key("thing", name=name)  # repro: noqa[RPR012]
                        return (key, [0] * depth)
                """
            },
        )
        assert dataflow_paths([root]).ok


# ----------------------------------------------------------------------
# runtime sanitizer
# ----------------------------------------------------------------------
def _det_task(ctx, task):
    return {"v": task * ctx, "sq": task * task}


def _pid_task(ctx, task):
    # forced serial/parallel divergence: workers see their own pid
    return (task, os.getpid())


_ACC = []


def _mut_task(ctx, task):
    _ACC.append(task)
    return task


class TestSanitizerTasks:
    def test_deterministic_tasks_clean(self):
        r = sanitize_tasks(_det_task, 3, [1, 2, 3], jobs=2)
        assert r.ok
        assert r.checked >= 3

    def test_forced_serial_parallel_divergence_caught(self):
        r = sanitize_tasks(_pid_task, None, [1, 2, 3], jobs=2)
        assert "SAN001" in codes(r)
        (f,) = [f for f in r.findings if f.code == "SAN001"]
        assert "parallel.result" in f.message  # names the first bad artifact

    def test_global_mutation_caught(self):
        r = sanitize_tasks(_mut_task, None, [1, 2], jobs=2)
        assert codes(r) == {"SAN003"}
        assert any("_ACC" in f.message for f in r.findings)

    def test_compare_streams_pinpoints_first_divergence(self):
        a = [("net", "aa"), ("t0", "bb"), ("t1", "cc")]
        b = [("net", "aa"), ("t0", "xx"), ("t1", "yy")]
        rep = Report()
        compare_streams(a, b, "one", "two", "SAN001", rep)
        (f,) = rep.findings
        assert "`t0`" in f.message and "index 1" in f.message

    def test_compare_streams_length_mismatch(self):
        rep = Report()
        compare_streams([("a", "1")], [("a", "1"), ("b", "2")], "x", "y", "SAN002", rep)
        assert codes(rep) == {"SAN002"}

    def test_fingerprint_canonical(self):
        assert artifact_fingerprint({"b": 2, "a": 1}) == artifact_fingerprint(
            {"a": 1, "b": 2}
        )
        x = np.arange(6, dtype=np.int32)
        y = x.copy()
        y[3] = 99
        assert artifact_fingerprint(x) == artifact_fingerprint(x.copy())
        assert artifact_fingerprint(x) != artifact_fingerprint(y)
        assert artifact_fingerprint(x) != artifact_fingerprint(
            x.astype(np.int64)
        )  # dtype is part of the identity


class TestSanitizeSweep:
    def test_smoke_sweep_is_clean(self):
        r = sanitize_sweep(
            family="hsn",
            params={"l": 2, "n": 3},
            fault_counts=(0, 1),
            trials=1,
            cycles=20,
            jobs=2,
        )
        assert r.ok, r.render()
        assert r.checked >= 4  # tasks + two stream comparisons


# ----------------------------------------------------------------------
# CLI + repo gate
# ----------------------------------------------------------------------
class TestCLI:
    def test_dataflow_exit_codes(self, tmp_path, capsys):
        bad = make_tree(
            tmp_path,
            {
                "app/sweep.py": """
                    from repro.parallel import run_tasks

                    def worker(ctx, task):
                        return hash(str(task))

                    def sweep(tasks):
                        return run_tasks(worker, None, tasks)
                """
            },
        )
        assert check_main(["dataflow", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "RPR010" in out

    def test_repo_src_is_clean(self):
        assert check_main(["dataflow", str(SRC)]) == 0

    def test_rule_catalogs_are_stable(self):
        assert set(DATAFLOW_RULES) == {"RPR010", "RPR011", "RPR012"}
        assert set(SANITIZE_RULES) == {"SAN001", "SAN002", "SAN003"}
        assert RULESET_VERSION >= 2


# ----------------------------------------------------------------------
# cache provenance
# ----------------------------------------------------------------------
class TestCacheProvenance:
    def test_ruleset_version_is_key_material(self, monkeypatch):
        from repro.cache import cache_key

        k1 = cache_key("t", a=1)
        monkeypatch.setattr("repro.cache.artifacts.RULESET_VERSION", 999)
        assert cache_key("t", a=1) != k1

    def test_manifest_round_trip_and_clear(self, tmp_path):
        from repro import cache as cache_mod
        from repro import networks

        prev = cache_mod.get_cache()
        try:
            store = cache_mod.configure(tmp_path / "cache", min_nodes=1)
            net = networks.build("hypercube", n=4)
            prov = store.provenance(net.cache_key)
            assert prov is not None
            assert prov["kind"] == "registry.build"
            assert prov["ruleset"] == RULESET_VERSION
            assert prov["schema"] >= 1 and prov["bytes"] > 0
            store.clear()
            assert store.provenance(net.cache_key) is None
            assert not list(store.root.glob("*/*.json"))
        finally:
            cache_mod.set_cache(prev)
