"""Seeded-violation tests for the shape & broadcast analyzer and sanitizer.

Every shape rule (RPR030–RPR034) gets a known-bad fixture tree that must
fire with the exact code and ``file:line`` anchor, plus a corrected twin
that must stay quiet — mirroring ``test_check_perf.py``.  The symbolic
shape interpreter gets its own inference-unit suite (ctors, CSR
attributes, ufunc broadcasting, ``reduceat``, ``-1`` reshape), and the
runtime sanitizer is mutation-tested: forced SAN006 drift in every
direction (changed geometry, vanished array, uncontracted array) must be
caught, and ``--update-contracts`` must clear it without clobbering the
other profile.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.check import (
    HOT_PERIMETER,
    RULESET_VERSION,
    SERVE_SHAPE_ROOTS,
    SHAPE_RULES,
    SHAPE_SANITIZE_RULES,
    HotKernel,
    build_callgraph,
    shape_paths,
    shape_sanitize,
)
from repro.check.__main__ import main as check_main
from repro.check.callgraph import FunctionResolver
from repro.check.shapeinfer import (
    ShapeInterp,
    SymDim,
    broadcast_shapes,
    concat_shapes,
    dims_equal,
    parse_shape,
    reduce_shape,
    reshape_shape,
    stack_shapes,
    unify_shapes,
)
from repro.check.perfsanitize import WORKLOADS, Workload
from repro.check.shapesanitize import (
    load_contracts,
    record_shapes,
    update_contracts,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
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


def infer_kernel(tmp_path, body):
    """Run :class:`ShapeInterp` over a fixture kernel; ``{name: shape}``."""
    root = make_tree(tmp_path, {"app/kern.py": body})
    cg = build_callgraph([root])
    fn = cg.functions["app.kern.kernel"]
    resolver = FunctionResolver(cg, cg.modules[fn.module], fn)
    interp = ShapeInterp(fn.node, resolver)
    interp.run()
    shapes = {}
    for _node, name, shape in interp.bindings:
        shapes[name] = shape
    return shapes


# ----------------------------------------------------------------------
# shape algebra units: the provable-only contract of the domain
# ----------------------------------------------------------------------
class TestShapeAlgebra:
    def test_parse_shape_symbols_offsets_and_literals(self):
        assert parse_shape("(n, 3)") == (SymDim("n"), 3)
        assert parse_shape("(n+1,)") == (SymDim("n", 1),)
        assert parse_shape("(csr.nnz,)") == (SymDim("csr.nnz"),)
        assert parse_shape("(q, ?)") == (SymDim("q"), None)
        with pytest.raises(ValueError):
            parse_shape("(n ** 2,)")

    def test_dims_equal_is_three_valued(self):
        assert dims_equal(3, 3) is True
        assert dims_equal(3, 4) is False
        assert dims_equal(SymDim("n"), SymDim("n")) is True
        assert dims_equal(SymDim("n"), SymDim("n", 1)) is False
        assert dims_equal(SymDim("n"), SymDim("m")) is None
        assert dims_equal(SymDim("n"), 3) is None
        assert dims_equal(None, 3) is None

    def test_broadcast_proves_int_and_offset_conflicts_only(self):
        _, issue = broadcast_shapes((3,), (4,))
        assert issue is not None and issue.kind == "broadcast"
        _, issue = broadcast_shapes((SymDim("n"),), (SymDim("n", 1),))
        assert issue is not None and issue.kind == "broadcast"
        # a foreign symbol might be 1 at runtime: stays silent
        result, issue = broadcast_shapes((SymDim("n"),), (SymDim("m"),))
        assert issue is None and result == (None,)
        result, issue = broadcast_shapes((SymDim("n"), 1), (3,))
        assert issue is None and result == (SymDim("n"), 3)

    def test_broadcast_flags_rank_promotion(self):
        n = SymDim("n")
        result, issue = broadcast_shapes((n, 1), (n,))
        assert result == (n, n)
        assert issue is not None and issue.kind == "rank_promote"
        # (1, 1) against (1,) is degenerate, not a blow-up
        _, issue = broadcast_shapes((1, 1), (1,))
        assert issue is None

    def test_reduce_shape_validates_axis(self):
        assert reduce_shape((4, 5), 1) == ((4,), None)
        assert reduce_shape((4, 5), None) == ((), None)
        assert reduce_shape((4, 5), 0, keepdims=True) == ((1, 5), None)
        _, issue = reduce_shape((4, 5), 2)
        assert issue is not None and issue.kind == "axis"
        _, issue = reduce_shape(None, 3, rank_hint=2)
        assert issue is not None and issue.kind == "axis"

    def test_reshape_proves_count_and_hole_errors(self):
        assert reshape_shape((3, 4), (2, 6)) == ((2, 6), None)
        assert reshape_shape((12,), (3, -1)) == ((3, 4), None)
        _, issue = reshape_shape((3, 4), (5, 2))
        assert issue is not None and issue.kind == "reshape"
        _, issue = reshape_shape((3, 4), (-1, -1))
        assert issue is not None and issue.kind == "reshape"
        _, issue = reshape_shape((12,), (5, -1))
        assert issue is not None and issue.kind == "reshape"
        # symbolic element count: nothing provable, no issue
        _, issue = reshape_shape((SymDim("n"), 4), (5, 2))
        assert issue is None

    def test_concat_and_stack_prove_geometry(self):
        assert concat_shapes([(2, 3), (4, 3)], axis=0) == ((6, 3), None)
        _, issue = concat_shapes([(2, 3), (2, 4)], axis=0)
        assert issue is not None and issue.kind == "concat"
        _, issue = concat_shapes([(2, 3), (2,)], axis=0)
        assert issue is not None and issue.kind == "concat"
        assert stack_shapes([(3,), (3,)], axis=0) == ((2, 3), None)
        _, issue = stack_shapes([(3,), (4,)], axis=0)
        assert issue is not None and issue.kind == "stack"

    def test_unify_shapes_shares_symbol_bindings(self):
        bindings = {}
        assert unify_shapes(parse_shape("(q,)"), (4,), bindings) is None
        conflict = unify_shapes(parse_shape("(q,)"), (5,), bindings)
        assert conflict is not None and "`q`" in conflict
        conflict = unify_shapes(parse_shape("(q,)"), (4, 5), bindings)
        assert conflict is not None and "rank" in conflict


# ----------------------------------------------------------------------
# interpreter inference units
# ----------------------------------------------------------------------
class TestShapeInference:
    def test_ctors_and_annotations_seed_symbolic_shapes(self, tmp_path):
        shapes = infer_kernel(
            tmp_path,
            """
            import numpy as np

            def kernel(n: int, arr: "(n, 3)"):
                grid = np.zeros((n, 3))
                flat = np.zeros(n)
                like = np.zeros_like(arr)
                return grid
            """,
        )
        assert shapes["grid"] == (SymDim("n"), 3)
        assert shapes["flat"] == (SymDim("n"),)
        assert shapes["like"] == (SymDim("n"), 3)

    def test_csr_attributes_and_slice_offsets(self, tmp_path):
        shapes = infer_kernel(
            tmp_path,
            """
            import numpy as np

            def kernel(csr):
                indptr = csr.indptr
                starts = csr.indptr[:-1]
                counts = np.diff(csr.indptr)
                idx = csr.indices
                vals = csr.data
                return starts
            """,
        )
        assert shapes["indptr"] == (SymDim("csr.rows", 1),)
        assert shapes["starts"] == (SymDim("csr.rows"),)
        assert shapes["counts"] == (SymDim("csr.rows"),)
        assert shapes["idx"] == (SymDim("csr.nnz"),)
        assert shapes["vals"] == (SymDim("csr.nnz"),)

    def test_ufunc_broadcast_and_reductions(self, tmp_path):
        shapes = infer_kernel(
            tmp_path,
            """
            import numpy as np

            def kernel(n: int):
                grid = np.zeros((n, 4))
                row = np.zeros(4)
                both = grid + row
                per_row = both.sum(axis=1)
                total = both.sum()
                lo = np.minimum(per_row, 0.0)
                return total
            """,
        )
        assert shapes["both"] == (SymDim("n"), 4)
        assert shapes["per_row"] == (SymDim("n"),)
        assert shapes["total"] == ()
        assert shapes["lo"] == (SymDim("n"),)

    def test_reduceat_takes_indices_extent(self, tmp_path):
        shapes = infer_kernel(
            tmp_path,
            """
            import numpy as np

            def kernel(csr):
                starts = csr.indptr[:-1]
                sums = np.add.reduceat(csr.data, starts)
                return sums
            """,
        )
        assert shapes["sums"] == (SymDim("csr.rows"),)

    def test_reshape_hole_indexing_and_newaxis(self, tmp_path):
        shapes = infer_kernel(
            tmp_path,
            """
            import numpy as np

            def kernel():
                flat = np.arange(12)
                grid = flat.reshape(3, -1)
                first = grid[0]
                col = flat[:, np.newaxis]
                back = grid.ravel()
                return back
            """,
        )
        assert shapes["flat"] == (12,)
        assert shapes["grid"] == (3, 4)
        assert shapes["first"] == (4,)
        assert shapes["col"] == (12, 1)
        assert shapes["back"] == (12,)


# ----------------------------------------------------------------------
# RPR030: provably incompatible / rank-promoting broadcasts
# ----------------------------------------------------------------------
class TestRPR030:
    def test_rank_promoting_broadcast_fires_with_anchor(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/kern.py": """
                    import numpy as np

                    def kernel(n: int):
                        col = np.zeros((n, 1))
                        flat = np.zeros(n)
                        blown = col + flat
                        return blown
                """
            },
        )
        report = shape_paths([root], kernels=KERNEL)
        assert codes(report) == {"RPR030"}
        path, line = anchor(report, "RPR030")
        assert path.endswith("app/kern.py")
        assert line == line_of(root, "app/kern.py", "blown = col + flat")

    def test_known_int_mismatch_and_indptr_offset_fire(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/kern.py": """
                    import numpy as np

                    def kernel(csr):
                        a = np.zeros(3)
                        b = np.ones(4)
                        bad_ints = a + b
                        starts = csr.indptr[:-1]
                        bad_offsets = starts * csr.indptr
                        return bad_ints
                """
            },
        )
        report = shape_paths([root], kernels=KERNEL)
        lines = {f.line for f in report.findings if f.code == "RPR030"}
        assert line_of(root, "app/kern.py", "bad_ints = a + b") in lines
        assert line_of(root, "app/kern.py", "bad_offsets = ") in lines

    def test_ravelled_twin_is_clean(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/kern.py": """
                    import numpy as np

                    def kernel(n: int):
                        col = np.zeros((n, 1))
                        flat = np.zeros(n)
                        good = col.ravel() + flat
                        outer = col + flat[np.newaxis, :]
                        return good + outer.sum(axis=1)
                """
            },
        )
        report = shape_paths([root], kernels=KERNEL)
        assert report.ok, report.render()

    def test_foreign_symbols_stay_silent(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/kern.py": """
                    import numpy as np

                    def kernel(n: int, m: int):
                        a = np.zeros(n)
                        b = np.zeros(m)
                        maybe = a + b
                        return maybe
                """
            },
        )
        report = shape_paths([root], kernels=KERNEL)
        assert report.ok, report.render()


# ----------------------------------------------------------------------
# RPR031: reduction axis out of rank
# ----------------------------------------------------------------------
class TestRPR031:
    def test_axis_out_of_rank_fires_with_anchor(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/kern.py": """
                    import numpy as np

                    def kernel(n: int):
                        grid = np.zeros((n, 4))
                        bad = grid.sum(axis=2)
                        also_bad = np.amin(grid, axis=-3)
                        return bad + also_bad
                """
            },
        )
        report = shape_paths([root], kernels=KERNEL)
        lines = {f.line for f in report.findings if f.code == "RPR031"}
        assert line_of(root, "app/kern.py", "bad = grid.sum(axis=2)") in lines
        assert line_of(root, "app/kern.py", "also_bad = ") in lines

    def test_valid_axes_are_clean(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/kern.py": """
                    import numpy as np

                    def kernel(n: int):
                        grid = np.zeros((n, 4))
                        ok = grid.sum(axis=1)
                        neg = np.amin(grid, axis=-2)
                        return ok + neg
                """
            },
        )
        report = shape_paths([root], kernels=KERNEL)
        assert report.ok, report.render()


# ----------------------------------------------------------------------
# RPR032: reshape/concatenate/stack geometry
# ----------------------------------------------------------------------
class TestRPR032:
    def test_count_mismatch_and_double_hole_fire(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/kern.py": """
                    import numpy as np

                    def kernel():
                        grid = np.zeros((3, 4))
                        bad_count = grid.reshape(5, 2)
                        bad_holes = grid.reshape(-1, -1)
                        return bad_count
                """
            },
        )
        report = shape_paths([root], kernels=KERNEL)
        lines = {f.line for f in report.findings if f.code == "RPR032"}
        assert line_of(root, "app/kern.py", "bad_count = ") in lines
        assert line_of(root, "app/kern.py", "bad_holes = ") in lines

    def test_off_axis_concat_mismatch_fires_with_anchor(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/kern.py": """
                    import numpy as np

                    def kernel():
                        a = np.zeros((2, 3))
                        b = np.zeros((2, 4))
                        bad = np.concatenate([a, b], axis=0)
                        return bad
                """
            },
        )
        report = shape_paths([root], kernels=KERNEL)
        assert codes(report) == {"RPR032"}
        _, line = anchor(report, "RPR032")
        assert line == line_of(root, "app/kern.py", "bad = np.concatenate")

    def test_correct_geometry_is_clean(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/kern.py": """
                    import numpy as np

                    def kernel():
                        grid = np.zeros((3, 4))
                        fine = grid.reshape(2, 6)
                        hole = grid.reshape(3, -1)
                        a = np.zeros((2, 3))
                        b = np.zeros((2, 4))
                        joined = np.concatenate([a, b], axis=1)
                        stacked = np.stack([a, a], axis=0)
                        return fine, hole, joined, stacked
                """
            },
        )
        report = shape_paths([root], kernels=KERNEL)
        assert report.ok, report.render()


# ----------------------------------------------------------------------
# RPR033: aliasing / read-only writes
# ----------------------------------------------------------------------
class TestRPR033:
    def test_write_into_readonly_mmap_fires_with_anchor(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/kern.py": """
                    import numpy as np

                    def kernel(path):
                        table = np.load(path, mmap_mode="r")
                        table[0] = 1
                        return table
                """
            },
        )
        report = shape_paths([root], kernels=KERNEL)
        assert codes(report) == {"RPR033"}
        _, line = anchor(report, "RPR033")
        assert line == line_of(root, "app/kern.py", "table[0] = 1")

    def test_readonly_provenance_survives_views_and_aliases(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/kern.py": """
                    import numpy as np

                    def kernel(cache, key):
                        shard = cache.load_mmap(key)
                        window = shard[2:8]
                        alias = window
                        alias[0] = -1
                        return shard
                """
            },
        )
        report = shape_paths([root], kernels=KERNEL)
        assert codes(report) == {"RPR033"}
        _, line = anchor(report, "RPR033")
        assert line == line_of(root, "app/kern.py", "alias[0] = -1")

    def test_view_write_aliasing_later_read_fires(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/kern.py": """
                    import numpy as np

                    def kernel(n: int):
                        base = np.zeros(n)
                        head = base[:4]
                        head[0] = 1.0
                        return base.sum()
                """
            },
        )
        report = shape_paths([root], kernels=KERNEL)
        assert codes(report) == {"RPR033"}
        _, line = anchor(report, "RPR033")
        assert line == line_of(root, "app/kern.py", "head[0] = 1.0")

    def test_copied_slice_twin_is_clean(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/kern.py": """
                    import numpy as np

                    def kernel(path, n: int):
                        table = np.load(path, mmap_mode="r")
                        local = np.array(table)
                        local[0] = 1
                        base = np.zeros(n)
                        head = np.zeros(4)
                        head[0] = 1.0
                        return local, base.sum() + head.sum()
                """
            },
        )
        report = shape_paths([root], kernels=KERNEL)
        assert report.ok, report.render()


# ----------------------------------------------------------------------
# RPR034: declared contract drift
# ----------------------------------------------------------------------
class TestRPR034:
    KERNEL34 = (
        HotKernel(
            "app.kern.kernel",
            "fixture kernel",
            shape=(("out", "(q,)"), ("other", "(q,)"), ("return", "(q,)")),
        ),
    )

    def test_inconsistent_symbol_binding_fires_with_anchor(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/kern.py": """
                    import numpy as np

                    def kernel():
                        out = np.zeros(4)
                        other = np.zeros(5)
                        return out
                """
            },
        )
        report = shape_paths([root], kernels=self.KERNEL34)
        assert codes(report) == {"RPR034"}
        _, line = anchor(report, "RPR034")
        assert line == line_of(root, "app/kern.py", "other = np.zeros(5)")
        msg = report.findings[0].message
        assert "`other`" in msg and "`q`" in msg

    def test_rank_drift_on_return_fires(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/kern.py": """
                    import numpy as np

                    def kernel():
                        out = np.zeros(4)
                        other = np.zeros(4)
                        return np.zeros((4, 2))
                """
            },
        )
        report = shape_paths([root], kernels=self.KERNEL34)
        assert codes(report) == {"RPR034"}
        _, line = anchor(report, "RPR034")
        assert line == line_of(root, "app/kern.py", "return np.zeros((4, 2))")

    def test_consistent_bindings_are_clean(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/kern.py": """
                    import numpy as np

                    def kernel():
                        out = np.zeros(4)
                        other = np.zeros(4)
                        return out + other
                """
            },
        )
        report = shape_paths([root], kernels=self.KERNEL34)
        assert report.ok, report.render()

    def test_seeded_contracts_feed_downstream_inference(self, tmp_path):
        # the declared (q,) facts are live inside the body: adding a
        # contracted (q,) name to a known (q+1,)-style array must fire
        kernels = (
            HotKernel(
                "app.kern.kernel",
                "fixture kernel",
                shape=(("queries", "(q,)"),),
            ),
        )
        root = make_tree(
            tmp_path,
            {
                "app/kern.py": """
                    import numpy as np

                    def kernel(queries):
                        wrong = np.zeros(3)
                        yes = queries + np.zeros(4)
                        bad = wrong + np.ones(4)
                        return bad
                """
            },
        )
        report = shape_paths([root], kernels=kernels)
        assert "RPR030" in codes(report)

    def test_malformed_declared_contract_fails_loudly(self, tmp_path):
        bad_kernel = (
            HotKernel(
                "app.kern.kernel", "fixture kernel", shape=(("x", "(n ** 2,)"),)
            ),
        )
        root = make_tree(
            tmp_path,
            {
                "app/kern.py": """
                    def kernel():
                        return 0
                """
            },
        )
        with pytest.raises(ValueError):
            shape_paths([root], kernels=bad_kernel)


# ----------------------------------------------------------------------
# suppression
# ----------------------------------------------------------------------
class TestNoqa:
    def test_line_noqa_suppresses_one_code(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/kern.py": """
                    import numpy as np

                    def kernel():
                        a = np.zeros(3)
                        b = np.ones(4)
                        bad = a + b  # repro: noqa[RPR030]
                        worse = a * b
                        return bad + worse
                """
            },
        )
        report = shape_paths([root], kernels=KERNEL)
        lines = {f.line for f in report.findings if f.code == "RPR030"}
        assert line_of(root, "app/kern.py", "worse = a * b") in lines
        assert line_of(root, "app/kern.py", "bad = a + b") not in lines

    def test_def_line_noqa_suppresses_whole_function(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/kern.py": """
                    import numpy as np

                    def kernel():  # repro: noqa[RPR030]
                        a = np.zeros(3)
                        b = np.ones(4)
                        bad = a + b
                        worse = a * b
                        return bad + worse
                """
            },
        )
        report = shape_paths([root], kernels=KERNEL)
        assert report.ok, report.render()

    def test_def_line_noqa_does_not_cover_other_codes(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/kern.py": """
                    import numpy as np

                    def kernel():  # repro: noqa[RPR030]
                        a = np.zeros(3)
                        b = np.ones(4)
                        bad = a + b
                        grid = np.zeros((3, 4))
                        worse = grid.sum(axis=2)
                        return bad + worse
                """
            },
        )
        report = shape_paths([root], kernels=KERNEL)
        assert codes(report) == {"RPR031"}


# ----------------------------------------------------------------------
# perimeter wiring
# ----------------------------------------------------------------------
class TestPerimeter:
    def test_serve_roots_extend_the_perf_perimeter(self):
        perf_quals = {k.qualname for k in HOT_PERIMETER}
        serve_quals = {k.qualname for k in SERVE_SHAPE_ROOTS}
        assert not perf_quals & serve_quals
        assert "repro.serve.workers.parallel_resolve" in serve_quals

    def test_outside_perimeter_is_not_scanned(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "app/kern.py": """
                    import numpy as np

                    def kernel():
                        return 0

                    def bystander():
                        a = np.zeros(3)
                        b = np.ones(4)
                        return a + b
                """
            },
        )
        report = shape_paths([root], kernels=KERNEL)
        assert report.ok, report.render()

    def test_real_kernel_contracts_parse_and_infer(self):
        # the committed HotKernel.shape declarations must parse, and the
        # NextHopTable root must actually produce inferable CSR bindings
        report = shape_paths([SRC])
        assert report.ok, report.render()
        assert report.checked > 0


# ----------------------------------------------------------------------
# SAN006: recorded shape contracts
# ----------------------------------------------------------------------
def _fixture_workload(arrays):
    """A one-catalog workload whose recording pass stores ``arrays()``."""

    def prepare(smoke):
        def run(record=None):
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


class TestSAN006:
    def test_record_shapes_flattens_geometry(self):
        got = record_shapes(FIXED, smoke=True)
        assert got == {
            "grid": {"shape": [3, 4], "dtype": "float64"},
            "ids": {"shape": [7], "dtype": "int64"},
        }

    def test_uncontracted_workload_is_skipped(self, tmp_path):
        path = tmp_path / "contracts.json"
        report = shape_sanitize(
            smoke=True, contracts_path=path, update=False, workloads=[FIXED]
        )
        assert report.ok and report.checked == 0

    def test_update_then_compare_then_drift(self, tmp_path):
        path = tmp_path / "contracts.json"
        report = shape_sanitize(
            smoke=True, contracts_path=path, update=True, workloads=[FIXED]
        )
        assert report.ok
        data = load_contracts(path)
        assert data["profiles"]["smoke"]["fixture"]["grid"]["shape"] == [3, 4]

        report = shape_sanitize(
            smoke=True, contracts_path=path, update=False, workloads=[FIXED]
        )
        assert report.ok and report.checked == 1

        report = shape_sanitize(
            smoke=True, contracts_path=path, update=False, workloads=[DRIFTED]
        )
        assert codes(report) == {"SAN006"}
        msgs = "\n".join(f.message for f in report.findings)
        assert "(3, 5)" in msgs and "float32" in msgs  # geometry drift
        assert "`ids`" in msgs and "no longer records" in msgs
        assert "`extra`" in msgs and "no contract" in msgs
        assert all(f.path == "shapes[fixture]" for f in report.findings)

    def test_update_preserves_other_profile(self, tmp_path):
        path = tmp_path / "contracts.json"
        update_contracts(
            path, {"other": {"x": {"shape": [1], "dtype": "int64"}}}, "full"
        )
        shape_sanitize(smoke=True, contracts_path=path, update=True, workloads=[FIXED])
        data = load_contracts(path)
        assert data["profiles"]["full"]["other"]["x"]["shape"] == [1]
        assert "fixture" in data["profiles"]["smoke"]

    def test_registered_probes_have_perimeter_kernels(self):
        quals = {k.qualname for k in HOT_PERIMETER} | {
            k.qualname for k in SERVE_SHAPE_ROOTS
        }
        for probe in WORKLOADS:
            assert probe.kernel in quals, probe.name

    def test_committed_contracts_cover_all_probes(self):
        data = load_contracts(CONTRACTS)
        names = {p.name for p in WORKLOADS}
        for profile in ("smoke", "full"):
            prof = data["profiles"][profile]
            assert set(prof) == names
            for arrays in prof.values():
                for entry in arrays.values():
                    assert isinstance(entry["shape"], list)
                    assert all(isinstance(d, int) for d in entry["shape"])
                    assert isinstance(entry["dtype"], str)

    def test_smoke_probes_match_committed_contracts(self):
        # the cheapest live probe end-to-end: closure_fast against the
        # committed smoke profile must be drift-free
        probe = next(p for p in WORKLOADS if p.name == "closure_fast")
        report = shape_sanitize(
            smoke=True, contracts_path=CONTRACTS, update=False, workloads=[probe]
        )
        assert report.ok, report.render()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCLI:
    def test_shapes_exit_codes(self, tmp_path, capsys):
        bad = make_tree(
            tmp_path,
            {
                # impersonates a real perimeter root by module path, so the
                # default HOT_PERIMETER picks it up through the CLI
                "repro/core/ipgraph.py": """
                    import numpy as np

                    def build_ip_graph(n: int):
                        col = np.zeros((n, 1))
                        flat = np.zeros(n)
                        return col + flat
                """
            },
        )
        assert check_main(["shapes", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "RPR030" in out

    def test_repo_src_is_clean(self):
        assert check_main(["shapes", str(SRC)]) == 0

    def test_measure_without_contract_file_fails_naming_it(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert check_main(["shapes", "--measure", "--smoke"]) != 0
        assert "benchmarks/shape_contracts.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [["shapes", "--smoke"], ["shapes", "--contracts", "c.json"]]
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
        for tier in ("lint", "contracts", "dataflow", "sanitize", "perf", "shapes"):
            assert tier in out

    def test_rule_catalogs_are_stable(self):
        assert set(SHAPE_RULES) == {
            "RPR030",
            "RPR031",
            "RPR032",
            "RPR033",
            "RPR034",
        }
        assert set(SHAPE_SANITIZE_RULES) == {"SAN006"}
        assert RULESET_VERSION == 4

    def test_ruleset_version_is_cache_key_material(self, monkeypatch):
        from repro.cache import cache_key

        k1 = cache_key("shapes.t", a=1)
        monkeypatch.setattr("repro.cache.artifacts.RULESET_VERSION", 999)
        assert cache_key("shapes.t", a=1) != k1
