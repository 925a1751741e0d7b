"""IP-graph closures — the batched engines against their oracles.

Three HSN(4,Q4) builds (N=65,536), each against the path it replaced:

* ``closure_build``: :func:`repro.core.ipgraph.build_ip_graph` on the
  lifted seed (32-symbol labels over 8 values, so four ``uint64`` words
  per row) against the label-by-label closure in
  ``tests/closure_oracle.py``;
* ``super_ip_build``: :func:`repro.core.superip.build_super_ip_graph`
  (the digit-code closure) against the same per-label oracle;
* ``explicit_super_build``: :func:`repro.networks.hier.explicit_super_graph`
  over the explicit ``Q4`` (the same digit-code closure) against the
  tuple-state BFS in ``tests/hier_oracle.py``.

For each, the labels, the arc arrays (``edges_src``/``edges_dst``/
``edges_gen``) and the node numbering must be identical, and the engine
must be at least its ``min_speedup`` faster (best of ``ROUNDS`` engine
builds against one oracle build, GC parked).  The engines keep labels as
a ``uint8`` label matrix and build the tuple list on first read, so each
record also carries ``labels_ms``: that first ``.labels`` read of the
last engine build, timed apart from the build (GC parked likewise).
Run it directly (exits non-zero on a mismatch or a missed budget; prints
one JSON record per build, appended to ``$REPRO_BENCH_TRAJECTORY`` when
set)::

    PYTHONPATH=src python benchmarks/bench_closure.py
"""

import gc
import sys
import time
from pathlib import Path

import numpy as np

from repro import networks as nw
from repro import obs
from repro.core.ipgraph import build_ip_graph
from repro.core.superip import SuperGeneratorSet, build_super_ip_graph
from repro.networks.hier import explicit_super_graph

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.closure_oracle import oracle_build_ip_graph  # noqa: E402
from tests.hier_oracle import oracle_explicit_super_graph  # noqa: E402

ROUNDS = 3


def _timed(fn) -> float:
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def closure_case(bench: str, engine, oracle) -> dict:
    """Time ``engine()`` against ``oracle()``; check the graphs are identical."""
    built = {}
    engine_s = min(_timed(lambda: built.__setitem__("engine", engine())) for _ in range(ROUNDS))
    got = built["engine"]
    labels_s = _timed(lambda: got.labels)
    oracle_s = _timed(lambda: built.__setitem__("oracle", oracle()))
    want = built["oracle"]
    return {
        "bench": bench,
        "network": got.name,
        "nodes": got.num_nodes,
        "arcs": len(got.edges_src),
        "engine_s": round(engine_s, 4),
        "labels_ms": round(labels_s * 1e3, 2),
        "oracle_s": round(oracle_s, 4),
        "speedup": round(oracle_s / engine_s, 2),
        "identical": bool(
            got.labels == want.labels
            and np.array_equal(got.edges_src, want.edges_src)
            and np.array_equal(got.edges_dst, want.edges_dst)
            and np.array_equal(got.edges_gen, want.edges_gen)
        ),
    }


def cases(l: int = 4, n: int = 4) -> list[tuple[dict, float]]:
    """The three HSN(l,Q_n) records, each with its speedup floor."""
    nuc, sgs = nw.hypercube_nucleus(n), SuperGeneratorSet.transpositions(l)
    ref = build_super_ip_graph(nuc, sgs)
    seed, gens = ref.seed, ref.generators
    cube = nw.hypercube(n)
    return [
        (
            closure_case(
                "closure_build",
                lambda: build_ip_graph(seed, gens, name=ref.name),
                lambda: oracle_build_ip_graph(seed, gens, name=ref.name),
            ),
            5.0,
        ),
        (
            closure_case(
                "super_ip_build",
                lambda: build_super_ip_graph(nuc, sgs),
                lambda: oracle_build_ip_graph(seed, gens, name=ref.name),
            ),
            5.0,
        ),
        (
            closure_case(
                "explicit_super_build",
                lambda: explicit_super_graph(cube, sgs),
                lambda: oracle_explicit_super_graph(cube, sgs),
            ),
            3.0,
        ),
    ]


def main() -> int:
    ok = True
    for record, min_speedup in cases():
        obs.emit_record(record)
        if not record["identical"]:
            print(f"FAIL: {record['bench']}: graph differs from the oracle", file=sys.stderr)
            ok = False
        if record["speedup"] < min_speedup:
            print(
                f"FAIL: {record['bench']}: speedup {record['speedup']:.1f}x < "
                f"{min_speedup:.0f}x ({record['engine_s']:.3f}s vs {record['oracle_s']:.3f}s)",
                file=sys.stderr,
            )
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
