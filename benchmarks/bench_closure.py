"""IP-graph closure — the batched word-key engine against the per-label oracle.

Rebuilds HSN(4,Q4) (N=65,536; 32-symbol labels over 8 values, so four
``uint64`` words per row) with :func:`repro.core.ipgraph.build_ip_graph`
and with the label-by-label closure in ``tests/closure_oracle.py``.  The
labels, the arc arrays (``edges_src``/``edges_dst``/``edges_gen``) and the
node numbering must be identical, and the engine must be at least
``MIN_SPEEDUP``x faster (best of ``ROUNDS`` engine builds against one
oracle build, GC parked).  Run it directly (exits non-zero on a mismatch
or a missed budget; prints one JSON record, appended to
``$REPRO_BENCH_TRAJECTORY`` when set)::

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

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.closure_oracle import oracle_build_ip_graph  # noqa: E402

MIN_SPEEDUP = 5.0
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


def closure_case(l: int = 4, n: int = 4) -> dict:
    """Time the HSN(l,Q_n) closure against the oracle; check identity."""
    ref = nw.build("hsn", l=l, n=n)
    seed, gens = ref.seed, ref.generators
    built = {}

    def _engine():
        built["engine"] = build_ip_graph(seed, gens, name=ref.name)

    def _oracle():
        built["oracle"] = oracle_build_ip_graph(seed, gens, name=ref.name)

    engine_s = min(_timed(_engine) for _ in range(ROUNDS))
    oracle_s = _timed(_oracle)
    got, want = built["engine"], built["oracle"]
    return {
        "bench": "closure_build",
        "network": ref.name,
        "nodes": got.num_nodes,
        "arcs": len(got.edges_src),
        "engine_s": round(engine_s, 4),
        "oracle_s": round(oracle_s, 4),
        "speedup": round(oracle_s / engine_s, 2),
        "identical": bool(
            got.labels == want.labels
            and np.array_equal(got.edges_src, want.edges_src)
            and np.array_equal(got.edges_dst, want.edges_dst)
            and np.array_equal(got.edges_gen, want.edges_gen)
        ),
    }


def main() -> int:
    record = closure_case()
    obs.emit_record(record)
    ok = True
    if not record["identical"]:
        print("FAIL: closure differs from the oracle", file=sys.stderr)
        ok = False
    if record["speedup"] < MIN_SPEEDUP:
        print(
            f"FAIL: closure speedup {record['speedup']:.1f}x < {MIN_SPEEDUP:.0f}x "
            f"({record['engine_s']:.3f}s vs {record['oracle_s']:.3f}s)",
            file=sys.stderr,
        )
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
