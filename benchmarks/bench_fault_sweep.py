"""Fault sweep — the survivor-detour kernel against its networkx oracle.

Replays one 16-link-fault trial of :func:`repro.fault.fault_sweep` on
HSN(3,Q3) (N=512) twice: once with the resilient router's stage-3
detours computed by the array-native kernel
(:class:`repro.routing.disjoint.NodeDisjointPaths`, one flow structure
per router, one capacity mask per fault epoch), and once by the networkx
engine it replaced (``tests/disjoint_oracle.py``: auxiliary digraph and
residual network rebuilt per fault epoch).  The sweep rows and every
survivor path must be identical, and the time spent computing survivor
paths must drop at least ``MIN_SPEEDUP``x (best of ``ROUNDS`` kernel runs
against one oracle run, GC parked).  Run it directly (exits non-zero on
a mismatch or a missed budget; prints one JSON record, appended to
``$REPRO_BENCH_TRAJECTORY`` when set)::

    PYTHONPATH=src python benchmarks/bench_fault_sweep.py
"""

import gc
import json
import sys
import time
from pathlib import Path

from repro import networks as nw
from repro import obs
from repro.fault import ResilientRouter, fault_sweep

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.disjoint_oracle import OracleNodeDisjointPaths  # noqa: E402
from tests.fault_view import FaultyNetwork  # noqa: E402

MIN_SPEEDUP = 3.0
ROUNDS = 3
FAULTS = 16
SEED = 1


def _oracle_survivor_path(router, epoch, u, dst, t):
    """The replaced detour: networkx on the epoch's survivor graph, the
    view and its flow structures built once per router and epoch."""
    cached = getattr(router, "_oracle", None)
    if cached is None or cached[0] != epoch:
        view = FaultyNetwork.at(router.net, router.timeline, t)
        cached = router._oracle = (
            epoch, view, OracleNodeDisjointPaths(view.to_network())
        )
    _, view, oracle = cached
    if u == dst or not (view.is_node_up(u) and view.is_node_up(dst)):
        return None
    paths = oracle(u, dst)
    return tuple(min(paths, key=len)) if paths else None


def _trial(net, compute) -> tuple[list[dict], list, float]:
    """One f16 trial with the detours computed by ``compute``: the sweep
    rows, every survivor path in query order, and the seconds spent in
    ``compute``."""
    paths: list = []
    spent = [0.0]

    def timed(router, epoch, u, dst, t):
        t0 = time.perf_counter()
        path = compute(router, epoch, u, dst, t)
        spent[0] += time.perf_counter() - t0
        paths.append((epoch, u, dst, path))
        return path

    original = ResilientRouter._compute_survivor_path
    ResilientRouter._compute_survivor_path = timed
    gc.collect()
    gc.disable()
    try:
        rows = fault_sweep(net, [FAULTS], trials=1, kind="link", seed=SEED, jobs=1)
    finally:
        gc.enable()
        ResilientRouter._compute_survivor_path = original
    return rows, paths, spent[0]


def fault_sweep_case() -> dict:
    net = nw.build("hsn", l=3, n=3)
    kernel = ResilientRouter._compute_survivor_path
    runs = [_trial(net, kernel) for _ in range(ROUNDS)]
    rows, paths, _ = runs[0]
    kernel_s = min(r[2] for r in runs)
    want_rows, want_paths, oracle_s = _trial(net, _oracle_survivor_path)
    return {
        "bench": "fault_sweep_detours",
        "network": net.name,
        "nodes": net.num_nodes,
        "faults": FAULTS,
        "survivor_paths": len(paths),
        "kernel_s": round(kernel_s, 4),
        "oracle_s": round(oracle_s, 4),
        "speedup": round(oracle_s / kernel_s, 2),
        "identical_rows": json.dumps(rows) == json.dumps(want_rows),
        "identical_paths": paths == want_paths,
    }


def main() -> int:
    record = fault_sweep_case()
    obs.emit_record(record)
    ok = True
    if not (record["identical_rows"] and record["identical_paths"]):
        print("FAIL: kernel detours differ from the networkx oracle", file=sys.stderr)
        ok = False
    if record["survivor_paths"] == 0:
        print("FAIL: the trial computed no survivor paths", file=sys.stderr)
        ok = False
    if record["speedup"] < MIN_SPEEDUP:
        print(
            f"FAIL: survivor-path speedup {record['speedup']:.1f}x < "
            f"{MIN_SPEEDUP:.0f}x ({record['kernel_s']:.3f}s vs "
            f"{record['oracle_s']:.3f}s)",
            file=sys.stderr,
        )
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
