"""Fault sweep — shortest-survivor detours against two oracles.

Replays one 16-link-fault trial of :func:`repro.fault.fault_sweep` on
HSN(3,Q3) (N=512) with the resilient router's stage-3 detours computed
by the router itself (one survivor CSR per fault epoch, one BFS from the
destination per detour, stopped at the level that labels the packet's
node) and checks three things:

* **identity** — with the independent shortest-survivor oracle of
  ``tests/fault_view.py`` patched in (networkx BFS on the rebuilt
  survivor graph, then the same smallest-id walk), the sweep rows and
  every survivor path are identical;
* **no longer** — every detour is no longer than the shortest
  node-disjoint path of networkx on the same survivor graph
  (``tests/disjoint_oracle.py``), the detour the router used to take;
* **speed** — on the trial's own detour queries, the router spends at
  least ``MIN_SPEEDUP``x less time than that networkx node-disjoint
  engine (flow structures built once per fault epoch, each path kept
  per epoch as the old router did); best of ``ROUNDS`` router runs
  against one engine replay, GC parked.

The record also carries ``bfs_levels``, the levels those searches
expanded over the trial (the ``routing.resilient.bfs_levels`` counter;
the sum of the detours' hop counts when every detour exists).

Run it directly (exits non-zero on a mismatch or a missed budget; prints
one JSON record, appended to ``$REPRO_BENCH_TRAJECTORY`` when set)::

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
from tests.fault_view import FaultyNetwork, shortest_survivor_path  # noqa: E402

MIN_SPEEDUP = 3.0
ROUNDS = 3
FAULTS = 16
SEED = 1


def _oracle_survivor_path(router, epoch, u, dst, t):
    """The shortest-survivor oracle on the epoch's rebuilt survivor graph
    (one fault view per router and epoch)."""
    cached = getattr(router, "_oracle_view", None)
    if cached is None or cached[0] != epoch:
        cached = router._oracle_view = (
            epoch, FaultyNetwork.at(router.net, router.timeline, t)
        )
    return shortest_survivor_path(cached[1], u, dst)


def _trial(net, compute) -> tuple[list[dict], list, float]:
    """One f16 trial with the detours computed by ``compute``: the sweep
    rows, every detour query ``(router, epoch, u, dst, t, path)`` in
    order, and the seconds spent in ``compute``."""
    queries: list = []
    spent = [0.0]

    def timed(router, epoch, u, dst, t):
        t0 = time.perf_counter()
        path = compute(router, epoch, u, dst, t)
        spent[0] += time.perf_counter() - t0
        queries.append((router, epoch, u, dst, t, path))
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
    return rows, queries, spent[0]


def _bfs_levels(net) -> int:
    """BFS levels the router's detours expanded over one trial."""
    obs.reset()
    obs.enable()
    try:
        _trial(net, ResilientRouter._compute_survivor_path)
        return obs.report()["counters"].get("routing.resilient.bfs_levels", 0)
    finally:
        obs.disable()
        obs.reset()


def _disjoint_replay(queries) -> tuple[list, float]:
    """The shortest networkx node-disjoint path for every query, and the
    seconds that engine took: per router and epoch one survivor graph and
    flow network, and one path per ``(u, dst)``."""
    epochs: dict = {}
    paths = []
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for router, epoch, u, dst, t, _ in queries:
            key = (id(router), epoch)
            if key not in epochs:
                view = FaultyNetwork.at(router.net, router.timeline, t)
                epochs[key] = (OracleNodeDisjointPaths(view.to_network()), {})
            engine, memo = epochs[key]
            if (u, dst) not in memo:
                found = engine(u, dst)
                memo[u, dst] = tuple(min(found, key=len)) if found else None
            paths.append(memo[u, dst])
        spent = time.perf_counter() - t0
    finally:
        gc.enable()
    return paths, spent


def _no_longer(got, old) -> bool:
    """Both detours exist or neither does, and ``got`` is no longer."""
    if got is None or old is None:
        return got is old
    return len(got) <= len(old)


def fault_sweep_case() -> dict:
    net = nw.build("hsn", l=3, n=3)
    kernel = ResilientRouter._compute_survivor_path
    runs = [_trial(net, kernel) for _ in range(ROUNDS)]
    rows, queries, _ = runs[0]
    kernel_s = min(r[2] for r in runs)
    want_rows, want_queries, _ = _trial(net, _oracle_survivor_path)
    paths = [q[1:4] + q[5:] for q in queries]  # (epoch, u, dst, path)
    disjoint, disjoint_s = _disjoint_replay(queries)
    return {
        "bench": "fault_sweep_detours",
        "network": net.name,
        "nodes": net.num_nodes,
        "faults": FAULTS,
        "survivor_paths": len(paths),
        "bfs_levels": _bfs_levels(net),
        "kernel_s": round(kernel_s, 4),
        "disjoint_s": round(disjoint_s, 4),
        "speedup": round(disjoint_s / kernel_s, 2),
        "identical_rows": json.dumps(rows) == json.dumps(want_rows),
        "identical_paths": paths == [q[1:4] + q[5:] for q in want_queries],
        "no_longer": all(_no_longer(q[5], old) for q, old in zip(queries, disjoint)),
    }


def main() -> int:
    record = fault_sweep_case()
    obs.emit_record(record)
    ok = True
    if not (record["identical_rows"] and record["identical_paths"]):
        print("FAIL: detours differ from the shortest-survivor oracle", file=sys.stderr)
        ok = False
    if not record["no_longer"]:
        print("FAIL: a detour is longer than the node-disjoint detour", file=sys.stderr)
        ok = False
    if record["survivor_paths"] == 0:
        print("FAIL: the trial computed no survivor paths", file=sys.stderr)
        ok = False
    if record["speedup"] < MIN_SPEEDUP:
        print(
            f"FAIL: survivor-path speedup {record['speedup']:.1f}x < "
            f"{MIN_SPEEDUP:.0f}x ({record['kernel_s']:.3f}s vs "
            f"{record['disjoint_s']:.3f}s)",
            file=sys.stderr,
        )
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
