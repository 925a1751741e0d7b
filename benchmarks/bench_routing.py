"""Routing — Theorem 4.1 router bounds and throughput, and the all-pairs
next-hop table build.

Benchmarks the label-sorting router against the theoretical bound and
measures routing throughput (routes/second) without any graph search.

The table-build case holds the bit-parallel BFS kernel behind
:class:`repro.routing.table.NextHopTable` to its gain: on HSN(3,Q4)
(N=4096) the table and distance matrix must be bit-identical to the
sparse-matmul oracle in ``tests/bfs_oracle.py``, and the build must be at
least ``MIN_TABLE_SPEEDUP``x faster (best of ``TABLE_ROUNDS`` against
one oracle run, GC parked).

The router case routes ``ROUTER_PAIRS`` seeded pairs on HSN(4,Q4)
(N=65,536, :class:`~repro.routing.SuperIPRouter`) and on ring-CN(3,
Petersen) (N=1,000, :class:`~repro.routing.ExplicitSuperIPRouter`)
through the one router engine and through the scalar routers in
``tests/superip_oracle.py``.  The engine stops at its first arrival at
the destination and the oracle runs its whole program.  Explicit-router
paths must equal the oracle's cut there.  An IP-router path must be a
prefix of the engine's whole-program walk, and that walk must have the
oracle's length and super-generator hop positions (nucleus ties break
differently, so the first arrivals may differ).  Each engine must keep at
least ``MIN_ROUTER_RATIO`` of its oracle's routes/s (best of
``ROUTER_ROUNDS``, GC parked).

The simulator case (``"bench": "superip_sim"``) runs seeded uniform
traffic on HSN(3,Q3) (N=512) through
``PacketSimulator(routing=router.backend(g))`` and through the default
shortest-path table.  Every packet must be delivered along its
``route_nodes`` path (the hop totals must agree), and every such route
must be within
``max_route_length()``.  It reports packets/s for each (best of
``ROUTER_ROUNDS``, interleaved, GC parked); no ratio is gated.

Run it directly (exits non-zero on a mismatch or a missed budget; prints
one JSON record per case, appended to ``$REPRO_BENCH_TRAJECTORY`` when
set)::

    PYTHONPATH=src python benchmarks/bench_routing.py
"""

import gc
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro import networks as nw
from repro import obs
from repro.core.superip import SuperGeneratorSet, build_super_ip_graph
from repro.metrics.distances import bfs_distances
from repro.networks.hier import explicit_super_graph
from repro.routing import ExplicitSuperIPRouter, NextHopTable, SuperIPRouter, verify_route
from repro.sim import PacketSimulator, uniform_random_array

from conftest import print_table

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests import superip_oracle  # noqa: E402
from tests.bfs_oracle import oracle_next_hop_table  # noqa: E402

MIN_TABLE_SPEEDUP = 3.0
TABLE_ROUNDS = 3
MIN_ROUTER_RATIO = 0.9
ROUTER_ROUNDS = 3
ROUTER_PAIRS = 2000
SIM_RATE = 0.2  # packets per node per cycle
SIM_CYCLES = 100


@pytest.fixture(scope="module")
def hsn_setup():
    nuc = nw.hypercube_nucleus(3)
    sgs = SuperGeneratorSet.transpositions(2)
    g = build_super_ip_graph(nuc, sgs)
    r = SuperIPRouter(nuc, sgs)
    return nuc, sgs, g, r


def test_routing_throughput(benchmark, hsn_setup):
    nuc, sgs, g, r = hsn_setup
    rng = np.random.default_rng(0)
    pairs = rng.integers(0, g.num_nodes, size=(200, 2))

    def route_batch():
        total = 0
        for s, d in pairs:
            total += len(r.route_nodes(g, int(s), int(d))) - 1
        return total

    total_hops = benchmark(route_batch)
    assert total_hops > 0


def test_routing_bound_and_stretch(benchmark, hsn_setup):
    """All routes within l·D_G + t; report the stretch vs BFS optimal."""
    nuc, sgs, g, r = hsn_setup
    bound = r.max_route_length()
    d = bfs_distances(g, np.arange(g.num_nodes))

    def sweep():
        worst = 0
        stretch_num = stretch_den = 0
        rng = np.random.default_rng(1)
        for _ in range(500):
            s, t = rng.integers(0, g.num_nodes, 2)
            if s == t:
                continue
            path = r.route_nodes(g, int(s), int(t))
            assert verify_route(g, path)
            hops = len(path) - 1
            assert hops <= bound
            worst = max(worst, hops)
            stretch_num += hops
            stretch_den += d[t, s]
        return worst, stretch_num / stretch_den

    worst, stretch = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "Theorem 4.1 router on HSN(2,Q3)",
        [
            {
                "N": g.num_nodes,
                "bound l·D_G+t": bound,
                "worst route": worst,
                "BFS diameter": int(d.max()),
                "avg stretch": round(stretch, 3),
            }
        ],
    )
    assert worst <= bound
    assert stretch < 2.0  # the sorter is near-optimal on average


def test_symmetric_routing_bound(benchmark):
    nuc = nw.hypercube_nucleus(2)
    sgs = SuperGeneratorSet.transpositions(3)
    g = build_super_ip_graph(nuc, sgs, symmetric=True)
    r = SuperIPRouter(nuc, sgs, symmetric=True)
    rng = np.random.default_rng(2)
    pairs = rng.integers(0, g.num_nodes, size=(100, 2))

    def route_all():
        worst = 0
        for s, d in pairs:
            p = r.route_nodes(g, int(s), int(d))
            worst = max(worst, len(p) - 1)
        return worst

    worst = benchmark(route_all)
    assert worst <= r.max_route_length()


def _timed(fn) -> float:
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def table_build_case() -> dict:
    """Time the HSN(3,Q4) table build against the oracle; check identity."""
    net = nw.build("hsn", l=3, n=4)
    built = {}

    def _kernel():
        built["table"] = NextHopTable(net, with_distances=True)

    def _oracle():
        built["oracle"] = oracle_next_hop_table(net)

    kernel_s = min(_timed(_kernel) for _ in range(TABLE_ROUNDS))
    oracle_s = _timed(_oracle)
    table, (want_table, want_dist) = built["table"], built["oracle"]
    return {
        "bench": "routing_table_build",
        "network": net.name,
        "nodes": net.num_nodes,
        "kernel_s": round(kernel_s, 4),
        "oracle_s": round(oracle_s, 4),
        "speedup": round(oracle_s / kernel_s, 2),
        "identical": bool(
            np.array_equal(table.table, want_table)
            and np.array_equal(table.dist, want_dist)
        ),
    }


def _super_hops(labels: list, m: int) -> list[int]:
    """Positions of super-generator hops: only they change blocks 1..l-1."""
    return [i for i, (a, b) in enumerate(zip(labels, labels[1:])) if a[m:] != b[m:]]


def router_case() -> dict:
    """Route seeded pairs through the engine and the oracle; compare."""
    hsn_nuc = nw.hypercube_nucleus(4)
    hsn_sgs = SuperGeneratorSet.transpositions(4)
    pet_nuc = nw.petersen()
    pet_sgs = SuperGeneratorSet.ring(3)
    cases = {
        "hsn_4_q4": (
            build_super_ip_graph(hsn_nuc, hsn_sgs),
            SuperIPRouter(hsn_nuc, hsn_sgs),
            superip_oracle.SuperIPRouter(hsn_nuc, hsn_sgs),
            hsn_nuc.m,
        ),
        "ring_cn_3_petersen": (
            explicit_super_graph(pet_nuc, pet_sgs),
            ExplicitSuperIPRouter(pet_nuc, pet_sgs),
            superip_oracle.ExplicitSuperIPRouter(pet_nuc, pet_sgs),
            None,  # explicit labels: paths must be identical
        ),
    }
    record: dict = {"bench": "superip_router", "pairs": ROUTER_PAIRS, "mismatches": 0}
    for name, (g, engine, oracle, m) in cases.items():
        pairs = np.random.default_rng(19).integers(0, g.num_nodes, size=(ROUTER_PAIRS, 2))
        pairs = pairs.tolist()
        mismatches = 0
        for s, d in pairs:
            ours = engine.route_nodes(g, s, d)
            want = oracle.route_nodes(g, s, d)
            if m is None:
                mismatches += ours != want[: want.index(d) + 1]
            else:
                whole = superip_oracle.whole_walk(engine, g.labels[s], g.labels[d])
                wanted = [g.labels[v] for v in want]
                mismatches += (
                    [g.labels[v] for v in ours] != whole[: len(ours)]
                    or len(whole) != len(want)
                    or _super_hops(whole, m) != _super_hops(wanted, m)
                )
            mismatches += not verify_route(g, ours) or len(ours) - 1 > engine.max_route_length()

        def run(router, g=g, pairs=pairs):
            for s, d in pairs:
                router.route_nodes(g, s, d)

        engine_s = oracle_s = float("inf")
        for _ in range(ROUTER_ROUNDS):  # interleaved, best of each
            engine_s = min(engine_s, _timed(lambda: run(engine)))
            oracle_s = min(oracle_s, _timed(lambda: run(oracle)))
        record[name] = {
            "nodes": g.num_nodes,
            "engine_routes_per_s": round(len(pairs) / engine_s),
            "oracle_routes_per_s": round(len(pairs) / oracle_s),
            "ratio": round(oracle_s / engine_s, 3),
            "mismatches": mismatches,
        }
        record["mismatches"] += mismatches
    return record


def sim_case() -> dict:
    """HSN(3,Q3) traffic through the Theorem-4.1 backend and the table."""
    nuc = nw.hypercube_nucleus(3)
    sgs = SuperGeneratorSet.transpositions(3)
    g = build_super_ip_graph(nuc, sgs)
    r = SuperIPRouter(nuc, sgs)
    w = uniform_random_array(g, SIM_RATE, SIM_CYCLES, np.random.default_rng(23))
    bound = r.max_route_length()
    route_hops = over_bound = 0
    for _, s, d in w.tolist():
        route = r.route_nodes(g, s, d)
        route_hops += len(route) - 1
        over_bound += len(route) - 1 > bound
    sims = {"backend": PacketSimulator(g, routing=r.backend(g)), "table": PacketSimulator(g)}
    best = dict.fromkeys(sims, float("inf"))
    stats = {}
    for _ in range(ROUTER_ROUNDS):  # interleaved, best of each
        for name, sim in sims.items():
            best[name] = min(best[name], _timed(lambda: stats.__setitem__(name, sim.run(w))))
    ours, table = stats["backend"], stats["table"]
    return {
        "bench": "superip_sim",
        "network": g.name,
        "nodes": g.num_nodes,
        "packets": len(w),
        "route_bound": bound,
        "backend_pkts_per_s": round(len(w) / best["backend"]),
        "table_pkts_per_s": round(len(w) / best["table"]),
        "backend_mean_hops": round(ours.mean_hops, 3),
        "table_mean_hops": round(table.mean_hops, 3),
        "undelivered": (len(w) - ours.delivered) + (len(w) - table.delivered),
        "routes_over_bound": over_bound,
        "hops_match_routes": round(ours.mean_hops * ours.delivered) == route_hops,
    }


def main() -> int:
    ok = True
    sim = sim_case()
    obs.emit_record(sim)
    if sim["undelivered"] or sim["routes_over_bound"] or not sim["hops_match_routes"]:
        print(
            f"FAIL: superip_sim: {sim['undelivered']} packets undelivered, "
            f"{sim['routes_over_bound']} routes over the bound, hop totals "
            f"{'match' if sim['hops_match_routes'] else 'differ from'} the routes",
            file=sys.stderr,
        )
        ok = False
    router = router_case()
    obs.emit_record(router)
    if router["mismatches"]:
        print(f"FAIL: {router['mismatches']} routes differ from the oracle", file=sys.stderr)
        ok = False
    for name in ("hsn_4_q4", "ring_cn_3_petersen"):
        if router[name]["ratio"] < MIN_ROUTER_RATIO:
            print(
                f"FAIL: {name} router throughput {router[name]['ratio']:.2f}x of the "
                f"oracle's < {MIN_ROUTER_RATIO}x",
                file=sys.stderr,
            )
            ok = False
    record = table_build_case()
    obs.emit_record(record)
    if not record["identical"]:
        print("FAIL: next-hop table differs from the oracle", file=sys.stderr)
        ok = False
    if record["speedup"] < MIN_TABLE_SPEEDUP:
        print(
            f"FAIL: table build speedup {record['speedup']:.1f}x < "
            f"{MIN_TABLE_SPEEDUP:.0f}x ({record['kernel_s']:.3f}s vs "
            f"{record['oracle_s']:.3f}s)",
            file=sys.stderr,
        )
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
