"""The network's shared next-hop table (``repro.routing.table.shared_table``)
and directed next-hop semantics.

A complete :class:`NextHopTable` build records its arrays on the network;
simulators, resilient routers and sweep trials then reuse them instead of
re-running the all-pairs BFS.  These tests pin the build counts, that a
reused table equals a fresh build, that nothing unsafe is stored, and that
storage creates no reference cycle and no pickle growth.
"""

from __future__ import annotations

import gc
import json
import pickle
import weakref

import networkx as nx
import numpy as np
import pytest

from repro import cache, networks, obs
from repro.cache import cached_next_hop_table
from repro.core.ipgraph import build_ip_graph
from repro.core.network import Network
from repro.core.permutation import cyclic_shift_left
from repro.fault import FaultPlan, ResilientRouter
from repro.fault.sweep import fault_sweep
from repro.routing.table import NextHopTable, shared_table
from repro.serve import RouteService
from repro.sim.simulator import PacketSimulator
from repro.sim.workloads import uniform_random_array
from repro.sim.wormhole import WormholeSimulator


@pytest.fixture()
def counters():
    """Enabled obs registry; yields a callable returning current counters."""
    obs.reset()
    obs.enable()
    try:
        yield lambda: dict(obs.report()["counters"])
    finally:
        obs.disable()
        obs.reset()


def _builds(counters) -> int:
    return counters().get("routing.table.builds", 0)


# ----------------------------------------------------------------------
# build counts
# ----------------------------------------------------------------------
def test_simulator_reuses_the_callers_table(counters):
    net = networks.build("hsn", l=2, n=2)
    table = NextHopTable(net, with_distances=True)
    traffic = uniform_random_array(net, 0.2, 30, np.random.default_rng(3))
    stats = PacketSimulator(net).run(traffic)
    assert stats.delivered == stats.injected == len(traffic)
    assert _builds(counters) == 1
    assert counters()["routing.table.shared"] == 1
    assert table.table is net._next_hops[0]


def test_fault_sweep_builds_at_most_two_tables(counters):
    net = networks.build("hsn", l=2, n=2)
    kw = dict(trials=3, cycles=30, seed=5)
    serial = fault_sweep(net, [0, 2, 4], jobs=1, **kw)
    # one table without distances (healthy trials), one with (faulted)
    assert _builds(counters) <= 2
    assert counters()["routing.table.shared"] >= 7
    fresh = networks.build("hsn", l=2, n=2)
    parallel = fault_sweep(fresh, [0, 2, 4], jobs=2, **kw)
    assert json.dumps(serial) == json.dumps(parallel)


def test_serial_fault_sweep_builds_one_table(counters):
    # the healthy trials build the table with the distances the faulted
    # trials' ResilientRouter needs, so both share one build
    cases = [
        (networks.build("hsn", l=2, n=3), [0, 2], 2),
        (networks.build("hsn", l=3, n=3), [0, 4, 16], 1),
    ]
    for net, counts, trials in cases:
        before = _builds(counters)
        serial = fault_sweep(net, counts, trials=trials, cycles=40, jobs=1)
        assert _builds(counters) - before == 1, net.name
    # the workers of a parallel sweep build their own: none in the parent
    before = _builds(counters)
    fresh = networks.build("hsn", l=2, n=3)
    parallel = fault_sweep(fresh, [0, 2], trials=2, cycles=40, jobs=2)
    assert _builds(counters) == before
    assert fresh._next_hops is None
    again = fault_sweep(networks.build("hsn", l=2, n=3), [0, 2], trials=2, cycles=40)
    assert json.dumps(parallel) == json.dumps(again)
    assert serial[0]["faults"] == 0 and serial[-1]["faults"] == 16


def test_every_consumer_reuses_one_build(counters):
    net = networks.hypercube(4)
    plan = FaultPlan().fail_link(0, 0, 1)
    PacketSimulator(net, faults=plan)  # the one build
    ResilientRouter(net, plan.compile(net))
    PacketSimulator(net)
    WormholeSimulator(net)
    assert cache.get_cache() is None
    cached_next_hop_table(net, with_distances=True)
    RouteService.open(net)
    assert _builds(counters) == 1
    assert counters()["routing.table.shared"] == 5


def test_cache_reload_replaces_the_stored_build(tmp_path, counters):
    cache.configure(tmp_path, min_nodes=1)
    try:
        net = networks.build("hsn", l=2, n=2)
        built = NextHopTable(net, with_distances=True)
        assert net._next_hops[0] is built.table
        loaded = cached_next_hop_table(net, with_distances=True)
        # the mapped spills replace the build, so only one copy stays alive
        assert isinstance(loaded.table, np.memmap)
        assert net._next_hops[0] is loaded.table
        assert net._next_hops[1] is loaded.dist
        np.testing.assert_array_equal(loaded.table, built.table)
        assert shared_table(net, with_distances=True).table is loaded.table
        # a later call maps nothing again: the network holds the spills
        assert cached_next_hop_table(net, with_distances=True).table is loaded.table
        assert counters().get("cache.hit", 0) == 0
        assert _builds(counters) == 1
    finally:
        cache.set_cache(None)


def test_open_exports_the_table_the_network_holds(tmp_path, counters):
    cache.configure(tmp_path, min_nodes=1)
    try:
        net = networks.build("hsn", l=2, n=2)
        NextHopTable(net, with_distances=True)
        before = counters()
        svc = RouteService.open(net, shards=2)
        after = counters()
        assert svc.mmap_backed
        # the two missing spills are written from the held arrays: no BFS
        assert after.get("routing.table.builds", 0) == before.get("routing.table.builds", 0)
        assert after.get("cache.hit", 0) == before.get("cache.hit", 0)
        assert after["cache.miss"] == before.get("cache.miss", 0) + 2
        assert after["cache.store"] == before.get("cache.store", 0) + 2
        assert after["routing.table.shared"] == before.get("routing.table.shared", 0) + 1
        assert all(isinstance(a, np.memmap) for a in net._next_hops)
        src, dst = np.arange(16), np.arange(16)[::-1]
        np.testing.assert_array_equal(
            svc.resolve(src, dst).next_hop, net._next_hops[0][dst, src]
        )
    finally:
        cache.set_cache(None)


def test_distances_upgrade_the_stored_table(counters):
    net = networks.ring(10)
    plain = shared_table(net)
    assert plain.dist is None and _builds(counters) == 1
    full = shared_table(net, with_distances=True)
    assert full.dist is not None and _builds(counters) == 2
    # a later table without distances does not replace the one with them
    NextHopTable(net)
    assert _builds(counters) == 3
    assert net._next_hops[1] is full.dist
    assert shared_table(net, with_distances=True).dist is full.dist
    assert _builds(counters) == 3


# ----------------------------------------------------------------------
# what is stored
# ----------------------------------------------------------------------
@pytest.mark.parametrize("with_distances", [False, True])
def test_shared_table_equals_a_fresh_build(with_distances):
    net = networks.build("hsn", l=2, n=3)
    NextHopTable(net, with_distances=True)
    got = shared_table(net, with_distances=with_distances)
    want = NextHopTable(networks.build("hsn", l=2, n=3), with_distances=with_distances)
    assert got.table.dtype == want.table.dtype
    np.testing.assert_array_equal(got.table, want.table)
    if with_distances:
        np.testing.assert_array_equal(got.dist, want.dist)
    else:
        assert got.dist is None
    assert got.path(0, 63) == want.path(0, 63)


def test_stored_arrays_are_read_only():
    net = networks.ring(6)
    table = NextHopTable(net, with_distances=True)
    with pytest.raises(ValueError, match="read-only"):
        table.table[0, 1] = 0
    with pytest.raises(ValueError, match="read-only"):
        shared_table(net, with_distances=True).dist[0, 1] = 0


def test_storage_creates_no_reference_cycle():
    gc.disable()
    try:
        net = networks.build("hsn", l=2, n=2)
        table = NextHopTable(net, with_distances=True)
        shared = shared_table(net)
        ref = weakref.ref(net)
        del net, table, shared
        assert ref() is None
    finally:
        gc.enable()


def test_stored_table_stays_out_of_the_pickle():
    net = networks.build("hsn", l=2, n=3)
    net.adjacency_csr()  # the CSR memo is pickled; the table must not be
    before = len(pickle.dumps(net))
    NextHopTable(net, with_distances=True)
    assert net._next_hops is not None
    assert len(pickle.dumps(net)) == before
    assert pickle.loads(pickle.dumps(net))._next_hops is None


# ----------------------------------------------------------------------
# directed networks: next hops follow arcs, distances count u -> dst
# ----------------------------------------------------------------------
def _one_left_shift_cycle() -> Network:
    return build_ip_graph((0, 1, 2, 3), [cyclic_shift_left(4, 1)], directed=True)


@pytest.mark.parametrize(
    "make",
    [lambda: networks.directed_cn(3, networks.hypercube_nucleus(1)), _one_left_shift_cycle],
    ids=["directed-cn3-q1", "left-shift-4-cycle"],
)
def test_directed_paths_follow_arcs_and_are_shortest(make):
    net = make()
    g = net.to_networkx()
    assert isinstance(g, nx.DiGraph)
    want = dict(nx.all_pairs_shortest_path_length(g))
    table = NextHopTable(net, with_distances=True)
    for s in range(net.num_nodes):
        for d in range(net.num_nodes):
            path = table.path(s, d)
            assert path[0] == s and path[-1] == d
            assert all(g.has_edge(u, v) for u, v in zip(path, path[1:]))
            assert len(path) - 1 == want[s][d] == table.distance(s, d)
            hops = table.next_hops(s, d)
            assert hops[:1] == path[1:2] or s == d
            assert all(g.has_edge(s, v) for v in hops if s != d)


def test_left_shift_cycle_routes_along_its_arc():
    net = _one_left_shift_cycle()
    table = NextHopTable(net)
    assert table.path(0, 1) == [0, 1]
    assert [table.next_hop(u, (u + 1) % 4) for u in range(4)] == [1, 2, 3, 0]
