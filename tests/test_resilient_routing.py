"""Tests for the fault-aware ResilientRouter and the NextHopTable upgrades."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import networks as nw
from repro import obs
from repro.core.network import Network, RoutingError
from repro.fault import FaultPlan, ResilientRouter, fault_sweep
from repro.metrics.distances import bfs_distances
from repro.routing.table import NextHopTable, shortest_path
from repro.sim.simulator import PacketSimulator
from repro.sim.workloads import uniform_random

from .disjoint_oracle import OracleNodeDisjointPaths
from .fault_view import FaultyNetwork, shortest_survivor_path


class TestNextHopTableUpgrades:
    def test_disconnected_error_names_pair(self):
        net = Network.from_edge_list([(i,) for i in range(4)], [(0, 1), (2, 3)])
        with pytest.raises(RoutingError, match=r"node \d+ cannot reach node \d+"):
            NextHopTable(net)

    def test_isolated_node_error_names_node(self):
        net = Network.from_edge_list([(i,) for i in range(3)], [(0, 1)])
        with pytest.raises(RoutingError, match="node 2 is isolated"):
            NextHopTable(net)

    def test_next_hops_all_minimal(self):
        g = nw.hypercube(3)
        table = NextHopTable(g, with_distances=True)
        # 0 -> 7 is antipodal: every one of the 3 neighbors is minimal
        assert table.next_hops(0, 7) == [1, 2, 4]
        assert table.next_hops(0, 7)[0] == table.next_hop(0, 7)
        # adjacent pair: single minimal hop
        assert table.next_hops(0, 1) == [1]
        assert table.next_hops(5, 5) == [5]

    def test_distance_matches_bfs(self):
        g = nw.cube_connected_cycles(3)
        table = NextHopTable(g, with_distances=True)
        d = bfs_distances(g, np.arange(g.num_nodes))
        rng = np.random.default_rng(0)
        for _ in range(40):
            u, dst = rng.integers(0, g.num_nodes, 2)
            assert table.distance(int(u), int(dst)) == d[dst, u]

    def test_distance_requires_flag(self):
        table = NextHopTable(nw.ring(6))
        with pytest.raises(ValueError, match="with_distances"):
            table.distance(0, 3)
        with pytest.raises(ValueError, match="with_distances"):
            table.next_hops(0, 3)

    def test_shortest_path_disconnected_names_pair(self):
        net = Network([(0,), (1,)], [0], [0])  # self-loop only
        with pytest.raises(RoutingError, match="node 0 to node 1"):
            shortest_path(net, 0, 1)


class TestResilientRouter:
    def _router(self, g, plan, **kw):
        return ResilientRouter(g, plan.compile(g), **kw)

    def test_healthy_primary(self):
        g = nw.hypercube(3)
        r = self._router(g, FaultPlan())
        table = NextHopTable(g)
        nxt, verdict, rest = r.route_next(0, 7, 0)
        assert verdict == "primary"
        assert nxt == table.next_hop(0, 7)
        assert rest == ()
        assert r.reroutes == r.deroutes == r.unreachable == 0

    def test_route_next_rejects_bad_ids(self):
        g = nw.build("hsn", l=2, n=3)  # 64 nodes
        r = self._router(g, FaultPlan().fail_link(0, 0, 1))
        cases = [
            ((-1, 3), r"^route_next: node id u=-1 is outside 0\.\.63$"),
            ((64, 3), r"^route_next: node id u=64 is outside 0\.\.63$"),
            ((63, -64), r"^route_next: node id dst=-64 is outside 0\.\.63$"),
            ((0, 64), r"^route_next: node id dst=64 is outside 0\.\.63$"),
            ((5, 5), r"^route_next: u == dst == 5; nothing to route$"),
        ]
        for (u, dst), msg in cases:
            with pytest.raises(ValueError, match=msg):
                r.route_next(u, dst, 10)
        assert r.reroutes == r.deroutes == r.unreachable == 0

    def test_alternate_minimal_hop(self):
        g = nw.hypercube(3)
        # 0 -> 7 has minimal hops {1, 2, 4}; kill the preferred one (1)
        r = self._router(g, FaultPlan().fail_link(0, 0, 1))
        nxt, verdict, _ = r.route_next(0, 7, 0)
        assert verdict == "reroute"
        assert nxt == 2
        assert r.reroutes == 1

    def test_dead_next_node_triggers_reroute(self):
        g = nw.hypercube(3)
        r = self._router(g, FaultPlan().fail_node(0, 1))
        nxt, verdict, _ = r.route_next(0, 7, 0)
        assert verdict == "reroute"
        assert nxt == 2

    def test_deroute_pins_survivor_path(self):
        g = nw.hypercube(3)
        # 0 -> 1: the only minimal hop is the direct link; kill it
        r = self._router(g, FaultPlan().fail_link(0, 0, 1))
        nxt, verdict, rest = r.route_next(0, 1, 0)
        assert verdict == "deroute"
        path = (0, nxt) + tuple(rest)
        assert path[-1] == 1
        assert len(path) >= 3  # genuine detour
        for a, b in zip(path, path[1:]):  # every detour hop is a live edge
            assert b in g.neighbors(a)
            assert r.timeline.link_up_at(a, b, 0)
        assert r.deroutes == 1

    def test_faults_respect_time(self):
        g = nw.hypercube(3)
        r = self._router(g, FaultPlan().fail_link(10, 0, 1).repair_link(20, 0, 1))
        assert r.route_next(0, 1, 5)[1] == "primary"
        assert r.route_next(0, 1, 10)[1] == "deroute"
        assert r.route_next(0, 1, 25)[1] == "primary"

    def test_dead_destination_unreachable(self):
        g = nw.hypercube(3)
        r = self._router(g, FaultPlan().fail_node(0, 7))
        nxt, verdict, _ = r.route_next(0, 7, 0)
        assert (nxt, verdict) == (-1, "unreachable")
        assert r.unreachable == 1

    def test_cut_destination_unreachable(self):
        r4 = nw.ring(4)
        plan = FaultPlan().fail_link(0, 0, 1).fail_link(0, 1, 2)  # isolate node 1
        r = self._router(r4, plan)
        # node 0 sits at the cut: direct link dead, no survivor path exists
        assert r.route_next(0, 1, 0)[1] == "unreachable"
        assert r.unreachable == 1

    def test_directed_network_rejected(self):
        g = nw.directed_cn(3, nw.hypercube_nucleus(2))
        msg = (
            r"^ResilientRouter: 'directed-CN\(3,Q2\)' is directed, but survivor "
            r"detours are shortest paths of the undirected survivor graph$"
        )
        with pytest.raises(ValueError, match=msg):
            self._router(g, FaultPlan())
        plan = FaultPlan.random_link_faults(g, 8, np.random.default_rng(1))
        with pytest.raises(ValueError, match=msg):
            PacketSimulator(g, faults=plan)  # fails at construction, not mid-run

    def test_directed_faulted_run_on_table_completes(self):
        g = nw.directed_cn(3, nw.hypercube_nucleus(2))
        plan = FaultPlan.random_link_faults(g, 8, np.random.default_rng(1))
        w = uniform_random(g, 0.1, 40, np.random.default_rng(2))
        stats = PacketSimulator(g, faults=plan, routing=NextHopTable(g)).run(w)
        assert stats.delivered + stats.undelivered == len(w)
        assert stats.delivered > 0 and stats.dropped > 0

    def test_survivor_path_cache_by_epoch(self):
        g = nw.hypercube(3)
        r = self._router(g, FaultPlan().fail_link(0, 0, 1))
        p1 = r._survivor_path(0, 1, 0)
        epoch, csr = r._record
        p2 = r._survivor_path(0, 1, 0)
        assert p1 == p2 == (0, 2, 3, 1)  # smallest-id step, distance 3
        assert r._record[0] == epoch and r._record[1] is csr  # one CSR


class TestBoundedCaches:
    def test_record_is_bounded_and_reset_per_epoch(self):
        # one survivor CSR per epoch, reused by every detour in it and
        # replaced whenever epoch(t) changes, also back to an earlier one
        g = nw.hypercube(3)
        plan = FaultPlan().fail_link(0, 0, 1).fail_link(0, 2, 3).fail_node(10, 7)
        r = ResilientRouter(g, plan.compile(g))
        r._survivor_path(0, 1, 0)
        epoch, csr = r._record
        assert epoch == r.timeline.epoch(0)
        for u in (0, 2, 4):
            for dst in (1, 3):
                if u != dst:
                    r._survivor_path(u, dst, 0)
                    assert r._record[1] is csr
        r._survivor_path(0, 1, 20)  # later epoch: a fresh record
        later, later_csr = r._record
        assert later == r.timeline.epoch(20) != epoch
        assert later_csr is not csr
        assert later_csr[7].nnz == 0  # the dead node has no live arc
        r._survivor_path(0, 1, 5)  # back to the first epoch: rebuilt again
        back, back_csr = r._record
        assert back == epoch and back_csr is not csr and back_csr is not later_csr
        assert (back_csr != csr).nnz == 0

    def test_near_far_near_queries_match_oracle(self):
        # one dst in one epoch: the early-exit search of a near u must not
        # leave anything behind that changes the far u's path, or back
        g = nw.build("hsn", l=2, n=3)
        plan = FaultPlan.random_link_faults(g, 10, np.random.default_rng(7))
        timeline = plan.compile(g)
        r = ResilientRouter(g, timeline)
        view = FaultyNetwork.at(g, timeline, 0)
        dst = 0
        want = {u: shortest_survivor_path(view, u, dst) for u in range(1, g.num_nodes)}
        near = min(want, key=lambda u: len(want[u]))
        far = max(want, key=lambda u: len(want[u]))
        assert len(want[near]) == 2 and len(want[far]) >= 5
        for u in (near, far, near, far):
            assert r._survivor_path(u, dst, 0) == want[u], u

    def test_bfs_levels_counter_sums_detour_hops(self):
        g = nw.build("hsn", l=2, n=3)
        timeline = FaultPlan.random_link_faults(
            g, 12, np.random.default_rng(3)
        ).compile(g)
        r = ResilientRouter(g, timeline)
        pairs = np.random.default_rng(4).integers(0, g.num_nodes, size=(60, 2))
        obs.reset()
        obs.enable()
        try:
            paths = [r._survivor_path(u, d, 0) for u, d in pairs.tolist() if u != d]
            counters = obs.report()["counters"]
        finally:
            obs.disable()
            obs.reset()
        assert all(p is not None for p in paths)
        assert counters["routing.resilient.survivor_paths"] == len(paths)
        assert counters["routing.resilient.bfs_levels"] == sum(len(p) - 1 for p in paths)


def test_faulted_sweep_does_not_import_sparse_linalg():
    # scipy.sparse.csgraph would pull in scipy.sparse.linalg: ~10 MiB of
    # RSS and import time on every faulted run, for a search that needs
    # only a sparse mat-vec per level
    code = (
        "import sys\n"
        "from repro import networks, obs\n"
        "from repro.fault import fault_sweep\n"
        "obs.enable()\n"
        "net = networks.build('hsn', l=2, n=3)\n"
        "fault_sweep(net, [12], trials=1, cycles=40, rate=0.2, seed=3, jobs=1)\n"
        "print(obs.report()['counters']['routing.resilient.survivor_paths'] > 0,\n"
        "      'scipy.sparse.linalg' in sys.modules)\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.split() == ["True", "False"]


class TestSurvivorFlowReuse:
    """The epoch record (one survivor CSR per epoch) and the early-exit
    search must not change any detour, however the queries move
    through the epochs: each is the shortest-survivor oracle's path, and
    never longer than the shortest node-disjoint path the router used to
    take."""

    @pytest.mark.parametrize(
        "family,params", [("hsn", {"l": 2, "n": 3}), ("hypercube", {"n": 4})]
    )
    @pytest.mark.parametrize("kind", ["link", "node"])
    def test_every_survivor_path_matches_uncached(self, family, params, kind):
        g = nw.build(family, **params)
        rng = np.random.default_rng(2024)
        model = FaultPlan.random_link_faults if kind == "link" else FaultPlan.random_node_faults
        permanent = model(g, 5, rng, horizon=40).compile(g)
        pairs = rng.integers(0, g.num_nodes, size=(25, 2))
        transient = model(g, 8, rng, horizon=30, mttr=6).compile(g)
        times = sorted(set(transient.change_times))
        assert len({frozenset(transient.dead_links_at(t)) | frozenset(
            transient.dead_nodes_at(t)) for t in times}) > 2
        cases = [
            (permanent, (0, 10, 20, 30, 41)),
            # every epoch forward, then back to earlier ones out of order
            (transient, times + times[::-2] + [0] + times[1::3]),
        ]
        for timeline, order in cases:
            router = ResilientRouter(g, timeline)
            checked = 0
            for t in order:
                view = FaultyNetwork.at(g, timeline, t)
                disjoint = OracleNodeDisjointPaths(view.to_network())
                for u, dst in pairs.tolist():
                    got = router._survivor_path(u, dst, t)
                    assert got == shortest_survivor_path(view, u, dst), (t, u, dst)
                    if got is None:
                        continue
                    checked += 1
                    old = min(disjoint(u, dst), key=len)
                    assert len(got) <= len(old), (t, u, dst)
                assert router._record[0] == timeline.epoch(t)
            assert checked > 0


class TestPerfbenchCatalog:
    """The fault_sweep benchmark's catalog rows, as literals: a detour
    change that would fail the benchmark's output check fails here first.
    Each tuple is ``(delivery_ratio, dropped, retransmitted, rerouted)``
    of one single-trial sweep on HSN(3,Q3) at 0, 4 and 16 link faults."""

    ROWS = {
        0: {0: (1.0, 0.0, 0.0, 0.0), 4: (1.0, 0.0, 0.0, 18.0), 16: (1.0, 0.0, 0.0, 40.0)},
        1: {0: (1.0, 0.0, 0.0, 0.0), 4: (1.0, 0.0, 0.0, 14.0), 16: (1.0, 0.0, 0.0, 72.0)},
        2: {0: (1.0, 0.0, 0.0, 0.0), 4: (1.0, 0.0, 0.0, 11.0), 16: (1.0, 1.0, 1.0, 54.0)},
    }

    @pytest.fixture(scope="class")
    def net(self):
        return nw.build("hsn", l=3, n=3)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_catalog_rows(self, net, seed):
        for f, want in self.ROWS[seed].items():
            (row,) = fault_sweep(
                net, [f], trials=1, kind="link", rate=0.05, cycles=60,
                seed=seed, jobs=1,
            )
            got = (row["delivery_ratio"], row["dropped"], row["retransmitted"], row["rerouted"])
            assert got == want, (seed, f)
