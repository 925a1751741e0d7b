"""Disjoint paths, and the survivor masks the fault detours run on.

:func:`repro.routing.disjoint.node_disjoint_paths` is networkx's
``node_disjoint_paths`` behind the undirected check and the id checks;
:func:`~repro.routing.disjoint.path_diversity` shares one exported graph
and flow network between its pairs, which must not change a count.

The resilient router's detours are shortest survivor paths and call no
networkx flow at all.  Each fault epoch masks the intact adjacency (never
in place); the masked CSR and every detour on it must equal the survivor
graph rebuilt from scratch by ``tests/fault_view.py`` and its
shortest-survivor oracle.
"""

import networkx as nx
import numpy as np
import pytest

from repro import networks as nw
from repro import obs
from repro.core.network import Network
from repro.fault import FaultPlan, ResilientRouter
from repro.fault.sweep import fault_sweep
from repro.routing.disjoint import (
    edge_disjoint_paths,
    node_disjoint_paths,
    path_diversity,
)

from .disjoint_oracle import oracle_node_disjoint_paths
from .fault_view import FaultyNetwork, shortest_survivor_path

#: undirected families (the router refuses a directed network)
FAMILIES = {
    "hsn": lambda: nw.build("hsn", l=2, n=3),
    "hypercube": lambda: nw.hypercube(4),
    "star": lambda: nw.star_graph(4),
    "ring": lambda: nw.ring(9),
}


def _pairs(n: int, count: int, seed: int) -> list[tuple[int, int]]:
    rng = np.random.default_rng(seed)
    return [tuple(rng.choice(n, size=2, replace=False).tolist()) for _ in range(count)]


def _same_survivors(router, view, t) -> bool:
    return (router._survivor_csr(t) != view.adjacency_csr()).nnz == 0


class TestIntactGraphs:
    def test_adjacent_pair_includes_direct_path(self):
        net = nw.hypercube(3)
        got = node_disjoint_paths(net, 0, 1)
        assert [0, 1] in got
        assert len(got) == 3

    def test_disconnected_pair_has_no_paths(self):
        net = Network.from_edge_list([(i,) for i in range(6)], [(0, 1), (1, 2), (3, 4), (4, 5)])
        assert node_disjoint_paths(net, 0, 5) == []
        assert oracle_node_disjoint_paths(net, 0, 5) == []

    def test_exported_functions_reject_directed(self):
        net = nw.kautz(2, 3, directed=True)
        for call, name in (
            (lambda: node_disjoint_paths(net, 0, 5), "node_disjoint_paths"),
            (lambda: edge_disjoint_paths(net, 0, 5), "edge_disjoint_paths"),
            (lambda: path_diversity(net, 3, np.random.default_rng(0)), "path_diversity"),
        ):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == (
                f"{name}: {net.name!r} is directed, but disjoint paths are "
                f"paths of the undirected graph"
            )

    def test_bad_ids_rejected(self):
        ring = nw.ring(5)
        with pytest.raises(ValueError, match=r"^s=-1 is not a node id in 0\.\.4$"):
            node_disjoint_paths(ring, -1, 2)
        with pytest.raises(ValueError, match=r"^t=5 is not a node id in 0\.\.4$"):
            node_disjoint_paths(ring, 0, 5)
        with pytest.raises(ValueError, match="^s and t must differ$"):
            node_disjoint_paths(ring, 2, 2)


class TestSurvivorMasks:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("kind", ["link", "node"])
    def test_masked_kernel_matches_rebuilt_survivor_graph(self, family, kind):
        net = FAMILIES[family]()
        model = FaultPlan.random_link_faults if kind == "link" else FaultPlan.random_node_faults
        for seed in range(3):
            rng = np.random.default_rng([seed, 17])
            timeline = model(net, 3, rng, horizon=30).compile(net)
            router = ResilientRouter(net, timeline)
            for t in (5, 31):
                view = FaultyNetwork.at(net, timeline, t)
                assert _same_survivors(router, view, t), (seed, t)
                for s, d in _pairs(net.num_nodes, 25, seed=seed + t):
                    want = shortest_survivor_path(view, s, d)
                    assert router._survivor_path(s, d, t) == want, (seed, t, s, d)

    def test_transient_faults_masks_need_not_be_monotone(self):
        net = nw.build("hsn", l=2, n=3)
        rng = np.random.default_rng(11)
        timeline = FaultPlan.random_link_faults(net, 8, rng, horizon=20, mttr=6).compile(net)
        router = ResilientRouter(net, timeline)
        times = sorted(set(timeline.change_times)) + [0]
        # revisit epochs out of order: a link that recovered is live again
        order = times[::2] + times[1::2] + times[::-1]
        for t in order:
            view = FaultyNetwork.at(net, timeline, t)
            assert _same_survivors(router, view, t), t
            for s, d in _pairs(net.num_nodes, 6, seed=t):
                want = shortest_survivor_path(view, s, d)
                assert router._survivor_path(s, d, t) == want, (t, s, d)
        assert len({frozenset(timeline.dead_links_at(t)) for t in times}) > 2

    def test_isolated_endpoint_and_disconnected_survivors(self):
        net = nw.hypercube(3)
        # node 0 cut off by its three links; node 7 down itself
        plan = FaultPlan().fail_node(0, 7)
        for v in (1, 2, 4):
            plan = plan.fail_link(0, 0, v)
        router = ResilientRouter(net, plan.compile(net))
        view = FaultyNetwork(net, dead_nodes=[7], dead_links=[(0, 1), (0, 2), (0, 4)])
        for s, d in [(0, 5), (5, 0), (7, 3), (3, 7), (1, 6)]:
            assert router._survivor_path(s, d, 0) == shortest_survivor_path(view, s, d)
        assert router._survivor_path(0, 5, 0) is None
        assert router._survivor_path(7, 3, 0) is None
        assert router._survivor_path(1, 6, 0) is not None
        ring = nw.ring(8)
        cut = FaultPlan().fail_link(0, 1, 2).fail_link(0, 5, 6)
        router = ResilientRouter(ring, cut.compile(ring))
        assert router._survivor_path(0, 4, 0) is None
        assert router._survivor_path(0, 1, 0) == (0, 1)

    def test_unmasked_query_after_masked_ones(self):
        net = nw.build("hsn", l=2, n=3)
        plan = FaultPlan().fail_link(0, 0, 1).fail_link(0, 0, 2)
        plan = plan.repair_link(10, 0, 1).repair_link(10, 0, 2)
        router = ResilientRouter(net, plan.compile(net))
        view = FaultyNetwork(net, dead_links=[(0, 1), (0, 2)])
        assert router._survivor_path(0, 63, 0) == shortest_survivor_path(view, 0, 63)
        want = shortest_survivor_path(FaultyNetwork(net), 0, 63)
        assert router._survivor_path(0, 63, 20) == want
        assert _same_survivors(router, FaultyNetwork(net), 20)

    def test_survivor_csr_masks_a_copy(self):
        net = nw.build("hsn", l=2, n=3)
        intact = net.adjacency_csr()
        before = [a.copy() for a in (intact.indptr, intact.indices, intact.data)]
        rng = np.random.default_rng(3)
        for model in (FaultPlan.random_link_faults, FaultPlan.random_node_faults):
            timeline = model(net, 6, rng, horizon=20, mttr=5).compile(net)
            router = ResilientRouter(net, timeline)
            for t in sorted(set(timeline.change_times)):
                assert _same_survivors(router, FaultyNetwork.at(net, timeline, t), t)
                for u, d in _pairs(net.num_nodes, 4, seed=t):
                    router._survivor_path(u, d, t)
        assert net.adjacency_csr() is intact
        for arr, old in zip((intact.indptr, intact.indices, intact.data), before):
            assert np.array_equal(arr, old)


class TestProductionUsesKernel:
    def test_path_diversity_unchanged(self):
        # the shared flow network gives the counts of one fresh networkx
        # query per pair
        net = nw.build("hsn", l=2, n=3)
        got = path_diversity(net, 30, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        counts, spreads = [], []
        for _ in range(30):
            s, t = (int(v) for v in rng.choice(net.num_nodes, size=2, replace=False))
            lengths = sorted(len(p) - 1 for p in oracle_node_disjoint_paths(net, s, t))
            counts.append(len(lengths))
            if len(lengths) > 1:
                spreads.append(lengths[-1] - lengths[0])
        assert got == {
            "min_paths": min(counts),
            "mean_paths": float(np.mean(counts)),
            "mean_length_spread": float(np.mean(spreads)),
            "pairs": 30,
            "kind": "node",
        }

    def test_faulted_sweep_never_calls_networkx_flow(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("networkx node_disjoint_paths called")

        monkeypatch.setattr(nx, "node_disjoint_paths", boom)
        monkeypatch.setattr(
            nx.algorithms.connectivity.disjoint_paths, "node_disjoint_paths", boom
        )
        monkeypatch.setattr(nx.algorithms.flow, "edmonds_karp", boom)
        net = nw.build("hsn", l=2, n=3)
        obs.reset()
        obs.enable()
        try:
            rows = fault_sweep(net, [0, 12], trials=2, cycles=40, rate=0.2, seed=3)
            counters = obs.report()["counters"]
        finally:
            obs.disable()
            obs.reset()
        assert rows[1]["faults"] == 12
        assert counters.get("routing.resilient.survivor_paths", 0) > 0
