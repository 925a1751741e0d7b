"""The array-native node-disjoint-paths kernel against its networkx oracle.

:class:`repro.routing.disjoint.NodeDisjointPaths` must return exactly the
path lists of ``networkx.node_disjoint_paths`` (``tests/disjoint_oracle.py``)
— same paths, same order — on intact graphs, and on survivor graphs when
a fault epoch is expressed as a capacity mask over the intact structure.
"""

import networkx as nx
import numpy as np
import pytest

from repro import networks as nw
from repro import obs
from repro.core.network import Network
from repro.fault import FaultPlan
from repro.fault.sweep import fault_sweep
from repro.routing import disjoint
from repro.routing.disjoint import (
    NodeDisjointPaths,
    edge_disjoint_paths,
    node_disjoint_paths,
    path_diversity,
)

from .disjoint_oracle import oracle_node_disjoint_paths, oracle_survivor_paths
from .fault_view import FaultyNetwork

FAMILIES = {
    "hsn": lambda: nw.build("hsn", l=2, n=3),
    "hypercube": lambda: nw.hypercube(4),
    "star": lambda: nw.star_graph(4),
    "ring": lambda: nw.ring(9),
    "kautz": lambda: nw.kautz(2, 3, directed=True),
}


def _survivor_kernel(net: Network) -> NodeDisjointPaths:
    """The kernel the resilient router builds: intact survivor arc order."""
    src, dst = FaultyNetwork(net).survivor_arcs()
    return NodeDisjointPaths.from_arcs(net.num_nodes, src, dst, net.directed)


def _pairs(n: int, count: int, seed: int) -> list[tuple[int, int]]:
    rng = np.random.default_rng(seed)
    return [tuple(rng.choice(n, size=2, replace=False).tolist()) for _ in range(count)]


def _shuffled(net: Network, seed: int) -> Network:
    """Same graph, arcs in a scrambled order (and some flipped/duplicated),
    so networkx's adjacency order is far from sorted."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(net.edges_src))
    src, dst = net.edges_src[perm], net.edges_dst[perm]
    if not net.directed:
        flip = rng.random(len(src)) < 0.5
        src, dst = np.where(flip, dst, src), np.where(flip, src, dst)
    return Network(
        net.labels,
        np.concatenate([src, src[:3]]),
        np.concatenate([dst, dst[:3]]),
        name=f"{net.name}/shuffled",
        directed=net.directed,
    )


class TestIntactGraphs:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_path_lists_match_oracle(self, family):
        net = FAMILIES[family]()
        solver = NodeDisjointPaths(net)
        for s, t in _pairs(net.num_nodes, 40, seed=1):
            assert solver(s, t) == oracle_node_disjoint_paths(net, s, t), (s, t)

    @pytest.mark.parametrize("family", ["hsn", "kautz"])
    def test_arc_insertion_order_is_reproduced(self, family):
        net = _shuffled(FAMILIES[family](), seed=3)
        solver = NodeDisjointPaths(net)
        for s, t in _pairs(net.num_nodes, 40, seed=2):
            assert solver(s, t) == oracle_node_disjoint_paths(net, s, t), (s, t)

    def test_adjacent_pair_includes_direct_path(self):
        net = nw.hypercube(3)
        got = node_disjoint_paths(net, 0, 1)
        assert [0, 1] in got
        assert got == oracle_node_disjoint_paths(net, 0, 1)

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
        solver = NodeDisjointPaths(nw.ring(5))
        with pytest.raises(ValueError, match=r"^s=-1 is not a node id in 0\.\.4$"):
            solver(-1, 2)
        with pytest.raises(ValueError, match=r"^t=5 is not a node id in 0\.\.4$"):
            solver(0, 5)
        with pytest.raises(ValueError, match="^s and t must differ$"):
            solver(2, 2)


class TestSurvivorMasks:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("kind", ["link", "node"])
    def test_masked_kernel_matches_rebuilt_survivor_graph(self, family, kind):
        net = FAMILIES[family]()
        solver = _survivor_kernel(net)
        model = FaultPlan.random_link_faults if kind == "link" else FaultPlan.random_node_faults
        for seed in range(3):
            rng = np.random.default_rng([seed, 17])
            timeline = model(net, 3, rng, horizon=30).compile(net)
            for t in (5, 31):
                view = FaultyNetwork.at(net, timeline, t)
                mask = solver.mask(view.dead_nodes, view.dead_links)
                for s, d in _pairs(net.num_nodes, 25, seed=seed + t):
                    want = oracle_survivor_paths(view, s, d)
                    assert solver(s, d, mask) == want, (seed, t, s, d)

    def test_transient_faults_masks_need_not_be_monotone(self):
        net = nw.build("hsn", l=2, n=3)
        solver = _survivor_kernel(net)
        rng = np.random.default_rng(11)
        timeline = FaultPlan.random_link_faults(net, 8, rng, horizon=20, mttr=6).compile(net)
        times = sorted(set(timeline.change_times)) + [0]
        # revisit epochs out of order: a link that recovered is live again
        order = times[::2] + times[1::2] + times[::-1]
        for t in order:
            view = FaultyNetwork.at(net, timeline, t)
            mask = solver.mask(view.dead_nodes, view.dead_links)
            for s, d in _pairs(net.num_nodes, 6, seed=t):
                assert solver(s, d, mask) == oracle_survivor_paths(view, s, d), (t, s, d)
        assert len({frozenset(timeline.dead_links_at(t)) for t in times}) > 2

    def test_isolated_endpoint_and_disconnected_survivors(self):
        net = nw.hypercube(3)
        solver = _survivor_kernel(net)
        # node 0 cut off by its three links; node 7 down itself
        view = FaultyNetwork(net, dead_nodes=[7], dead_links=[(0, 1), (0, 2), (0, 4)])
        mask = solver.mask(view.dead_nodes, view.dead_links)
        for s, d in [(0, 5), (5, 0), (7, 3), (3, 7), (1, 6)]:
            assert solver(s, d, mask) == oracle_survivor_paths(view, s, d), (s, d)
        assert solver(0, 5, mask) == [] and solver(7, 3, mask) == []
        ring = nw.ring(8)
        cut = FaultyNetwork(ring, dead_links=[(1, 2), (5, 6)])
        solver = _survivor_kernel(ring)
        mask = solver.mask(cut.dead_nodes, cut.dead_links)
        assert solver(0, 4, mask) == [] == oracle_survivor_paths(cut, 0, 4)
        assert solver(0, 1, mask) == [[0, 1]] == oracle_survivor_paths(cut, 0, 1)

    def test_unmasked_query_after_masked_ones(self):
        net = nw.build("hsn", l=2, n=3)
        solver = _survivor_kernel(net)
        view = FaultyNetwork(net, dead_links=[(0, 1), (0, 2)])
        mask = solver.mask(view.dead_nodes, view.dead_links)
        solver(0, 63, mask)
        want = oracle_survivor_paths(FaultyNetwork(net), 0, 63)
        assert solver(0, 63) == want


class TestProductionUsesKernel:
    def test_path_diversity_unchanged(self, monkeypatch):
        net = nw.build("hsn", l=2, n=3)
        got = path_diversity(net, 30, np.random.default_rng(5))

        class Oracle:
            def __init__(self, g):
                self.g = g

            def __call__(self, s, t):
                return oracle_node_disjoint_paths(self.g, s, t)

        monkeypatch.setattr(disjoint, "NodeDisjointPaths", Oracle)
        assert got == path_diversity(net, 30, np.random.default_rng(5))

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
