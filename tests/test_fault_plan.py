"""Tests for fault models (FaultPlan/FaultTimeline) and the FaultyNetwork view."""

import math

import numpy as np
import pytest

from repro import networks as nw
from repro.fault import FaultEvent, FaultPlan
from repro.fault.plan import _undirected_edges

from .fault_view import FaultyNetwork
from .test_sim_equivalence_random import FAMILIES


class TestFaultPlanBuilders:
    def test_empty_plan(self):
        plan = FaultPlan()
        assert plan.is_empty
        assert len(plan) == 0
        assert plan.compile(nw.ring(4)).empty

    def test_chainable_builders(self):
        plan = FaultPlan().fail_link(0, 1, 2).repair_link(5, 2, 1).fail_node(3, 0)
        assert len(plan) == 3
        assert not plan.is_empty
        assert "1 node / 1 link failures" in repr(plan)

    def test_link_endpoints_normalized(self):
        plan = FaultPlan().fail_link(0, 3, 1)
        assert plan.events[0].ident == (1, 3)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            FaultPlan([FaultEvent(0, "router", 3)])

    def test_bad_action_rejected(self):
        with pytest.raises(ValueError, match="action"):
            FaultPlan([FaultEvent(0, "node", 3, "explode")])

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            FaultPlan().fail_node(-1, 0)


class TestCompileValidation:
    def test_node_out_of_range(self):
        with pytest.raises(ValueError, match="node 99"):
            FaultPlan().fail_node(0, 99).compile(nw.ring(8))

    def test_link_not_an_edge(self):
        with pytest.raises(ValueError, match=r"link \(0, 4\)"):
            FaultPlan().fail_link(0, 0, 4).compile(nw.ring(8))

    def test_valid_plan_compiles(self):
        tl = FaultPlan().fail_link(2, 0, 1).fail_node(4, 5).compile(nw.ring(8))
        assert not tl.empty
        assert "1 nodes, 1 links" in repr(tl)


class TestTimelineQueries:
    def test_permanent_link_fault(self):
        tl = FaultPlan().fail_link(10, 0, 1).compile(nw.ring(8))
        assert tl.link_up_at(0, 1, 9)
        assert not tl.link_up_at(0, 1, 10)
        assert not tl.link_up_at(1, 0, 10_000)  # either orientation
        assert tl.link_up_at(1, 2, 10)  # other links untouched

    def test_transient_interval_is_half_open(self):
        tl = FaultPlan().fail_link(10, 0, 1).repair_link(20, 0, 1).compile(nw.ring(8))
        assert tl.link_up_at(0, 1, 9)
        assert not tl.link_up_at(0, 1, 10)
        assert not tl.link_up_at(0, 1, 19)
        assert tl.link_up_at(0, 1, 20)

    def test_node_intervals(self):
        tl = FaultPlan().fail_node(5, 3).repair_node(8, 3).compile(nw.ring(8))
        assert tl.node_up_at(3, 4)
        assert not tl.node_up_at(3, 5)
        assert tl.node_up_at(3, 8)
        assert tl.node_up_at(2, 6)

    def test_duplicate_fails_merge(self):
        tl = (
            FaultPlan()
            .fail_node(5, 3)
            .fail_node(7, 3)
            .repair_node(9, 3)
            .compile(nw.ring(8))
        )
        assert tl.node_down[3] == [(5, 9)]

    def test_unmatched_repair_is_noop(self):
        tl = FaultPlan().repair_node(5, 3).compile(nw.ring(8))
        assert tl.node_up_at(3, 5)
        assert tl.empty

    def test_link_down_during_window(self):
        tl = FaultPlan().fail_link(10, 0, 1).repair_link(20, 0, 1).compile(nw.ring(8))
        # window [t0, t1): occupied 0..9 → safe; 5..15 → hit; 20..30 → safe
        assert not tl.link_down_during(0, 1, 0, 9)
        assert tl.link_down_during(0, 1, 5, 15)
        assert tl.link_down_during(0, 1, 12, 14)
        assert not tl.link_down_during(0, 1, 20, 30)
        # fault starting exactly at the window end is not a hit
        assert not tl.link_down_during(0, 1, 5, 10)

    def test_epoch_advances_on_changes(self):
        tl = FaultPlan().fail_link(10, 0, 1).repair_link(20, 0, 1).compile(nw.ring(8))
        assert tl.epoch(9) == 0
        assert tl.epoch(10) == 1
        assert tl.epoch(19) == 1
        assert tl.epoch(20) == 2

    def test_dead_sets_at(self):
        tl = (
            FaultPlan()
            .fail_node(0, 2)
            .fail_link(5, 0, 1)
            .repair_link(9, 0, 1)
            .compile(nw.ring(8))
        )
        assert tl.dead_nodes_at(0) == {2}
        assert tl.dead_links_at(0) == set()
        assert tl.dead_links_at(6) == {(0, 1)}
        assert tl.dead_links_at(9) == set()


class TestRandomModels:
    def test_random_link_faults_deterministic(self):
        g = nw.hypercube(4)
        p1 = FaultPlan.random_link_faults(g, 5, np.random.default_rng(3), horizon=50)
        p2 = FaultPlan.random_link_faults(g, 5, np.random.default_rng(3), horizon=50)
        assert p1.events == p2.events
        assert sum(1 for e in p1.events if e.action == "fail") == 5

    def test_random_link_faults_too_many(self):
        with pytest.raises(ValueError, match="only"):
            FaultPlan.random_link_faults(nw.ring(4), 5, np.random.default_rng(0))

    def test_random_node_faults(self):
        g = nw.ring(10)
        plan = FaultPlan.random_node_faults(g, 3, np.random.default_rng(1), horizon=9)
        nodes = {e.ident for e in plan.events}
        assert len(nodes) == 3
        assert all(0 <= e.t <= 9 for e in plan.events)
        with pytest.raises(ValueError, match="every node"):
            FaultPlan.random_node_faults(g, 10, np.random.default_rng(1))

    def test_mttr_schedules_repairs(self):
        g = nw.ring(10)
        plan = FaultPlan.random_link_faults(
            g, 4, np.random.default_rng(2), horizon=10, mttr=8
        )
        fails = [e for e in plan.events if e.action == "fail"]
        repairs = [e for e in plan.events if e.action == "repair"]
        assert len(fails) == len(repairs) == 4
        tl = plan.compile(g)
        assert all(b != math.inf for ivs in tl.link_down.values() for _, b in ivs)

    def test_link_mtbf_renewal(self):
        g = nw.ring(6)
        plan = FaultPlan.link_mtbf(g, mtbf=40.0, horizon=200,
                                   rng=np.random.default_rng(0), mttr=5)
        assert not plan.is_empty
        plan.compile(g)  # all sampled faults name real links
        p2 = FaultPlan.link_mtbf(g, mtbf=40.0, horizon=200,
                                 rng=np.random.default_rng(0), mttr=5)
        assert plan.events == p2.events

    def test_module_failures_correlated(self):
        g = nw.hypercube(4)
        module_of = np.arange(16) // 4  # 4 modules of 4
        plan = FaultPlan.module_failures(g, module_of, 1, np.random.default_rng(0))
        downs = sorted(e.ident for e in plan.events)
        assert len(downs) == 4  # a whole module died together
        assert len({module_of[v] for v in downs}) == 1
        with pytest.raises(ValueError, match="every module"):
            FaultPlan.module_failures(g, module_of, 4, np.random.default_rng(0))


class TestModelValidation:
    """Bad random-model parameters fail fast, naming the value."""

    @pytest.mark.parametrize("model", ["random_link_faults", "random_node_faults"])
    def test_negative_count(self, model):
        with pytest.raises(ValueError, match=r"^fault count must be >= 0, got -1$"):
            getattr(FaultPlan, model)(nw.ring(8), -1, np.random.default_rng(0))

    @pytest.mark.parametrize("model", ["random_link_faults", "random_node_faults"])
    def test_negative_horizon(self, model):
        with pytest.raises(ValueError, match=r"^fault horizon must be >= 0, got -5$"):
            getattr(FaultPlan, model)(
                nw.ring(8), 2, np.random.default_rng(0), horizon=-5
            )

    @pytest.mark.parametrize("mttr", [0, -3])
    @pytest.mark.parametrize(
        "build",
        [
            lambda g, rng, mttr: FaultPlan.random_link_faults(g, 2, rng, mttr=mttr),
            lambda g, rng, mttr: FaultPlan.random_node_faults(g, 2, rng, mttr=mttr),
            lambda g, rng, mttr: FaultPlan.link_mtbf(g, 10.0, 50, rng, mttr=mttr),
            lambda g, rng, mttr: FaultPlan.module_failures(
                g, np.arange(8) // 4, 1, rng, mttr=mttr
            ),
        ],
        ids=["random_link_faults", "random_node_faults", "link_mtbf", "module_failures"],
    )
    def test_non_positive_mttr(self, build, mttr):
        with pytest.raises(
            ValueError, match=rf"^mttr must be > 0 cycles, got {mttr}$"
        ):
            build(nw.ring(8), np.random.default_rng(0), mttr)

    def test_link_mtbf_negative_horizon(self):
        with pytest.raises(ValueError, match=r"^fault horizon must be >= 0, got -1$"):
            FaultPlan.link_mtbf(nw.ring(8), 10.0, -1, np.random.default_rng(0))

    def test_timeline_keys_that_overflow_int64_fail_fast(self):
        g = nw.ring(8)
        plan = FaultPlan().fail_link(2**62, 0, 1).fail_link(0, 1, 2)
        with pytest.raises(ValueError, match=r"^fault timeline does not fit int64"):
            plan.compile(g)
        plan = FaultPlan().fail_link(0, 0, 1).repair_link(2**64, 0, 1)
        with pytest.raises(ValueError, match=rf"repair at cycle {2**64} does not fit"):
            plan.compile(g)


class TestUndirectedEdges:
    """The array-native edge list keeps the order of the sorted pair list."""

    @staticmethod
    def _sorted_pairs(net):
        coo = net.adjacency_csr(directed=False).tocoo()
        mask = coo.row < coo.col
        return sorted(zip(coo.row[mask].tolist(), coo.col[mask].tolist()))

    @pytest.mark.parametrize(
        "build",
        [*FAMILIES.values(), lambda: nw.rotator_graph(4), lambda: nw.build("hsn", l=4, n=4)],
        ids=[*FAMILIES, "rotator(4)-directed", "hsn(4,Q4)"],
    )
    def test_matches_sorted_pairs(self, build):
        net = build()
        edges = _undirected_edges(net)
        assert edges.dtype == np.int64 and edges.shape == (len(edges), 2)
        assert edges.tolist() == [list(p) for p in self._sorted_pairs(net)]

    def test_unsorted_csr_indices_are_sorted(self, monkeypatch):
        net = nw.hypercube(3)
        csr = net.adjacency_csr(directed=False).copy()
        for u in range(net.num_nodes):  # reverse every row's column order
            a, b = csr.indptr[u], csr.indptr[u + 1]
            csr.indices[a:b] = csr.indices[a:b][::-1].copy()
        csr.has_sorted_indices = False
        want = self._sorted_pairs(net)
        monkeypatch.setattr(net, "adjacency_csr", lambda directed=None: csr)
        assert _undirected_edges(net).tolist() == [list(p) for p in want]


class TestArrayQueries:
    """The batch queries over the flattened intervals answer exactly what
    the scalar queries answer, for every cycle and window."""

    @pytest.mark.parametrize("seed", range(12))
    def test_match_scalar_queries(self, seed):
        net = nw.hypercube(4)
        rng = np.random.default_rng(seed)
        horizon = int(rng.integers(0, 40))
        mttr = None if seed % 3 == 0 else int(rng.integers(1, 12))
        plan = FaultPlan.random_link_faults(
            net, int(rng.integers(1, 8)), rng, horizon=horizon, mttr=mttr
        )
        plan.events += FaultPlan.random_node_faults(
            net, int(rng.integers(0, 5)), rng, horizon=horizon, mttr=mttr
        ).events
        if seed % 2:  # renewal faults: several merged intervals per link
            plan.events += FaultPlan.link_mtbf(
                net, 15.0, horizon, rng, mttr=mttr or 4
            ).events
        tl = plan.compile(net)
        assert set(range(16)) - set(tl.node_down)  # never-faulted nodes
        edges = _undirected_edges(net)
        assert len(edges) > len(tl.link_down)  # never-faulted links
        u, v = edges[:, 0], edges[:, 1]
        cols = tl.link_columns(u, v)
        assert np.array_equal(cols, tl.link_columns(v, u))
        assert ((cols >= 0) == [(a, b) in tl.link_down for a, b in edges.tolist()]).all()
        nodes = np.arange(net.num_nodes)
        for t in range(horizon + 3):
            assert tl.nodes_up_at(nodes, t).tolist() == [
                tl.node_up_at(x, t) for x in range(net.num_nodes)
            ]
            assert tl.hops_alive(u, v, t).tolist() == [
                tl.link_up_at(a, b, t) and tl.node_up_at(b, t)
                for a, b in edges.tolist()
            ]
            t0 = rng.integers(0, t + 1, size=len(edges))
            assert tl.links_down_during(cols, t0, t).tolist() == [
                tl.link_down_during(a, b, s, t)
                for (a, b), s in zip(edges.tolist(), t0.tolist())
            ]

    def test_scalar_queries_match_interval_definition(self):
        net = nw.hypercube(4)
        rng = np.random.default_rng(7)
        plan = FaultPlan.link_mtbf(net, 10.0, 60, rng, mttr=5)
        plan.events += FaultPlan.random_node_faults(
            net, 4, rng, horizon=60, mttr=6
        ).events
        tl = plan.compile(net)
        for t in range(63):
            for x in range(net.num_nodes):
                ivs = tl.node_down.get(x, [])
                assert tl.node_up_at(x, t) == (not any(a <= t < b for a, b in ivs))
            for (a, b), ivs in tl.link_down.items():
                assert tl.link_up_at(b, a, t) == (not any(s <= t < e for s, e in ivs))
                for t0 in range(max(0, t - 6), t + 1):
                    assert tl.link_down_during(a, b, t0, t) == any(
                        s < t and e > t0 for s, e in ivs
                    )

    def test_queries_without_faulted_entities(self):
        tl = FaultPlan().fail_node(3, 2).compile(nw.ring(8))
        assert tl.link_columns([0, 1], [1, 2]).tolist() == [-1, -1]
        assert tl.hops_alive([1, 0], [2, 1], 5).tolist() == [False, True]
        assert tl.links_down_during([-1], [0], 9).tolist() == [False]
        # (0, 13) packs to 1·8 + 5, the key of faulted link (1, 5): ids
        # outside the network must not alias it
        tl = FaultPlan().fail_link(0, 1, 5).compile(nw.hypercube(3))
        assert tl.link_columns([1, 0, -1], [5, 13, 5]).tolist() == [0, -1, -1]
        assert not tl.link_up_at(5, 1, 4)
        with pytest.raises(ValueError) as err:
            tl.link_up_at(0, 13, 4)
        assert str(err.value) == "link_up_at: link (0, 13) has a node id outside 0..7"

    def test_link_queries_reject_bad_pairs(self):
        # a pair that is not a link must not read as "never faulted"
        tl = FaultPlan().fail_link(0, 1, 5).compile(nw.hypercube(3))
        for u, v, why in (
            (-1, 3, "has a node id outside 0..7"),
            (8, 0, "has a node id outside 0..7"),
            (0, 7, "is not an edge of 'Q3'"),
            (2, 2, "is not an edge of 'Q3'"),
        ):
            with pytest.raises(ValueError) as err:
                tl.link_up_at(u, v, 4)
            assert str(err.value) == f"link_up_at: link ({u}, {v}) {why}"
            with pytest.raises(ValueError) as err:
                tl.link_down_during(u, v, 0, 4)
            assert str(err.value) == f"link_down_during: link ({u}, {v}) {why}"
        # every intact edge answers, faulted or not
        assert tl.link_up_at(0, 1, 4) and tl.link_up_at(6, 7, 4)

    def test_node_up_at_rejects_bad_ids(self):
        # a negative id must not wrap around to a real node, nor an id
        # past the end read as "never faulted"
        tl = FaultPlan().fail_node(0, 3).compile(nw.hypercube(3))
        for v in (-5, -1, 8):
            with pytest.raises(
                ValueError, match=rf"^node_up_at: node id {v} is outside 0\.\.7$"
            ):
                tl.node_up_at(v, 0)
        assert not tl.node_up_at(3, 0) and tl.node_up_at(7, 0)


class TestFaultyNetwork:
    def test_masking_preserves_ids(self):
        g = nw.ring(8)
        view = FaultyNetwork(g, dead_nodes=[3], dead_links=[(0, 1)])
        assert view.num_nodes == 8
        assert view.num_alive == 7
        assert view.survivors() == [0, 1, 2, 4, 5, 6, 7]
        assert not view.is_node_up(3)
        assert view.is_node_up(4)

    def test_link_liveness(self):
        g = nw.ring(8)
        view = FaultyNetwork(g, dead_nodes=[3], dead_links=[(0, 1)])
        assert not view.is_link_up(0, 1)
        assert not view.is_link_up(1, 0)
        assert not view.is_link_up(2, 3)  # incident to a dead node
        assert view.is_link_up(1, 2)

    def test_alive_neighbors(self):
        g = nw.ring(8)
        view = FaultyNetwork(g, dead_nodes=[3], dead_links=[(0, 1)])
        assert view.alive_neighbors(0) == [7]
        assert view.alive_neighbors(2) == [1]
        assert view.alive_neighbors(3) == []

    def test_adjacency_masked(self):
        g = nw.hypercube(3)
        view = FaultyNetwork(g, dead_nodes=[0])
        csr = view.adjacency_csr()
        assert csr.indptr[1] - csr.indptr[0] == 0  # dead row empty
        assert csr.nnz == g.adjacency_csr().nnz - 2 * 3  # both arc directions

    def test_to_network_survivor_graph(self):
        g = nw.ring(6)
        view = FaultyNetwork(g, dead_links=[(0, 1)])
        surv = view.to_network()
        assert surv.num_nodes == 6  # ids stable
        assert surv.num_edges() == 5
        assert 1 not in surv.neighbors(0)

    def test_snapshot_at_time(self):
        g = nw.ring(8)
        tl = FaultPlan().fail_node(5, 2).compile(g)
        before = FaultyNetwork.at(g, tl, 4)
        after = FaultyNetwork.at(g, tl, 5)
        assert before.num_alive == 8
        assert after.num_alive == 7

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            FaultyNetwork(nw.ring(4), dead_nodes=[9])
        with pytest.raises(ValueError, match="out of range"):
            FaultyNetwork(nw.ring(4), dead_links=[(0, 9)])
