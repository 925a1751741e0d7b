"""Tests for the percolation resilience subsystem (repro.fault.percolation).

Covers the batched masked union-find, monotone coupling guarantees,
threshold estimation, parallel/engine determinism, and input validation.
"""

import json
import math

import numpy as np
import pytest

from repro import networks as nw
from repro import obs
from repro.fault import percolation
from repro.fault.percolation import (
    default_probability_grid,
    estimate_threshold,
    masked_components,
    percolation_comparison,
    percolation_sweep,
    threshold_traffic_runs,
)

from repro.core.network import Network

from .components_oracle import oracle_masked_components
from .sim_oracle import ReferencePacketSimulator


class TestMaskedComponents:
    def test_intact_graph_single_component(self):
        g = nw.hypercube(3)
        labels = masked_components(g)
        assert labels.shape == (1, 8)
        assert (labels == 0).all()

    def test_dead_node_labeled_minus_one(self):
        g = nw.ring(6)
        alive = np.ones(6, dtype=bool)
        alive[2] = False
        labels = masked_components(g, alive)[0]
        assert labels[2] == -1
        # remaining nodes still connected around the ring
        live = labels[alive]
        assert (live == live[0]).all()

    def test_edge_mask_splits_ring(self):
        g = nw.ring(6)
        # kill two opposite edges: ring splits into two arcs
        edge_alive = np.ones(6, dtype=bool)
        edge_alive[0] = False  # (0, 1)
        edge_alive[3] = False  # (3, 4)
        labels = masked_components(g, edge_alive=edge_alive)[0]
        assert len(np.unique(labels)) == 2

    def test_batch_rows_independent(self):
        g = nw.hypercube(3)
        alive = np.ones((3, 8), dtype=bool)
        alive[1, :4] = False  # row 1: half the cube dead
        labels = masked_components(g, alive)
        assert (labels[0] == 0).all()
        assert (labels[2] == 0).all()
        assert (labels[1, :4] == -1).all()
        assert (labels[1, 4:] == 4).all()  # survivors form Q2 rooted at 4

    def test_component_counter_incremented(self):
        g = nw.ring(8)
        obs.reset()
        obs.enable()
        try:
            masked_components(g)
            counters = obs.report()["counters"]
            assert counters.get("percolation.components") == 1
        finally:
            obs.disable()
            obs.reset()


class TestComponentsOracle:
    """``masked_components`` against the pointer-doubling oracle."""

    @staticmethod
    def _random_net(rng, n, density):
        # isolated nodes appear whenever a node draws no edge; duplicates
        # and loops are dropped by the simple adjacency
        m = int(rng.integers(0, int(density * n) + 1))
        src = rng.integers(0, n, m)
        dst = rng.integers(0, n, m)
        return Network([(i,) for i in range(n)], src, dst, name="random")

    @pytest.mark.parametrize("case", range(40))
    def test_random_masks_match_oracle(self, case):
        rng = np.random.default_rng([2024, case])
        n = int(rng.integers(1, 40))
        net = self._random_net(rng, n, density=float(rng.choice([0.0, 0.5, 1.5])))
        num_edges = net.adjacency_csr(directed=False).nnz // 2
        batch = int(rng.integers(1, 5))
        node_alive = rng.random((batch, n)) < rng.random()
        edge_alive = rng.random((batch, num_edges)) < rng.random()
        obs.reset()
        obs.enable()
        try:
            labels = masked_components(net, node_alive, edge_alive)
            counted = obs.report()["counters"].get("percolation.components", 0)
        finally:
            obs.disable()
            obs.reset()
        expected = oracle_masked_components(net, node_alive, edge_alive)
        assert labels.dtype == np.int64
        assert np.array_equal(labels, expected)
        # the counter tallies distinct live labels, row by row
        assert counted == sum(
            len(np.unique(row[row >= 0])) for row in expected
        )

    def test_empty_edge_set(self):
        net = Network([(i,) for i in range(5)], [], [], name="empty")
        alive = np.array([[True, False, True, True, False], [True] * 5])
        labels = masked_components(net, alive)
        assert np.array_equal(labels, oracle_masked_components(net, alive))
        assert labels.tolist() == [[0, -1, 2, 3, -1], [0, 1, 2, 3, 4]]

    def test_isolated_nodes_keep_own_id(self):
        # path 0-1-2, isolated 3, edge 4-5
        net = Network([(i,) for i in range(6)], [0, 1, 4], [1, 2, 5], name="parts")
        labels = masked_components(net)
        assert labels.tolist() == [[0, 0, 0, 3, 4, 4]]
        assert np.array_equal(labels, oracle_masked_components(net))

    def test_registry_family_batch_matches_oracle(self):
        g = nw.build("hsn", l=2, n=3)
        rng = np.random.default_rng(11)
        node_alive = rng.random((6, g.num_nodes)) < 0.6
        edge_alive = rng.random((6, g.num_edges())) < 0.8
        assert np.array_equal(
            masked_components(g, node_alive, edge_alive),
            oracle_masked_components(g, node_alive, edge_alive),
        )


class TestPercolationSweep:
    def test_giant_fraction_monotone_in_p(self):
        g = nw.hypercube(4)
        rows = percolation_sweep(g, trials=4, kind="node", seed=3)
        fracs = [r["giant_frac"] for r in rows]
        assert all(b >= a - 1e-12 for a, b in zip(fracs, fracs[1:]))
        assert rows[-1]["giant_frac"] == 1.0  # p = 1.0: intact

    def test_link_kind_full_survival_intact(self):
        g = nw.hypercube(3)
        rows = percolation_sweep(g, [1.0], trials=2, kind="link", seed=0)
        assert rows[0]["giant_frac"] == 1.0
        assert rows[0]["routability"] == 1.0

    @pytest.mark.parametrize("kind", ["node", "link"])
    def test_bit_identical_across_jobs(self, kind):
        g = nw.hypercube(4)
        probs = [0.2, 0.5, 0.8]
        serial = percolation_sweep(g, probs, trials=4, kind=kind, seed=1, jobs=1)
        pooled = percolation_sweep(g, probs, trials=4, kind=kind, seed=1, jobs=4)
        assert json.dumps(serial) == json.dumps(pooled)

    def test_seed_changes_samples(self):
        g = nw.hypercube(4)
        a = percolation_sweep(g, [0.5], trials=4, kind="node", seed=0)
        b = percolation_sweep(g, [0.5], trials=4, kind="node", seed=99)
        assert a != b

    def test_default_grid_shape(self):
        grid = default_probability_grid()
        assert grid[0] == 0.05 and grid[-1] == 1.0 and len(grid) == 20


class TestValidation:
    def setup_method(self):
        self.g = nw.ring(8)

    @pytest.mark.parametrize(
        "probs",
        [[], [-0.1, 0.5], [0.5, 1.5], [0.5, 0.2], [0.3, 0.3]],
    )
    def test_bad_grids_rejected(self, probs):
        with pytest.raises(ValueError):
            percolation_sweep(self.g, probs, trials=1)

    def test_bad_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            percolation_sweep(self.g, [0.5], trials=0)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            percolation_sweep(self.g, [0.5], trials=1, kind="router")

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            threshold_traffic_runs(self.g, 1.7, kind="node")


class TestThresholdEstimate:
    def test_interpolates_crossing(self):
        rows = [
            {"p": 0.2, "giant_frac": 0.1},
            {"p": 0.4, "giant_frac": 0.3},
            {"p": 0.6, "giant_frac": 0.7},
        ]
        thr = estimate_threshold(rows, target=0.5)
        assert thr == pytest.approx(0.5)

    def test_never_crossing_is_nan(self):
        rows = [{"p": 0.5, "giant_frac": 0.2}, {"p": 1.0, "giant_frac": 0.4}]
        assert math.isnan(estimate_threshold(rows))

    def test_registry_families_have_finite_thresholds(self):
        # every family in the default comparison percolates by p = 1
        g = nw.ring(16)
        rows = percolation_sweep(g, trials=4, kind="node", seed=0)
        assert math.isfinite(estimate_threshold(rows))


class TestDegradedTraffic:
    def test_delivery_non_decreasing_in_p(self):
        g = nw.hypercube(4)
        rows = threshold_traffic_runs(
            g, 0.5, kind="node", delta=0.3, rate=0.05, cycles=40, seed=2
        )
        ratios = [r["delivery_ratio"] for r in rows]
        assert all(b >= a - 1e-12 for a, b in zip(ratios, ratios[1:]))

    @pytest.mark.parametrize("engine", ["event", "reference"])
    def test_engines_agree(self, engine, monkeypatch):
        if engine == "reference":
            monkeypatch.setattr(percolation, "PacketSimulator", ReferencePacketSimulator)
        g = nw.hypercube(3)
        rows = threshold_traffic_runs(
            g, 0.6, kind="link", delta=0.2, rate=0.05, cycles=30, seed=5, jobs=1
        )
        # the probe grid and per-point draws are engine-independent
        assert [r["p"] for r in rows] == [0.4, 0.6, 0.8]
        for r in rows:
            assert 0.0 <= r["delivery_ratio"] <= 1.0

    def test_engines_bit_identical(self, monkeypatch):
        g = nw.hypercube(3)
        kw = dict(kind="node", delta=0.25, rate=0.05, cycles=30, seed=9, jobs=1)
        ev = threshold_traffic_runs(g, 0.5, **kw)
        monkeypatch.setattr(percolation, "PacketSimulator", ReferencePacketSimulator)
        ref = threshold_traffic_runs(g, 0.5, **kw)
        assert json.dumps(ev) == json.dumps(ref)


class TestComparison:
    def test_small_case_list_rows(self):
        cases = [nw.ring(8), nw.hypercube(3)]
        rows = percolation_comparison(
            cases, [0.3, 0.6, 0.9, 1.0], trials=2, kind="node",
            seed=0, traffic=False,
        )
        assert [r["network"] for r in rows] == ["ring(8)", "Q3"]
        for r in rows:
            assert r["routability@1.0"] == 1.0
