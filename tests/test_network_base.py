"""Tests for the Network base container."""

import numpy as np
import pytest

from repro.core.network import Network


def triangle():
    return Network.from_edge_list([(0,), (1,), (2,)], [(0, 1), (1, 2), (2, 0)])


class TestConstruction:
    def test_basic(self):
        n = triangle()
        assert n.num_nodes == 3
        assert n.num_edges() == 3
        assert n.max_degree == n.min_degree == 2

    def test_duplicate_arcs_merged(self):
        n = Network.from_edge_list([(0,), (1,)], [(0, 1), (0, 1), (1, 0)])
        assert n.num_edges() == 1
        assert n.max_degree == 1

    def test_self_loops_dropped(self):
        n = Network.from_edge_list([(0,), (1,)], [(0, 0), (0, 1)])
        assert n.num_edges() == 1
        assert list(n.neighbors(0)) == [1]

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            Network([(0,), (0,)], [0], [1])

    def test_edge_out_of_range(self):
        with pytest.raises(ValueError):
            Network([(0,), (1,)], [0], [5])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Network([(0,), (1,)], [0, 1], [1])

    def test_by_label_edges(self):
        n = Network.from_edge_list(
            ["a", "b", "c"], [("a", "b"), ("b", "c")], by_label=True
        )
        assert n.num_edges() == 2
        assert n.node_of("b") == 1

    def test_numpy_edge_arrays(self):
        n = Network([(0,), (1,), (2,)], np.array([0, 1]), np.array([1, 2]))
        assert n.num_edges() == 2


class TestAccessors:
    def test_label_roundtrip(self):
        n = triangle()
        for i in range(3):
            assert n.node_of(n.label_of(i)) == i

    def test_neighbors_sorted_unique(self):
        n = Network.from_edge_list(
            [(i,) for i in range(4)], [(0, 2), (0, 1), (0, 2), (0, 3)]
        )
        assert n.neighbors(0) == [1, 2, 3]

    def test_degree_histogram(self):
        n = Network.from_edge_list([(i,) for i in range(4)], [(0, 1), (0, 2), (0, 3)])
        assert n.degree_histogram() == {1: 3, 3: 1}

    def test_mean_degree(self):
        n = triangle()
        assert n.mean_degree == 2.0

    def test_is_regular(self):
        assert triangle().is_regular()
        star = Network.from_edge_list([(i,) for i in range(4)], [(0, i) for i in (1, 2, 3)])
        assert not star.is_regular()

    def test_len(self):
        assert len(triangle()) == 3

    @pytest.mark.parametrize("bad", [-1, 3, np.int64(-2)])
    def test_label_of_rejects_out_of_range(self, bad):
        n = Network([(0,), (1,), (2,)], [0, 1], [1, 2], name="tri")
        with pytest.raises(ValueError) as exc:
            n.label_of(bad)
        assert str(exc.value) == f"node id {bad} is out of range for 'tri' (valid ids: 0..2)"

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_neighbors_rejects_out_of_range(self, bad):
        n = Network([(0,), (1,), (2,)], [0, 1], [1, 2], name="tri")
        with pytest.raises(ValueError) as exc:
            n.neighbors(bad)
        assert str(exc.value) == f"node id {bad} is out of range for 'tri' (valid ids: 0..2)"

    def test_repr(self):
        n = triangle()
        assert "N=3" in repr(n)


class TestDirected:
    def test_directed_adjacency(self):
        n = Network([(0,), (1,)], [0], [1], directed=True)
        assert n.neighbors(0) == [1]
        assert n.neighbors(1) == []
        assert n.num_edges() == 1

    def test_directed_override(self):
        n = Network([(0,), (1,)], [0], [1], directed=True)
        sym = n.adjacency_csr(directed=False)
        assert sym[1, 0] == 1 and sym[0, 1] == 1

    def test_to_networkx_directed(self):
        import networkx as nx

        n = Network([(0,), (1,)], [0], [1], directed=True)
        g = n.to_networkx()
        assert isinstance(g, nx.DiGraph)
        assert g.has_edge(0, 1) and not g.has_edge(1, 0)

    def test_to_networkx_undirected_with_labels(self):
        g = triangle().to_networkx(labels=True)
        assert g.nodes[1]["label"] == (1,)
