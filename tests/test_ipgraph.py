"""Tests for the IP-graph engine, including the paper's worked examples."""

import numpy as np
import pytest

from repro.core.ipgraph import GENERIC, NUCLEUS, SUPER, Generator, build_ip_graph
from repro.core.network import Network
from repro.core.permutation import (
    cyclic_shift_left,
    from_cycles,
    identity,
    transposition,
)
from repro.core.superip import SuperGeneratorSet
from repro.networks.classic import petersen
from repro.networks.hier import explicit_super_graph


class TestPaperExamples:
    """Section 2 of the paper, reproduced verbatim."""

    def test_six_star_is_720_nodes(self):
        # "If we continue this process ... we will obtain 720 distinct labels"
        seed = tuple(range(6))
        gens = [from_cycles(6, [(1, i)], one_based=True) for i in range(2, 7)]
        g = build_ip_graph(seed, gens)
        assert g.num_nodes == 720
        assert g.is_regular()
        assert g.max_degree == 5

    def test_six_star_neighbor_labels(self):
        # X = 123456; generators pi_1..pi_5 give the listed neighbors
        seed = (1, 2, 3, 4, 5, 6)
        gens = [from_cycles(6, [(1, i)], one_based=True) for i in range(2, 7)]
        g = build_ip_graph(seed, gens)
        neighbors = {g.labels[g.apply_generator(0, k)] for k in range(5)}
        assert neighbors == {
            (2, 1, 3, 4, 5, 6),
            (3, 2, 1, 4, 5, 6),
            (4, 2, 3, 1, 5, 6),
            (5, 2, 3, 4, 1, 6),
            (6, 2, 3, 4, 5, 1),
        }

    def test_ip_example_36_nodes(self):
        # seed 123123 with pi_1=(1,2), pi_2=(1,3), pi_6=456123
        seed = (1, 2, 3, 1, 2, 3)
        gens = [
            from_cycles(6, [(1, 2)], one_based=True),
            from_cycles(6, [(1, 3)], one_based=True),
            cyclic_shift_left(6, 3),
        ]
        g = build_ip_graph(seed, gens)
        assert g.num_nodes == 36

    def test_ip_example_neighbors(self):
        # Y = 123123 -> 213123, 321123, 123123-rotated = 123123
        seed = (1, 2, 3, 1, 2, 3)
        gens = [
            from_cycles(6, [(1, 2)], one_based=True),
            from_cycles(6, [(1, 3)], one_based=True),
            cyclic_shift_left(6, 3),
        ]
        g = build_ip_graph(seed, gens)
        assert g.labels[g.apply_generator(0, 0)] == (2, 1, 3, 1, 2, 3)
        assert g.labels[g.apply_generator(0, 1)] == (3, 2, 1, 1, 2, 3)
        # the rotation maps the seed to itself (both halves equal)
        assert g.apply_generator(0, 2) == 0

    def test_hcn_seed_self_loop(self):
        """The paper notes the first generated HCN node is the seed itself
        (the swap fixes the repeated-halves seed)."""
        from repro.networks.nuclei import hypercube_nucleus
        from repro.core.superip import SuperGeneratorSet, build_super_ip_graph

        g = build_super_ip_graph(hypercube_nucleus(2), SuperGeneratorSet.transpositions(2))
        swap_gen = len(g.generators) - 1
        assert g.generators[swap_gen].kind == SUPER
        assert g.apply_generator(0, swap_gen) == 0  # self-loop on the seed

    def test_seed_choice_gives_same_connectivity(self):
        """'using the label of any of the 16 nodes as the initial seed will
        eventually generate exactly the same graph'."""
        from repro.networks.nuclei import hypercube_nucleus
        from repro.core.superip import SuperGeneratorSet, build_super_ip_graph

        base = build_super_ip_graph(
            hypercube_nucleus(2), SuperGeneratorSet.transpositions(2)
        )
        gens = base.generators
        for node in range(0, base.num_nodes, 5):
            g2 = build_ip_graph(base.labels[node], gens)
            assert set(g2.labels) == set(base.labels)


class TestEngine:
    def setup_method(self):
        self.seed = (0, 1, 2)
        self.gens = [
            Generator(transposition(3, 0, 1), name="a"),
            Generator(transposition(3, 0, 2), name="b"),
        ]

    def test_builds_s3(self):
        g = build_ip_graph(self.seed, self.gens)
        assert g.num_nodes == 6
        assert g.num_edges() == 6
        assert g.max_degree == 2  # S3 is a 6-cycle

    def test_node_label_roundtrip(self):
        g = build_ip_graph(self.seed, self.gens)
        for i in range(g.num_nodes):
            assert g.node_of(g.label_of(i)) == i

    def test_apply_generator_matches_edges(self):
        # nucleus slot generators of an explicit graph: the move depends
        # on the front state, not on a permutation of the label
        explicit = explicit_super_graph(petersen(), SuperGeneratorSet.ring(2))
        assert explicit.labels[explicit.apply_generator(5, 0)] == (1, 0)
        for g in (build_ip_graph(self.seed, self.gens), explicit):
            arcs = zip(g.edges_src.tolist(), g.edges_dst.tolist(), g.edges_gen.tolist())
            for u, v, k in arcs:
                assert g.apply_generator(u, k) == v

    def test_apply_generator_rejects_missing_slot(self):
        path3 = Network.from_edge_list([(0,), (1,), (2,)], [(0, 1), (1, 2)], name="P3")
        g = explicit_super_graph(path3, SuperGeneratorSet.transpositions(2))
        assert g.apply_generator(1, 1) == g.node_of((2, 0))
        with pytest.raises(ValueError) as exc:
            g.apply_generator(0, 1)  # state 0 has one neighbor
        assert str(exc.value) == (
            "node 0 of 'transpositions(l=2,P3)*' has no arc for generator 1 (nslot1)"
        )

    @pytest.mark.parametrize(
        "node, gen, message",
        [
            (-1, 0, "node id -1 is out of range for 'tri-star' (valid ids: 0..5)"),
            (6, 0, "node id 6 is out of range for 'tri-star' (valid ids: 0..5)"),
            (0, -1, "generator index -1 is out of range for 'tri-star' (valid indices: 0..1)"),
            (0, 2, "generator index 2 is out of range for 'tri-star' (valid indices: 0..1)"),
            (-1, -1, "node id -1 is out of range for 'tri-star' (valid ids: 0..5)"),
        ],
    )
    def test_apply_generator_rejects_out_of_range(self, node, gen, message):
        g = build_ip_graph(
            (0, 1, 2), [transposition(3, 0, 1), transposition(3, 0, 2)], name="tri-star"
        )
        with pytest.raises(ValueError) as exc:
            g.apply_generator(node, gen)
        assert str(exc.value) == message

    def test_bare_permutations_accepted(self):
        g = build_ip_graph(self.seed, [transposition(3, 0, 1), transposition(3, 0, 2)])
        assert g.num_nodes == 6
        assert all(gen.kind == GENERIC for gen in g.generators)

    def test_max_nodes_guard(self):
        with pytest.raises(ValueError, match="max_nodes"):
            build_ip_graph(tuple(range(8)),
                           [transposition(8, 0, i) for i in range(1, 8)],
                           max_nodes=100)

    def test_no_generators_rejected(self):
        with pytest.raises(ValueError):
            build_ip_graph((0, 1), [])

    def test_seed_length_mismatch(self):
        with pytest.raises(ValueError):
            build_ip_graph((0, 1, 2), [transposition(2, 0, 1)])

    def test_generator_size_mismatch(self):
        with pytest.raises(ValueError):
            build_ip_graph((0, 1), [transposition(2, 0, 1), transposition(3, 0, 1)])

    def test_generator_kind_validation(self):
        with pytest.raises(ValueError):
            Generator(identity(2), kind="bogus")

    def test_edge_kinds(self):
        g = build_ip_graph(
            (0, 1),
            [Generator(transposition(2, 0, 1), kind=NUCLEUS)],
        )
        assert (g.edge_kinds() == 0).all()

    def test_generator_names(self):
        g = build_ip_graph(self.seed, self.gens)
        assert g.generator_names() == ["a", "b"]

    def test_directed_flag(self):
        g = build_ip_graph((0, 1, 2), [cyclic_shift_left(3, 1)], directed=True)
        assert g.directed
        assert g.num_nodes == 3
        # each node has out-degree 1 in the directed simple graph
        assert g.max_degree == 1

    def test_repr(self):
        g = build_ip_graph(self.seed, self.gens, name="s3")
        assert "s3" in repr(g)
        assert "N=6" in repr(g)

    def test_degree_histogram(self):
        g = build_ip_graph(self.seed, self.gens)
        assert g.degree_histogram() == {2: 6}

    def test_self_loops_excluded_from_degree(self):
        # a generator fixing every label contributes nothing to degree
        g = build_ip_graph(
            (0, 0, 1),
            [transposition(3, 0, 1), transposition(3, 1, 2)],
        )
        degs = g.degrees()
        assert degs.max() <= 2

    def test_adjacency_symmetric(self):
        g = build_ip_graph(self.seed, self.gens)
        a = g.adjacency_csr()
        assert (a != a.T).nnz == 0

    def test_to_networkx_labels(self):
        g = build_ip_graph(self.seed, self.gens)
        nx_g = g.to_networkx(labels=True)
        assert nx_g.nodes[0]["label"] == self.seed
        assert nx_g.number_of_edges() == g.num_edges()
