"""Tests for the super-IP layer: sizes, t/t_S, diameters (Theorems 3.1-4.4)."""

import math

import pytest

from repro.core.ipgraph import NUCLEUS, SUPER
from repro.core.superip import (
    NucleusSpec,
    SuperGeneratorSet,
    build_super_ip_graph,
    diameter_formula,
    fronting_schedules,
    min_supergen_steps,
    min_supergen_steps_symmetric,
    reachable_arrangements,
    super_ip_size,
    symmetric_diameter_formula,
    symmetric_super_ip_size,
)
from repro.core.permutation import identity, transposition
from repro.metrics.distances import diameter
from repro.networks.nuclei import (
    complete_nucleus,
    folded_hypercube_nucleus,
    generalized_hypercube_nucleus,
    hypercube_nucleus,
    pancake_nucleus,
    ring_nucleus,
    shuffle_exchange_nucleus,
    star_nucleus,
)

from . import superip_oracle as oracle

FAMILIES = {
    "transpositions": SuperGeneratorSet.transpositions,
    "ring": SuperGeneratorSet.ring,
    "complete": SuperGeneratorSet.complete_shifts,
    "flips": SuperGeneratorSet.flips,
}


class TestNucleusSpecs:
    @pytest.mark.parametrize(
        "spec,size,deg,diam",
        [
            (hypercube_nucleus(3), 8, 3, 3),
            (folded_hypercube_nucleus(3), 8, 4, 2),
            (complete_nucleus(5), 5, 4, 1),
            (star_nucleus(4), 24, 3, 4),
            (pancake_nucleus(4), 24, 3, 4),
            (ring_nucleus(6), 6, 2, 3),
            (generalized_hypercube_nucleus((3, 4)), 12, 5, 2),
            (shuffle_exchange_nucleus(3), 8, 3, 5),
        ],
    )
    def test_known_parameters(self, spec, size, deg, diam):
        g = spec.build()
        assert g.num_nodes == size == spec.size()
        assert g.max_degree == deg
        assert spec.diameter() == diam

    def test_distinct_symbols(self):
        assert hypercube_nucleus(2).has_distinct_symbols()
        assert not shuffle_exchange_nucleus(2).has_distinct_symbols()

    def test_m(self):
        assert hypercube_nucleus(3).m == 6
        assert star_nucleus(5).m == 5

    def test_invalid(self):
        with pytest.raises(ValueError):
            hypercube_nucleus(0)
        with pytest.raises(ValueError):
            generalized_hypercube_nucleus((1, 2))
        with pytest.raises(ValueError):
            NucleusSpec("bad", (0, 1), ())
        with pytest.raises(ValueError):
            NucleusSpec("bad", (0, 1), (identity(3),))


class TestSuperGeneratorSets:
    def test_counts(self):
        assert SuperGeneratorSet.transpositions(5).num_generators == 4
        assert SuperGeneratorSet.ring(2).num_generators == 1
        assert SuperGeneratorSet.ring(4).num_generators == 2
        assert SuperGeneratorSet.complete_shifts(4).num_generators == 3
        assert SuperGeneratorSet.flips(4).num_generators == 3
        assert SuperGeneratorSet.directed_ring(4).num_generators == 1

    def test_l_too_small(self):
        for factory in FAMILIES.values():
            with pytest.raises(ValueError):
                factory(1)

    def test_block_perm_size_validation(self):
        with pytest.raises(ValueError):
            SuperGeneratorSet("x", 3, (("bad", transposition(2, 0, 1)),))

    @pytest.mark.parametrize("l", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("fam", list(FAMILIES))
    def test_t_is_l_minus_1(self, l, fam):
        """'t ... is equal to l−1 for all the super-IP graphs introduced in
        Section 3.'"""
        assert min_supergen_steps(FAMILIES[fam](l)) == l - 1

    @pytest.mark.parametrize("l", [2, 3, 4, 5])
    def test_directed_ring_t(self, l):
        assert min_supergen_steps(SuperGeneratorSet.directed_ring(l)) == l - 1

    def test_t_symmetric_at_least_t(self):
        for l in (2, 3, 4):
            for fam, factory in FAMILIES.items():
                sgs = factory(l)
                assert min_supergen_steps_symmetric(sgs) >= min_supergen_steps(sgs)

    def test_invalid_supergens_detected(self):
        # a super-generator set that can never front block 1
        sgs = SuperGeneratorSet("stuck", 3, (("fix", transposition(3, 1, 2)),))
        with pytest.raises(ValueError):
            min_supergen_steps(sgs)


ORACLE_SETS = [
    pytest.param(factory(l), id=f"{fam}-{l}")
    for fam, factory in {**FAMILIES, "directed_ring": SuperGeneratorSet.directed_ring}.items()
    for l in (2, 3, 4, 5)
]


class TestFrontingSearchOracle:
    """``t`` / ``t_S`` from the one fronting-schedule search equal the two
    BFS bodies they replaced (``tests/superip_oracle.py``)."""

    @pytest.mark.parametrize("sgs", ORACLE_SETS)
    def test_t_and_t_s_equal_oracle(self, sgs):
        assert min_supergen_steps(sgs) == oracle.min_supergen_steps(sgs)
        assert min_supergen_steps_symmetric(sgs) == oracle.min_supergen_steps_symmetric(sgs)

    @pytest.mark.parametrize("sgs", ORACLE_SETS)
    def test_schedules_are_shortest_and_front_every_block(self, sgs):
        perms = sgs.perms()
        found = list(fronting_schedules(sgs))
        assert {arr for arr, _ in found} == reachable_arrangements(sgs)
        assert len(found[0][1]) == min_supergen_steps(sgs)
        lengths = [len(seq) for _, seq in found]
        assert lengths == sorted(lengths)  # BFS order
        for end, seq in found:
            arr = tuple(range(sgs.l))
            fronted = {arr[0]}
            for gi in seq:
                arr = perms[gi](arr)
                fronted.add(arr[0])
            assert arr == end and fronted == set(range(sgs.l))

    @pytest.mark.parametrize(
        "sgs",
        [
            SuperGeneratorSet("stuck", 3, (("fix", transposition(3, 1, 2)),)),
            SuperGeneratorSet("still", 2, (("id", identity(2)),)),
        ],
        ids=["stuck", "identity"],
    )
    def test_invalid_set_same_message_as_oracle(self, sgs):
        for ours, theirs in (
            (min_supergen_steps, oracle.min_supergen_steps),
            (min_supergen_steps_symmetric, oracle.min_supergen_steps_symmetric),
        ):
            with pytest.raises(ValueError) as want:
                theirs(sgs)
            with pytest.raises(ValueError) as got:
                ours(sgs)
            assert str(got.value) == str(want.value)


class TestArrangements:
    def test_transpositions_generate_all(self):
        assert len(reachable_arrangements(SuperGeneratorSet.transpositions(4))) == 24

    def test_flips_generate_all(self):
        assert len(reachable_arrangements(SuperGeneratorSet.flips(4))) == 24

    def test_ring_generates_rotations(self):
        assert len(reachable_arrangements(SuperGeneratorSet.ring(5))) == 5

    def test_complete_shifts_generate_rotations(self):
        assert len(reachable_arrangements(SuperGeneratorSet.complete_shifts(5))) == 5


class TestSizes:
    @pytest.mark.parametrize("fam", list(FAMILIES))
    @pytest.mark.parametrize("l", [2, 3])
    def test_theorem_3_2(self, fam, l):
        nuc = hypercube_nucleus(2)
        g = build_super_ip_graph(nuc, FAMILIES[fam](l))
        assert g.num_nodes == super_ip_size(nuc.size(), l) == 4**l

    def test_symmetric_hsn_size(self):
        """'a symmetric HSN(l,G) has l!·M^l nodes'."""
        nuc = hypercube_nucleus(2)
        for l in (2, 3):
            g = build_super_ip_graph(nuc, SuperGeneratorSet.transpositions(l), symmetric=True)
            assert g.num_nodes == math.factorial(l) * 4**l

    def test_symmetric_cn_size(self):
        """'A symmetric CN(l,G) has l·M^l nodes'."""
        nuc = hypercube_nucleus(2)
        for l in (2, 3):
            g = build_super_ip_graph(nuc, SuperGeneratorSet.ring(l), symmetric=True)
            assert g.num_nodes == l * 4**l
            assert g.num_nodes == symmetric_super_ip_size(4, SuperGeneratorSet.ring(l))

    def test_size_validation(self):
        with pytest.raises(ValueError):
            super_ip_size(0, 2)


class TestDegrees:
    """Theorem 3.1: degree ≤ #generators; I-degree ≤ #super-generators."""

    @pytest.mark.parametrize("fam", list(FAMILIES))
    def test_degree_bounded_by_generators(self, fam):
        nuc = hypercube_nucleus(2)
        sgs = FAMILIES[fam](3)
        g = build_super_ip_graph(nuc, sgs)
        assert g.max_degree <= nuc.num_generators + sgs.num_generators

    def test_symmetric_degree_equals_generators(self):
        nuc = hypercube_nucleus(2)
        sgs = SuperGeneratorSet.transpositions(3)
        g = build_super_ip_graph(nuc, sgs, symmetric=True)
        assert g.is_regular()
        assert g.max_degree == nuc.num_generators + sgs.num_generators

    def test_edge_kind_attribution(self):
        nuc = hypercube_nucleus(2)
        g = build_super_ip_graph(nuc, SuperGeneratorSet.transpositions(2))
        kinds = [gen.kind for gen in g.generators]
        assert kinds.count(NUCLEUS) == 2
        assert kinds.count(SUPER) == 1


class TestDiameters:
    @pytest.mark.parametrize("fam", list(FAMILIES))
    @pytest.mark.parametrize(
        "nuc", [hypercube_nucleus(2), complete_nucleus(4), ring_nucleus(4)],
        ids=["Q2", "K4", "C4"],
    )
    def test_theorem_4_1(self, fam, nuc):
        l = 3
        sgs = FAMILIES[fam](l)
        g = build_super_ip_graph(nuc, sgs)
        assert diameter(g) == diameter_formula(nuc.diameter(), sgs)

    @pytest.mark.parametrize("fam", list(FAMILIES))
    def test_theorem_4_3_symmetric(self, fam):
        nuc = hypercube_nucleus(2)
        sgs = FAMILIES[fam](2)
        g = build_super_ip_graph(nuc, sgs, symmetric=True)
        assert diameter(g) == symmetric_diameter_formula(nuc.diameter(), sgs)

    def test_corollary_4_2(self):
        """diameter = (D_G + 1)·log_M N − 1 for the Section-3 families."""
        nuc = hypercube_nucleus(2)
        M, DG = nuc.size(), nuc.diameter()
        for l in (2, 3):
            g = build_super_ip_graph(nuc, SuperGeneratorSet.transpositions(l))
            log_m_n = math.log(g.num_nodes, M)
            assert diameter(g) == round((DG + 1) * log_m_n - 1)

    def test_repeated_symbol_nucleus_builds(self):
        # shuffle-exchange nucleus has repeated symbols: plain variant works
        nuc = shuffle_exchange_nucleus(2)
        g = build_super_ip_graph(nuc, SuperGeneratorSet.ring(2))
        assert g.num_nodes == nuc.size() ** 2

    def test_repeated_symbol_nucleus_rejects_symmetric(self):
        nuc = shuffle_exchange_nucleus(2)
        with pytest.raises(ValueError, match="distinct"):
            build_super_ip_graph(nuc, SuperGeneratorSet.ring(2), symmetric=True)


class TestTheorem44Optimality:
    def test_gh_nucleus_diameter_near_moore_bound(self):
        """Theorem 4.4: with a generalized-hypercube nucleus the super-IP
        diameter is within a small factor of the Moore bound."""
        from repro.metrics.bounds import diameter_optimality_ratio

        nuc = generalized_hypercube_nucleus((4, 4))
        sgs = SuperGeneratorSet.transpositions(3)
        M, DG = nuc.size(), nuc.diameter()
        n_nodes = super_ip_size(M, 3)
        deg = nuc.num_generators + sgs.num_generators
        diam = diameter_formula(DG, sgs)
        assert diameter_optimality_ratio(n_nodes, deg, diam) <= 3.0
