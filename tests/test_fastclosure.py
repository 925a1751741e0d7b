"""Tests for the batched IP-graph closure (must be bit-identical to the
per-label oracle in ``tests/closure_oracle.py``)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ipgraph import build_ip_graph
from repro.core.permutation import (
    Permutation,
    cyclic_shift_left,
    from_cycles,
    transposition,
)
from repro.core.superip import SuperGeneratorSet, build_super_ip_graph
from repro.networks.nuclei import hypercube_nucleus

from .closure_oracle import oracle_build_ip_graph


def assert_same_graph(a, b):
    assert a.labels == b.labels
    assert (a.edges_src == b.edges_src).all()
    assert (a.edges_dst == b.edges_dst).all()
    assert (a.edges_gen == b.edges_gen).all()


def assert_identical(seed, gens, **kw):
    a = oracle_build_ip_graph(seed, gens, **kw)
    b = build_ip_graph(seed, gens, **kw)
    assert_same_graph(a, b)
    return a, b


class TestIdentical:
    def test_star(self):
        assert_identical(tuple(range(5)), [transposition(5, 0, i) for i in range(1, 5)])

    def test_repeated_symbols(self):
        seed = (1, 2, 3, 1, 2, 3)
        gens = [
            from_cycles(6, [(1, 2)], one_based=True),
            from_cycles(6, [(1, 3)], one_based=True),
            cyclic_shift_left(6, 3),
        ]
        a, b = assert_identical(seed, gens)
        assert a.num_nodes == 36

    def test_non_integer_symbols(self):
        seed = ("a", "b", "a", "b")
        gens = [transposition(4, 0, 1), cyclic_shift_left(4, 2)]
        a, b = assert_identical(seed, gens)
        assert b.labels[0] == ("a", "b", "a", "b")

    def test_directed(self):
        a, b = assert_identical(
            (0, 1, 2), [cyclic_shift_left(3, 1)], directed=True
        )
        assert b.directed

    def test_hsn(self):
        b = build_super_ip_graph(hypercube_nucleus(2), SuperGeneratorSet.transpositions(3))
        assert_same_graph(oracle_build_ip_graph(b.seed, b.generators), b)

    def test_symmetric_hsn(self):
        nuc = hypercube_nucleus(2)
        b = build_super_ip_graph(nuc, SuperGeneratorSet.transpositions(2), symmetric=True)
        assert_same_graph(oracle_build_ip_graph(b.seed, b.generators), b)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(2, 5),
        st.lists(st.permutations(list(range(4))), min_size=1, max_size=3),
    )
    def test_random_generator_sets(self, reps, imgs):
        # build size-4 generator sets, inverse-closed, on a repeated seed
        perms = {Permutation(img) for img in imgs}
        perms |= {p.inverse() for p in perms}
        perms.discard(Permutation(range(4)))
        if not perms:
            perms = {transposition(4, 0, 1)}
        gens = sorted(perms, key=lambda p: p.img)
        seed = tuple(i % reps for i in range(4))
        assert_identical(seed, gens)


class TestGuards:
    def test_max_nodes(self):
        with pytest.raises(ValueError, match="max_nodes"):
            build_ip_graph(
                tuple(range(7)),
                [transposition(7, 0, i) for i in range(1, 7)],
                max_nodes=100,
            )

    def test_no_generators(self):
        with pytest.raises(ValueError):
            build_ip_graph((0, 1), [])

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            build_ip_graph((0, 1, 2), [transposition(2, 0, 1)])
        with pytest.raises(ValueError):
            build_ip_graph(
                (0, 1), [transposition(2, 0, 1), transposition(3, 0, 1)]
            )

    @pytest.mark.parametrize("bad", [0, -5])
    def test_non_positive_max_nodes(self, bad):
        # a fixed-point generator: the closure never leaves the seed, so
        # only the bound check can reject the request
        with pytest.raises(ValueError) as exc:
            build_ip_graph((7, 7, 7), [from_cycles(3, [(0, 1)])], max_nodes=bad)
        assert str(exc.value) == f"max_nodes must be >= 1, got {bad}"
