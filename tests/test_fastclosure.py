"""Tests for the batched IP-graph closure (must be bit-identical to the
per-label oracle in ``tests/closure_oracle.py``)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import ipgraph
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


def _subset_perm(k, positions, order):
    """Permutation of size k moving ``positions`` to ``order``, fixing the rest."""
    img = list(range(k))
    for p, q in zip(positions, order):
        img[p] = q
    return Permutation(img)


def _resalts(fn):
    """Run ``fn`` with obs on; return its result and the re-salt count."""
    obs.reset()
    obs.enable()
    try:
        out = fn()
        return out, obs.report()["counters"].get("closure.fast.resalts", 0)
    finally:
        obs.disable()
        obs.reset()


class TestWordKeys:
    """Multi-word label rows, wide dtypes and key collisions."""

    @pytest.mark.parametrize("case", range(24))
    def test_random_multiword_labels(self, case):
        rng = np.random.default_rng([18, case])
        k = int(rng.integers(9, 25))  # 2-3 uint64 words of uint8 codes
        # generators permute a random subset of <= 6 positions spread over
        # the whole row, so labels differ in several words
        moved = sorted(rng.choice(k, size=int(rng.integers(3, 7)), replace=False).tolist())
        perms = {
            _subset_perm(k, moved, rng.permutation(moved).tolist())
            for _ in range(int(rng.integers(1, 4)))
        }
        perms |= {p.inverse() for p in perms}
        perms.discard(Permutation(range(k)))
        gens = sorted(perms, key=lambda p: p.img) or [transposition(k, moved[0], moved[1])]
        codes = rng.integers(0, int(rng.integers(2, k + 1)), size=k).tolist()
        kind = case % 3
        if kind == 0:
            seed = tuple(codes)
        elif kind == 1:
            seed = tuple(f"s{c}" for c in codes)
        else:
            seed = tuple(("t", c) for c in codes)
        a, b = assert_identical(seed, gens)
        assert b.labels[0] == seed

    @pytest.mark.parametrize(
        "seed",
        [
            (False, True, True),
            (np.int64(0), np.int64(1), np.int64(1)),
            (("a", 1), ("b", 2), ("a", 1)),
        ],
    )
    def test_symbols_keep_their_type(self, seed):
        # bools and numpy ints compare equal to the codes 0..a-1, and equal
        # tuples of tuples compare equal too: check the element types
        gens = [transposition(3, 0, 1), transposition(3, 1, 2)]
        a, b = assert_identical(seed, gens)
        assert [tuple(map(type, lab)) for lab in b.labels] == [
            tuple(map(type, lab)) for lab in a.labels
        ]
        assert b.labels[0] == seed

    def test_row_keys_follow_the_stated_formula(self):
        # key = sum_i splitmix64(w_i) * C_i mod 2**64, C_i odd, in Python ints
        words = np.random.default_rng(5).integers(0, 2**63, (64, 3), dtype=np.uint64)
        words = words * np.uint64(2) + np.uint64(1)  # use the top bit too
        consts = ipgraph._key_constants(7, 3)
        assert all(int(c) % 2 == 1 for c in consts)
        want = [
            sum(ipgraph._splitmix64(int(w)) * int(c) for w, c in zip(row, consts)) % 2**64
            for row in words
        ]
        assert ipgraph._row_keys(words, consts).tolist() == want

    def test_uint16_alphabet(self):
        k = 300
        seed = tuple(range(k))
        codes, alphabet = ipgraph._encode_seed(seed)
        assert codes.dtype == np.uint16 and len(alphabet) == k
        # each generator moves the same three positions, in different words
        gens = [
            _subset_perm(k, [3, 150, 299], [150, 299, 3]),
            _subset_perm(k, [3, 150, 299], [150, 3, 299]),
        ]
        a, b = assert_identical(seed, gens)
        assert b.num_nodes == 6

    def test_top_byte_differences_do_not_collide(self):
        # labels that differ only in the last byte of each uint64 word: a
        # bare sum of words times odd constants collides on nearly all of
        # them, the mixed words must not
        k = 48
        gens = [transposition(k, 7 + 8 * i, 15 + 8 * i) for i in range(5)]
        (a, b), resalts = _resalts(lambda: assert_identical(tuple(range(k)), gens))
        assert b.num_nodes == 720
        assert resalts == 0

    @pytest.mark.parametrize(
        "seed, gens",
        [
            # every key is 0 under salt 0: the first key hit is a collision
            (tuple(range(6)), [transposition(6, 0, i) for i in range(1, 6)]),
            # only word 0 is keyed under salt 0: the two new rows of level 0
            # share word 0 but differ in word 1, and no later arc lands on
            # either of them again, so only the in-level merge check sees it
            (
                (0,) * 12 + (1, 1, 0, 0),
                [transposition(16, 3, 12), transposition(16, 3, 13)],
            ),
        ],
    )
    def test_forced_collision_resalts(self, monkeypatch, seed, gens):
        real = ipgraph._key_constants
        salts = []

        def degenerate(salt, words):
            salts.append(salt)
            consts = real(salt, words)
            if salt == 0:
                consts[1:] = 0
                if words == 1:
                    consts[0] = 0
            return consts

        monkeypatch.setattr(ipgraph, "_key_constants", degenerate)
        (a, b), resalts = _resalts(lambda: assert_identical(seed, gens))
        assert salts == [0, 1]
        assert resalts == 1


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
