"""The one super-graph closure against the oracles it replaced.

:func:`repro.core.superip.build_super_ip_graph` and
:func:`repro.networks.hier.explicit_super_graph` both run the digit-code
closure :func:`repro.core.superip._super_closure`.  Every output must be
bit-identical (labels, the three arc arrays, generator records, seed,
name, orientation) to an independent path: the per-label IP closure of
``tests/closure_oracle.py`` on the same seed and generators, or the
tuple-state BFS of ``tests/hier_oracle.py`` on the same explicit nucleus.
"""

import numpy as np
import pytest

from repro import networks as nw
from repro.core.network import Network
from repro.core.permutation import cyclic_shift_left, transposition
from repro.core.superip import NucleusSpec, SuperGeneratorSet, build_super_ip_graph
from repro.networks.hier import explicit_super_graph

from .closure_oracle import oracle_build_ip_graph
from .hier_oracle import oracle_explicit_super_graph

FAMILIES = {
    "hsn": SuperGeneratorSet.transpositions,
    "ring-cn": SuperGeneratorSet.ring,
    "complete-cn": SuperGeneratorSet.complete_shifts,
    "super-flip": SuperGeneratorSet.flips,
}


def assert_same(got, want):
    assert got.labels == want.labels
    assert np.array_equal(got.edges_src, want.edges_src)
    assert np.array_equal(got.edges_dst, want.edges_dst)
    assert np.array_equal(got.edges_gen, want.edges_gen)
    assert got.generators == want.generators
    assert (got.seed, got.name, got.directed) == (want.seed, want.name, want.directed)


def assert_matches_ip_oracle(g):
    assert_same(
        g, oracle_build_ip_graph(g.seed, g.generators, name=g.name, directed=g.directed)
    )


@pytest.mark.parametrize("sym", [False, True], ids=["plain", "sym"])
@pytest.mark.parametrize("fam", list(FAMILIES))
def test_families_match_ip_oracle(fam, sym):
    assert_matches_ip_oracle(
        build_super_ip_graph(nw.hypercube_nucleus(2), FAMILIES[fam](3), symmetric=sym)
    )


C3ONE = NucleusSpec("C3one", (0, 1, 2), (cyclic_shift_left(3, 1),))
STR_Q1 = NucleusSpec("strQ1", ("b", "a"), (transposition(2, 0, 1),))

IP_BUILDS = {
    "directed-cn": lambda: nw.directed_cn(3, nw.hypercube_nucleus(2)),
    "directed-cn-one-way": lambda: nw.directed_cn(3, C3ONE),
    "rhsn": lambda: nw.rhsn([2, 2], nw.hypercube_nucleus(1)),
    "hhn": lambda: nw.hhn_like(2, 2),
    "hse": lambda: nw.hse(2, 3),
    "star": lambda: build_super_ip_graph(nw.star_nucleus(3), SuperGeneratorSet.ring(3)),
    "sym-star": lambda: build_super_ip_graph(
        nw.star_nucleus(3), SuperGeneratorSet.transpositions(2), symmetric=True
    ),
    "k4": lambda: build_super_ip_graph(
        nw.complete_nucleus(4), SuperGeneratorSet.transpositions(3)
    ),
    "sym-k4": lambda: build_super_ip_graph(
        nw.complete_nucleus(4), SuperGeneratorSet.ring(3), symmetric=True
    ),
    # twelve symbols: the symmetric seed renumbers them in repr order
    "sym-hsn-q6": lambda: build_super_ip_graph(
        nw.hypercube_nucleus(6), SuperGeneratorSet.transpositions(2), symmetric=True
    ),
    "str-symbols": lambda: build_super_ip_graph(STR_Q1, SuperGeneratorSet.flips(3)),
    "sym-str-symbols": lambda: build_super_ip_graph(
        STR_Q1, SuperGeneratorSet.flips(3), symmetric=True
    ),
}


@pytest.mark.parametrize("case", list(IP_BUILDS))
def test_composed_and_other_nuclei_match_ip_oracle(case):
    assert_matches_ip_oracle(IP_BUILDS[case]())


PATH3 = Network.from_edge_list([(0,), (1,), (2,)], [(0, 1), (1, 2)], name="P3")
TWO_EDGES = Network.from_edge_list([(0,), (1,), (2,), (3,)], [(0, 1), (2, 3)])

EXPLICIT = {
    "ring-cn-petersen": (nw.petersen, SuperGeneratorSet.ring(3)),
    "hsn-petersen": (nw.petersen, SuperGeneratorSet.transpositions(3)),
    "flip-petersen": (nw.petersen, SuperGeneratorSet.flips(3)),
    # unequal degrees: nucleus slots past a state's degree have no arc
    "hsn-path3": (lambda: PATH3, SuperGeneratorSet.transpositions(3)),
    "disconnected": (lambda: TWO_EDGES, SuperGeneratorSet.transpositions(2)),
}


@pytest.mark.parametrize("sym", [False, True], ids=["plain", "sym"])
@pytest.mark.parametrize("case", list(EXPLICIT))
def test_explicit_matches_bfs_oracle(case, sym):
    nucleus, sgs = EXPLICIT[case]
    nuc = nucleus()
    got = explicit_super_graph(nuc, sgs, symmetric=sym)
    assert_same(got, oracle_explicit_super_graph(nuc, sgs, symmetric=sym))
    parts = [x for lab in got.labels for x in lab]
    if sym:
        parts = [x for pair in parts for x in pair]
    assert {type(x) for x in parts} == {int}  # the oracle's are numpy ints


def test_explicit_hsn_4_q4_matches_bfs_oracle():
    nuc, sgs = nw.hypercube(4), SuperGeneratorSet.transpositions(4)
    got = explicit_super_graph(nuc, sgs)
    assert got.num_nodes == 65_536
    assert_same(got, oracle_explicit_super_graph(nuc, sgs))


class TestAddressSpace:
    """``|A|·M^l`` past ``max_nodes`` fails before anything is allocated,
    with the count in exact integers."""

    @pytest.mark.parametrize(
        "sym, bound, message",
        [
            (False, 1000, "1·16^4 = 65536 exceeds max_nodes=1000"),
            (True, 65_536, "24·16^4 = 1572864 exceeds max_nodes=65536"),
        ],
    )
    def test_build_super_ip_graph(self, sym, bound, message):
        with pytest.raises(ValueError) as exc:
            build_super_ip_graph(
                nw.hypercube_nucleus(4),
                SuperGeneratorSet.transpositions(4),
                symmetric=sym,
                max_nodes=bound,
            )
        assert str(exc.value) == f"super graph address space |A|·M^l = {message}"

    @pytest.mark.parametrize(
        "sgs, sym, message",
        [
            (SuperGeneratorSet.ring(3), True, "3·10^3 = 3000 exceeds max_nodes=100"),
            (
                SuperGeneratorSet.ring(40),
                False,
                f"1·10^40 = {10**40} exceeds max_nodes=100",
            ),
        ],
    )
    def test_explicit_super_graph(self, sgs, sym, message):
        with pytest.raises(ValueError) as exc:
            explicit_super_graph(nw.petersen(), sgs, symmetric=sym, max_nodes=100)
        assert str(exc.value) == f"super graph address space |A|·M^l = {message}"

    def test_nucleus_closure_overflow_keeps_its_message(self):
        with pytest.raises(ValueError) as exc:
            build_super_ip_graph(
                nw.hypercube_nucleus(4), SuperGeneratorSet.transpositions(2), max_nodes=10
            )
        assert str(exc.value) == (
            "IP graph exceeds max_nodes=10; raise the bound explicitly if intended"
        )
