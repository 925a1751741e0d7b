"""Cross-validation: every family built two ways must agree.

The IP-graph engine (label closure) and the explicit textbook
constructions are separate code paths; isomorphism between them validates
both.  ``build_super_ip_graph`` and ``explicit_super_graph`` share one
digit-code closure, so their agreement below checks the two front-ends
(label encodings, nucleus move tables); the independent paths for that
closure are the oracles in ``tests/closure_oracle.py`` and
``tests/hier_oracle.py`` (``tests/test_super_engine.py``).
"""

import networkx as nx
import pytest

from repro import networks as nw
from repro.core.superip import SuperGeneratorSet, build_super_ip_graph
from repro.networks.hier import explicit_super_graph


def iso(a, b) -> bool:
    return nx.is_isomorphic(a.to_networkx(), b.to_networkx())


class TestIPvsExplicitClassics:
    def test_hypercube(self):
        assert iso(nw.hypercube_ip(3), nw.hypercube(3))

    def test_hypercube_bigger(self):
        assert iso(nw.hypercube_ip(4), nw.hypercube(4))

    def test_star(self):
        assert iso(nw.star_ip(4), nw.star_graph(4))

    def test_pancake(self):
        assert iso(nw.pancake_ip(4), nw.pancake_graph(4))

    def test_shuffle_exchange(self):
        assert iso(nw.shuffle_exchange_ip(3), nw.shuffle_exchange(3))

    def test_shuffle_exchange_4(self):
        assert iso(nw.shuffle_exchange_ip(4), nw.shuffle_exchange(4))

    def test_debruijn_directed(self):
        a = nw.debruijn_ip(3)  # built with directed=True
        b = nw.debruijn(2, 3, directed=True)
        assert a.directed and b.directed
        assert nx.is_isomorphic(a.to_networkx(), b.to_networkx())

    def test_debruijn_node_count(self):
        for n in (2, 3, 4, 5):
            assert nw.debruijn_ip(n).num_nodes == 2**n


class TestHCNEquivalence:
    """'HCN(n,n) without diameter links is equivalent to HSN(2, Q_n)'."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_hcn_is_hsn2(self, n):
        assert iso(nw.hsn_hypercube(2, n), nw.hcn(n, diameter_links=False))

    @pytest.mark.parametrize("n", [2, 3])
    def test_hfn_is_hsn2_folded(self, n):
        hsn_fq = nw.hsn(2, nw.folded_hypercube_nucleus(n))
        assert iso(hsn_fq, nw.hfn(n, diameter_links=False))

    def test_hcn_with_diameter_links_not_isomorphic(self):
        # diameter links change the graph (diagonal degree increases)
        assert not iso(nw.hsn_hypercube(2, 2), nw.hcn(2, diameter_links=True))


class TestExplicitSuperGraph:
    """IP-labelled vs explicit-nucleus front-ends of the super closure."""

    @pytest.mark.parametrize("fam", ["transpositions", "ring", "complete-shifts", "flips"])
    @pytest.mark.parametrize("l", [2, 3])
    def test_plain_variants(self, fam, l):
        factory = {
            "transpositions": SuperGeneratorSet.transpositions,
            "ring": SuperGeneratorSet.ring,
            "complete-shifts": SuperGeneratorSet.complete_shifts,
            "flips": SuperGeneratorSet.flips,
        }[fam]
        sgs = factory(l)
        nuc_spec = nw.hypercube_nucleus(2)
        via_ip = build_super_ip_graph(nuc_spec, sgs)
        via_explicit = explicit_super_graph(nw.hypercube(2), sgs)
        assert via_ip.num_nodes == via_explicit.num_nodes
        assert iso(via_ip, via_explicit)

    @pytest.mark.parametrize("fam,factory", [
        ("transpositions", SuperGeneratorSet.transpositions),
        ("ring", SuperGeneratorSet.ring),
    ])
    def test_symmetric_variants(self, fam, factory):
        sgs = factory(2)
        nuc_spec = nw.hypercube_nucleus(2)
        via_ip = build_super_ip_graph(nuc_spec, sgs, symmetric=True)
        via_explicit = explicit_super_graph(nw.hypercube(2), sgs, symmetric=True)
        assert via_ip.num_nodes == via_explicit.num_nodes
        assert iso(via_ip, via_explicit)

    def test_petersen_nucleus(self):
        """Cyclic Petersen networks need the explicit path (Petersen is not
        a Cayley graph)."""
        g = nw.cyclic_petersen_network(2)
        assert g.num_nodes == 100
        from repro.metrics.distances import diameter

        # Theorem 4.1: l*D_G + t = 2*2 + 1
        assert diameter(g) == 5

    def test_explicit_nucleus_modules_work(self):
        from repro.metrics.clustering import nucleus_modules

        g = nw.cyclic_petersen_network(2)
        ma = nucleus_modules(g)
        assert ma.num_modules == 10
        assert ma.max_module_size == 10


class TestFamilyBuilders:
    def test_rcc(self):
        g = nw.rcc(2, 4)
        assert g.num_nodes == 16
        from repro.metrics.distances import diameter

        assert diameter(g) == 2 * 1 + 1  # (D_G+1)l - 1 with D_G = 1

    def test_macro_star_like(self):
        g = nw.macro_star_like(2, 3)
        assert g.num_nodes == 36

    def test_directed_cn(self):
        g = nw.directed_cn(3, nw.hypercube_nucleus(1))
        assert g.directed
        assert g.num_nodes == 8
        from repro.metrics.distances import eccentricities

        # still strongly connected: the shift has order l
        assert (eccentricities(g) >= 0).all()

    def test_symmetric_hsn_builder(self):
        g = nw.symmetric_hsn(2, nw.hypercube_nucleus(2))
        assert g.num_nodes == 32
        assert g.is_regular()

    def test_super_flip_hypercube(self):
        g = nw.super_flip_hypercube(3, 2)
        assert g.num_nodes == 64

    def test_ring_cn_folded_hypercube(self):
        g = nw.ring_cn_folded_hypercube(2, 2)
        assert g.num_nodes == 256 // 16  # (2^2)^2 = 16
