"""Figure 1 — structures of HSN(2, Q2) = HCN(2,2) and HSN(3, Q2).

The paper's Figure 1 draws the two graphs with radix-4 node labels; we
regenerate both structures from the IP engine, verify their invariants
(size, degree profile, diameter, the HCN isomorphism) and benchmark the
construction.
"""

import networkx as nx
import pytest

from repro import metrics as mt
from repro import networks as nw

from conftest import print_table


def build_fig1():
    g2 = nw.hsn_hypercube(2, 2)
    g3 = nw.hsn_hypercube(3, 2)
    return g2, g3


def test_fig1_structures(benchmark):
    g2, g3 = benchmark(build_fig1)

    # HSN(2, Q2): 16 nodes, degree ≤ 3, diameter 5, equals HCN(2,2)-nd
    assert g2.num_nodes == 16
    assert g2.max_degree == 3
    assert mt.diameter(g2) == 5
    hcn = nw.hcn(2, diameter_links=False)
    assert nx.is_isomorphic(g2.to_networkx(), hcn.to_networkx())

    # HSN(3, Q2): 64 nodes, degree ≤ 4, diameter 8
    assert g3.num_nodes == 64
    assert g3.max_degree == 4
    assert mt.diameter(g3) == 8

    rows = []
    for g in (g2, g3):
        s = mt.intercluster_summary(mt.nucleus_modules(g))
        rows.append(
            {
                "network": g.name,
                "N": g.num_nodes,
                "degree(max)": g.max_degree,
                "diameter": mt.diameter(g),
                "modules": s.num_modules,
                "I-degree": round(s.i_degree, 3),
                "I-diameter": s.i_diameter,
            }
        )
    print_table("Figure 1: HSN(2,Q2)=HCN(2,2) and HSN(3,Q2)", rows)


def test_fig1_radix4_ranking(benchmark):
    """The figure labels nodes with radix-4 digits (one per block state);
    check that the block-state ranking covers all 4^l combinations."""

    def ranking():
        g = nw.hsn_hypercube(2, 2)
        nuc = nw.hypercube_nucleus(2).build()
        out = set()
        for lab in g.labels:
            blocks = (lab[:4], lab[4:])
            out.add(tuple(nuc.node_of(b) for b in blocks))
        return out

    ranks = benchmark(ranking)
    assert ranks == {(a, b) for a in range(4) for b in range(4)}
