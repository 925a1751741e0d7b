"""networkx node-disjoint paths, shared between queries on one graph.

:class:`OracleNodeDisjointPaths` runs ``networkx.node_disjoint_paths``
(Edmonds–Karp on the node-split auxiliary digraph) on the networkx export
of a network, or of a survivor graph materialized by
:meth:`tests.fault_view.FaultyNetwork.to_network`, building the auxiliary
digraph and residual network once.  ``NetworkXNoPath`` maps to ``[]``.
The shortest of these paths was ``ResilientRouter``'s detour before
detours became shortest survivor paths; tests and
``benchmarks/bench_fault_sweep.py`` check that a detour is never longer
than it.
"""

from __future__ import annotations

import networkx as nx
from networkx.algorithms.connectivity import build_auxiliary_node_connectivity
from networkx.algorithms.flow import build_residual_network

from repro.core.network import Network


class OracleNodeDisjointPaths:
    """networkx node-disjoint paths on one graph, sharing the auxiliary
    digraph and residual network between queries (networkx resets every
    residual flow before each query)."""

    def __init__(self, net: Network):
        g = net.to_networkx()
        self.graph = g.to_undirected() if g.is_directed() else g
        self.auxiliary = build_auxiliary_node_connectivity(self.graph)
        self.residual = build_residual_network(self.auxiliary, "capacity")

    def __call__(self, s: int, t: int) -> list[list[int]]:
        try:
            paths = nx.node_disjoint_paths(
                self.graph, s, t, auxiliary=self.auxiliary, residual=self.residual
            )
            return [list(p) for p in paths]
        except nx.NetworkXNoPath:
            return []


def oracle_node_disjoint_paths(net: Network, s: int, t: int) -> list[list[int]]:
    """networkx's maximum set of node-disjoint ``s``-``t`` paths on ``net``
    (directed networks symmetrized)."""
    return OracleNodeDisjointPaths(net)(s, t)

