"""Test oracle for the array-native node-disjoint-paths kernel.

This is the networkx engine that :class:`repro.routing.disjoint.NodeDisjointPaths`
replaced: ``networkx.node_disjoint_paths`` (Edmonds–Karp on the node-split
auxiliary digraph) on the networkx export of a network, or of a survivor
graph materialized by :meth:`tests.fault_view.FaultyNetwork.to_network`.
The kernel must return the same path lists, in the same order.
``NetworkXNoPath`` maps to ``[]``, the kernel's "no path" answer.
"""

from __future__ import annotations

import networkx as nx
from networkx.algorithms.connectivity import build_auxiliary_node_connectivity
from networkx.algorithms.flow import build_residual_network

from repro.core.network import Network

from .fault_view import FaultyNetwork


class OracleNodeDisjointPaths:
    """networkx node-disjoint paths on one graph, sharing the auxiliary
    digraph and residual network between queries (the replaced engine;
    networkx resets every residual flow before each query)."""

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
    (directed networks symmetrized, as the kernel does)."""
    return OracleNodeDisjointPaths(net)(s, t)


def oracle_survivor_paths(view: FaultyNetwork, s: int, t: int) -> list[list[int]]:
    """The same on the survivor graph of a fault view, rebuilt from scratch."""
    return oracle_node_disjoint_paths(view.to_network(), s, t)
