"""Disjoint-path routing: path diversity behind the fault-tolerance claims.

Cayley-graph networks like the star graph owe their fault tolerance to
having ``degree`` node-disjoint paths between every pair (Akers et al.;
Fragopoulou & Akl build edge-disjoint spanning trees on the star graph for
exactly this reason — reference [14] of the paper).  This module extracts
maximum sets of node-/edge-disjoint paths between node pairs, so those
claims can be checked on every family in the library.
"""

from __future__ import annotations

import numpy as np

from repro.core.network import Network

__all__ = [
    "edge_disjoint_paths",
    "node_disjoint_paths",
    "path_diversity",
]


def _nx(net: Network):
    g = net.to_networkx()
    return g.to_undirected() if g.is_directed() else g


def edge_disjoint_paths(net: Network, s: int, t: int) -> list[list[int]]:
    """A maximum set of pairwise edge-disjoint s-t paths (max-flow based)."""
    import networkx as nx

    if s == t:
        raise ValueError("s and t must differ")
    return [list(p) for p in nx.edge_disjoint_paths(_nx(net), s, t)]


def node_disjoint_paths(net: Network, s: int, t: int) -> list[list[int]]:
    """A maximum set of internally node-disjoint s-t paths."""
    return NodeDisjointPaths(net)(s, t)


class NodeDisjointPaths:
    """Node-disjoint path queries on one fixed graph, sharing the max-flow
    structures between queries.

    :func:`node_disjoint_paths` builds the networkx graph, the
    node-connectivity auxiliary digraph and its residual network for one
    query; an instance builds them once for many.  The flow routine resets
    every residual flow before it runs, so each call returns exactly what
    a fresh instance returns for the same pair.
    """

    def __init__(self, net: Network):
        from networkx.algorithms.connectivity import (
            build_auxiliary_node_connectivity,
        )
        from networkx.algorithms.flow import build_residual_network

        self.graph = _nx(net)
        self.auxiliary = build_auxiliary_node_connectivity(self.graph)
        self.residual = build_residual_network(self.auxiliary, "capacity")

    def __call__(self, s: int, t: int) -> list[list[int]]:
        """A maximum set of internally node-disjoint s-t paths."""
        import networkx as nx

        if s == t:
            raise ValueError("s and t must differ")
        paths = nx.node_disjoint_paths(
            self.graph, s, t, auxiliary=self.auxiliary, residual=self.residual
        )
        return [list(p) for p in paths]


def path_diversity(
    net: Network,
    pairs: int,
    rng: np.random.Generator,
    kind: str = "node",
) -> dict:
    """Sampled path-diversity statistics.

    Picks ``pairs`` random node pairs and reports the min/mean count of
    disjoint paths and the mean length overhead of the alternative paths
    versus the shortest one.
    """
    if kind not in ("node", "edge"):
        raise ValueError("kind must be 'node' or 'edge'")
    extract = node_disjoint_paths if kind == "node" else edge_disjoint_paths
    counts = []
    overheads = []
    n = net.num_nodes
    for _ in range(pairs):
        s, t = rng.choice(n, size=2, replace=False)
        paths = extract(net, int(s), int(t))
        counts.append(len(paths))
        lengths = sorted(len(p) - 1 for p in paths)
        if len(lengths) > 1:
            overheads.append(lengths[-1] - lengths[0])
    return {
        "min_paths": int(min(counts)),
        "mean_paths": float(np.mean(counts)),
        "mean_length_spread": float(np.mean(overheads)) if overheads else 0.0,
        "pairs": pairs,
        "kind": kind,
    }
