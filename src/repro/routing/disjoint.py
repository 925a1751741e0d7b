"""Disjoint-path routing: path diversity behind the fault-tolerance claims.

Cayley-graph networks like the star graph owe their fault tolerance to
having ``degree`` node-disjoint paths between every pair (Akers et al.;
Fragopoulou & Akl build edge-disjoint spanning trees on the star graph for
exactly this reason — reference [14] of the paper).  This module extracts
maximum sets of node-/edge-disjoint paths between node pairs, so those
claims can be checked on every family in the library.

Both kinds come from networkx's max-flow solvers on the network's
networkx export.  The resilient router's survivor detours do not use
them: a detour needs one live shortest path, not a maximum disjoint set
(:mod:`repro.fault.resilient`).

The functions take undirected networks only: on a directed one they
would count and return paths that run against arcs, so they raise
:class:`ValueError` naming it.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.core.network import Network

__all__ = [
    "edge_disjoint_paths",
    "node_disjoint_paths",
    "path_diversity",
]


def _require_undirected(net: Network, func: str) -> None:
    if net.directed:
        raise ValueError(
            f"{func}: {net.name!r} is directed, but disjoint paths are "
            f"paths of the undirected graph"
        )


def edge_disjoint_paths(net: Network, s: int, t: int) -> list[list[int]]:
    """A maximum set of pairwise edge-disjoint s-t paths (max-flow based).
    Raises :class:`ValueError` on a directed network."""
    import networkx as nx

    _require_undirected(net, "edge_disjoint_paths")
    if s == t:
        raise ValueError("s and t must differ")
    return [list(p) for p in nx.edge_disjoint_paths(net.to_networkx(), s, t)]


def node_disjoint_paths(net: Network, s: int, t: int) -> list[list[int]]:
    """A maximum set of internally node-disjoint s-t paths
    (``networkx.node_disjoint_paths``; ``[]`` when ``s`` and ``t`` are
    disconnected).  Raises :class:`ValueError` on a directed network, on
    an id outside ``0..N-1`` and for ``s == t``."""
    _require_undirected(net, "node_disjoint_paths")
    n = net.num_nodes
    for name, v in (("s", s), ("t", t)):
        if not 0 <= v < n:
            raise ValueError(f"{name}={v} is not a node id in 0..{n - 1}")
    if s == t:
        raise ValueError("s and t must differ")
    return _node_paths(net.to_networkx(), s, t)


def _node_paths(g, s: int, t: int, **shared) -> list[list[int]]:
    """networkx's node-disjoint paths on the exported graph ``g``;
    ``shared`` passes its auxiliary digraph and residual network when
    several queries run on one graph."""
    import networkx as nx

    try:
        return [list(p) for p in nx.node_disjoint_paths(g, s, t, **shared)]
    except nx.NetworkXNoPath:
        return []


def path_diversity(
    net: Network,
    pairs: int,
    rng: np.random.Generator,
    kind: str = "node",
) -> dict:
    """Sampled path-diversity statistics.

    Picks ``pairs`` random node pairs and reports the min/mean count of
    disjoint paths and the mean length overhead of the alternative paths
    versus the shortest one.  Raises :class:`ValueError` on a directed
    network.
    """
    _require_undirected(net, "path_diversity")
    if kind not in ("node", "edge"):
        raise ValueError("kind must be 'node' or 'edge'")
    if kind == "node":  # one exported graph and flow network for every pair
        from networkx.algorithms.connectivity import build_auxiliary_node_connectivity
        from networkx.algorithms.flow import build_residual_network

        g = net.to_networkx()
        aux = build_auxiliary_node_connectivity(g)
        res = build_residual_network(aux, "capacity")
        solve = partial(_node_paths, g, auxiliary=aux, residual=res)
    else:
        solve = partial(edge_disjoint_paths, net)
    counts = []
    overheads = []
    n = net.num_nodes
    for _ in range(pairs):
        s, t = rng.choice(n, size=2, replace=False)
        s, t = int(s), int(t)
        paths = solve(s, t)
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
