"""Symmetry tests and automorphism orbits.

Section 3.5 of the paper derives *symmetric* super-IP graphs that are
vertex-symmetric and regular (being Cayley graphs), in contrast to plain
super-IP graphs, which generally are neither.  These checks verify both
claims on constructed instances.

Beyond the boolean transitivity tests, this module exposes the group
itself: :func:`automorphism_group` enumerates the full automorphism group
of a small graph (VF2, deterministic order) and
:func:`automorphism_orbits` partitions the nodes into equivalence classes
under it — a single class is exactly vertex-transitivity.

Exact vertex-transitivity is decided by rooted-graph isomorphism tests
(via networkx VF2) and is only feasible for small graphs;
:func:`looks_vertex_transitive` is a cheap necessary condition (identical
distance profiles from every node) used as a screen and on larger instances.
"""

from __future__ import annotations

import numpy as np

from repro.cache.memory import memoize_lru
from repro.core.network import Network

from .distances import bfs_distances

__all__ = [
    "automorphism_group",
    "automorphism_orbits",
    "looks_vertex_transitive",
    "is_vertex_transitive",
]


def _distance_profiles(net: Network) -> list[tuple]:
    """Sorted distance-multiset signature per node."""
    n = net.num_nodes
    profiles = []
    chunk = 64
    for start in range(0, n, chunk):
        d = bfs_distances(net, np.arange(start, min(start + chunk, n)))
        for row in d:
            vals, counts = np.unique(row, return_counts=True)
            profiles.append(tuple(zip(vals.tolist(), counts.tolist())))
    return profiles


def looks_vertex_transitive(net: Network) -> bool:
    """Necessary condition: the graph is regular and every node has the same
    distance profile.  ``False`` *proves* non-transitivity; ``True`` is
    strong evidence (sufficient for this library's fixtures, not a proof in
    general).
    """
    if net.num_nodes == 0:
        return True
    if not net.is_regular():
        return False
    profiles = _distance_profiles(net)
    return all(p == profiles[0] for p in profiles)


def automorphism_group(
    net: Network,
    node_limit: int = 512,
    max_size: int = 100_000,
) -> np.ndarray:
    """Every automorphism of the simple graph, as a ``(G, n)`` int array.

    Row ``i`` is one permutation ``g`` with ``g[v]`` the image of node
    ``v``.  Rows are sorted lexicographically, so the result is a pure
    function of the topology (independent of VF2's enumeration order);
    row 0 is always the identity.

    Enumeration is exhaustive (networkx VF2 over ``G ≅ G``), so this is
    only feasible for small graphs and modest groups: raises
    ``ValueError`` beyond ``node_limit`` nodes or ``max_size``
    automorphisms (a complete graph on 9 nodes already has 362880).
    """
    n = net.num_nodes
    if n > node_limit:
        raise ValueError(
            f"graph too large for automorphism enumeration ({n} nodes > "
            f"node_limit={node_limit})"
        )
    if n == 0:
        return np.empty((1, 0), dtype=np.int64)
    import networkx as nx

    g = net.to_networkx()
    if g.is_directed():
        g = g.to_undirected()
    matcher = nx.algorithms.isomorphism.GraphMatcher(g, g)
    perms = []
    for mapping in matcher.isomorphisms_iter():
        perm = np.empty(n, dtype=np.int64)
        for src, img in mapping.items():
            perm[src] = img
        perms.append(perm)
        if len(perms) > max_size:
            raise ValueError(
                f"automorphism group of {net.name!r} exceeds max_size="
                f"{max_size}; pass a larger cap or use a smaller instance"
            )
    group = np.array(perms, dtype=np.int64)
    order = np.lexsort(group.T[::-1])
    return group[order]


@memoize_lru(maxsize=8)
def automorphism_orbits(net: Network) -> np.ndarray:
    """Node-orbit labels under the full automorphism group.

    Returns an ``(n,)`` int array where ``orbit[v]`` is the smallest node
    id in ``v``'s orbit — nodes share a label iff some automorphism maps
    one to the other.  A vertex-transitive graph has a single orbit (all
    labels 0).

    The group is enumerated via :func:`automorphism_group` and the result
    is memoized per network instance (:func:`repro.cache.memoize_lru`, so
    ``repro.cache.clear_memory_caches()`` flushes it).  Same size limits
    as :func:`automorphism_group`.
    """
    return automorphism_group(net).min(axis=0)


def _rooted_graph(g, root: int, n: int):
    """Copy of ``g`` with the root marked by an attached high-degree gadget.

    A new hub node adjacent to the root receives ``n + 1`` pendant leaves,
    giving it degree ``n + 2`` — strictly larger than any degree in ``g``
    (a simple graph on ``n`` nodes has max degree ``n - 1``).  Any
    isomorphism between two such marked copies must map hub to hub and
    therefore root to root.
    """
    h = g.copy()
    hub = n
    h.add_edge(hub, root)
    for i in range(n + 1):
        h.add_edge(hub, n + 1 + i)
    return h


def is_vertex_transitive(net: Network, node_limit: int = 2000) -> bool:
    """Exact vertex-transitivity: for every node ``v`` some automorphism
    maps node 0 to ``v``.

    Equivalent to :func:`automorphism_orbits` having a single orbit, and
    decided that way when the full group is small enough to enumerate.
    For larger groups it falls back to rooted-graph isomorphism tests:
    ``(G, 0)`` is isomorphic to ``(G, v)`` as rooted graphs for all ``v``.
    Raises ``ValueError`` beyond ``node_limit`` nodes.
    """
    n = net.num_nodes
    if n > node_limit:
        raise ValueError(f"graph too large for exact transitivity test ({n} nodes)")
    if n <= 1:
        return True
    if not looks_vertex_transitive(net):
        return False
    try:
        return bool((automorphism_orbits(net) == 0).all())
    except ValueError:
        pass  # group too large to enumerate — rooted-isomorphism fallback

    import networkx as nx

    g = net.to_networkx()
    if g.is_directed():
        g = g.to_undirected()
    base = _rooted_graph(g, 0, n)
    for v in range(1, n):
        other = _rooted_graph(g, v, n)
        if not nx.is_isomorphic(base, other):
            return False
    return True
