"""Survivor-graph oracle helper: a degraded network rebuilt from scratch.

A :class:`FaultyNetwork` wraps a base :class:`~repro.core.network.Network`
plus a set of dead nodes and dead (undirected) links.  Node ids are *stable*
— dead nodes keep their ids and simply lose all incident arcs — so routing
tables and paths indexed against the base network remain valid on the view.
It materializes the survivor graph independently of the production router
(filtered CSR, :meth:`FaultyNetwork.to_network`), which is what the
detour oracles run on: :func:`shortest_survivor_path` here (the detour
``ResilientRouter`` must take) and the node-disjoint paths of
``tests/disjoint_oracle.py`` (the longer detours it used to take).  Import
it as
``from tests.fault_view import FaultyNetwork`` with the repo root on
``sys.path`` (or relatively from inside ``tests/``).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.core.network import Network

__all__ = ["FaultyNetwork", "shortest_survivor_path"]


class FaultyNetwork:
    """A read-only fault mask over a base network.

    Parameters
    ----------
    base:
        The intact topology.
    dead_nodes:
        Node ids currently down (all incident links are implicitly down).
    dead_links:
        Undirected ``(u, v)`` pairs currently down.
    """

    def __init__(self, base: Network, dead_nodes=(), dead_links=()):
        n = base.num_nodes
        self.base = base
        self.dead_nodes = frozenset(int(v) for v in dead_nodes)
        self.dead_links = frozenset(
            (min(int(u), int(v)), max(int(u), int(v))) for u, v in dead_links
        )
        for v in self.dead_nodes:
            if not 0 <= v < n:
                raise ValueError(f"dead node {v} out of range for {base.name!r}")
        for u, v in self.dead_links:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(
                    f"dead link ({u}, {v}) out of range for {base.name!r}"
                )
        self._csr: sp.csr_matrix | None = None
        self._survivor: Network | None = None

    @classmethod
    def at(cls, base: Network, timeline, t: int) -> "FaultyNetwork":
        """Snapshot of ``timeline``'s fault state at cycle ``t``."""
        return cls(base, timeline.dead_nodes_at(t), timeline.dead_links_at(t))

    # -- liveness queries ------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Node count of the *base* network (ids are stable, dead included)."""
        return self.base.num_nodes

    @property
    def num_alive(self) -> int:
        """Number of surviving nodes."""
        return self.base.num_nodes - len(self.dead_nodes)

    def survivors(self) -> list[int]:
        """Sorted ids of the nodes still up."""
        return [v for v in range(self.base.num_nodes) if v not in self.dead_nodes]

    def is_node_up(self, v: int) -> bool:
        """Is node ``v`` alive?"""
        return v not in self.dead_nodes

    def is_link_up(self, u: int, v: int) -> bool:
        """Is the (undirected) link ``(u, v)`` usable — link itself and both
        endpoints alive?"""
        if u in self.dead_nodes or v in self.dead_nodes:
            return False
        return (min(u, v), max(u, v)) not in self.dead_links

    def alive_neighbors(self, u: int) -> list[int]:
        """Neighbors of ``u`` reachable over live links (empty if ``u`` is
        dead).  Reads the base CSR directly — no rebuild."""
        if u in self.dead_nodes:
            return []
        return [v for v in self.base.neighbors(u) if self.is_link_up(u, v)]

    # -- materialized forms (lazy, cached) -------------------------------
    def adjacency_csr(self) -> sp.csr_matrix:
        """Simple adjacency of the degraded graph (dead rows/cols empty)."""
        if self._csr is None:
            base = self.base.adjacency_csr()
            coo = base.tocoo()
            src, dst = coo.row.astype(np.int64), coo.col.astype(np.int64)
            keep = np.ones(len(src), dtype=bool)
            if self.dead_nodes:
                dead = np.zeros(self.base.num_nodes, dtype=bool)
                dead[list(self.dead_nodes)] = True
                keep &= ~dead[src] & ~dead[dst]
            if self.dead_links:
                lo = np.minimum(src, dst)
                hi = np.maximum(src, dst)
                pairs = set(self.dead_links)
                keep &= np.fromiter(
                    ((int(a), int(b)) not in pairs for a, b in zip(lo, hi)),
                    dtype=bool,
                    count=len(src),
                )
            n = self.base.num_nodes
            data = np.ones(int(keep.sum()), dtype=np.int8)
            self._csr = sp.coo_matrix(
                (data, (src[keep], dst[keep])), shape=(n, n)
            ).tocsr()
        return self._csr

    def survivor_arcs(self) -> tuple[np.ndarray, np.ndarray]:
        """``(src, dst)`` of the survivor graph in CSR (row-major) order:
        each link once as ``u < v``, or every arc of a directed base."""
        coo = self.adjacency_csr().tocoo()
        mask = coo.row < coo.col if not self.base.directed else slice(None)
        return coo.row[mask], coo.col[mask]

    def to_network(self) -> Network:
        """Materialize the survivor graph as a real :class:`Network` with the
        *same node ids* (dead nodes become isolated) — what the connectivity
        machinery consumes."""
        if self._survivor is None:
            src, dst = self.survivor_arcs()
            self._survivor = Network(
                self.base.labels,
                src,
                dst,
                name=f"{self.base.name}/degraded",
                directed=self.base.directed,
            )
        return self._survivor

    def __repr__(self) -> str:
        return (
            f"FaultyNetwork({self.base.name!r}, dead_nodes={len(self.dead_nodes)}, "
            f"dead_links={len(self.dead_links)})"
        )


def shortest_survivor_path(view: FaultyNetwork, u: int, dst: int) -> tuple[int, ...] | None:
    """The survivor detour from ``u`` to ``dst`` on ``view``, rebuilt from
    scratch: networkx BFS distances to ``dst`` on the survivor graph, then
    from ``u`` the smallest-id neighbor one hop closer, until ``dst``.
    ``None`` when either end is dead, ``u == dst`` or no path survives."""
    import networkx as nx

    if u == dst or not (view.is_node_up(u) and view.is_node_up(dst)):
        return None
    g = view.to_network().to_networkx()
    dist = nx.single_source_shortest_path_length(g, dst)
    if u not in dist:
        return None
    path = [u]
    while path[-1] != dst:
        here = path[-1]
        path.append(min(v for v in g[here] if dist.get(v) == dist[here] - 1))
    return tuple(path)
