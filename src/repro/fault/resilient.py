"""Fault-aware routing: adaptive next hops around dead links and nodes.

Strategy, in escalating order of disruption (mirroring how adaptive routers
on star-graph-class networks exploit path diversity):

1. **Primary**: the deterministic minimal next hop from the fault-free
   :class:`~repro.routing.table.NextHopTable` — zero overhead while the
   preferred arc is alive.
2. **Reroute**: an *alternate* minimal next hop (another neighbor one step
   closer to the destination).  Still a shortest path in the fault-free
   metric; vertex-symmetric super-IP graphs have ``degree`` of these in the
   best case, which is exactly the paper's fault-tolerance argument.
3. **Deroute**: when every minimal hop is dead, pin the packet to the
   shortest path of the *survivor* graph, stepping at each node to the
   smallest-id live neighbor one hop closer to the destination.  The
   caller bounds how often a packet may deroute (livelock cap).

The router never mutates the network: it reads the compiled
:class:`~repro.fault.plan.FaultTimeline` directly.  It keeps one record
for the fault epoch it last derouted in, replaced when the epoch
changes: the survivor graph as a CSR matrix (the intact arcs whose link
and ends are up).  Each detour runs one level-synchronous BFS from the
destination on it, one sparse mat-vec per level, and stops at the level
that labels the packet's node.
Survivor detours are paths of the undirected survivor graph, so the
router refuses a directed network.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro.core.network import Network
from repro.routing.table import shared_table

from .plan import FaultTimeline

__all__ = ["ResilientRouter"]

#: route_next verdicts
PRIMARY = "primary"
REROUTE = "reroute"
DEROUTE = "deroute"
UNREACHABLE = "unreachable"


class ResilientRouter:
    """Adaptive next-hop router over a faulty network.

    Parameters
    ----------
    net:
        The intact, undirected topology.  Routes on its fault-free
        :func:`~repro.routing.table.shared_table` with distances (needed
        to enumerate alternate minimal hops); faults are masked per query.
        A directed network raises :class:`ValueError`.
    timeline:
        Compiled fault schedule consulted at query time.
    """

    def __init__(self, net: Network, timeline: FaultTimeline):
        if net.directed:
            raise ValueError(
                f"ResilientRouter: {net.name!r} is directed, but survivor "
                f"detours are shortest paths of the undirected survivor graph"
            )
        self.net = net
        self._n = net.num_nodes
        self.timeline = timeline
        self.table = shared_table(net, with_distances=True)
        self.reroutes = 0
        self.deroutes = 0
        self.unreachable = 0
        # every arc of the intact adjacency (row-major, so each row's
        # heads are sorted), and its link's column in the timeline's array
        # queries (-1: never fails)
        coo = net.adjacency_csr().tocoo()
        self._arc_src, self._arc_dst = coo.row, coo.col
        self._arc_col = timeline.link_columns(self._arc_src, self._arc_dst)
        # (epoch, survivor adjacency) of the last deroute
        self._record: tuple[int, sp.csr_matrix | None] = (-1, None)

    # ------------------------------------------------------------------
    def hop_alive(self, u: int, v: int, t: int) -> bool:
        """Can a packet at ``u`` traverse ``(u, v)`` at cycle ``t`` —
        link up and far endpoint up?  (Scalar probes of the timeline's
        compiled intervals, like the destination check in
        :meth:`route_next`.)"""
        tl = self.timeline
        return tl.link_up_at(u, v, t) and tl.node_up_at(v, t)

    def route_next(self, u: int, dst: int, t: int):
        """Pick the next hop from ``u`` toward ``dst`` at cycle ``t``.

        Returns ``(next_node, verdict, rest)`` where ``verdict`` is one of
        ``"primary"``, ``"reroute"``, ``"deroute"``, ``"unreachable"``.
        For deroutes, ``rest`` is the remainder of the pinned survivor path
        *after* ``next_node`` (callers should follow it rather than re-query
        every hop, or the detour oscillates).  ``next_node`` is ``-1`` when
        unreachable.  Raises :class:`ValueError` for a node id outside
        ``0..N-1`` and for ``u == dst`` (a packet at its destination is
        delivered, not routed).
        """
        n = self._n
        if not 0 <= u < n:
            raise ValueError(f"route_next: node id u={u} is outside 0..{n - 1}")
        if not 0 <= dst < n:
            raise ValueError(f"route_next: node id dst={dst} is outside 0..{n - 1}")
        if u == dst:
            raise ValueError(f"route_next: u == dst == {u}; nothing to route")
        tl = self.timeline
        if not tl.node_up_at(dst, t):
            self.unreachable += 1
            return -1, UNREACHABLE, ()
        primary = int(self.table.table[dst, u])
        if self.hop_alive(u, primary, t):
            return primary, PRIMARY, ()
        for v in self.table.next_hops(u, dst):
            if v != primary and self.hop_alive(u, v, t):
                self.reroutes += 1
                return v, REROUTE, ()
        path = self._survivor_path(u, dst, t)
        if path is not None:
            self.deroutes += 1
            return path[1], DEROUTE, path[2:]
        self.unreachable += 1
        return -1, UNREACHABLE, ()

    # ------------------------------------------------------------------
    def _survivor_csr(self, t: int) -> sp.csr_matrix:
        """The survivor graph at ``t``: the intact arcs whose link and both
        endpoints are up, in new arrays (the network's cached CSR is
        shared, so it is never masked in place).  The masked arcs stay
        row-major with sorted heads, so they are the CSR's ``indices`` as
        they stand and ``indptr`` is the running count of their tails."""
        tl = self.timeline
        alive = ~tl.links_down_during(self._arc_col, t, t + 1)
        if tl.node_down:
            alive &= tl.nodes_up_at(self._arc_src, t)
            alive &= tl.nodes_up_at(self._arc_dst, t)
        n = self._n
        indices = self._arc_dst[alive]
        indptr = np.zeros(n + 1, dtype=indices.dtype)  # the intact CSR's width
        np.cumsum(np.bincount(self._arc_src[alive], minlength=n), out=indptr[1:])
        data = np.ones(len(indices), dtype=bool)
        return sp.csr_matrix((data, indices, indptr), shape=(n, n))

    def _compute_survivor_path(
        self, epoch: int, u: int, dst: int, t: int
    ) -> tuple[int, ...] | None:
        """The detour itself: the shortest ``u -> dst`` path of the survivor
        graph of ``epoch`` (in force at ``t``), each step to the smallest-id
        neighbor one hop closer to ``dst``; ``None`` for ``u == dst`` or
        when no path survives (a dead endpoint has no live link).

        The BFS from ``dst`` stops at the level that reaches ``u``: the
        walk only reads the levels nearer ``dst`` than ``u``, which are
        complete by then."""
        if u == dst:
            return None
        if self._record[0] != epoch:
            self._record = (epoch, self._survivor_csr(t))
        adj = self._record[1]
        seen = np.zeros(self._n, dtype=bool)
        seen[dst] = True
        levels = [seen.copy()]  # levels[k]: the nodes k hops from dst
        while not seen[u] and levels[-1].any():
            # one sparse mat-vec per level (the graph is symmetric)
            levels.append((adj @ levels[-1]) > seen)  # reached, not yet seen
            seen |= levels[-1]
        hops = len(levels) - 1
        obs.registry().incr("routing.resilient.bfs_levels", hops)
        if not seen[u]:
            return None
        indptr, indices = adj.indptr, adj.indices
        path = [u]
        for k in range(hops - 1, -1, -1):  # one step per hop, distance k left
            nbrs = indices[indptr[path[-1]] : indptr[path[-1] + 1]]
            path.append(int(nbrs[levels[k][nbrs]][0]))  # indices are sorted
        return tuple(path)

    def _survivor_path(self, u: int, dst: int, t: int) -> tuple[int, ...] | None:
        """Shortest live ``u -> dst`` path on the survivor graph at ``t``,
        or ``None``."""
        obs.registry().incr("routing.resilient.survivor_paths")
        return self._compute_survivor_path(self.timeline.epoch(t), u, dst, t)

    def __repr__(self) -> str:
        return (
            f"ResilientRouter({self.net.name!r}, reroutes={self.reroutes}, "
            f"deroutes={self.deroutes}, unreachable={self.unreachable})"
        )
