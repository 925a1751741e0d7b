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
3. **Deroute**: when every minimal hop is dead, fall back to the
   node-disjoint-paths machinery (:mod:`repro.routing.disjoint`) on the
   *survivor* graph and pin the packet to the shortest live path found.
   The caller bounds how often a packet may deroute (livelock cap).

The router never mutates the network: it reads the compiled
:class:`~repro.fault.plan.FaultTimeline` directly.  The max-flow structure
behind the detours (:class:`~repro.routing.disjoint.NodeDisjointPaths`) is
built once per router, on its first deroute; a fault epoch only masks it.
The router keeps one record for the fault epoch it last derouted in —
its survivor mask and its survivor paths, at most :data:`PATH_BOUND` of
them — and replaces it whenever the epoch changes.

Survivor detours are undirected node-disjoint paths, so the router refuses
a directed network.
"""

from __future__ import annotations

from repro import obs
from repro.core.network import Network
from repro.routing.disjoint import NodeDisjointPaths, SurvivorMask
from repro.routing.table import shared_table

from .plan import FaultTimeline

__all__ = ["ResilientRouter"]

#: route_next verdicts
PRIMARY = "primary"
REROUTE = "reroute"
DEROUTE = "deroute"
UNREACHABLE = "unreachable"

#: most survivor paths kept for one fault epoch
PATH_BOUND = 4096


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
                f"detours are undirected node-disjoint paths"
            )
        self.net = net
        self._n = net.num_nodes
        self.timeline = timeline
        self.table = shared_table(net, with_distances=True)
        self.reroutes = 0
        self.deroutes = 0
        self.unreachable = 0
        self._flow: NodeDisjointPaths | None = None  # built on first deroute
        # (epoch, survivor mask, paths by (u, dst)) of the last epoch
        # derouted in; the mask is filled by the epoch's first computed path
        self._record: tuple[int, SurvivorMask | None, dict] = (-1, None, {})

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
    def _compute_survivor_path(
        self, epoch: int, u: int, dst: int, t: int
    ) -> tuple[int, ...] | None:
        """The detour itself: the shortest of a maximum set of
        node-disjoint ``u -> dst`` paths on the survivor graph of
        ``epoch`` (the current record's epoch, in force at ``t``)."""
        tl = self.timeline
        if u == dst or not (tl.node_up_at(u, t) and tl.node_up_at(dst, t)):
            return None  # no detour to take
        if self._flow is None:
            # the intact arc order, each link once as u < v: masking it
            # per epoch gives each survivor graph in its networkx order
            coo = self.net.adjacency_csr().tocoo()
            upper = coo.row < coo.col
            self._flow = NodeDisjointPaths.from_arcs(
                self._n, coo.row[upper], coo.col[upper]
            )
        _, mask, paths = self._record
        if mask is None:
            mask = self._flow.mask(tl.dead_nodes_at(t), tl.dead_links_at(t))
            self._record = (epoch, mask, paths)
        found = self._flow(u, dst, mask)
        return tuple(min(found, key=len)) if found else None

    def _survivor_path(self, u: int, dst: int, t: int) -> tuple[int, ...] | None:
        """Shortest live ``u -> dst`` path among the node-disjoint set on the
        survivor graph at ``t`` (kept in the epoch's record), or ``None``."""
        epoch = self.timeline.epoch(t)
        if self._record[0] != epoch:
            self._record = (epoch, None, {})
        paths = self._record[2]
        key = (u, dst)
        if key in paths:
            return paths[key]
        path = self._compute_survivor_path(epoch, u, dst, t)
        if len(paths) >= PATH_BOUND:
            del paths[next(iter(paths))]  # the oldest entry
        paths[key] = path
        obs.registry().incr("routing.resilient.survivor_paths")
        return path

    def __repr__(self) -> str:
        return (
            f"ResilientRouter({self.net.name!r}, reroutes={self.reroutes}, "
            f"deroutes={self.deroutes}, unreachable={self.unreachable})"
        )
