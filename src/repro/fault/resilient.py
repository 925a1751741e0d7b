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

The router never mutates the network: fault state comes from a compiled
:class:`~repro.fault.plan.FaultTimeline`, and survivor-graph path lookups
are cached per fault epoch.  The max-flow structure behind the detours
(:class:`~repro.routing.disjoint.NodeDisjointPaths`) is built once per
router, on its first deroute; a fault epoch only masks it, and that mask
is cached per epoch as well.  The caches are bounded: entries from stale
fault epochs are evicted when the timeline advances, and within an
epoch the path cache is LRU-bounded
(``path_cache_size``); ``cache_info()`` reports hit/miss/eviction
counters in the :func:`repro.cache.memoize_lru` style.  Passing an
:class:`~repro.fault.orbits.OrbitDetourCache` lets symmetric fault
configurations share survivor paths across routers.
"""

from __future__ import annotations

from collections import OrderedDict

from repro import obs
from repro.core.network import Network
from repro.routing.disjoint import NodeDisjointPaths, SurvivorMask
from repro.routing.table import shared_table

from .plan import FaultTimeline
from .view import FaultyNetwork

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
        The intact topology.  Routes on its fault-free
        :func:`~repro.routing.table.shared_table` with distances (needed
        to enumerate alternate minimal hops); faults are masked per query.
    timeline:
        Compiled fault schedule consulted at query time.
    use_disjoint:
        Allow the stage-3 survivor-path fallback (on by default).
    path_cache_size:
        LRU bound on cached survivor paths (per router).  Entries from
        fault epochs older than the last one queried are evicted eagerly,
        so the bound only bites within a single epoch.
    orbit_cache:
        Optional :class:`~repro.fault.orbits.OrbitDetourCache` consulted
        before computing a survivor path: automorphic fault
        configurations then share detours, across routers when the cache
        instance is shared.
    """

    def __init__(
        self,
        net: Network,
        timeline: FaultTimeline,
        use_disjoint: bool = True,
        path_cache_size: int = 4096,
        orbit_cache=None,
    ):
        if path_cache_size < 1:
            raise ValueError(
                f"path_cache_size must be >= 1, got {path_cache_size}"
            )
        self.net = net
        self._n = net.num_nodes
        self.timeline = timeline
        self.table = shared_table(net, with_distances=True)
        self.use_disjoint = use_disjoint
        self.reroutes = 0
        self.deroutes = 0
        self.unreachable = 0
        self.path_cache_size = int(path_cache_size)
        self.orbit_cache = orbit_cache
        self._path_cache: OrderedDict[
            tuple[int, int, int], tuple[int, ...] | None
        ] = OrderedDict()
        self._view_cache: dict[int, FaultyNetwork] = {}
        self._flow: NodeDisjointPaths | None = None  # built on first deroute
        self._flow_cache: dict[int, SurvivorMask] = {}
        self._cache_epoch: int | None = None
        self._cache_stats = {
            "path_hits": 0,
            "path_misses": 0,
            "path_evictions": 0,
            "view_hits": 0,
            "view_misses": 0,
        }

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
        if primary >= 0 and self.hop_alive(u, primary, t):
            return primary, PRIMARY, ()
        for v in self.table.next_hops(u, dst):
            if v != primary and self.hop_alive(u, v, t):
                self.reroutes += 1
                return v, REROUTE, ()
        if self.use_disjoint:
            path = self._survivor_path(u, dst, t)
            if path is not None:
                self.deroutes += 1
                return path[1], DEROUTE, path[2:]
        self.unreachable += 1
        return -1, UNREACHABLE, ()

    # ------------------------------------------------------------------
    def _advance_epoch(self, epoch: int) -> None:
        """Evict cache entries left over from other fault epochs.

        Fault epochs are visited monotonically in simulation, so entries
        keyed by a different epoch are dead weight once the timeline
        moves on — dropping them keeps both caches bounded by one
        epoch's working set regardless of how many fault events the
        timeline holds.
        """
        if epoch == self._cache_epoch:
            return
        stale = [k for k in self._path_cache if k[0] != epoch]
        for k in stale:
            del self._path_cache[k]
        self._cache_stats["path_evictions"] += len(stale)
        for cache in (self._view_cache, self._flow_cache):
            for e in [e for e in cache if e != epoch]:
                del cache[e]
        self._cache_epoch = epoch

    def _view(self, epoch: int, t: int) -> FaultyNetwork:
        view = self._view_cache.get(epoch)
        if view is None:
            self._cache_stats["view_misses"] += 1
            view = self._view_cache[epoch] = FaultyNetwork.at(
                self.net, self.timeline, t
            )
        else:
            self._cache_stats["view_hits"] += 1
        return view

    def _compute_survivor_path(
        self, epoch: int, u: int, dst: int, t: int
    ) -> tuple[int, ...] | None:
        view = self._view(epoch, t)
        if u == dst or not (view.is_node_up(u) and view.is_node_up(dst)):
            return None  # no detour to take
        if self._flow is None:
            # the intact survivor arc order: masking it per epoch gives
            # each epoch's survivor graph in its own networkx order
            src, dst_arcs = FaultyNetwork(self.net).survivor_arcs()
            self._flow = NodeDisjointPaths.from_arcs(
                self._n, src, dst_arcs, self.net.directed
            )
        mask = self._flow_cache.get(epoch)
        if mask is None:
            mask = self._flow_cache[epoch] = self._flow.mask(
                view.dead_nodes, view.dead_links
            )
        paths = self._flow(u, dst, mask)
        return tuple(min(paths, key=len)) if paths else None

    def _survivor_path(self, u: int, dst: int, t: int) -> tuple[int, ...] | None:
        """Shortest live ``u -> dst`` path among the node-disjoint set on the
        survivor graph at ``t`` (cached per fault epoch), or ``None``."""
        epoch = self.timeline.epoch(t)
        self._advance_epoch(epoch)
        key = (epoch, u, dst)
        if key in self._path_cache:
            self._cache_stats["path_hits"] += 1
            self._path_cache.move_to_end(key)
            return self._path_cache[key]
        self._cache_stats["path_misses"] += 1
        path: tuple[int, ...] | None = None
        computed = False
        if self.orbit_cache is not None:
            from .orbits import _MISS

            dead_nodes = self.timeline.dead_nodes_at(t)
            dead_links = self.timeline.dead_links_at(t)
            okey, g = self.orbit_cache.canonize(dead_nodes, dead_links, u, dst)
            hit = self.orbit_cache.get(okey, g)
            if hit is not _MISS:
                path, computed = hit, True
            else:
                path = self._compute_survivor_path(epoch, u, dst, t)
                computed = True
                self.orbit_cache.put(okey, g, path)
        if not computed:
            path = self._compute_survivor_path(epoch, u, dst, t)
        self._path_cache[key] = path
        if len(self._path_cache) > self.path_cache_size:
            self._path_cache.popitem(last=False)
            self._cache_stats["path_evictions"] += 1
        reg = obs.registry()
        reg.incr("routing.resilient.survivor_paths")
        return path

    def cache_info(self) -> dict:
        """Counters for the per-epoch path/view caches (and the shared
        orbit cache when attached), in the ``memoize_lru`` style."""
        info = {
            **self._cache_stats,
            "path_maxsize": self.path_cache_size,
            "path_currsize": len(self._path_cache),
            "view_currsize": len(self._view_cache),
            # cached per-epoch survivor masks over the one flow structure
            "flow_currsize": len(self._flow_cache),
        }
        if self.orbit_cache is not None:
            info["orbit"] = self.orbit_cache.cache_info()
        return info

    def cache_clear(self) -> None:
        """Drop every cached path, survivor view and survivor mask
        (counters kept; the intact flow structure stays built)."""
        self._path_cache.clear()
        self._view_cache.clear()
        self._flow_cache.clear()
        self._cache_epoch = None

    def __repr__(self) -> str:
        return (
            f"ResilientRouter({self.net.name!r}, reroutes={self.reroutes}, "
            f"deroutes={self.deroutes}, unreachable={self.unreachable})"
        )
