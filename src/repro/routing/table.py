"""Generic shortest-path routing support (BFS tables).

Used as the routing oracle for the packet simulator and as the baseline the
family-specific routers (Theorem 4.1 sorting router, e-cube, ...) are tested
against.  The table can optionally retain the full distance matrix, which is
what the fault-aware :class:`repro.fault.ResilientRouter` uses to enumerate
*alternate* minimal next hops when the preferred one has failed.

The table is a pure function of the network, so a complete build is
recorded on the network and :func:`shared_table` hands it to every later
consumer (simulators, resilient routers, sweep trials) without another
all-pairs BFS.  It is also the default :class:`RoutingBackend` of the
packet simulator.
"""

from __future__ import annotations

from collections import deque
from typing import Protocol

import numpy as np

from repro import obs
from repro.core.network import Network, RoutingError
from repro.metrics.distances import _BATCH, multi_source_bfs

__all__ = ["shortest_path", "NextHopTable", "RoutingBackend", "shared_table"]


def shortest_path(net: Network, src: int, dst: int) -> list[int]:
    """One shortest path (node ids, inclusive of endpoints) via BFS."""
    reg = obs.registry()
    reg.incr("routing.routes")
    if src == dst:
        return [src]
    csr = net.adjacency_csr()
    indptr, indices = csr.indptr, csr.indices
    parent = {src: -1}
    q: deque[int] = deque([src])
    while q:
        u = q.popleft()
        for v in indices[indptr[u] : indptr[u + 1]]:
            v = int(v)
            if v in parent:
                continue
            parent[v] = u
            if v == dst:
                out = [dst]
                while out[-1] != src:
                    out.append(parent[out[-1]])
                out.reverse()
                reg.observe("routing.hops", len(out) - 1)
                return out
            q.append(v)
    raise RoutingError(
        f"no path from node {src} to node {dst} in {net.name!r}: "
        f"they lie in different connected components"
    )


class RoutingBackend(Protocol):
    """Batched hop choice: the one contract through which
    :class:`~repro.sim.simulator.PacketSimulator` asks for hops
    (``routing=``), implemented by :class:`NextHopTable` (a gather) and
    :meth:`repro.routing.SuperIPRouter.backend` (from labels alone).

    ``step(nodes, dsts, state)`` gets aligned int64 arrays: packets at
    ``nodes[i]`` (never their destination) heading for ``dsts[i]``, with
    one opaque int64 ``state[i]`` per packet.  It returns each packet's
    next node and new state.  The simulator sets a packet's state to 0 at
    injection and at every retransmission and never reads its meaning;
    a stateless backend passes it through.
    """

    def step(
        self, nodes: np.ndarray, dsts: np.ndarray, state: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Next node and new state of each packet."""
        ...  # pragma: no cover


class NextHopTable:
    """All-pairs next-hop table for shortest-path routing.

    ``next_hop[dst, u]`` is the smallest-id neighbor of ``u`` on a
    shortest path to ``dst`` (or ``u`` itself when ``u == dst``), and
    ``dist[dst, u]`` is the hop distance from ``u`` to ``dst``.  On a
    directed network both follow arc direction: the next hop is an
    out-neighbor and the distance counts arcs from ``u`` to ``dst``.
    Memory is ``O(N^2)``; construction runs the bit-parallel BFS of
    :func:`repro.metrics.distances.multi_source_bfs` from each batch of
    64 destinations (one ``uint64`` word; over reversed arcs when the
    network is directed), then one sweep over neighbor slots per batch.
    This is what the packet simulator uses to route — deterministic,
    minimal, and family-agnostic.

    Every build records its arrays on the network (read-only from then
    on), where :func:`shared_table` finds them; a table without distances
    never replaces one with them.  Construction fails with a
    :class:`~repro.core.network.RoutingError` naming an unreachable pair
    (or an isolated node) on a disconnected network, so no entry is ever
    left unset.

    Parameters
    ----------
    net:
        The topology.
    with_distances:
        Keep the full hop-distance matrix (``O(N^2)`` int32 extra) so
        :meth:`next_hops` / :meth:`distance` work.  Required by the
        fault-aware router's alternate-minimal-hop search.
    """

    def __init__(self, net: Network, with_distances: bool = False):
        n = net.num_nodes
        csr = net.adjacency_csr()
        indptr, indices = csr.indptr, csr.indices
        # BFS from each destination over reversed arcs reaches u at
        # dist(u -> dst); an undirected network is its own reverse.  The
        # reverse is a CSC view, which the BFS pulls along as a CSR view
        # of the network's own arrays: no copy per batch
        toward = csr.T if net.directed else net
        self.net = net
        self._indptr = indptr
        self._indices = indices
        self.dist: np.ndarray | None = (
            np.empty((n, n), dtype=np.int32) if with_distances else None
        )
        with obs.span("routing.table.build", n=n):
            self.table = np.empty((n, n), dtype=np.int32)
            degree = np.diff(indptr)
            if n > 1 and (degree == 0).any():
                bad = int(np.argmin(degree))
                raise RoutingError(
                    f"cannot build a next-hop table on {net.name!r}: node {bad} "
                    f"is isolated (no arcs)"
                )
            # hop[u, c] is u's neighbor in slot ``width - c`` of its
            # ascending neighbor list, so a larger code names a smaller id;
            # code 0 (no neighbor one step closer) decodes to -1
            width = int(degree.max()) if n else 0
            nbrs = (csr if csr.has_sorted_indices else csr.sorted_indices()).indices
            arc_src = np.repeat(np.arange(n), degree)
            hop = np.full((n, width + 1), -1, dtype=np.int32)
            hop[arc_src, width + indptr[arc_src] - np.arange(len(nbrs))] = nbrs
            hop_row = (np.arange(n) * (width + 1))[:, None]
            code_type = np.min_scalar_type(width)
            # the sweep gathers empty slots from a sentinel row n whose
            # value no node's "one step closer" distance can equal
            slot = np.where(hop < 0, n, hop)
            for start in range(0, n, _BATCH):
                dsts = np.arange(start, min(start + _BATCH, n))
                hops = multi_source_bfs(toward, dsts)  # (n, r): TO each dst
                unreached = hops < 0
                if unreached.any():
                    col = int(np.argmax(unreached.any(axis=0)))
                    u = int(np.argmax(unreached[:, col]))
                    raise RoutingError(
                        f"network {net.name!r} is disconnected: node {u} "
                        f"cannot reach node {int(dsts[col])} (and possibly "
                        f"others)"
                    )
                if self.dist is not None:
                    self.dist[dsts] = hops.T
                # keep the largest code whose neighbor is one step closer
                closer = hops - 1
                padded = np.empty((n + 1, len(dsts)), dtype=hops.dtype)
                padded[:n] = hops
                padded[n] = np.iinfo(hops.dtype).max
                code = np.zeros((n, len(dsts)), dtype=code_type)
                for c in range(1, width + 1):
                    hit = padded.take(slot[:, c], axis=0) == closer
                    np.maximum(code, hit * code_type.type(c), out=code)
                nh = hop.take(code + hop_row)
                nh[dsts, np.arange(len(dsts))] = dsts
                self.table[dsts] = nh.T
        _record(net, self.table, self.dist)
        reg = obs.registry()
        reg.incr("routing.table.builds")
        reg.incr("routing.table.nodes", n)

    def to_arrays(self) -> dict[str, np.ndarray]:
        """The table (and distance matrix, if kept) as a named array bundle.

        The bundle round-trips through :meth:`from_arrays` and is what
        :func:`repro.cache.cached_next_hop_table` spills to disk.
        """
        out = {"table": self.table}
        if self.dist is not None:
            out["dist"] = self.dist
        return out

    @classmethod
    def from_arrays(
        cls,
        net: Network,
        table: np.ndarray,
        dist: np.ndarray | None = None,
    ) -> "NextHopTable":
        """Reconstruct a table from :meth:`to_arrays` output without BFS.

        The caller is responsible for pairing the arrays with the same
        topology they were built on (the artifact cache keys tables by the
        graph's own cache key, so a mismatch cannot happen through it).
        The table is made C-contiguous here, once, so :meth:`step`'s flat
        view never copies it; arrays that need no conversion are kept as
        they are, so a mapped spill stays an ``np.memmap``.
        """
        n = net.num_nodes
        table = np.require(table, np.int32, "C")
        if table.shape != (n, n):
            raise ValueError(
                f"next-hop table shape {table.shape} does not match "
                f"{net.name!r} ({n} nodes)"
            )
        if dist is not None:
            dist = np.require(dist, np.int32)
            if dist.shape != (n, n):
                raise ValueError(
                    f"distance matrix shape {dist.shape} does not match "
                    f"{net.name!r} ({n} nodes)"
                )
        reg = obs.registry()
        reg.incr("routing.table.loads")
        reg.incr("routing.table.nodes", n)
        return cls._wrap(net, table, dist)

    @classmethod
    def _wrap(
        cls, net: Network, table: np.ndarray, dist: np.ndarray | None
    ) -> "NextHopTable":
        """A table over ``net`` holding these arrays (no checks, no BFS)."""
        self = cls.__new__(cls)
        csr = net.adjacency_csr()
        self.net = net
        self._indptr = csr.indptr
        self._indices = csr.indices
        self.table = table
        self.dist = dist
        return self

    def _check_node(self, v: int, role: str) -> int:
        """Validate one node id; negative or too-large ids would otherwise
        silently read another node's slot via numpy wraparound indexing."""
        v = int(v)
        n = self.net.num_nodes
        if not 0 <= v < n:
            raise ValueError(
                f"{role} node id {v} is out of range for {self.net.name!r} "
                f"(valid ids: 0..{n - 1})"
            )
        return v

    def next_hop(self, u: int, dst: int) -> int:
        """Neighbor of ``u`` on a shortest path to ``dst``.

        Raises :class:`ValueError` when either id is outside ``0..n-1``.
        """
        u = self._check_node(u, "source")
        dst = self._check_node(dst, "destination")
        return int(self.table[dst, u])

    def distance(self, u: int, dst: int) -> int:
        """Hop distance from ``u`` to ``dst`` (needs ``with_distances=True``)."""
        if self.dist is None:
            raise ValueError("table was built without with_distances=True")
        u = self._check_node(u, "source")
        dst = self._check_node(dst, "destination")
        return int(self.dist[dst, u])

    def next_hops(self, u: int, dst: int) -> list[int]:
        """*All* neighbors of ``u`` on shortest paths to ``dst``, ascending.

        The first entry equals :meth:`next_hop`.  Needs
        ``with_distances=True``; returns ``[dst]`` when ``u == dst``.
        """
        if self.dist is None:
            raise ValueError("table was built without with_distances=True")
        u = self._check_node(u, "source")
        dst = self._check_node(dst, "destination")
        if u == dst:
            return [dst]
        d = self.dist[dst]
        nbrs = self._indices[self._indptr[u] : self._indptr[u + 1]]
        return [int(v) for v in nbrs if d[v] == d[u] - 1]

    def step(
        self, nodes: np.ndarray, dsts: np.ndarray, state: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """:class:`RoutingBackend` hop: ``table[dsts, nodes]`` (int64) as
        one ``take`` on the flat (C-contiguous, so never copied) table,
        with ``state`` passed through.  Ids are not validated."""
        n = len(self.table)
        # one expression, so the flat index is freed before the int64 copy
        return self.table.take(np.asarray(dsts, dtype=np.int64) * n + nodes).astype(np.int64), state

    def path(self, src: int, dst: int) -> list[int]:
        """Full shortest path from ``src`` to ``dst``."""
        src = self._check_node(src, "source")
        dst = self._check_node(dst, "destination")
        out = [src]
        guard = self.net.num_nodes + 1
        while out[-1] != dst:
            out.append(self.next_hop(out[-1], dst))
            if len(out) > guard:  # pragma: no cover — corrupt table
                raise RuntimeError("routing loop detected")
        reg = obs.registry()
        reg.incr("routing.routes")
        reg.observe("routing.hops", len(out) - 1)
        return out


def _record(net: Network, table: np.ndarray, dist: np.ndarray | None) -> None:
    """Store a complete build's arrays on ``net`` for :func:`shared_table`.

    Plain arrays, not the table: the table holds ``net``, and a
    network-table cycle would outlive ``del`` (refcounting cannot free
    it, and numpy buffers do not trigger the cyclic GC).
    """
    held = net._next_hops
    if dist is None and held is not None and held[1] is not None:
        return  # never trade a table with distances for one without
    for arr in (table, dist):
        if arr is not None:
            arr.flags.writeable = False  # shared by every later consumer
    net._next_hops = (table, dist)


def shared_table(net: Network, with_distances: bool = False) -> NextHopTable:
    """The complete next-hop table of ``net``, built at most once per need.

    Wraps the arrays the last complete :class:`NextHopTable` build on
    ``net`` recorded, without BFS, and counts the reuse as
    ``routing.table.shared``.  Builds (and so records) a new table only
    when nothing is stored, or when ``with_distances`` asks for
    distances the stored table lacks.  The result equals a fresh
    ``NextHopTable(net, with_distances)``; its arrays are read-only,
    since every consumer of the network shares them.  Raises
    :class:`~repro.core.network.RoutingError` on a disconnected network,
    like the constructor.
    """
    table = _held_table(net, with_distances)
    if table is None:
        return NextHopTable(net, with_distances=with_distances)
    return table


def _held_table(net: Network, with_distances: bool) -> NextHopTable | None:
    """:func:`shared_table` without the build: ``None`` when ``net`` holds
    no complete table (with distances, if asked)."""
    held = net._next_hops
    if held is None or (with_distances and held[1] is None):
        return None
    obs.registry().incr("routing.table.shared")
    return NextHopTable._wrap(net, held[0], held[1] if with_distances else None)
