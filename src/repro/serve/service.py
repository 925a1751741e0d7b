"""Batched route-query serving over memory-mapped next-hop tables.

:class:`RouteService` is the query front end of the routing layer: it
answers ``resolve(src[], dst[])`` for whole batches at once by walking the
query vector through a :class:`~repro.routing.table.NextHopTable` with
numpy gathers — no per-query Python.  It serves one layout, the stored
next hops plus the stored distances, backed two ways and split into
one or more row blocks:

* **memory** — wrap an in-process table (:meth:`RouteService.from_table`);
* **mmap** — open the table zero-copy from the artifact cache
  (:meth:`RouteService.open`): the table and its distances are stored
  once, as the raw ``.npy`` spills of
  :func:`~repro.cache.cached_next_hop_table`, and every process that
  opens the same cache maps the same read-only spills, one physical copy
  through the page cache (``np.load(..., mmap_mode="r")``);
* **sharded** — the ``dst``-major row space is split into ``shards``
  row blocks, each a row slice of the one table; a batch is split by
  shard once per resolve, and every gather is one ``take`` on a shard
  block's flat view at ``(dst - row_start)·N + node``.

Every answer is bit-identical to the scalar
:meth:`~repro.routing.table.NextHopTable.next_hop` /
:meth:`~repro.routing.table.NextHopTable.path` walk on the same table —
the serving layer changes the cost model, never the routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.core.network import RoutingError

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.cache.artifacts import ArtifactCache
    from repro.core.network import Network
    from repro.routing.table import NextHopTable

__all__ = ["ResolveBatch", "RouteService", "shard_row_starts"]


def shard_row_starts(num_nodes: int, shards: int) -> tuple[int, ...]:
    """Row boundaries splitting ``num_nodes`` dst rows into ``shards``
    near-equal blocks: ``starts[i]..starts[i+1]`` is shard ``i``'s range.

    Both degenerate directions raise: ``shards < 1`` is meaningless, and
    ``shards > num_nodes`` would silently produce empty row blocks that
    the caller almost certainly did not want — the old behaviour of clamping to ``num_nodes`` hid exactly that
    misconfiguration.
    """
    num_nodes = int(num_nodes)
    shards = int(shards)
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if shards > num_nodes:
        raise ValueError(
            f"shards must be <= num_nodes ({num_nodes}), got {shards}: "
            f"more shards than dst rows would create empty shard blocks"
        )
    bounds = np.linspace(0, num_nodes, shards + 1).astype(np.int64)
    return tuple(int(b) for b in bounds)


@dataclass(frozen=True)
class ResolveBatch:
    """One batch of resolved queries (all arrays are query-aligned).

    ``next_hop[i]`` is the first hop from ``src[i]`` toward ``dst[i]``
    (``dst[i]`` itself when they coincide), ``distance[i]`` the hop count,
    and — when paths were requested — ``paths[i]`` the full node sequence
    padded with ``-1`` to the batch's longest route.
    """

    src: np.ndarray
    dst: np.ndarray
    next_hop: np.ndarray
    distance: np.ndarray
    paths: np.ndarray | None = None

    def __len__(self) -> int:
        return int(self.src.shape[0])

    def path_list(self, i: int) -> list[int]:
        """Query ``i``'s path as a plain list (requires ``paths=True``)."""
        if self.paths is None:
            raise ValueError("batch was resolved without paths=True")
        return self.paths[i, : int(self.distance[i]) + 1].tolist()

    def path_lists(self) -> list[list[int]]:
        """Every path as a list of lists (test/interop convenience)."""
        return [self.path_list(i) for i in range(len(self))]


class RouteService:
    """Batched shortest-path query service over a next-hop table and its
    distance matrix.

    Construct via :meth:`from_table` (in-memory) or :meth:`open`
    (mmap-shared through the artifact cache, optionally sharded).  Each
    of ``blocks`` and ``dist_blocks`` holds the same dst rows
    ``row_starts[i]..row_starts[i+1]`` of the table and of the distances.
    The query API never touches per-query Python: first hops and
    distances are one gather each per shard, and a path costs one gather
    per hop step.
    """

    def __init__(
        self,
        name: str,
        num_nodes: int,
        blocks: list[np.ndarray],
        row_starts: tuple[int, ...],
        dist_blocks: list[np.ndarray],
    ) -> None:
        if len(row_starts) != len(blocks) + 1:
            raise ValueError(
                f"row_starts must have one more entry than blocks, got "
                f"{len(row_starts)} for {len(blocks)} block(s)"
            )
        if row_starts[0] != 0 or row_starts[-1] != num_nodes:
            raise ValueError(
                f"row_starts must run from 0 to num_nodes ({num_nodes}), got "
                f"{tuple(row_starts)}"
            )
        if len(dist_blocks) != len(blocks):
            raise ValueError(
                f"dist_blocks must have one block per table block, got "
                f"{len(dist_blocks)} for {len(blocks)}"
            )
        self.name = name
        self.num_nodes = int(num_nodes)
        self._blocks = list(blocks)
        self._row_starts = np.asarray(row_starts, dtype=np.int64)
        self._dist_blocks = list(dist_blocks)
        self._flat = [self._flat_view(b, i, "table") for i, b in enumerate(blocks)]
        self._flat_dist = [
            self._flat_view(b, i, "distance") for i, b in enumerate(dist_blocks)
        ]

    def _flat_view(self, block: np.ndarray, i: int, role: str) -> np.ndarray:
        """Shard ``i``'s block as a zero-copy 1-D view for offset gathers
        (a plain ndarray view, so a ``take`` on it returns an ndarray,
        not an ``np.memmap``).

        A flat offset into a block of the wrong width would silently read
        another row's slot, and ``reshape(-1)`` of a non-contiguous block
        would copy the whole shard on every call, so both fail here.
        """
        lo, hi = int(self._row_starts[i]), int(self._row_starts[i + 1])
        want = (hi - lo, self.num_nodes)
        if block.shape != want:
            raise ValueError(
                f"{role} block {i} has shape {block.shape}, expected {want} "
                f"(dst rows {lo}..{hi - 1} of {self.name!r})"
            )
        if not block.flags.c_contiguous:
            raise ValueError(
                f"{role} block {i} is not C-contiguous: a flat gather would "
                f"copy the whole shard on every resolve"
            )
        return block.reshape(-1).view(np.ndarray)

    def __repr__(self) -> str:
        return (
            f"RouteService({self.name!r}, N={self.num_nodes}, "
            f"shards={self.shards}, source={self.source!r})"
        )

    @property
    def shards(self) -> int:
        """Number of dst-row blocks the table is split into."""
        return len(self._blocks)

    @property
    def mmap_backed(self) -> bool:
        """Whether every block is an ``np.memmap`` view (zero-copy shared)."""
        return all(isinstance(b, np.memmap) for b in self._blocks + self._dist_blocks)

    @property
    def source(self) -> str:
        """``"mmap"`` when :attr:`mmap_backed`, else ``"memory"``."""
        return "mmap" if self.mmap_backed else "memory"

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_table(cls, table: "NextHopTable") -> "RouteService":
        """Serve an in-process table (no cache, no sharing).

        Raises :class:`ValueError` when the table holds no distances.
        """
        net = table.net
        if table.dist is None:
            raise ValueError(
                f"the next-hop table of {net.name!r} holds no distances: build "
                f"it with NextHopTable(net, with_distances=True) to serve it"
            )
        return cls(net.name, net.num_nodes, [table.table], (0, net.num_nodes), [table.dist])

    @classmethod
    def open(
        cls,
        net: "Network",
        shards: int = 1,
        cache: "ArtifactCache | None" = None,
    ) -> "RouteService":
        """Serve ``net``'s table from the artifact cache, in ``shards``
        row blocks.

        The table and its distances come from
        :func:`~repro.cache.cached_next_hop_table`, which maps (writing
        them first if needed) the cache's read-only ``.npy`` spills; every
        block is a row slice of those maps, so every open in this process
        or any other on the same cache reads the same pages.  Without a
        cache or a registry-stamped ``cache_key`` on the network the
        blocks slice the network's in-memory
        :func:`~repro.routing.table.shared_table` instead (documented
        fallback, ``source == "memory"``).
        """
        from repro.cache import cached_next_hop_table

        table = cached_next_hop_table(net, with_distances=True, cache=cache)
        assert table.dist is not None
        row_starts = shard_row_starts(net.num_nodes, shards)
        bounds = list(zip(row_starts, row_starts[1:]))
        svc = cls(
            net.name,
            net.num_nodes,
            [table.table[lo:hi] for lo, hi in bounds],
            row_starts,
            [table.dist[lo:hi] for lo, hi in bounds],
        )
        reg = obs.registry()
        reg.incr(f"serve.open.{svc.source}")
        reg.gauge_max("serve.shards", svc.shards)
        return svc

    # -- query path -----------------------------------------------------
    def _validate_ids(self, a: object, role: str) -> np.ndarray:
        """1-D int64 view of a query id vector, every id in ``0..n-1``.

        Negative or too-large ids would silently read another node's table
        slot via numpy wraparound indexing — same contract as the scalar
        :meth:`NextHopTable.next_hop` validation.
        """
        arr = np.atleast_1d(np.asarray(a, dtype=np.int64))
        if arr.ndim != 1:
            raise ValueError(f"{role} ids must be a 1-D sequence, got shape {arr.shape}")
        if arr.shape[0] == 0:
            raise ValueError(
                f"{role} ids are empty: resolve() requires at least one query"
            )
        if arr.min() < 0 or arr.max() >= self.num_nodes:
            bad = (arr < 0) | (arr >= self.num_nodes)
            i = int(bad.argmax())
            raise ValueError(
                f"{role} node id {int(arr[i])} at position {i} is out of "
                f"range for {self.name!r} (valid ids: 0..{self.num_nodes - 1})"
            )
        return arr

    def _split(
        self, src: np.ndarray, dst: np.ndarray
    ) -> list[tuple[int, slice | np.ndarray, np.ndarray]]:
        """Group the batch by shard, once per resolve.

        One ``(shard, sel, at)`` per shard holding queries: ``sel`` picks
        them out of the batch (every query when there is one shard) and
        ``at = (dst - row_start)·N + src`` is each one's flat offset of
        its first-hop slot in that shard's block.  The offsets are built
        in place in one int64 buffer.
        """
        n = self.num_nodes
        at = np.multiply(dst, n)
        at += src
        if self.shards == 1:
            return [(0, slice(None), at)]
        bounds = (self._row_starts * n).tolist()
        parts = []
        for s in range(self.shards):
            lo, hi = bounds[s], bounds[s + 1]
            sel = np.flatnonzero((at >= lo) & (at < hi))
            if sel.size:
                part = at[sel]
                part -= lo
                parts.append((s, sel, part))
        return parts

    def _walk_paths(
        self,
        parts: list[tuple[int, slice | np.ndarray, np.ndarray]],
        src: np.ndarray,
        distance: np.ndarray,
    ) -> np.ndarray:
        """Full paths, padded with ``-1``.

        Each shard's queries are ordered longest route first, once, so the
        ones still walking at step ``t`` are a prefix of that order and
        step ``t`` writes one contiguous run of column ``t``; one row
        ``take`` puts the routes back in query order.  Total work is
        O(sum of path lengths).
        """
        q = src.shape[0]
        width = int(distance.max()) + 1
        walked = np.full((q, width), -1, dtype=np.int32)
        rows = np.empty(q, dtype=np.int64)  # batch row of each walked row
        lo = 0
        # iterates over the handful of shard blocks, not over queries
        for s, sel, at in parts:  # repro: noqa[RPR020]
            dist = distance[sel]
            order = np.argsort(-dist)
            hi = lo + order.shape[0]
            rows[lo:hi] = order if isinstance(sel, slice) else sel[order]
            # walking[t] = how many of the shard's queries have a t-th hop
            walking = np.cumsum(np.bincount(dist, minlength=width)[::-1])[::-1]
            cur = src[rows[lo:hi]]
            row = at[order] - cur
            walked[lo:hi, 0] = cur
            for t, k in enumerate(walking.tolist()[1:], start=1):
                if k == 0:
                    break
                cur = self._flat[s].take(row[:k] + cur[:k])
                walked[lo : lo + k, t] = cur
            lo = hi
        back = np.empty(q, dtype=np.int64)
        back[rows] = np.arange(q)
        return walked.take(back, axis=0)

    def resolve(
        self, src: object, dst: object, paths: bool = False
    ) -> ResolveBatch:
        """Resolve a whole query batch: first hops, distances, optional paths.

        ``src``/``dst`` are equal-length id sequences.  Raises
        :class:`ValueError` on out-of-range ids and
        :class:`~repro.core.network.RoutingError` (naming the first bad
        pair in query order) when a query crosses connected components —
        identical contracts, messages included, to the scalar table walk.

        The batch is split by shard once; every gather after that is one
        ``take`` per shard on the block's flat view at the query's offset.
        """
        src_ids = self._validate_ids(src, "source")
        dst_ids = self._validate_ids(dst, "destination")
        if src_ids.shape[0] != dst_ids.shape[0]:
            raise ValueError(
                f"src and dst must have the same length, got "
                f"{src_ids.shape[0]} and {dst_ids.shape[0]}"
            )
        q = src_ids.shape[0]
        reg = obs.registry()
        with obs.span("serve.resolve", queries=q, shards=self.shards):
            parts = self._split(src_ids, dst_ids)
            hops = np.empty(q, dtype=np.int32)
            for s, sel, at in parts:
                hops[sel] = self._flat[s].take(at)
            # before the path walk: a -1 hop used as an offset would wrap around
            if hops.min() < 0:
                unreachable = (hops < 0) & (src_ids != dst_ids)
                if unreachable.any():
                    i = int(unreachable.argmax())
                    raise RoutingError(
                        f"no route from node {int(src_ids[i])} to node "
                        f"{int(dst_ids[i])} in {self.name!r}: they lie in "
                        f"different connected components"
                    )
            # one shard and no paths: this loop is the offsets' last read,
            # so the distances overwrite them instead of a second buffer
            distance = (
                parts[0][2]
                if self.shards == 1 and not paths
                else np.empty(q, dtype=np.int64)
            )
            for s, sel, at in parts:
                distance[sel] = self._flat_dist[s].take(at)
            out_paths = self._walk_paths(parts, src_ids, distance) if paths else None
        reg.incr("serve.queries", q)
        reg.incr("serve.batches")
        return ResolveBatch(
            src=src_ids,
            dst=dst_ids,
            next_hop=hops,
            distance=distance,
            paths=out_paths,
        )

    def resolve_paths(self, src: object, dst: object) -> ResolveBatch:
        """:meth:`resolve` with full path materialization."""
        return self.resolve(src, dst, paths=True)

    def distances(self, src: object, dst: object) -> np.ndarray:
        """Hop distances only (query-aligned int64 vector)."""
        return self.resolve(src, dst).distance
