"""Batched route-query serving over memory-mapped next-hop tables.

:class:`RouteService` is the query front end of the routing layer: it
answers ``resolve(src[], dst[])`` for whole batches at once by walking the
query vector through a :class:`~repro.routing.table.NextHopTable` with
numpy gathers — no per-query Python.  It serves one layout, the stored
next hops plus the stored distances, backed three ways:

* **memory** — wrap an in-process table (:meth:`RouteService.from_table`);
* **mmap** — open the table zero-copy from the artifact cache
  (:meth:`RouteService.open`): the table is materialized once as
  uncompressed ``.npy`` spills beside the canonical ``.npz`` artifact and
  every process that opens the same cache maps the same read-only spills,
  one physical copy through the page cache (``np.load(..., mmap_mode="r")``);
* **sharded mmap** — for tables too large to treat as one artifact, the
  ``dst``-major row space is split into ``shards`` row blocks, each its
  own content-addressed spill keyed off the registry cache key; a batch
  is split by shard once per resolve, and every gather is one ``take``
  on a shard block's flat view at ``(dst - row_start)·N + node``.

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
    ``shards > num_nodes`` would silently produce empty row blocks (and
    empty ``.npy`` spills) that the caller almost certainly did not want
    — the old behaviour of clamping to ``num_nodes`` hid exactly that
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
        """Open (building on first use) the mmap-shared service for ``net``.

        Requires an artifact cache and a registry-stamped ``cache_key`` on
        the network to share tables; without either this degrades to the
        network's in-memory :func:`~repro.routing.table.shared_table`
        (documented fallback, ``source == "memory"``).
        Each shard's row block of the table and of the distance matrix is
        exported once — from the table the network already holds (see
        :func:`~repro.routing.table.shared_table`) when it has distances,
        else from one build or ``.npz`` reload — as an uncompressed spill
        keyed by
        ``cache_key("serve.shard", graph=<registry key>, ...)``; later
        opens, in this process or any other on the same cache, map the
        same files read-only.  A spill that cannot be read, or that holds
        an array of another shape than its shard's block, counts
        ``cache.error``, is removed (the next open writes it again) and
        the service falls back to memory.
        """
        from repro.cache import cache_key, cached_next_hop_table, get_cache
        from repro.routing.table import _held_table, shared_table

        cache = cache if cache is not None else get_cache()
        net_key = getattr(net, "cache_key", None)
        reg = obs.registry()
        if cache is None or net_key is None:
            table = shared_table(net, with_distances=True)
            reg.incr("serve.open.memory")
            return cls.from_table(table)
        n = net.num_nodes
        row_starts = shard_row_starts(n, shards)
        nblocks = len(row_starts) - 1
        keys = [
            cache_key("serve.shard", graph=net_key, shard=i, shards=nblocks)
            for i in range(nblocks)
        ]
        names = ("table", "dist")
        missing = [
            i
            for i, k in enumerate(keys)
            if any(not cache.mmap_path(k, nm).exists() for nm in names)
        ]
        if missing:
            # one table feeds every missing shard: the one the network
            # holds (no second copy in memory), else one build or reload
            table = _held_table(net, with_distances=True)
            if table is None:
                table = cached_next_hop_table(net, with_distances=True, cache=cache)
            assert table.dist is not None
            for i in missing:
                lo, hi = row_starts[i], row_starts[i + 1]
                cache.export_mmap(
                    keys[i], {"table": table.table[lo:hi], "dist": table.dist[lo:hi]}
                )
        blocks: list = []
        dist_blocks: list = []
        for i, k in enumerate(keys):
            want = (row_starts[i + 1] - row_starts[i], n)
            for nm, out in zip(names, (blocks, dist_blocks)):
                block = cache.load_mmap(k, nm)
                if block is not None and (
                    block.shape != want or not block.flags.c_contiguous
                ):  # readable, but not this shard's block: as corrupt as garbage
                    reg.incr("cache.error")
                    cache.mmap_path(k, nm).unlink(missing_ok=True)
                    block = None
                out.append(block)
        if any(b is None for b in blocks + dist_blocks):  # corrupt spill
            table = cached_next_hop_table(net, with_distances=True, cache=cache)
            reg.incr("serve.open.memory")
            return cls.from_table(table)
        svc = cls(net.name, n, blocks, row_starts, dist_blocks)
        reg.incr("serve.open.mmap")
        reg.gauge_max("serve.shards", nblocks)
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
