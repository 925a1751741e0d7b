"""Reference resolve for :class:`repro.serve.RouteService`.

This is the batched resolve the service shipped before its flat-offset
query path: every gather is a 2-D ``block[dst - row_start, cur]`` fancy
index, the shard of each query is looked up with a ``searchsorted`` over
the row starts on every gather, and the distance walk and the path walk
re-select their active queries with ``nonzero`` at every step.  It reads
the same blocks as the service it wraps, so the two must agree bit for
bit (values and dtypes) on every batch.

Usage::

    from tests.serve_oracle import OracleResolve
    want = OracleResolve(svc).resolve(src, dst, paths=True)
"""

from __future__ import annotations

import numpy as np

from repro.core.network import RoutingError
from repro.serve import ResolveBatch, RouteService


class OracleResolve:
    """The pre-flat-offset resolve over a :class:`RouteService`'s blocks."""

    def __init__(self, svc: RouteService) -> None:
        self.name = svc.name
        self.num_nodes = svc.num_nodes
        self._blocks = svc._blocks
        self._row_starts = svc._row_starts
        self._dist_blocks = svc._dist_blocks
        self._validate_ids = svc._validate_ids

    def _gather(
        self, dst: np.ndarray, cur: np.ndarray, blocks: list[np.ndarray]
    ) -> np.ndarray:
        """``blocks[dst, cur]`` across the shard row blocks (one fancy
        gather per shard touched; the loop is over shards, not queries)."""
        if len(blocks) == 1:
            return blocks[0][dst, cur]
        out = np.empty(dst.shape[0], dtype=np.int32)
        starts = self._row_starts
        sid = np.searchsorted(starts, dst, side="right") - 1
        for s in range(len(blocks)):
            sel = np.nonzero(sid == s)[0]
            if sel.size:
                out[sel] = blocks[s][dst[sel] - starts[s], cur[sel]]
        return out

    def _walk_distances(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Hop counts by walking still-active queries one step per round."""
        distance = np.zeros(src.shape[0], dtype=np.int64)
        cur = src.copy()
        active = np.nonzero(cur != dst)[0]
        guard = self.num_nodes + 1
        steps = 0
        while active.size:
            steps += 1
            if steps > guard:
                raise RuntimeError("routing loop detected")
            nxt = self._gather(dst[active], cur[active], self._blocks).astype(np.int64)
            cur[active] = nxt
            distance[active] += 1
            active = active[nxt != dst[active]]
        return distance

    def _materialize_paths(
        self, src: np.ndarray, dst: np.ndarray, distance: np.ndarray
    ) -> np.ndarray:
        """Full paths, padded with ``-1``: column ``t`` is every active
        query's ``t``-th hop, so total work is O(sum of path lengths)."""
        width = int(distance.max(initial=0)) + 1
        paths = np.full((src.shape[0], width), -1, dtype=np.int32)
        paths[:, 0] = src
        cur = src.copy()
        for t in range(1, width):
            idx = np.nonzero(distance >= t)[0]
            if idx.size == 0:
                break
            nxt = self._gather(dst[idx], cur[idx], self._blocks).astype(np.int64)
            paths[idx, t] = nxt
            cur[idx] = nxt
        return paths

    def resolve(self, src: object, dst: object, paths: bool = False) -> ResolveBatch:
        """First hops, distances and optional paths, as the service's
        :meth:`~repro.serve.RouteService.resolve` must return them."""
        src_ids = self._validate_ids(src, "source")
        dst_ids = self._validate_ids(dst, "destination")
        if src_ids.shape[0] != dst_ids.shape[0]:
            raise ValueError(
                f"src and dst must have the same length, got "
                f"{src_ids.shape[0]} and {dst_ids.shape[0]}"
            )
        hops = self._gather(dst_ids, src_ids, self._blocks)
        unreachable = (hops < 0) & (src_ids != dst_ids)
        if unreachable.any():
            i = int(unreachable.argmax())
            raise RoutingError(
                f"no route from node {int(src_ids[i])} to node "
                f"{int(dst_ids[i])} in {self.name!r}: they lie in "
                f"different connected components"
            )
        if self._dist_blocks is not None:
            distance = self._gather(dst_ids, src_ids, self._dist_blocks).astype(
                np.int64
            )
        else:
            distance = self._walk_distances(src_ids, dst_ids)
        out_paths = (
            self._materialize_paths(src_ids, dst_ids, distance) if paths else None
        )
        return ResolveBatch(
            src=src_ids,
            dst=dst_ids,
            next_hop=np.asarray(hops, dtype=np.int32),
            distance=distance,
            paths=out_paths,
        )
