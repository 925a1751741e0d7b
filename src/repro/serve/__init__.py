"""Routing-as-a-service (``repro.serve``).

The serving front end over the routing + cache layers: a batched
vectorized query API answered in one process from the stored next hops
and distances, optionally split into dst-row shards,
and a seeded load-test harness.  Processes share a table by opening the
same artifact cache: each maps the same read-only ``.npy`` spills
(``np.load(..., mmap_mode="r")``).

* :class:`RouteService` — ``resolve(src[], dst[]) → hops/distances/paths``
  with numpy gathers (no per-query Python), backed in-memory or by the
  mapped spills of the cached table, whole or in dst-row shards;
* :func:`run_load_test` / :func:`seeded_queries` — replay millions of
  seeded queries, report qps and p50/p99 batch latency, and verify a
  seeded sample bit-for-bit against the scalar
  :meth:`~repro.routing.table.NextHopTable.path` walk.

Example::

    from repro import cache, networks, serve

    cache.configure("~/.cache/repro")
    net = networks.build("hsn", l=3, n=3)        # registry-stamped key
    svc = serve.RouteService.open(net, shards=4) # mmap-shared, sharded
    out = svc.resolve([0, 1, 2], [500, 400, 300])
    out.next_hop, out.distance
"""

from .harness import run_load_test, seeded_queries, verify_against_scalar
from .service import ResolveBatch, RouteService, shard_row_starts

__all__ = [
    "ResolveBatch",
    "RouteService",
    "run_load_test",
    "seeded_queries",
    "shard_row_starts",
    "verify_against_scalar",
]
