"""Load-test harness for the route-serving layer (``repro serve bench``).

Replays a seeded query stream through a :class:`~repro.serve.RouteService`
in fixed-size batches, reports throughput (queries/sec) and per-batch
latency percentiles (through :mod:`repro.obs` when enabled, and in the
returned report always), and — the part that keeps the fast path honest —
verifies a seeded sample of the answers bit-for-bit against the scalar
:meth:`~repro.routing.table.NextHopTable.path` walk on the same table.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.obs.histogram import LatencyHistogram

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.routing.table import NextHopTable

    from .service import RouteService

__all__ = ["run_load_test", "seeded_queries", "verify_against_scalar"]


def seeded_queries(
    num_nodes: int, count: int, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """A deterministic ``(src, dst)`` query stream: uniform independent
    endpoints drawn from ``default_rng([seed, num_nodes])``."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    rng = np.random.default_rng([int(seed), int(num_nodes)])
    src = rng.integers(0, num_nodes, size=count, dtype=np.int64)
    dst = rng.integers(0, num_nodes, size=count, dtype=np.int64)
    return src, dst


def verify_against_scalar(
    service: "RouteService",
    table: "NextHopTable",
    src: np.ndarray,
    dst: np.ndarray,
    sample: int,
    seed: int = 0,
) -> tuple[int, int]:
    """Check ``sample`` seeded queries bit-for-bit against the scalar walk.

    For each sampled query the batched path, distance and first hop must
    equal ``table.path``'s node sequence exactly.  Returns
    ``(checked, mismatches)``.
    """
    q = int(src.shape[0])
    if q == 0 or sample <= 0:
        return 0, 0
    if sample >= q:
        idx = np.arange(q)
    else:
        idx = np.random.default_rng([int(seed), q]).choice(q, size=sample, replace=False)
        idx.sort()
    got = service.resolve(src[idx], dst[idx], paths=True)
    mismatches = 0
    for k in range(len(got)):
        want = table.path(int(src[idx[k]]), int(dst[idx[k]]))
        have = got.path_list(k)
        first = want[1] if len(want) > 1 else want[0]
        if (
            have != want
            or int(got.distance[k]) != len(want) - 1
            or int(got.next_hop[k]) != first
        ):
            mismatches += 1
    return len(got), mismatches


def run_load_test(
    service: "RouteService",
    table: "NextHopTable | None" = None,
    queries: int = 1_000_000,
    batch: int = 100_000,
    seed: int = 0,
    verify_sample: int = 50_000,
) -> dict:
    """Replay ``queries`` seeded queries and measure the serving path.

    The stream is resolved in ``batch``-sized slices, one
    :meth:`~repro.serve.RouteService.resolve` call each.  When ``table``
    is given, a seeded ``verify_sample`` of answers is checked
    bit-for-bit against the scalar walk.  Returns a JSON-serializable
    report with ``qps``, ``p50_ms``, ``p99_ms`` (percentiles of the batch
    times, exact to 1 µs), and verification counts.  With obs enabled each batch also lands in the
    timer ``serve.batch``.
    """
    if queries < 1:
        raise ValueError(f"queries must be >= 1, got {queries}")
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    src, dst = seeded_queries(service.num_nodes, queries, seed)
    reg = obs.registry()
    batch_us = LatencyHistogram()  # whole microseconds
    resolved = 0
    t0 = time.perf_counter()
    for lo in range(0, queries, batch):
        sb, db = src[lo : lo + batch], dst[lo : lo + batch]
        tb = time.perf_counter()
        out = service.resolve(sb, db)
        dt = time.perf_counter() - tb
        batch_us.add(round(dt * 1e6))
        resolved += len(out)
        reg.observe_timer("serve.batch", dt)
    elapsed = time.perf_counter() - t0
    checked, mismatches = (0, 0)
    if table is not None:
        checked, mismatches = verify_against_scalar(
            service, table, src, dst, verify_sample, seed=seed
        )
    reg.gauge_max("serve.qps", resolved / elapsed if elapsed else 0.0)
    return {
        "network": service.name,
        "num_nodes": service.num_nodes,
        "backend": service.source,
        "mmap": bool(service.mmap_backed),
        "shards": service.shards,
        "queries": int(resolved),
        "batches": batch_us.count,
        "batch": int(batch),
        "elapsed_s": round(elapsed, 4),
        "qps": round(resolved / elapsed, 1) if elapsed else float("inf"),
        "p50_ms": round(batch_us.percentile(50) / 1e3, 4),
        "p99_ms": round(batch_us.percentile(99) / 1e3, 4),
        "verified": int(checked),
        "mismatches": int(mismatches),
    }
