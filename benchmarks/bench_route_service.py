"""Route-serving layer benchmark: throughput, latency, and bit-identity.

Three promises are held here:

* **throughput** — replaying ``QUERIES`` seeded queries through
  :class:`repro.serve.RouteService` on a cached HSN table must sustain at
  least ``MIN_QPS`` resolved queries/sec (hops + distances per query),
  i.e. the serving path stays one vectorized gather per hop step, with
  per-batch p50/p99 latency reported;
* **bit-identity** — a seeded ``VERIFY_SAMPLE`` of the answers (paths,
  distances, first hops) must match the scalar
  :meth:`~repro.routing.table.NextHopTable.path` walk exactly, and the
  sharded service must agree with the unsharded one query-for-query;
* **shared tables** — the unsharded and the sharded service must both
  be backed by ``np.memmap`` views of the cache's spills (no O(N²)
  copy; every process opening the same cache maps the same files).

A second record, ``"bench": "resolve_kernel"``, times the flat-offset
resolve against the 2-D gather resolve it replaced (``tests/serve_oracle.py``)
on HSN(2,Q5) (N=1024), the serving instance of ``perfbench``:

* 4 mmap shards, ``KERNEL_BATCHES`` batches of ``KERNEL_BATCH`` queries,
  without and with paths — must be >= ``MIN_SHARDED_RATIO`` x faster;
* 1 in-memory shard, one batch of ``QUERIES`` queries (the
  ``pipeline_cold`` resolve) — must not be slower (>= ``MIN_FLAT_RATIO``).

Engine and oracle run interleaved, best of ``ROUNDS``, GC parked; every
batch of the first round is compared with the oracle (values and dtypes),
and any mismatch fails the run.

A third record, ``"bench": "table_cache"``, times the artifact cache's
next-hop table on HSN(2,Q5) (N=1024) and HSN(3,Q4) (N=4096): a cold
``NextHopTable`` build, a cache miss (build, write the ``.npy`` spills,
map them), a hit on a freshly loaded network (map the spills) and
``RouteService.open(shards=4)`` on another, plus the spill bytes on
disk.  Best of ``ROUNDS``, GC parked, a fresh cache directory per round.
A hit must be faster than a cold build at both sizes, its arrays must
share memory with the mapped spills, and every open block must be an
``np.memmap`` view of them.

Methodology mirrors ``bench_percolation.py``: GC parked during timing,
best-of-``ROUNDS`` for the timed section.  Results are printed as JSON;
set ``REPRO_BENCH_TRAJECTORY=<path>`` to append the record to a JSONL
trajectory file for tracking across commits.

Run directly (exits non-zero on regression)::

    PYTHONPATH=src python benchmarks/bench_route_service.py
"""

from __future__ import annotations

import gc
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import cache, networks, obs
from repro.cache import cached_next_hop_table
from repro.routing.table import NextHopTable
from repro.serve import RouteService, run_load_test, seeded_queries

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.serve_oracle import OracleResolve  # noqa: E402

MIN_QPS = 100_000.0  # resolved queries/sec on the cached HSN table
QUERIES = 1_000_000
BATCH = 100_000
VERIFY_SAMPLE = 50_000
SHARDS = 4
ROUNDS = 3
SEED = 0

# serving workload: HSN(3, Q3) — 512 nodes, 1 MiB int32 next-hop table
HSN_L, HSN_N = 3, 3

# resolve kernel: HSN(2, Q5) — 1024 nodes, 4 MiB int32 table and distances
KERNEL_L, KERNEL_N = 2, 5
KERNEL_SHARDS = 4
KERNEL_BATCH = 16_384
KERNEL_BATCHES = 16
MIN_SHARDED_RATIO = 1.5  # oracle / engine time, 4 mmap shards
MIN_FLAT_RATIO = 1.0  # oracle / engine time, 1 shard, QUERIES queries

# table cache: HSN(2, Q5) and HSN(3, Q4) — 1024 and 4096 nodes
TABLE_CACHE_SIZES = ((2, 5), (3, 4))
TABLE_CACHE_SHARDS = 4


def main() -> int:
    with tempfile.TemporaryDirectory() as d:
        cache.configure(d, min_nodes=1)
        try:
            ok = _run() == 0
            ok = _resolve_kernel() == 0 and ok
            ok = _table_cache() == 0 and ok
            return 0 if ok else 1
        finally:
            cache.set_cache(None)


def _run() -> int:
    net = networks.build("hsn", l=HSN_L, n=HSN_N)
    table = cached_next_hop_table(net, with_distances=True)
    svc = RouteService.open(net)
    ok = True

    if not svc.mmap_backed:
        print("FAIL: cached service is not mmap-backed", file=sys.stderr)
        ok = False

    # throughput: best-of-ROUNDS full replay (verification runs once, last)
    report = {}
    gc.collect()
    gc.disable()
    try:
        for r in range(ROUNDS):
            rep = run_load_test(
                svc,
                table if r == ROUNDS - 1 else None,
                queries=QUERIES,
                batch=BATCH,
                seed=SEED,
                verify_sample=VERIFY_SAMPLE,
            )
            if not report or rep["qps"] > report["qps"]:
                rep["verified"] = max(rep["verified"], report.get("verified", 0))
                rep["mismatches"] += report.get("mismatches", 0)
                report = rep
            else:
                report["verified"] = max(rep["verified"], report["verified"])
                report["mismatches"] += rep["mismatches"]
    finally:
        gc.enable()
    if report["mismatches"]:
        print(
            f"FAIL: {report['mismatches']} answers diverged from the scalar "
            f"NextHopTable.path walk",
            file=sys.stderr,
        )
        ok = False

    # sharded service agrees with the unsharded one, query for query
    sharded = RouteService.open(net, shards=SHARDS)
    src, dst = seeded_queries(net.num_nodes, 100_000, seed=SEED + 1)
    a = svc.resolve(src, dst)
    b = sharded.resolve(src, dst)
    if not (
        np.array_equal(a.next_hop, b.next_hop)
        and np.array_equal(a.distance, b.distance)
    ):
        print("FAIL: sharded resolve diverged from unsharded", file=sys.stderr)
        ok = False
    if not sharded.mmap_backed:
        print("FAIL: sharded service is not mmap-backed", file=sys.stderr)
        ok = False

    record = {
        "bench": "route_service",
        "network": net.name,
        "num_nodes": net.num_nodes,
        "queries": report["queries"],
        "batch": report["batch"],
        "qps": report["qps"],
        "p50_ms": report["p50_ms"],
        "p99_ms": report["p99_ms"],
        "verified": report["verified"],
        "mismatches": report["mismatches"],
        "shards": SHARDS,
        "mmap": bool(svc.mmap_backed and sharded.mmap_backed),
    }
    obs.emit_record(record)

    if report["qps"] < MIN_QPS:
        print(
            f"FAIL: {report['qps']:.0f} queries/sec < {MIN_QPS:.0f} budget",
            file=sys.stderr,
        )
        ok = False
    return 0 if ok else 1


def _same(got, want) -> bool:
    """Values and dtypes of every ``ResolveBatch`` field agree."""
    for field in ("next_hop", "distance", "paths"):
        a, b = getattr(got, field), getattr(want, field)
        if (a is None) != (b is None):
            return False
        if b is not None and (a.dtype != b.dtype or not np.array_equal(a, b)):
            return False
    return True


def _time_case(engine, oracle, batches, paths: bool) -> tuple[float, float, int]:
    """Best-of-ROUNDS seconds for engine and oracle over ``batches``,
    interleaved round by round, plus the batches whose outputs differ."""
    best = {"engine": float("inf"), "oracle": float("inf")}
    mismatches = 0
    gc.collect()
    gc.disable()
    try:
        for r in range(ROUNDS):
            outs = {}
            for side, svc in (("engine", engine), ("oracle", oracle)):
                t0 = time.perf_counter()
                outs[side] = [svc.resolve(s, d, paths=paths) for s, d in batches]
                best[side] = min(best[side], time.perf_counter() - t0)
            if r == 0:
                mismatches = sum(
                    not _same(a, b) for a, b in zip(outs["engine"], outs["oracle"])
                )
    finally:
        gc.enable()
    return best["engine"], best["oracle"], mismatches


def _resolve_kernel() -> int:
    net = networks.build("hsn", l=KERNEL_L, n=KERNEL_N)
    sharded = RouteService.open(net, shards=KERNEL_SHARDS)
    flat = RouteService.from_table(NextHopTable(net, with_distances=True))
    src, dst = seeded_queries(net.num_nodes, KERNEL_BATCH * KERNEL_BATCHES, SEED)
    batches = list(zip(np.split(src, KERNEL_BATCHES), np.split(dst, KERNEL_BATCHES)))
    # page every shard in before timing
    for s, d in batches:
        sharded.resolve(s, d)
    big_src, big_dst = seeded_queries(net.num_nodes, QUERIES, SEED + 2)
    cases = [
        ("sharded", sharded, batches, False, MIN_SHARDED_RATIO),
        ("sharded_paths", sharded, batches, True, MIN_SHARDED_RATIO),
        ("flat", flat, [(big_src, big_dst)], False, MIN_FLAT_RATIO),
    ]
    ok = True
    if not sharded.mmap_backed:
        print("FAIL: resolve_kernel: sharded service is not mmap-backed", file=sys.stderr)
        ok = False
    rows = []
    for name, svc, case_batches, paths, floor in cases:
        engine_s, oracle_s, bad = _time_case(
            svc, OracleResolve(svc), case_batches, paths
        )
        ratio = oracle_s / engine_s
        rows.append(
            {
                "case": name,
                "shards": svc.shards,
                "queries": sum(len(s) for s, _ in case_batches),
                "batch": len(case_batches[0][0]),
                "paths": paths,
                "engine_ms": round(engine_s * 1e3, 3),
                "oracle_ms": round(oracle_s * 1e3, 3),
                "ratio": round(ratio, 3),
                "min_ratio": floor,
                "mismatches": bad,
            }
        )
        if bad:
            print(
                f"FAIL: resolve_kernel {name}: {bad} batch(es) differ from "
                f"tests/serve_oracle.py",
                file=sys.stderr,
            )
            ok = False
        if ratio < floor:
            print(
                f"FAIL: resolve_kernel {name}: {ratio:.2f}x vs the oracle < "
                f"{floor}x budget",
                file=sys.stderr,
            )
            ok = False
    obs.emit_record(
        {
            "bench": "resolve_kernel",
            "network": net.name,
            "num_nodes": net.num_nodes,
            "mmap": bool(sharded.mmap_backed),
            "cases": rows,
        }
    )
    return 0 if ok else 1


def _timed(fn):
    """``(seconds, fn())``."""
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def _table_cache_round(l: int, n: int) -> dict:
    """One round on HSN(l, Q_n) in a fresh cache directory: seconds per
    phase, spill bytes, and whether the hit and the open share memory
    with the mapped spills."""
    prev = cache.get_cache()
    with tempfile.TemporaryDirectory() as d:
        store = cache.configure(d, min_nodes=1)
        try:
            net = networks.build("hsn", l=l, n=n)
            cold_s, _ = _timed(lambda: NextHopTable(net, with_distances=True))
            net = networks.build("hsn", l=l, n=n)  # reloaded: holds no table
            miss_s, _ = _timed(lambda: cached_next_hop_table(net, with_distances=True))
            warm = networks.build("hsn", l=l, n=n)  # reloaded: holds no table
            hit_s, hit = _timed(lambda: cached_next_hop_table(warm, with_distances=True))
            fresh = networks.build("hsn", l=l, n=n)
            open_s, _ = _timed(lambda: RouteService.open(fresh, shards=TABLE_CACHE_SHARDS))
            svc = RouteService.open(warm, shards=TABLE_CACHE_SHARDS)
            spills = [
                store.mmap_path(
                    cache.cache_key("routing.next_hop_table", graph=warm.cache_key, array=name)
                ).resolve()
                for name in ("table", "dist")
            ]
            # the hit's arrays are the maps of the spill files themselves,
            # and every open block is a view of those maps
            hit_shares = all(
                isinstance(a, np.memmap) and a.filename == path
                for a, path in zip((hit.table, hit.dist), spills)
            )
            open_shares = svc.mmap_backed and all(
                np.shares_memory(b, whole)
                for blocks, whole in ((svc._blocks, hit.table), (svc._dist_blocks, hit.dist))
                for b in blocks
            )
            return {
                "num_nodes": net.num_nodes,
                "cold_s": cold_s,
                "miss_s": miss_s,
                "hit_s": hit_s,
                "open_s": open_s,
                "spill_bytes": sum(p.stat().st_size for p in spills),
                "hit_shares_spill": bool(hit_shares),
                "open_shares_spill": bool(open_shares),
            }
        finally:
            cache.set_cache(prev)


def _table_cache() -> int:
    ok = True
    rows = []
    for l, n in TABLE_CACHE_SIZES:
        best: dict = {}
        gc.collect()
        gc.disable()
        try:
            for _ in range(ROUNDS):
                got = _table_cache_round(l, n)
                for k, v in got.items():
                    if k.endswith("_s"):
                        best[k] = min(best.get(k, v), v)
                    elif k.endswith("_spill"):
                        best[k] = best.get(k, True) and v
                    else:
                        best[k] = v
        finally:
            gc.enable()
        row = {"network": f"HSN({l},Q{n})", "num_nodes": best["num_nodes"]}
        for k in ("cold_s", "miss_s", "hit_s", "open_s"):
            row[k[:-2] + "_ms"] = round(best[k] * 1e3, 3)
        row["shards"] = TABLE_CACHE_SHARDS
        row["spill_bytes"] = best["spill_bytes"]
        row["hit_shares_spill"] = best["hit_shares_spill"]
        row["open_shares_spill"] = best["open_shares_spill"]
        rows.append(row)
        if not row["hit_ms"] < row["cold_ms"]:
            print(
                f"FAIL: table_cache {row['network']}: a hit ({row['hit_ms']} ms) "
                f"is not faster than a cold build ({row['cold_ms']} ms)",
                file=sys.stderr,
            )
            ok = False
        if not (row["hit_shares_spill"] and row["open_shares_spill"]):
            print(
                f"FAIL: table_cache {row['network']}: the hit or the open "
                f"blocks are not views of the mapped spills",
                file=sys.stderr,
            )
            ok = False
    obs.emit_record({"bench": "table_cache", "rounds": ROUNDS, "cases": rows})
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
