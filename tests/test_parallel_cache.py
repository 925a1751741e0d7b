"""Tests for the process-pool fan-out (repro.parallel) and the persistent
artifact cache (repro.cache): parallel-vs-serial bit-identity, cache
round-trips and invalidation, the bounded in-process memoizer, and the
sweep-input validation / saturation-baseline bugfixes that shipped with
them.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import cache, networks, obs
from repro.cache import ArtifactCache, cache_key, cached_next_hop_table, memoize_lru
from repro.cache.memory import clear_memory_caches
from repro.fault.sweep import fault_sweep
from repro.parallel import effective_jobs, run_tasks
from repro.routing.table import NextHopTable
from repro.sim.sweeps import offered_load_sweep, saturation_rate


@pytest.fixture()
def disk_cache(tmp_path):
    """A fresh artifact cache installed as the process default.

    ``min_nodes=1`` so the tiny instances these tests build are cached too
    (the production default skips networks below 64 nodes — see
    ``test_small_networks_not_stored_by_default``).
    """
    store = cache.configure(tmp_path / "cache", min_nodes=1)
    try:
        yield store
    finally:
        cache.set_cache(None)


@pytest.fixture()
def counters():
    """Enabled obs registry; yields a callable returning current counters."""
    obs.reset()
    obs.enable()
    try:
        yield lambda: dict(obs.report()["counters"])
    finally:
        obs.disable()
        obs.reset()


# ----------------------------------------------------------------------
# run_tasks / effective_jobs
# ----------------------------------------------------------------------
def _square(ctx, task):
    return ctx["base"] + task * task


def test_run_tasks_preserves_task_order_parallel():
    ctx = {"base": 100}
    tasks = list(range(7))
    assert run_tasks(_square, ctx, tasks, jobs=1) == run_tasks(
        _square, ctx, tasks, jobs=3
    )


def test_run_tasks_empty_and_serial_fastpath():
    assert run_tasks(_square, {"base": 0}, [], jobs=4) == []
    assert run_tasks(_square, {"base": 1}, [2], jobs=1) == [5]


def test_effective_jobs_resolution():
    assert effective_jobs(1) == 1
    assert effective_jobs(0) >= 1  # all cores
    assert effective_jobs(None) >= 1
    assert effective_jobs(8, num_tasks=3) == 3  # clamp to work available
    with pytest.raises(ValueError):
        effective_jobs(-2)


# ----------------------------------------------------------------------
# parallel-vs-serial bit-identity on the real sweeps
# ----------------------------------------------------------------------
def test_fault_sweep_bit_identical_across_jobs():
    g = networks.ring(16)
    kw = dict(trials=3, cycles=30, rate=0.1, seed=7)
    serial = fault_sweep(g, [0, 1, 3], jobs=1, **kw)
    parallel = fault_sweep(g, [0, 1, 3], jobs=4, **kw)
    assert serial == parallel


def test_offered_load_sweep_bit_identical_across_jobs():
    g = networks.hypercube(4)
    kw = dict(cycles=40, seed=3)
    serial = offered_load_sweep(g, 1, [0.05, 0.2], jobs=1, **kw)
    parallel = offered_load_sweep(g, 1, [0.05, 0.2], jobs=2, **kw)
    assert serial == parallel


def test_contracts_identical_across_jobs():
    from repro.check.invariants import run_contracts

    fams = ["ring", "hypercube", "hsn"]
    r1 = run_contracts(fams, jobs=1)
    r2 = run_contracts(fams, jobs=2)
    assert r1.checked == r2.checked
    assert [(f.where, f.rule, f.detail) for f in r1.findings] == [
        (f.where, f.rule, f.detail) for f in r2.findings
    ]


# ----------------------------------------------------------------------
# sweep-input validation + saturation baseline (the bugfix satellites)
# ----------------------------------------------------------------------
def test_empty_rates_raises_descriptive_valueerror():
    g = networks.ring(8)
    with pytest.raises(ValueError, match="non-empty"):
        offered_load_sweep(g, 1, [])
    with pytest.raises(ValueError, match="non-empty"):
        saturation_rate(g, 1, [])


def test_unsorted_or_duplicate_rates_rejected():
    g = networks.ring(8)
    with pytest.raises(ValueError, match="strictly increasing"):
        offered_load_sweep(g, 1, [0.3, 0.1])
    with pytest.raises(ValueError, match="strictly increasing"):
        offered_load_sweep(g, 1, [0.1, 0.1, 0.2])


def test_out_of_range_rates_rejected():
    g = networks.ring(8)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        offered_load_sweep(g, 1, [-0.1, 0.5])
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        offered_load_sweep(g, 1, [0.5, 1.5])
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        offered_load_sweep(g, 1, [float("nan")])


def test_saturation_baseline_skips_zero_delivery_rate():
    # rate 0.0 delivers nothing (NaN latency); the old code baselined on
    # rows[0] and silently disabled blow-up detection.  The baseline must
    # come from the first delivering rate, so the 0.6 blow-up is caught.
    g = networks.ring(16)
    sat = saturation_rate(g, 1, [0.0, 0.02, 0.6], cycles=40, seed=0)
    assert sat == 0.6


def test_saturation_degenerate_all_empty_returns_inf():
    g = networks.ring(16)
    # nothing delivered and nothing lost at rate 0 -> no saturation signal
    assert saturation_rate(g, 1, [0.0], cycles=20) == math.inf


# ----------------------------------------------------------------------
# artifact cache: round-trip, hit/miss accounting, invalidation
# ----------------------------------------------------------------------
def test_registry_build_cache_round_trip(disk_cache, counters):
    g1 = networks.build("hsn", l=2, n=2)
    before = counters()
    g2 = networks.build("hsn", l=2, n=2)
    after = counters()
    assert after.get("cache.hit", 0) == before.get("cache.hit", 0) + 1
    assert g1.cache_key == g2.cache_key is not None
    assert g1.labels == g2.labels
    assert np.array_equal(g1.edges_src, g2.edges_src)
    assert np.array_equal(g1.edges_dst, g2.edges_dst)
    assert g1.generator_names() == g2.generator_names()
    assert [gen.kind for gen in g1.generators] == [gen.kind for gen in g2.generators]


def test_cache_key_changes_with_params_and_kind(disk_cache):
    a = networks.build("hsn", l=2, n=2)
    b = networks.build("hsn", l=3, n=2)
    c = networks.build("ring_cn", l=2, n=2)
    assert len({a.cache_key, b.cache_key, c.cache_key}) == 3
    assert cache_key("registry.build", family="hsn", params={"l": 2, "n": 2}) != cache_key(
        "superip.build", family="hsn", params={"l": 2, "n": 2}
    )


def test_cache_miss_then_store_then_entries(disk_cache, counters):
    assert disk_cache.entries() == []
    networks.build("ring", n=8)
    # plain classic families round-trip too (registry-level key)
    assert len(disk_cache.entries()) == 1
    assert disk_cache.size_bytes() > 0
    snap = counters()
    assert snap.get("cache.store", 0) >= 1
    assert snap.get("cache.miss", 0) >= 1
    assert disk_cache.clear() == 1
    assert disk_cache.entries() == []


def test_corrupt_cache_entry_is_dropped_and_rebuilt(disk_cache, counters):
    g1 = networks.build("ring", n=8)
    (entry,) = disk_cache.entries()
    entry.write_bytes(b"not an npz archive")
    g2 = networks.build("ring", n=8)
    snap = counters()
    assert snap.get("cache.error", 0) == 1
    assert g2.labels == g1.labels
    # the corrupt file was replaced by a fresh store
    assert len(disk_cache.entries()) == 1


def test_small_networks_not_stored_by_default(tmp_path, counters):
    # default min_nodes=64: tiny graphs cost more to load than to build
    store = cache.configure(tmp_path / "c")
    try:
        networks.build("ring", n=8)
        assert store.entries() == []
        assert counters().get("cache.skip", 0) >= 1
        networks.build("hypercube", n=6)  # 64 nodes: at the threshold
        assert len(store.entries()) == 1
    finally:
        cache.set_cache(None)


def test_uncached_build_when_cache_disabled():
    assert cache.get_cache() is None
    g = networks.build("ring", n=8)
    assert g.cache_key is None


def test_next_hop_table_cache_round_trip(disk_cache, counters):
    g = networks.build("hypercube", n=4)
    t1 = cached_next_hop_table(g, with_distances=True)
    before = counters()
    g2 = networks.build("hypercube", n=4)  # reloaded: holds no table
    t2 = cached_next_hop_table(g2, with_distances=True)
    after = counters()
    # one hit per spill: the table and the distances
    assert after.get("cache.hit", 0) == before.get("cache.hit", 0) + 1 + 2
    assert after.get("routing.table.builds", 0) == before.get("routing.table.builds", 0)
    assert np.array_equal(t1.table, t2.table)
    assert np.array_equal(t1.dist, t2.dist)
    # a table-only request maps the same table spill
    t3 = cached_next_hop_table(networks.build("hypercube", n=4), with_distances=False)
    assert t3.dist is None and t3.table.filename == t1.table.filename
    assert np.array_equal(t1.table, t3.table)
    ref = NextHopTable(g, with_distances=True)
    assert np.array_equal(ref.table, t2.table)


def test_next_hop_table_falls_back_without_cache_key(disk_cache):
    g = networks.ring(8)  # direct factory: no cache_key stamped
    assert g.cache_key is None
    t = cached_next_hop_table(g)
    assert np.array_equal(t.table, NextHopTable(g).table)


def test_atomic_spill_round_trip(tmp_path):
    store = ArtifactCache(tmp_path)
    key = cache_key("test.spill", x=1)
    a = np.arange(12, dtype=np.int32).reshape(3, 4)
    mapped = store.export_mmap(key, a)
    assert isinstance(mapped, np.memmap) and np.array_equal(mapped, a)
    # published atomically: the spill and its manifest, no temp file left
    assert sorted(p.name for p in tmp_path.glob("*/*")) == [f"{key}.json", f"{key}.npy"]
    assert store.provenance(key)["kind"] == "test.spill"
    loaded = store.load_mmap(key)
    assert loaded.dtype == np.int32 and np.array_equal(loaded, a)
    assert store.load_mmap(cache_key("test.spill", x=2)) is None


def test_parallel_sweep_with_cache_enabled_matches_serial(disk_cache):
    g = networks.build("hsn", l=2, n=2)
    kw = dict(trials=2, cycles=30, seed=1)
    assert fault_sweep(g, [0, 2], jobs=1, **kw) == fault_sweep(g, [0, 2], jobs=3, **kw)


# ----------------------------------------------------------------------
# bounded in-process memoizer (the lru_cache replacement)
# ----------------------------------------------------------------------
def test_memoize_lru_bounds_and_clears():
    calls = []

    @memoize_lru(maxsize=2)
    def f(x):
        calls.append(x)
        return x * 10

    assert [f(1), f(2), f(1), f(3)] == [10, 20, 10, 30]
    assert calls == [1, 2, 3]
    # 1 was most-recently-used before 3 evicted 2
    f(2)
    assert calls == [1, 2, 3, 2]
    info = f.cache_info()
    assert info["maxsize"] == 2 and info["currsize"] == 2
    f.cache_clear()
    assert f.cache_info()["currsize"] == 0


def test_clear_memory_caches_flushes_nucleus_cache():
    from repro.core.superip import _nucleus_graph_cached

    networks.hsn_hypercube(2, 2)  # populates the nucleus cache
    assert _nucleus_graph_cached.cache_info()["currsize"] >= 1
    dropped = clear_memory_caches()
    assert dropped >= 1
    assert _nucleus_graph_cached.cache_info()["currsize"] == 0


def test_nucleus_cache_is_bounded():
    from repro.core.superip import _nucleus_graph_cached

    clear_memory_caches()
    for n in range(1, 12):
        networks.hypercube_nucleus(n if n <= 6 else 6)  # mix of specs
        networks.hsn_hypercube(2, min(n, 3))
    info = _nucleus_graph_cached.cache_info()
    assert info["currsize"] <= info["maxsize"]


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------
def test_cli_faults_jobs_matches_serial(capsys):
    from repro.__main__ import main

    argv = ["faults", "--network", "ring", "--param", "n=12", "--faults", "0,1",
            "--trials", "2", "--cycles", "25"]
    assert main(argv + ["--jobs", "1"]) == 0
    serial_out = capsys.readouterr().out
    assert main(argv + ["--jobs", "2"]) == 0
    parallel_out = capsys.readouterr().out
    assert serial_out == parallel_out


def test_cli_cache_info_and_clear(tmp_path, capsys):
    from repro.__main__ import main

    d = str(tmp_path / "c")
    try:
        assert main(["info", "hypercube", "--param", "n=6", "--cache-dir", d]) == 0
        capsys.readouterr()
        assert main(["cache", "info", "--cache-dir", d]) == 0
        out = capsys.readouterr().out
        assert "entries:   1" in out
        assert main(["cache", "clear", "--cache-dir", d]) == 0
        assert "removed 1" in capsys.readouterr().out
    finally:
        cache.set_cache(None)


def test_cache_accounting_covers_the_spills(tmp_path, capsys):
    from repro.__main__ import main
    from repro.serve import RouteService

    d = tmp_path / "c"
    store = cache.configure(d, min_nodes=1)
    try:
        RouteService.open(networks.build("hypercube", n=4), shards=2)
        files = sorted(p for p in d.glob("*/*") if p.suffix != ".json")
        assert [p.suffix for p in files].count(".npy") == 2
        assert store.entries() == files and len(files) == 3
        assert store.size_bytes() == sum(p.stat().st_size for p in files)
        assert main(["cache", "info", "--cache-dir", str(d)]) == 0
        out = capsys.readouterr().out
        assert "entries:   3" in out
        assert f"bytes:     {store.size_bytes()}" in out
        rows = [line.split() for line in out.splitlines()[4:]]
        assert sorted((r[1], r[2]) for r in rows) == [
            ("npy", "routing.next_hop_table"),
            ("npy", "routing.next_hop_table"),
            ("npz", "registry.build"),
        ]
        assert store.clear() == 3
        assert not list(d.glob("*/*"))
    finally:
        cache.set_cache(None)


def test_cli_check_contracts_jobs(capsys):
    from repro.check.__main__ import main as check_main

    assert check_main(["contracts", "--family", "ring", "--jobs", "2"]) == 0
    assert "clean" in capsys.readouterr().out


def test_cached_build_does_not_import_the_analyzer(tmp_path):
    # cache keys mix in the analyzer's rule-set revision; reading it must
    # not pull the analysis package (every tier) into a cache-enabled run
    import repro

    code = (
        "import sys\n"
        "from repro import cache, networks, obs\n"
        f"cache.configure({str(tmp_path)!r}, min_nodes=1)\n"
        "obs.enable()\n"
        "networks.build('hypercube', n=4)\n"
        "net = networks.build('hypercube', n=4)\n"
        "assert net.cache_key and obs.report()['counters']['cache.hit'] == 1\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.check')))\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
