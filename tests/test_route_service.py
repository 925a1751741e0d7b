"""Tests for the route-serving layer (repro.serve) and the NextHopTable
query-path hardening that shipped with it: batched-vs-scalar bit-identity,
mmap round-trips and shard routing, reopening the same read-only spills,
and the id/shape validation bugfixes pinned by exact message.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import cache, networks, obs
from repro.cache import cached_next_hop_table
from repro.core.network import Network, RoutingError
from repro.routing.table import NextHopTable
from repro.serve import (
    ResolveBatch,
    RouteService,
    run_load_test,
    seeded_queries,
    shard_row_starts,
    verify_against_scalar,
)

from .bfs_oracle import oracle_next_hop_table
from .serve_oracle import OracleResolve


@pytest.fixture()
def disk_cache(tmp_path):
    """A fresh artifact cache installed as the process default
    (``min_nodes=1`` so the tiny test instances are cached too)."""
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


def _split_graph() -> Network:
    """Two components (0-1 and 2-3) for unreachable-pair tests."""
    return Network.from_edge_list(
        [(i,) for i in range(4)], [(0, 1), (2, 3)], name="split"
    )


# ----------------------------------------------------------------------
# NextHopTable query-path hardening (the bugfix satellites)
# ----------------------------------------------------------------------
def test_query_rejects_out_of_range_ids_exact_message():
    t = NextHopTable(networks.ring(8), with_distances=True)
    with pytest.raises(
        ValueError,
        match=r"source node id -1 is out of range for 'ring\(8\)' \(valid ids: 0\.\.7\)",
    ):
        t.next_hop(-1, 3)
    with pytest.raises(
        ValueError,
        match=r"destination node id 8 is out of range for 'ring\(8\)' \(valid ids: 0\.\.7\)",
    ):
        t.next_hop(0, 8)


def test_all_query_methods_validate_both_roles():
    t = NextHopTable(networks.ring(8), with_distances=True)
    for fn in (t.next_hop, t.distance, t.next_hops, t.path):
        with pytest.raises(ValueError, match="source node id -1 is out of range"):
            fn(-1, 0)
        with pytest.raises(ValueError, match="destination node id 99 is out of range"):
            fn(0, 99)
    # valid queries still behave
    assert t.next_hop(0, 2) == 1
    assert t.distance(0, 4) == 4
    assert t.path(0, 2) == [0, 1, 2]
    assert t.next_hops(0, 4) == [1, 7]


def test_negative_id_no_longer_wraps_around():
    # the old behavior: table[-1, ...] silently read node n-1's row
    t = NextHopTable(networks.ring(8))
    with pytest.raises(ValueError, match="out of range"):
        t.path(2, -1)


def test_from_arrays_validates_dist_shape_exact_message():
    g = networks.ring(8)
    t = NextHopTable(g, with_distances=True)
    with pytest.raises(
        ValueError,
        match=r"distance matrix shape \(4, 4\) does not match 'ring\(8\)' \(8 nodes\)",
    ):
        NextHopTable.from_arrays(g, t.table, dist=np.zeros((4, 4), dtype=np.int32))
    # a matching dist still round-trips
    rt = NextHopTable.from_arrays(g, t.table, dist=t.dist)
    assert rt.distance(0, 4) == 4


def test_cached_table_hit_restores_usable_dist(disk_cache):
    g = networks.build("hypercube", n=4)
    t1 = cached_next_hop_table(g, with_distances=True)
    t2 = cached_next_hop_table(g, with_distances=True)  # cache hit
    ref = NextHopTable(g, with_distances=True)
    for u, dst in [(0, 15), (3, 12), (7, 7)]:
        assert t2.distance(u, dst) == ref.distance(u, dst)
        assert t2.next_hops(u, dst) == ref.next_hops(u, dst)
    assert np.array_equal(t1.dist, t2.dist)


def test_cached_table_miss_materializes_arrays_once(disk_cache, monkeypatch):
    calls = []
    orig = NextHopTable.to_arrays

    def counting(self):
        calls.append(1)
        return orig(self)

    monkeypatch.setattr(NextHopTable, "to_arrays", counting)
    obs.reset()
    obs.enable()  # artifact sink active: the old code called to_arrays twice
    try:
        g = networks.build("hypercube", n=4)
        cached_next_hop_table(g, with_distances=True)
    finally:
        obs.disable()
        obs.reset()
    assert len(calls) == 1


def test_table_and_distance_requests_share_the_table_spill(disk_cache, counters):
    net = networks.build("hypercube", n=4)
    plain = cached_next_hop_table(net)
    assert plain.dist is None
    table_spill = _spill(disk_cache, net, "table")
    inode = table_spill.stat().st_ino
    full = cached_next_hop_table(net, with_distances=True)
    # the table spill is mapped again, not rewritten; only dist is new
    assert table_spill.stat().st_ino == inode
    assert full.table.filename == plain.table.filename == table_spill.resolve()
    assert full.dist.filename == _spill(disk_cache, net, "dist").resolve()
    assert sorted(disk_cache.root.glob("*/*.npy")) == sorted(
        [table_spill, _spill(disk_cache, net, "dist")]
    )
    assert counters()["cache.store"] == 3  # the network and two spills
    again = cached_next_hop_table(networks.build("hypercube", n=4))
    assert again.table.filename == table_spill.resolve()


def test_an_int64_spill_is_rejected_not_cast(disk_cache, counters):
    want = np.array(cached_next_hop_table(networks.build("hypercube", n=4)).table)
    spill = _spill(disk_cache, networks.build("hypercube", n=4), "table")
    np.save(spill, want.astype(np.int64))  # the right values, the wrong dtype
    net = networks.build("hypercube", n=4)
    got = cached_next_hop_table(net)
    assert counters()["cache.error"] == 1
    assert isinstance(got.table, np.memmap) and got.table.dtype == np.int32
    assert np.load(spill).dtype == np.int32
    np.testing.assert_array_equal(got.table, want)


def test_a_hit_maps_the_spills_without_a_copy(disk_cache, monkeypatch):
    net = networks.build("hypercube", n=4)
    cached_next_hop_table(net, with_distances=True)  # the miss writes them
    mapped = []
    load = type(disk_cache).load_mmap

    def spy(self, key):
        mapped.append(load(self, key))
        return mapped[-1]

    monkeypatch.setattr(type(disk_cache), "load_mmap", spy)
    hit = cached_next_hop_table(networks.build("hypercube", n=4), with_distances=True)
    assert len(mapped) == 2
    for arr, spill in zip((hit.table, hit.dist), mapped):
        assert isinstance(arr, np.memmap) and np.shares_memory(arr, spill)
        assert arr.flags.writeable is False
    held_table, held_dist = hit.net._next_hops
    assert held_table is hit.table and held_dist is hit.dist


# ----------------------------------------------------------------------
# RouteService: batched vs scalar bit-identity
# ----------------------------------------------------------------------
FUZZ_NETS = [
    ("ring", dict(n=17)),
    ("hypercube", dict(n=5)),
    ("hsn_hypercube", dict(l=2, n=3)),
]


@pytest.mark.parametrize("family,params", FUZZ_NETS)
def test_resolve_bit_identical_to_scalar_walk(family, params):
    net = getattr(networks, family)(**params)
    table = NextHopTable(net, with_distances=True)
    svc = RouteService.from_table(table)
    src, dst = seeded_queries(net.num_nodes, 400, seed=11)
    batch = svc.resolve(src, dst, paths=True)
    assert len(batch) == 400
    for i in range(len(batch)):
        s, d = int(src[i]), int(dst[i])
        assert batch.path_list(i) == table.path(s, d)
        assert int(batch.distance[i]) == table.distance(s, d)
        expect_hop = d if s == d else table.next_hop(s, d)
        assert int(batch.next_hop[i]) == expect_hop


def test_verify_against_scalar_helper_counts(disk_cache):
    net = networks.build("hypercube", n=4)
    table = cached_next_hop_table(net, with_distances=True)
    svc = RouteService.open(net)
    src, dst = seeded_queries(net.num_nodes, 500, seed=2)
    checked, mismatches = verify_against_scalar(svc, table, src, dst, sample=100)
    assert checked == 100
    assert mismatches == 0


def test_from_table_requires_distances_exact_message():
    net = networks.hypercube(4)
    with pytest.raises(
        ValueError,
        match=r"^the next-hop table of 'Q4' holds no distances: build it with "
        r"NextHopTable\(net, with_distances=True\) to serve it$",
    ):
        RouteService.from_table(NextHopTable(net))  # no dist matrix
    svc = RouteService.from_table(NextHopTable(net, with_distances=True))
    assert svc.source == "memory" and not svc.mmap_backed


def test_resolve_validates_ids_and_lengths():
    svc = RouteService.from_table(NextHopTable(networks.ring(8), with_distances=True))
    with pytest.raises(
        ValueError,
        match=r"source node id -3 at position 1 is out of range for "
        r"'ring\(8\)' \(valid ids: 0\.\.7\)",
    ):
        svc.resolve([0, -3, 2], [1, 1, 1])
    with pytest.raises(
        ValueError, match="destination node id 8 at position 0 is out of range"
    ):
        svc.resolve([0], [8])
    with pytest.raises(ValueError, match="same length"):
        svc.resolve([0, 1], [2])


def test_resolve_unreachable_raises_routing_error():
    # a table build refuses a disconnected network, but arrays read back
    # from disk can hold -1 entries: resolve must name the pair
    net = _split_graph()
    table, dist = oracle_next_hop_table(net)
    svc = RouteService.from_table(NextHopTable.from_arrays(net, table, dist))
    ok = svc.resolve([0, 2], [1, 3], paths=True)
    assert ok.path_lists() == [[0, 1], [2, 3]]
    with pytest.raises(
        RoutingError, match=r"no route from node 0 to node 3 in 'split'"
    ):
        svc.resolve([1, 0], [0, 3])


# ----------------------------------------------------------------------
# flat-offset resolve vs the 2-D gather oracle (tests/serve_oracle.py)
# ----------------------------------------------------------------------
def _assert_same_batch(got: ResolveBatch, want: ResolveBatch) -> None:
    for field in ("src", "dst", "next_hop", "distance", "paths"):
        a, b = getattr(got, field), getattr(want, field)
        if b is None:
            assert a is None, field
            continue
        assert a.dtype == b.dtype, (field, a.dtype, b.dtype)
        assert np.array_equal(a, b), field


def _hsn_q3_service(shards: int) -> RouteService:
    """HSN(2,Q3) (64 nodes) served from in-memory row blocks of one table."""
    net = networks.build("hsn", l=2, n=3)
    table = NextHopTable(net, with_distances=True)
    starts = shard_row_starts(net.num_nodes, shards)
    cut = lambda a: [a[lo:hi] for lo, hi in zip(starts, starts[1:])]  # noqa: E731
    return RouteService(
        net.name, net.num_nodes, cut(table.table), starts, cut(table.dist)
    )


@pytest.mark.parametrize("shards", [1, 2, 3, 7])
@pytest.mark.parametrize("paths", [False, True])
def test_resolve_matches_oracle_across_shards(shards, paths):
    svc = _hsn_q3_service(shards)
    if shards == 7:  # 64 rows in 7 blocks: uneven row counts
        assert len({b.shape[0] for b in svc._blocks}) > 1
    src, dst = seeded_queries(svc.num_nodes, 3_000, seed=shards)
    got = svc.resolve(src, dst, paths=paths)
    _assert_same_batch(got, OracleResolve(svc).resolve(src, dst, paths=paths))


@pytest.mark.parametrize("paths", [False, True])
def test_resolve_matches_oracle_on_degenerate_batches(paths):
    svc = _hsn_q3_service(3)
    oracle = OracleResolve(svc)
    lo, hi = svc._row_starts[1], svc._row_starts[2]
    rng = np.random.default_rng(8)
    one_shard = (rng.integers(0, 64, 500), rng.integers(lo, hi, 500))
    batches = [
        one_shard,  # every query in the middle shard
        ([5], [60]),  # one query
        ([9], [9]),  # one query, already there
        (np.arange(64), np.arange(64)),  # src == dst everywhere
    ]
    for src, dst in batches:
        got = svc.resolve(src, dst, paths=paths)
        _assert_same_batch(got, oracle.resolve(src, dst, paths=paths))
    assert svc.resolve([9], [9], paths=True).path_lists() == [[9]]


def test_unreachable_names_first_bad_pair_in_query_order():
    # the first bad pair (0 -> 3) sits in the last shard, after a bad pair
    # (3 -> 0) of the first shard: the error still names 0 -> 3
    net = _split_graph()
    table, dist = oracle_next_hop_table(net)
    svc = RouteService(
        "split", 4, [table[:2], table[2:]], (0, 2, 4), [dist[:2], dist[2:]]
    )
    for paths in (False, True):
        with pytest.raises(
            RoutingError,
            match=r"^no route from node 0 to node 3 in 'split': they lie "
            r"in different connected components$",
        ):
            svc.resolve([1, 0, 3, 2], [0, 3, 0, 3], paths=paths)
        with pytest.raises(
            RoutingError, match=r"^no route from node 0 to node 3 in 'split'"
        ):
            OracleResolve(svc).resolve([1, 0, 3, 2], [0, 3, 0, 3], paths=paths)


def test_blocks_the_flat_gather_cannot_read_fail_fast():
    t = NextHopTable(networks.ring(8), with_distances=True)
    halves = [t.dist[:4], t.dist[4:]]
    with pytest.raises(
        ValueError,
        match=r"^table block 1 has shape \(4, 7\), expected \(4, 8\) "
        r"\(dst rows 4\.\.7 of 'ring\(8\)'\)$",
    ):
        RouteService("ring(8)", 8, [t.table[:4], t.table[4:, :7]], (0, 4, 8), halves)
    with pytest.raises(
        ValueError,
        match=r"^table block 0 has shape \(64,\), expected \(8, 8\) "
        r"\(dst rows 0\.\.7 of 'ring\(8\)'\)$",
    ):
        RouteService("ring(8)", 8, [t.table.reshape(-1)], (0, 8), [t.dist])
    with pytest.raises(
        ValueError,
        match=r"^distance block 0 has shape \(3, 8\), expected \(4, 8\) "
        r"\(dst rows 0\.\.3 of 'ring\(8\)'\)$",
    ):
        RouteService(
            "ring(8)", 8, [t.table[:4], t.table[4:]], (0, 4, 8),
            [t.dist[:3], t.dist[4:]],
        )
    with pytest.raises(
        ValueError,
        match=r"^table block 0 is not C-contiguous: a flat gather would copy "
        r"the whole shard on every resolve$",
    ):
        RouteService("ring(8)", 8, [np.asfortranarray(t.table)], (0, 8), [t.dist])
    wide = np.zeros((8, 16), dtype=np.int32)
    with pytest.raises(
        ValueError, match=r"^distance block 0 is not C-contiguous"
    ):
        RouteService("ring(8)", 8, [t.table], (0, 8), [wide[:, ::2]])
    with pytest.raises(
        ValueError,
        match=r"^row_starts must run from 0 to num_nodes \(8\), got \(0, 4\)$",
    ):
        RouteService("ring(8)", 8, [t.table[:4]], (0, 4), [t.dist[:4]])
    with pytest.raises(
        ValueError,
        match=r"^dist_blocks must have one block per table block, got 1 for 2$",
    ):
        RouteService(
            "ring(8)", 8, [t.table[:4], t.table[4:]], (0, 4, 8), [t.dist]
        )


def _spill(store, net, name: str):
    """Path of the ``.npy`` spill of one table array (``"table"`` or
    ``"dist"``) that ``cached_next_hop_table`` writes and maps."""
    key = cache.cache_key("routing.next_hop_table", graph=net.cache_key, array=name)
    return store.mmap_path(key)


def test_open_rejects_a_spill_of_the_wrong_width(disk_cache, counters):
    # a readable spill of the wrong shape is treated like a corrupt one:
    # counted, removed and written again, with correct answers
    RouteService.open(networks.build("hypercube", n=4), shards=2)
    net = networks.build("hypercube", n=4)  # reloaded: holds no table
    bad = _spill(disk_cache, net, "table")
    np.save(bad, np.zeros((16, 15), dtype=np.int32))
    svc = RouteService.open(net, shards=2)
    assert svc.source == "mmap"
    assert counters().get("cache.error", 0) == 1
    assert counters().get("serve.open.memory", 0) == 0
    assert np.load(bad).shape == (16, 16)
    ref = NextHopTable(net, with_distances=True)
    src, dst = seeded_queries(net.num_nodes, 200, seed=2)
    got = svc.resolve(src, dst)
    assert np.array_equal(got.next_hop, ref.table[dst, src])
    assert np.array_equal(got.distance, ref.dist[dst, src])
    again = RouteService.open(networks.build("hypercube", n=4), shards=2)
    assert again.source == "mmap" and counters()["cache.error"] == 1
    assert np.array_equal(again.resolve(src, dst).next_hop, ref.table[dst, src])


def test_open_rebuilds_a_fortran_ordered_spill(disk_cache, counters):
    RouteService.open(networks.build("hypercube", n=4), shards=2)
    net = networks.build("hypercube", n=4)
    spill = _spill(disk_cache, net, "dist")
    np.save(spill, np.asfortranarray(np.load(spill)))
    svc = RouteService.open(net, shards=2)
    assert svc.source == "mmap" and counters().get("cache.error", 0) == 1
    assert np.load(spill, mmap_mode="r").flags.c_contiguous
    assert RouteService.open(net, shards=2).source == "mmap"
    assert counters()["cache.error"] == 1


def test_resolve_batch_path_helpers():
    svc = RouteService.from_table(NextHopTable(networks.ring(6), with_distances=True))
    batch = svc.resolve([2, 4], [2, 1], paths=True)
    assert batch.path_list(0) == [2]
    assert batch.path_list(1) == [4, 3, 2, 1]  # smallest-id tie-break
    no_paths = svc.resolve([0], [1])
    with pytest.raises(ValueError, match="without paths=True"):
        no_paths.path_list(0)


# ----------------------------------------------------------------------
# mmap round-trip and sharding
# ----------------------------------------------------------------------
def test_open_is_mmap_backed_and_round_trips(disk_cache, counters):
    net = networks.build("hsn", l=2, n=3)
    svc = RouteService.open(net)
    assert svc.source == "mmap"
    assert svc.mmap_backed  # every block is an np.memmap view
    assert counters().get("serve.open.mmap", 0) == 1
    # a second open maps the same spills without rebuilding
    before = counters().get("routing.table.builds", 0)
    svc2 = RouteService.open(net)
    assert svc2.mmap_backed
    assert counters().get("routing.table.builds", 0) == before
    src, dst = seeded_queries(net.num_nodes, 300, seed=1)
    a, b = svc.resolve(src, dst, paths=True), svc2.resolve(src, dst, paths=True)
    assert np.array_equal(a.next_hop, b.next_hop)
    assert np.array_equal(a.distance, b.distance)
    assert np.array_equal(a.paths, b.paths)


def test_open_without_cache_falls_back_to_memory(counters):
    assert cache.get_cache() is None
    svc = RouteService.open(networks.hypercube(4))
    assert svc.source == "memory"
    assert not svc.mmap_backed
    assert counters().get("serve.open.memory", 0) == 1


def test_shard_row_starts_partitions():
    assert shard_row_starts(10, 1) == (0, 10)
    assert shard_row_starts(10, 4) == (0, 2, 5, 7, 10)
    assert shard_row_starts(3, 3) == (0, 1, 2, 3)
    with pytest.raises(ValueError, match="shards must be >= 1, got 0"):
        shard_row_starts(10, 0)


def test_shard_row_starts_rejects_more_shards_than_rows_exact_message():
    # the old behavior silently clamped 8 shards to 3, hiding the
    # misconfiguration (and producing fewer spills than requested)
    with pytest.raises(
        ValueError,
        match=r"shards must be <= num_nodes \(3\), got 8: more shards than "
        r"dst rows would create empty shard blocks",
    ):
        shard_row_starts(3, 8)
    with pytest.raises(ValueError, match=r"shards must be <= num_nodes \(0\), got 1"):
        shard_row_starts(0, 1)


def test_resolve_rejects_empty_queries_exact_message():
    svc = RouteService.from_table(NextHopTable(networks.ring(8), with_distances=True))
    with pytest.raises(
        ValueError,
        match=r"source ids are empty: resolve\(\) requires at least one query",
    ):
        svc.resolve([], [])
    with pytest.raises(
        ValueError,
        match=r"destination ids are empty: resolve\(\) requires at least one query",
    ):
        svc.resolve([0], np.empty(0, dtype=np.int64))
    with pytest.raises(ValueError, match="source ids are empty"):
        svc.distances([], [0])


@pytest.mark.parametrize("shards", [2, 3, 5])
def test_sharded_resolve_matches_unsharded(disk_cache, shards):
    net = networks.build("hsn", l=2, n=3)
    flat = RouteService.open(net)
    sharded = RouteService.open(net, shards=shards)
    assert sharded.shards == shards
    assert sharded.mmap_backed
    src, dst = seeded_queries(net.num_nodes, 500, seed=3)
    a = flat.resolve(src, dst, paths=True)
    b = sharded.resolve(src, dst, paths=True)
    assert np.array_equal(a.next_hop, b.next_hop)
    assert np.array_equal(a.distance, b.distance)
    assert np.array_equal(a.paths, b.paths)


def test_reopen_maps_the_same_spills(disk_cache):
    # every open of one cache maps the same files: that is how processes
    # share a table
    net = networks.build("hypercube", n=5)
    svc = RouteService.open(net, shards=2)
    clone = RouteService.open(networks.build("hypercube", n=5), shards=2)
    assert clone.mmap_backed and clone.shards == 2
    files = lambda s: [b.filename for b in s._blocks + s._dist_blocks]  # noqa: E731
    assert files(clone) == files(svc)
    assert files(svc) == [
        _spill(disk_cache, net, name).resolve()
        for name in ("table", "dist")
        for _ in range(2)
    ]
    src, dst = seeded_queries(net.num_nodes, 200, seed=9)
    a, b = svc.resolve(src, dst), clone.resolve(src, dst)
    assert np.array_equal(a.next_hop, b.next_hop)
    assert np.array_equal(a.distance, b.distance)


def test_rebuilt_network_reopens_mmap_without_a_table_build(disk_cache, counters):
    first = networks.build("hsn", l=2, n=3)
    RouteService.open(first, shards=2)  # the one table build
    assert counters()["routing.table.builds"] == 1
    hits = counters().get("cache.hit", 0)
    net = networks.build("hsn", l=2, n=3)  # reloaded from the cache
    assert net is not first and net._next_hops is None
    assert counters()["cache.hit"] > hits
    svc = RouteService.open(net, shards=2)
    assert svc.mmap_backed and svc.source == "mmap" and svc.shards == 2
    assert counters()["routing.table.builds"] == 1
    # the network now holds the mapped spills, nothing built in memory
    assert all(isinstance(a, np.memmap) for a in net._next_hops)
    src, dst = seeded_queries(net.num_nodes, 500, seed=4)
    want = NextHopTable(first, with_distances=True)
    got = svc.resolve(src, dst)
    assert np.array_equal(got.next_hop, want.table[dst, src])
    assert np.array_equal(got.distance, want.dist[dst, src])


def test_corrupt_spill_is_rewritten(disk_cache, counters):
    RouteService.open(networks.build("hypercube", n=4))  # writes the spills
    for spill in disk_cache.root.glob("*/*.npy"):
        spill.write_bytes(b"garbage")
    net = networks.build("hypercube", n=4)
    svc = RouteService.open(net)
    assert svc.source == "mmap"
    assert counters().get("cache.error", 0) == 2
    ref = NextHopTable(net, with_distances=True)
    src, dst = seeded_queries(net.num_nodes, 100, seed=0)
    want = np.array([ref.distance(int(s), int(d)) for s, d in zip(src, dst)])
    assert np.array_equal(svc.distances(src, dst), want)
    for name, arr in (("table", ref.table), ("dist", ref.dist)):
        assert np.array_equal(np.load(_spill(disk_cache, net, name)), arr)


def test_open_blocks_share_memory_with_the_cached_table(disk_cache):
    net = networks.build("hypercube", n=5)
    table = cached_next_hop_table(net, with_distances=True)
    svc = RouteService.open(net, shards=4)
    assert svc.mmap_backed
    for block in svc._blocks:
        assert np.shares_memory(block, table.table)
        assert block.flags.c_contiguous
    for block in svc._dist_blocks:
        assert np.shares_memory(block, table.dist)


def test_load_mmap_arrays_are_read_only(disk_cache):
    from repro.cache import cache_key

    key = cache_key("test.spill", probe=1)
    disk_cache.export_mmap(key, np.arange(12, dtype=np.int32))
    arr = disk_cache.load_mmap(key)
    assert isinstance(arr, np.memmap)
    assert arr.flags.writeable is False
    with pytest.raises(ValueError, match="read-only"):
        arr[0] = 99


def test_open_blocks_are_read_only_and_resolve_never_copies(disk_cache):
    net = networks.build("hypercube", n=5)
    RouteService.open(net, shards=2)  # writes the spills
    svc = RouteService.open(net, shards=2)
    blocks = svc._blocks + svc._dist_blocks
    for b in blocks:
        assert isinstance(b, np.memmap)
        assert b.flags.writeable is False
        with pytest.raises(ValueError, match="read-only"):
            b[0, 0] = 1
    # a full resolve (gathers + path materialization) must not trigger a
    # copy-on-write of any shard: the same read-only memmaps stay in place
    src, dst = seeded_queries(net.num_nodes, 500, seed=6)
    svc.resolve(src, dst, paths=True)
    for before, after in zip(blocks, svc._blocks + svc._dist_blocks):
        assert after is before
        assert isinstance(after, np.memmap)
        assert after.flags.writeable is False


def test_flat_views_share_the_mmap_spills(disk_cache):
    # resolve reads every block through a 1-D view made once: it must be
    # the spill's own pages, not a copy, and stay read-only
    svc = RouteService.open(networks.build("hypercube", n=5), shards=2)
    for block, flat in zip(svc._blocks + svc._dist_blocks, svc._flat + svc._flat_dist):
        assert flat.shape == (block.size,)
        assert np.shares_memory(flat, block)
        assert flat.flags.writeable is False


def test_cache_clear_removes_spills(disk_cache):
    net = networks.build("hypercube", n=4)
    RouteService.open(net)
    assert list(disk_cache.root.glob("*/*.npy"))
    disk_cache.clear()
    assert not list(disk_cache.root.glob("*/*.npy"))


# ----------------------------------------------------------------------
# load harness + CLI
# ----------------------------------------------------------------------
def test_run_load_test_report(disk_cache):
    net = networks.build("hypercube", n=4)
    table = cached_next_hop_table(net, with_distances=True)
    svc = RouteService.open(net)
    rep = run_load_test(
        svc, table, queries=2_000, batch=500, seed=0, verify_sample=200
    )
    assert rep["queries"] == 2_000 and rep["batches"] == 4
    assert rep["mmap"] is True and rep["backend"] == "mmap"
    assert rep["verified"] == 200 and rep["mismatches"] == 0
    assert rep["qps"] > 0 and rep["p99_ms"] >= rep["p50_ms"] >= 0


def test_seeded_queries_are_deterministic():
    a_src, a_dst = seeded_queries(32, 100, seed=7)
    b_src, b_dst = seeded_queries(32, 100, seed=7)
    c_src, c_dst = seeded_queries(32, 100, seed=8)
    assert np.array_equal(a_src, b_src) and np.array_equal(a_dst, b_dst)
    assert not (np.array_equal(a_src, c_src) and np.array_equal(a_dst, c_dst))
    assert a_src.min() >= 0 and a_src.max() < 32


def test_cli_serve_bench_smoke(tmp_path, capsys):
    from repro.__main__ import main

    d = str(tmp_path / "c")
    try:
        rc = main(
            ["serve", "bench", "--network", "hypercube", "--param", "n=4",
             "--cache-dir", d, "--queries", "2000", "--batch", "500",
             "--verify-sample", "200"]
        )
    finally:
        cache.set_cache(None)
    assert rc == 0
    out = capsys.readouterr().out
    assert '"mismatches": 0' in out
    assert '"backend": "mmap"' in out


def test_cli_serve_query(capsys):
    from repro.__main__ import main

    assert main(
        ["serve", "query", "--network", "ring", "--param", "n=8",
         "--src", "0", "--dst", "3"]
    ) == 0
    out = capsys.readouterr().out
    assert "0 -> 3" in out and "[0, 1, 2, 3]" in out


def test_cli_serve_bench_rejects_jobs(capsys):
    # serving runs in one process: --jobs is a usage error, not ignored
    from repro.__main__ import main

    with pytest.raises(SystemExit) as exc:
        main(["serve", "bench", "--jobs", "2"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "repro: error: unrecognized arguments: --jobs 2\n"
    )
