"""Bit-identity of the bit-parallel BFS kernel against the sparse-matmul
oracle (``tests/bfs_oracle.py``), plus source-id validation.

The production kernel packs 64 BFS sources per machine word and derives
next hops with a neighbor-slot sweep over compact (int8/int16) distances;
every case here must reproduce the oracle's ``table``, ``dist`` and
``bfs_distances`` output exactly — including lane padding (N < 64, N not a
multiple of 64), several 64-destination batches, degenerate graphs,
duplicate sources and distances too large for int8.  On disconnected
graphs, where no table is built, the BFS itself is compared (``-1`` for
unreachable pairs).
"""

import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from repro import networks as nw
from repro.core.network import Network, RoutingError
from repro.metrics.distances import (
    _pull_csr,
    bfs_distances,
    eccentricities,
    multi_source_bfs,
    single_source_distances,
)
from repro.routing.table import NextHopTable

from .bfs_oracle import oracle_bfs_distances, oracle_next_hop_table

FAMILIES = [
    ("hsn", {"l": 2, "n": 3}),  # N=64: exactly one word
    ("hsn", {"l": 3, "n": 3}),  # N=512, degrees 3..5
    ("hypercube", {"n": 5}),  # N=32 < 64
    ("star", {"n": 5}),  # N=120, not a multiple of 64
    ("hsn", {"l": 2, "n": 3, "symmetric": True}),  # super-IP variant
]


def _edges(n, edges):
    return Network.from_edge_list([(i,) for i in range(n)], edges)


def _assert_bfs_matches_oracle(net):
    """Every-source distances of the kernel (node-major, narrow dtype)
    against the oracle (source-major int32)."""
    everyone = np.arange(net.num_nodes)
    got = multi_source_bfs(net, everyone)
    np.testing.assert_array_equal(got.T, oracle_bfs_distances(net, everyone))
    return got.T


def _assert_table_matches_oracle(net):
    table = NextHopTable(net, with_distances=True)
    want_table, want_dist = oracle_next_hop_table(net)
    assert table.table.dtype == np.int32 and table.dist.dtype == np.int32
    np.testing.assert_array_equal(table.table, want_table)
    np.testing.assert_array_equal(table.dist, want_dist)
    return table


@pytest.mark.parametrize("family,params", FAMILIES)
def test_table_and_bfs_match_oracle(family, params):
    net = nw.build(family, **params)
    _assert_table_matches_oracle(net)
    everyone = np.arange(net.num_nodes)
    np.testing.assert_array_equal(
        bfs_distances(net, everyone), oracle_bfs_distances(net, everyone)
    )


def test_directed_graph_follows_arc_orientation():
    net = nw.build("kautz", d=2, n=3, directed=True)
    everyone = np.arange(net.num_nodes)
    got = bfs_distances(net, everyone)
    np.testing.assert_array_equal(got, oracle_bfs_distances(net, everyone))
    # a raw (asymmetric) sparse matrix takes the same arcs
    np.testing.assert_array_equal(
        bfs_distances(net.adjacency_csr(), everyone), got
    )
    _assert_table_matches_oracle(net)


def test_single_node():
    net = Network([(0,)], np.array([], dtype=np.int64), np.array([], dtype=np.int64))
    table = _assert_table_matches_oracle(net)
    assert table.table.tolist() == [[0]] and table.dist.tolist() == [[0]]
    np.testing.assert_array_equal(bfs_distances(net, [0]), [[0]])


def test_edgeless_graph():
    net = _edges(5, [])
    dist = _assert_bfs_matches_oracle(net)
    np.testing.assert_array_equal(dist, np.where(np.eye(5, dtype=bool), 0, -1))
    np.testing.assert_array_equal(
        bfs_distances(net, [0, 4]), oracle_bfs_distances(net, [0, 4])
    )
    with pytest.raises(RoutingError) as err:
        NextHopTable(net)
    assert str(err.value) == (
        "cannot build a next-hop table on 'network': node 0 is isolated "
        "(no arcs)"
    )


def test_isolated_node():
    net = _edges(70, [(i, i + 1) for i in range(68)])  # node 69 isolated
    _assert_bfs_matches_oracle(net)
    with pytest.raises(RoutingError) as err:
        NextHopTable(net)
    assert str(err.value) == (
        "cannot build a next-hop table on 'network': node 69 is isolated "
        "(no arcs)"
    )


def test_triangle_with_trailing_isolated_node():
    # the highest-id node has no arcs and the node before it has two: an
    # empty last reduceat segment must not cut node 2's neighbor list short
    net = _edges(4, [(0, 1), (1, 2), (0, 2)])
    want_dist = [[0, 1, 1, -1], [1, 0, 1, -1], [1, 1, 0, -1], [-1, -1, -1, 0]]
    everyone = np.arange(4)
    assert bfs_distances(net, everyone).tolist() == want_dist
    assert oracle_bfs_distances(net, everyone).tolist() == want_dist
    assert _assert_bfs_matches_oracle(net).tolist() == want_dist


def test_directed_trailing_node_without_in_arcs():
    # node 3 only sends (3 -> 0), node 2 receives from 0 and 1
    arcs = [(0, 1), (1, 2), (2, 0), (0, 2), (1, 0), (3, 0)]
    adj = sp.csr_matrix(
        (np.ones(len(arcs)), ([a for a, _ in arcs], [b for _, b in arcs])), shape=(4, 4)
    )
    everyone = np.arange(4)
    got = bfs_distances(adj, everyone)
    np.testing.assert_array_equal(got, oracle_bfs_distances(adj, everyone))
    assert got[:, 2].tolist() == [1, 1, 0, 2]


def test_sparse_inputs_are_pulled_as_given_and_never_modified():
    # the pull adjacency of a CSC input is a CSR view of its own arrays;
    # explicit zeros are no arcs, and are dropped from a copy only
    arcs = [(0, 1), (1, 2), (2, 0), (0, 2), (1, 0), (3, 0)]
    rows, cols = [a for a, _ in arcs], [b for _, b in arcs]
    adj = sp.csr_matrix((np.ones(len(arcs)), (rows, cols)), shape=(4, 4))
    everyone = np.arange(4)
    want = oracle_bfs_distances(adj, everyone)
    csc = adj.tocsc()
    assert np.shares_memory(_pull_csr(csc).indices, csc.indices)
    np.testing.assert_array_equal(bfs_distances(csc, everyone), want)
    zeros = sp.csc_matrix(
        (np.r_[np.ones(len(arcs)), 0.0], (rows + [2], cols + [3])), shape=(4, 4)
    )
    before = [a.copy() for a in (zeros.indptr, zeros.indices, zeros.data)]
    for m in (zeros, zeros.tocsr()):
        np.testing.assert_array_equal(bfs_distances(m, everyone), want)
    for arr, old in zip((zeros.indptr, zeros.indices, zeros.data), before):
        np.testing.assert_array_equal(arr, old)


def test_disconnected_graph():
    # two paths: 0..39 and 40..99; the first unreachable pair in (dst, u)
    # order is dst 0, u 40 — found in the first 64-lane batch
    edges = [(i, i + 1) for i in range(39)] + [(i, i + 1) for i in range(40, 99)]
    net = _edges(100, edges)
    dist = _assert_bfs_matches_oracle(net)
    assert (dist[:40, 40:] == -1).all() and (dist[40:, :40] == -1).all()
    with pytest.raises(RoutingError) as err:
        NextHopTable(net)
    assert str(err.value) == (
        "network 'network' is disconnected: node 40 cannot reach node 0 "
        "(and possibly others)"
    )


def test_bfs_many_and_duplicate_sources():
    net = nw.build("star", n=5)
    rng = np.random.default_rng(3)
    sources = rng.integers(0, net.num_nodes, size=150)  # > 64, with repeats
    sources[:3] = sources[3]
    np.testing.assert_array_equal(
        bfs_distances(net, sources), oracle_bfs_distances(net, sources)
    )


def test_long_ring_does_not_wrap_compact_distances():
    net = nw.build("ring", n=600)  # diameter 300: beyond int8 and uint8
    table = _assert_table_matches_oracle(net)
    assert table.dist.max() == 300
    hops = multi_source_bfs(net, [0])
    assert hops.dtype == np.int16 and int(hops.max()) == 300
    np.testing.assert_array_equal(single_source_distances(net, 0), hops[:, 0])


def test_compact_distance_dtype_is_int8_for_small_diameters():
    hops = multi_source_bfs(nw.build("hsn", l=2, n=3), np.arange(10))
    assert hops.dtype == np.int8 and hops.shape == (64, 10)


def test_table_without_distances_allocates_no_distance_matrix():
    net = nw.build("hsn", l=2, n=5)  # N=1024: a 4 MiB int32 matrix each
    n = net.num_nodes
    tracemalloc.start()
    try:
        table = NextHopTable(net)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.dist is None
    # the table itself plus per-batch (N, 64) work arrays (measured peak
    # 1.38x the table); a second N² int32 matrix would add another 1x
    assert peak < 1.75 * n * n * 4, peak


class TestSourceValidation:
    def test_negative_source_rejected(self):
        with pytest.raises(ValueError) as err:
            bfs_distances(nw.hypercube(3), [-1])
        assert str(err.value) == (
            "source node id -1 is out of range for a 8-node graph (valid ids: 0..7)"
        )

    def test_too_large_source_rejected(self):
        with pytest.raises(ValueError) as err:
            bfs_distances(nw.hypercube(3), [0, 8, 9])
        assert str(err.value) == (
            "source node id 8 is out of range for a 8-node graph (valid ids: 0..7)"
        )

    def test_single_source_and_eccentricities_inherit_the_check(self):
        q = nw.hypercube(3)
        msg = re.escape("source node id -1 is out of range for a 8-node graph")
        with pytest.raises(ValueError, match=msg):
            single_source_distances(q, -1)
        with pytest.raises(ValueError, match=msg):
            eccentricities(q, sources=[0, -1])
