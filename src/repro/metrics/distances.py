"""Distance metrics: BFS distances, diameter, average distance.

These kernels operate on any :class:`repro.core.network.Network` (or a raw
CSR adjacency).  They are the measurement side of the paper's topological
comparisons: diameter and average distance feed the DD-cost of Figure 2 and
the latency model of Section 5.

Implementation notes: every distance here comes from one kernel,
:func:`multi_source_bfs` — bit-parallel BFS that expands 64 sources per
machine word with CSR gathers and ``reduceat`` (no Python per-edge loops)
— and all-pairs sweeps run 64 sources (one word) per batch, so memory
stays bounded.  The
all-pairs next-hop table (:class:`repro.routing.table.NextHopTable`) is
built on the same kernel.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from repro.core.network import Network

__all__ = [
    "approx_average_distance",
    "as_csr",
    "bfs_distances",
    "single_source_distances",
    "eccentricities",
    "diameter",
    "average_distance",
    "distance_histogram",
    "is_connected",
    "DistanceSummary",
    "distance_summary",
]

_UNREACHED = -1

#: sources per all-pairs BFS batch: one ``uint64`` word of lanes
_BATCH = 64


def as_csr(net: Network | sp.spmatrix) -> sp.csr_matrix:
    """Coerce a Network or sparse matrix to simple CSR adjacency."""
    if isinstance(net, Network):
        return net.adjacency_csr()
    return sp.csr_matrix(net)


def _check_sources(sources: Sequence[int] | np.ndarray, n: int) -> np.ndarray:
    """Validate BFS source ids; negative or too-large ids would otherwise
    silently read another node's row via numpy wraparound indexing."""
    src = np.asarray(sources, dtype=np.int64).reshape(-1)
    bad = (src < 0) | (src >= n)
    if bad.any():
        v = int(src[np.argmax(bad)])
        raise ValueError(
            f"source node id {v} is out of range for a {n}-node graph "
            f"(valid ids: 0..{n - 1})"
        )
    return src


def _pull_csr(net: Network | sp.spmatrix) -> sp.csr_matrix:
    """Adjacency whose row ``v`` lists the arc tails *into* ``v``.

    A BFS level pulls each node's frontier bits from these in-neighbors.
    Undirected networks are their own transpose; any other input is
    transposed as given, so a CSC matrix comes back as a CSR view of its
    own arrays, with no copy.  Explicit zeros are not arcs: they are
    dropped from a copy, never from the caller's matrix.
    """
    if isinstance(net, Network):
        if not net.directed:
            return net.adjacency_csr()
        net = net.adjacency_csr()
    pull = sp.csr_matrix(net.T)
    if not pull.data.all():
        pull = pull.copy()
        pull.eliminate_zeros()
    return pull


def _unpack_lanes(words: np.ndarray, lanes: int) -> np.ndarray:
    """``(N, lanes)`` uint8 0/1 matrix of the first ``lanes`` bit lanes."""
    bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
    return bits[:, :lanes]


def multi_source_bfs(
    net: Network | sp.spmatrix, sources: Sequence[int] | np.ndarray
) -> np.ndarray:
    """Bit-parallel multi-source BFS: hop distances, node-major.

    Returns an ``(N, S)`` array whose column ``j`` holds the hop distance
    from ``sources[j]`` to every node (``-1`` where unreachable), in the
    narrowest signed dtype that holds the largest distance (int8, int16
    or int32).  Raises ``ValueError`` naming the first source id outside
    ``0..N-1``.

    Sources are packed 64 to a little-endian ``uint64`` word per node,
    one bit lane each (Then et al., "The More the Merrier", PVLDB 8(4)).
    A level is one gather of the frontier words along the pull adjacency
    plus ``np.bitwise_or.reduceat`` over ``indptr`` — 64 BFS expansions
    per word operation — masked by the visited words.  No level runs a
    ``nonzero``: each level's new frontier is OR-ed into the bit planes
    of its level number, and the planes are unpacked once at the end.
    """
    pull = _pull_csr(net)
    n = pull.shape[0]
    sources = _check_sources(sources, n)
    s = len(sources)
    seed = np.zeros((n, -(-s // 64) * 64), dtype=bool)
    seed[sources, np.arange(s)] = True
    frontier = np.packbits(seed, axis=1, bitorder="little").view("<u8")
    visited = frontier.copy()
    indptr, indices = pull.indptr, pull.indices
    # reduceat reads one element for an empty segment instead of the
    # identity, so reduce over the rows with in-arcs only; the others
    # are never reached
    rows = np.flatnonzero(np.diff(indptr))
    starts = indptr[rows]
    planes: list[np.ndarray] = []  # planes[b]: lanes whose distance has bit b
    level = 0
    while len(rows):
        pulled = np.bitwise_or.reduceat(frontier.take(indices, axis=0), starts, axis=0)
        if len(rows) == n:
            reached = pulled
        else:
            reached = np.zeros_like(frontier)
            reached[rows] = pulled
        frontier = reached & ~visited
        if not frontier.any():
            break
        level += 1
        visited |= frontier
        if level.bit_length() > len(planes):
            planes.append(np.zeros_like(frontier))
        for b in range(level.bit_length()):
            if level >> b & 1:
                planes[b] |= frontier
    dtype = np.int8 if level < 1 << 7 else np.int16 if level < 1 << 15 else np.int32
    hops = np.zeros((n, s), dtype=dtype)
    for b, plane in enumerate(planes):
        hops |= _unpack_lanes(plane, s).astype(dtype) << b
    hops[_unpack_lanes(~visited, s).view(bool)] = _UNREACHED
    return hops


def bfs_distances(
    net: Network | sp.spmatrix, sources: Sequence[int] | np.ndarray
) -> np.ndarray:
    """Hop distances from each source to every node.

    Returns an ``(S, N)`` int32 array; unreachable entries are ``-1``.
    Raises ``ValueError`` naming the first source id outside ``0..N-1``.

    Source-major int32 view of :func:`multi_source_bfs` (64 sources per
    machine word, all expanded together level by level).
    """
    dist = np.ascontiguousarray(multi_source_bfs(net, sources).T, dtype=np.int32)
    return dist


def single_source_distances(net: Network | sp.spmatrix, source: int = 0) -> np.ndarray:
    """Hop distances from one source (1-D int array, ``-1`` unreachable)."""
    return bfs_distances(net, [source])[0]


def eccentricities(
    net: Network | sp.spmatrix,
    sources: Iterable[int] | None = None,
) -> np.ndarray:
    """Eccentricity (max finite distance) of each source node.

    Raises ``ValueError`` if the graph is disconnected (an eccentricity
    would be infinite).
    """
    n = as_csr(net).shape[0]
    src = np.arange(n) if sources is None else np.asarray(list(sources), dtype=np.int64)
    out = np.empty(len(src), dtype=np.int64)
    for start in range(0, len(src), _BATCH):
        block = src[start : start + _BATCH]
        d = bfs_distances(net, block)
        if (d == _UNREACHED).any():
            raise ValueError("graph is disconnected; eccentricity undefined")
        out[start : start + len(block)] = d.max(axis=1)
    return out


def diameter(
    net: Network | sp.spmatrix,
    assume_vertex_transitive: bool = False,
) -> int:
    """Exact diameter (max over node pairs of hop distance).

    With ``assume_vertex_transitive=True`` a single BFS suffices (all
    eccentricities are equal in a vertex-transitive graph); the paper's
    symmetric super-IP graphs and all classic Cayley-graph networks qualify.
    """
    if assume_vertex_transitive:
        return int(eccentricities(net, sources=[0])[0])
    return int(eccentricities(net).max())


def average_distance(
    net: Network | sp.spmatrix,
    assume_vertex_transitive: bool = False,
) -> float:
    """Average hop distance over ordered pairs of distinct nodes."""
    n = as_csr(net).shape[0]
    if n < 2:
        return 0.0
    if assume_vertex_transitive:
        d = bfs_distances(net, [0])
        if (d == _UNREACHED).any():
            raise ValueError("graph is disconnected")
        return float(d.sum()) / (n - 1)
    total = 0
    for start in range(0, n, _BATCH):
        block = np.arange(start, min(start + _BATCH, n))
        d = bfs_distances(net, block)
        if (d == _UNREACHED).any():
            raise ValueError("graph is disconnected")
        total += int(d.sum())
    return total / (n * (n - 1))


def approx_average_distance(
    net: Network | sp.spmatrix,
    samples: int,
    rng: np.random.Generator,
) -> float:
    """Sampled-source estimate of the average distance.

    Runs BFS from ``samples`` uniformly chosen sources; unbiased for the
    ordered-pair average, and exact when ``samples >= N``.  Use for
    networks too large for the exhaustive sweep.
    """
    n = as_csr(net).shape[0]
    if n < 2:
        return 0.0
    if samples >= n:
        return average_distance(net)
    srcs = rng.choice(n, size=samples, replace=False)
    d = bfs_distances(net, srcs)
    if (d == _UNREACHED).any():
        raise ValueError("graph is disconnected")
    return float(d.sum()) / (samples * (n - 1))


def distance_histogram(net: Network | sp.spmatrix, source: int = 0) -> dict[int, int]:
    """Count of nodes at each distance from ``source``."""
    d = single_source_distances(net, source)
    vals, counts = np.unique(d[d >= 0], return_counts=True)
    return {int(v): int(c) for v, c in zip(vals, counts)}


def is_connected(net: Network | sp.spmatrix) -> bool:
    """True iff every node is reachable from node 0 (undirected view)."""
    if as_csr(net).shape[0] == 0:
        return True
    d = single_source_distances(net, 0)
    return bool((d >= 0).all())


class DistanceSummary:
    """Summary of the distance structure of a network."""

    __slots__ = ("diameter", "average", "radius", "num_nodes")

    def __init__(self, diameter: int, average: float, radius: int, num_nodes: int):
        self.diameter = diameter
        self.average = average
        self.radius = radius
        self.num_nodes = num_nodes

    def __repr__(self) -> str:
        return (
            f"DistanceSummary(N={self.num_nodes}, D={self.diameter}, "
            f"avg={self.average:.3f}, radius={self.radius})"
        )


def distance_summary(
    net: Network | sp.spmatrix, assume_vertex_transitive: bool = False
) -> DistanceSummary:
    """Diameter, average distance and radius in one pass."""
    n = as_csr(net).shape[0]
    if assume_vertex_transitive:
        d = bfs_distances(net, [0])
        if (d == _UNREACHED).any():
            raise ValueError("graph is disconnected")
        ecc = int(d.max())
        return DistanceSummary(ecc, float(d.sum()) / max(n - 1, 1), ecc, n)
    ecc = eccentricities(net)
    avg = average_distance(net)
    return DistanceSummary(int(ecc.max()), avg, int(ecc.min()), n)
