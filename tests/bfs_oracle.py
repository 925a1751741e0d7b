"""Test oracle for the bit-parallel BFS kernel.

These are the sparse-matmul BFS and the ``(rows × arcs)``
``np.minimum.reduceat`` next-hop derivation that
:func:`repro.metrics.distances.multi_source_bfs` and
:class:`repro.routing.table.NextHopTable` replaced.  They are kept
verbatim in behaviour (one level = one sparse matmul; smallest
one-step-closer neighbor id per node) so the production kernel can be
compared bit for bit.  Two deliberate differences: the next-hop
``reduceat`` runs over the rows that have arcs only (the replaced code
clamped empty segments' offsets instead, which cut the preceding row's
segment short when the highest-id node had no arcs), and on a directed
network the per-destination BFS runs over reversed arcs, so that
``dist[dst, u]`` is the distance from ``u`` to ``dst`` (the replaced code
measured it from ``dst`` to ``u``, which picks out-neighbors that are not
one step closer).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.core.network import Network


def oracle_bfs_distances(net: Network | sp.spmatrix, sources) -> np.ndarray:
    """``(S, N)`` int32 hop distances, ``-1`` unreachable (no validation)."""
    csr = net.adjacency_csr() if isinstance(net, Network) else sp.csr_matrix(net)
    n = csr.shape[0]
    sources = np.asarray(sources, dtype=np.int64)
    s = len(sources)
    dist = np.full((s, n), -1, dtype=np.int32)
    dist[np.arange(s), sources] = 0
    frontier = np.zeros((s, n), dtype=bool)
    frontier[np.arange(s), sources] = True
    level = 0
    while frontier.any():
        level += 1
        reached = (sp.csr_matrix(frontier, dtype=np.int8) @ csr).toarray() > 0
        frontier = reached & (dist == -1)
        dist[frontier] = level
    return dist


def oracle_next_hop_table(net: Network, chunk: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """``(table, dist)`` as the pre-bit-parallel ``NextHopTable`` built them,
    with unreachable pairs allowed (``-1`` in both)."""
    n = net.num_nodes
    csr = net.adjacency_csr()
    indptr, indices = csr.indptr, csr.indices
    toward = csr.T.tocsr() if net.directed else csr  # dist(u -> dst)
    table = np.empty((n, n), dtype=np.int32)
    dist_all = np.empty((n, n), dtype=np.int32)
    arc_counts = np.diff(indptr)
    # reduceat over the rows with arcs only: an empty segment would read
    # the next row's first arc instead of the identity
    rows = np.flatnonzero(arc_counts)
    nnz = len(indices)
    if nnz:
        cand_ids = indices.astype(np.int32)
        arc_src = np.repeat(np.arange(n), arc_counts)
    for start in range(0, n, chunk):
        dsts = np.arange(start, min(start + chunk, n))
        dist = oracle_bfs_distances(toward, dsts)
        dist_all[dsts] = dist
        nh = np.full((len(dsts), n), -1, dtype=np.int32)
        if nnz:
            closer = dist[:, indices] == dist[:, arc_src] - 1
            candidates = np.where(closer, cand_ids[None, :], np.int32(n))
            best = np.minimum.reduceat(candidates, indptr[rows], axis=1)
            best[best == n] = -1
            nh[:, rows] = best
        nh[np.arange(len(dsts)), dsts] = dsts
        table[dsts] = nh
    return table, dist_all
