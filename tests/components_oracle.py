"""Test oracle for the batched percolation component labeling.

This is the pointer-doubling min-label propagation that
:func:`repro.fault.percolation.masked_components` replaced with
:func:`scipy.sparse.csgraph.connected_components`: every node's label
converges to the smallest node id of its component, one whole-array
``np.minimum.at`` sweep plus pointer doubling per outer iteration.  It is
kept verbatim in behaviour so the production labels can be compared bit
for bit.  The ``percolation.components`` obs counter is not carried over.
"""

from __future__ import annotations

import numpy as np

from repro.core.network import Network
from repro.fault.plan import _undirected_edges


def oracle_components_flat(total: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Smallest-node-id component labels of ``total`` nodes under the edges."""
    label = np.arange(total, dtype=np.int64)
    if len(src) == 0:
        return label
    while True:
        old = label.copy()
        lo = np.minimum(label[src], label[dst])
        np.minimum.at(label, src, lo)
        np.minimum.at(label, dst, lo)
        while True:  # pointer doubling: label -> label[label] until stable
            nxt = label[label]
            if np.array_equal(nxt, label):
                break
            label = nxt
        if np.array_equal(label, old):
            return label


def oracle_masked_components(
    net: Network,
    node_alive: np.ndarray | None = None,
    edge_alive: np.ndarray | None = None,
) -> np.ndarray:
    """``(B, n)`` labels of masked survivor graphs; dead nodes are ``-1``."""
    n = net.num_nodes
    edges = _undirected_edges(net)
    src, dst = edges[:, 0], edges[:, 1]
    if node_alive is None:
        node_alive = np.ones(n, dtype=bool)
    node_alive = np.atleast_2d(np.asarray(node_alive, dtype=bool))
    batch = node_alive.shape[0]
    if edge_alive is None:
        edge_alive = np.ones((batch, len(src)), dtype=bool)
    edge_alive = np.atleast_2d(np.asarray(edge_alive, dtype=bool))
    live_edge = edge_alive & node_alive[:, src] & node_alive[:, dst]
    b_idx, e_idx = np.nonzero(live_edge)
    flat_src = b_idx * n + src[e_idx]
    flat_dst = b_idx * n + dst[e_idx]
    label = oracle_components_flat(batch * n, flat_src, flat_dst).reshape(batch, n)
    label -= np.arange(batch, dtype=np.int64)[:, None] * n
    label[~node_alive] = -1
    return label
