"""Constructive embeddings into hierarchical swap networks (Section 1/3.2).

The paper (and [26, 33]) states that an HSN can embed its corresponding
homogeneous product network — e.g. ``HSN(l, Q_n)`` embeds the hypercube
``Q_{l·n}``, and ``HSN(l, C_k)`` embeds the k-ary l-cube — with dilation 3:

* a guest edge inside the *leftmost* block maps to a single nucleus edge
  (dilation 1);
* a guest edge in block ``i > 0`` maps to the 3-hop path
  ``swap T_i → nucleus move → swap T_i back``.

These constructors build the exact node identification (the HSN node set
*is* the product of its block state spaces) together with the constructive
edge router, so the dilation-3 claim is verified edge by edge.
"""

from __future__ import annotations

from repro.core.ipgraph import IPGraph
from repro.core.network import Network
from repro.core.permutation import block_permutation, transposition
from repro.core.superip import NucleusSpec, SuperGeneratorSet, build_super_ip_graph
from repro.networks.classic import hypercube, torus
from repro.networks.nuclei import hypercube_nucleus, ring_nucleus

from .embedding import Embedding

__all__ = ["hypercube_into_hsn", "torus_into_hsn", "product_into_hsn"]


def product_into_hsn(
    nucleus: NucleusSpec,
    l: int,
    guest: Network,
    guest_coords,
    max_nodes: int = 2_000_000,
) -> Embedding:
    """Embed a product network ``G^l`` into ``HSN(l, G)`` with dilation ≤ 3.

    Parameters
    ----------
    nucleus:
        Nucleus spec whose graph ``G`` is the product factor.
    guest:
        The product network ``G^l`` (any construction whose labels can be
        converted to per-block nucleus states via ``guest_coords``).
    guest_coords:
        Callable mapping a guest label to a tuple of ``l`` nucleus node ids
        (block 0 first).
    """
    host = build_super_ip_graph(nucleus, SuperGeneratorSet.transpositions(l), max_nodes=max_nodes)
    nuc_graph = nucleus.build()
    m = nucleus.m

    def host_label(states: tuple[int, ...]) -> tuple:
        return tuple(s for v in states for s in nuc_graph.labels[v])

    node_map = [host.node_of(host_label(guest_coords(lab))) for lab in guest.labels]

    # constructive 3-hop router
    swaps = [None] + [
        block_permutation(transposition(l, 0, i).img, m) for i in range(1, l)
    ]

    def edge_router(hu: int, hv: int) -> list[int]:
        lu, lv = host.labels[hu], host.labels[hv]
        diff = [b for b in range(l) if lu[b * m : (b + 1) * m] != lv[b * m : (b + 1) * m]]
        if len(diff) != 1:
            raise ValueError("guest edge maps to nodes differing in more than one block")
        b = diff[0]
        if b == 0:
            return [hu, hv]
        sw = swaps[b]
        mid1 = host.node_of(sw(lu))
        mid2 = host.node_of(sw(lv))
        # when blocks 0 and b are equal the swap is a self-loop and the
        # corresponding hop collapses (the path shortens to 2 edges)
        path = [hu, mid1, mid2, hv]
        return [p for i, p in enumerate(path) if i == 0 or p != path[i - 1]]

    return Embedding(guest, host, node_map, edge_router=edge_router)


def hypercube_into_hsn(l: int, n: int, max_nodes: int = 2_000_000) -> Embedding:
    """Dilation-3 embedding of ``Q_{l·n}`` into ``HSN(l, Q_n)``.

    Guest labels are bit tuples (MSB first); bits ``[i·n, (i+1)·n)`` select
    the state of block ``i``.
    """
    nucleus = hypercube_nucleus(n)
    nuc_graph = nucleus.build()
    guest = hypercube(l * n)

    # nucleus node id for a bit tuple: build the pair-encoded label
    def nuc_state(bits: tuple[int, ...]) -> int:
        label = []
        for j, b in enumerate(bits):
            label.extend((2 * j + 1, 2 * j) if b else (2 * j, 2 * j + 1))
        return nuc_graph.node_of(label)

    def coords(lab: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(nuc_state(lab[i * n : (i + 1) * n]) for i in range(l))

    return product_into_hsn(nucleus, l, guest, coords, max_nodes=max_nodes)


def torus_into_hsn(l: int, k: int, max_nodes: int = 2_000_000) -> Embedding:
    """Dilation-3 embedding of the k-ary l-cube into ``HSN(l, C_k)``."""
    nucleus = ring_nucleus(k)
    nuc_graph = nucleus.build()
    guest = torus([k] * l)

    # ring nucleus states are the k rotations of (0..k-1); digit d selects
    # the rotation by d
    rot_index = {}
    for v, lab in enumerate(nuc_graph.labels):
        rot_index[lab[0]] = v  # leading symbol identifies the rotation

    def coords(lab: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(rot_index[d] for d in lab)

    return product_into_hsn(nucleus, l, guest, coords, max_nodes=max_nodes)
