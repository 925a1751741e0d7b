"""Test oracle for the explicit super-graph builder.

This is the per-node tuple-state BFS that
:func:`repro.networks.hier.explicit_super_graph` ran before it moved onto
the digit-code closure :func:`repro.core.superip._super_closure`: one
Python dict probe and one tuple build per arc, nodes numbered in
discovery order, nucleus neighbor slots before super-generators.  It is
kept verbatim in behaviour so the engine can be compared bit for bit
(labels, arc list, generator records).  Its labels hold the ``numpy``
integers ``Network.neighbors`` returns; they compare and hash equal to
the engine's plain ``int``.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.core.ipgraph import IPGraph, Generator, NUCLEUS, SUPER
from repro.core.network import Network
from repro.core.permutation import block_permutation, identity
from repro.core.superip import SuperGeneratorSet


def oracle_explicit_super_graph(
    nucleus: Network,
    sgs: SuperGeneratorSet,
    symmetric: bool = False,
    name: str | None = None,
    max_nodes: int = 2_000_000,
) -> IPGraph:
    """Build a (symmetric) super-graph over an explicit nucleus network.

    Returns an :class:`~repro.core.ipgraph.IPGraph` whose labels are tuples
    of nucleus node ids (non-symmetric) or of ``(color, state)`` pairs
    (symmetric), and whose arc attribution distinguishes nucleus from
    super-generator moves — so all inter-cluster metrics work unchanged.

    The graph is produced by BFS closure from the canonical seed, exactly
    mirroring the IP-graph definition.
    """
    l = sgs.l
    if symmetric:
        seed = tuple((b, 0) for b in range(l))
    else:
        seed = tuple(0 for _ in range(l))

    nuc_neighbors = [nucleus.neighbors(v) for v in range(nucleus.num_nodes)]
    block_perms = sgs.perms()

    labels = [seed]
    index = {seed: 0}
    srcs: list[int] = []
    dsts: list[int] = []
    gids: list[int] = []
    # generator ids: 0..max_nuc-1 are synthetic per-neighbor-slot nucleus
    # moves; we use a single id space where nucleus arcs get gen id equal to
    # the neighbor slot and super arcs follow after the largest slot count.
    max_slots = max((len(nb) for nb in nuc_neighbors), default=0)
    queue: deque[int] = deque([0])
    while queue:
        u = queue.popleft()
        lab = labels[u]
        front = lab[0][1] if symmetric else lab[0]
        # nucleus moves on block 0
        for slot, w in enumerate(nuc_neighbors[front]):
            if symmetric:
                nxt = ((lab[0][0], w),) + lab[1:]
            else:
                nxt = (w,) + lab[1:]
            v = index.get(nxt)
            if v is None:
                v = len(labels)
                if v >= max_nodes:
                    raise ValueError(f"super graph exceeds max_nodes={max_nodes}")
                index[nxt] = v
                labels.append(nxt)
                queue.append(v)
            srcs.append(u)
            dsts.append(v)
            gids.append(slot)
        # super-generator moves permute blocks
        for si, p in enumerate(block_perms):
            nxt = p(lab)
            v = index.get(nxt)
            if v is None:
                v = len(labels)
                if v >= max_nodes:
                    raise ValueError(f"super graph exceeds max_nodes={max_nodes}")
                index[nxt] = v
                labels.append(nxt)
                queue.append(v)
            srcs.append(u)
            dsts.append(v)
            gids.append(max_slots + si)

    # synthesize Generator records so edge_kinds() and nucleus_modules()
    # work; nucleus "slot" generators have no global permutation semantics
    # (the move depends on the current state), so they carry the identity
    # permutation as a placeholder.
    gens = [
        Generator(identity(l), name=f"nslot{i}", kind=NUCLEUS) for i in range(max_slots)
    ]
    gens += [
        Generator(block_permutation(p.img, 1), name=gname, kind=SUPER)
        for gname, p in sgs.block_perms
    ]
    edges = np.column_stack(
        [
            np.asarray(srcs, dtype=np.int64),
            np.asarray(dsts, dtype=np.int64),
            np.asarray(gids, dtype=np.int64),
        ]
    )
    if name is None:
        prefix = "sym-" if symmetric else ""
        name = f"{prefix}{sgs.name}(l={l},{nucleus.name})*"
    return IPGraph(labels, gens, edges, name=name, seed=seed)
