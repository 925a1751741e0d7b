"""Explicit construction of (symmetric) super-graphs over any nucleus.

:func:`explicit_super_graph` builds the graphs of
:func:`repro.core.superip.build_super_ip_graph` from an explicit nucleus
:class:`~repro.core.network.Network`, on the same digit-code closure: a
node is a tuple of nucleus states, one per block position (block 0
leftmost); nucleus edges change the block-0 state to a nucleus neighbor,
super-generator edges permute the blocks.  This serves nuclei with no
convenient IP representation (e.g. the Petersen graph, vertex-transitive
but not a Cayley graph, in the paper's cyclic Petersen networks).  The
symmetric variant (Section 3.5) carries a *color* per block, so the node
count becomes ``|A| · M^l``, with ``A`` the arrangement group.
"""

from __future__ import annotations

import numpy as np

from repro.core.ipgraph import IPGraph, Generator, NUCLEUS, SUPER
from repro.core.network import Network
from repro.core.permutation import block_permutation, identity
from repro.core.superip import SuperGeneratorSet, _super_closure

__all__ = ["explicit_super_graph"]


def explicit_super_graph(
    nucleus: Network,
    sgs: SuperGeneratorSet,
    symmetric: bool = False,
    name: str | None = None,
    max_nodes: int = 2_000_000,
) -> IPGraph:
    """Build a (symmetric) super-graph over an explicit nucleus network.

    Labels are tuples of nucleus node ids (non-symmetric) or of ``(color,
    state)`` pairs (symmetric), all plain ``int``; arcs are attributed to
    nucleus and super-generator moves, so all inter-cluster metrics work
    unchanged.  The closure starts at every block in state 0; nucleus
    generator ``k`` moves the front state to its ``k``-th sorted neighbor,
    if it has one.  Raises ``ValueError`` when ``|A|·M^l`` exceeds
    ``max_nodes``.  The tuple-state BFS this replaced is the test oracle
    ``tests/hier_oracle.py``.
    """
    l = sgs.l
    if name is None:
        prefix = "sym-" if symmetric else ""
        name = f"{prefix}{sgs.name}(l={l},{nucleus.name})*"
    nbrs = [nucleus.neighbors(v) for v in range(nucleus.num_nodes)]
    max_slots = max(map(len, nbrs), default=0)
    # neighbor slot table, -1 past each state's degree
    succ = np.array([nb + [-1] * (max_slots - len(nb)) for nb in nbrs], dtype=np.int64)
    states = range(nucleus.num_nodes)
    keys = [((c, v),) for c in range(l) for v in states] if symmetric else [(v,) for v in states]
    labels, edges = _super_closure(succ, keys, sgs.perms(), symmetric, max_nodes, name)

    # nucleus "slot" moves depend on the front state, so they have no
    # global permutation: the identity stands in for one
    gens = [
        Generator(identity(l), name=f"nslot{i}", kind=NUCLEUS) for i in range(max_slots)
    ]
    gens += [
        Generator(block_permutation(p.img, 1), name=gname, kind=SUPER)
        for gname, p in sgs.block_perms
    ]
    return IPGraph(labels, gens, edges, name=name)  # seed: node 0, every block in state 0
