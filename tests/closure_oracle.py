"""Test oracle for the batched IP-graph closure.

This is the per-label BFS closure that :func:`repro.core.ipgraph.build_ip_graph`
replaced: one Python dict probe and one tuple permutation per
``(node, generator)`` arc, nodes numbered in discovery order, generators
applied in index order.  It is kept verbatim in behaviour so the batched
engine can be compared bit for bit (labels, arc list, generator ids).
The replaced engine's ``repro.obs`` counters are not carried over.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence

import numpy as np

from repro.core.ipgraph import Generator, IPGraph
from repro.core.network import Label
from repro.core.permutation import Permutation


def oracle_build_ip_graph(
    seed: Sequence,
    generators: Iterable[Generator | Permutation],
    name: str = "ip-graph",
    max_nodes: int = 2_000_000,
    directed: bool = False,
) -> IPGraph:
    """Label-by-label BFS closure of ``(seed, generators)``."""
    gens: list[Generator] = []
    for g in generators:
        if isinstance(g, Permutation):
            g = Generator(g)
        gens.append(g)
    if not gens:
        raise ValueError("at least one generator is required")
    k = gens[0].perm.size
    seed_t = tuple(seed)
    if len(seed_t) != k:
        raise ValueError(f"seed length {len(seed_t)} != generator size {k}")
    for g in gens:
        if g.perm.size != k:
            raise ValueError("all generators must act on the same number of positions")

    labels: list[Label] = [seed_t]
    index: dict[Label, int] = {seed_t: 0}
    srcs: list[int] = []
    dsts: list[int] = []
    gids: list[int] = []
    queue: deque[int] = deque([0])
    while queue:
        u = queue.popleft()
        lab = labels[u]
        for gi, g in enumerate(gens):
            nxt = g.perm(lab)
            v = index.get(nxt)
            if v is None:
                v = len(labels)
                if v >= max_nodes:
                    raise ValueError(
                        f"IP graph exceeds max_nodes={max_nodes}; "
                        "raise the bound explicitly if intended"
                    )
                index[nxt] = v
                labels.append(nxt)
                queue.append(v)
            srcs.append(u)
            dsts.append(v)
            gids.append(gi)
    edges = np.column_stack(
        [
            np.asarray(srcs, dtype=np.int64),
            np.asarray(dsts, dtype=np.int64),
            np.asarray(gids, dtype=np.int64),
        ]
    )
    return IPGraph(labels, gens, edges, name=name, seed=seed_t, directed=directed)
