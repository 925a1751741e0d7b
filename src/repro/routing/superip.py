"""The Theorem 4.1 / 4.3 routing algorithm for (symmetric) super-IP graphs.

Routing in an IP graph is sorting the source label into the destination
label with generator applications.  The paper's algorithm (proof of
Theorem 4.1):

1. choose a ``t``-step super-generator schedule that brings every block to
   the leftmost position at least once;
2. compute ``d_i``, the final position of the block initially at position
   ``i`` under that schedule;
3. sort the current leftmost block to the destination's ``d_i``-th block
   with nucleus generators whenever block ``i`` first reaches the front.

The route length is at most ``l·D_G + t`` (``l·D_G + t_S`` for symmetric
variants, where the schedule must additionally realize the arrangement the
destination's block colors demand) — which Theorem 4.1 shows is exactly the
diameter, so this simple router is worst-case optimal.

One walker serves every super graph.  A block is an integer
``color·M + nucleus node id`` (``M`` nucleus nodes; the color is 0 except
in symmetric variants), schedules come from
:func:`repro.core.superip.fronting_schedules` and nucleus moves read one
``M × M`` :class:`~repro.routing.table.NextHopTable` of the nucleus.
:class:`SuperIPRouter` encodes IP labels (``l`` blocks of ``m`` symbols);
:class:`ExplicitSuperIPRouter` encodes the labels of
:func:`repro.networks.hier.explicit_super_graph` (``l`` nucleus node ids).
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro import obs
from repro.core.ipgraph import IPGraph
from repro.core.network import Label, Network
from repro.core.permutation import Permutation
from repro.core.superip import (
    NucleusSpec,
    SuperGeneratorSet,
    _block_keys,
    fronting_schedules,
    min_supergen_steps,
    min_supergen_steps_symmetric,
    reachable_arrangements,
)
from repro.metrics.distances import diameter
from repro.routing.table import shared_table

__all__ = ["ExplicitSuperIPRouter", "SuperIPBackend", "SuperIPRouter", "verify_route"]

#: one walker step: the block gather of a super-generator (``None`` before
#: the first one) and the destination position the new front block sorts
#: to (``-1`` when that block was fronted before)
_Step = tuple[tuple[int, ...] | None, int]


def _program(perms: list[Permutation], schedule: list[int], final: tuple) -> list[_Step]:
    """The walk ``schedule`` prescribes when it ends in arrangement ``final``."""
    dst_pos = {slot: pos for pos, slot in enumerate(final)}
    arr = tuple(range(len(final)))
    steps: list[_Step] = [(None, dst_pos[0])]
    fronted = {0}
    for gi in schedule:
        arr = perms[gi](arr)
        front = arr[0]
        steps.append((perms[gi].img, -1 if front in fronted else dst_pos[front]))
        fronted.add(front)
    return steps


class SuperIPRouter:
    """Label-sorting router for a (symmetric) super-IP graph.

    Parameters must match the graph construction
    (:func:`repro.core.superip.build_super_ip_graph`): same nucleus, same
    super-generator set, same ``symmetric`` flag.

    The router works purely on labels — it never searches the (potentially
    huge) network graph; the nucleus next-hop table (size ``O(M²)``) is
    the only precomputation.  :meth:`backend` binds it to a built graph
    for the packet simulator.
    """

    #: ``(index, generator)`` of the first nucleus generator whose inverse
    #: is not a generator: its arcs are one-way in a directed super graph
    _one_way: tuple[int, Permutation] | None = None

    def __init__(
        self, nucleus: NucleusSpec, sgs: SuperGeneratorSet, symmetric: bool = False
    ):
        self.nucleus = nucleus
        nuc_graph = nucleus.build()
        keys = _block_keys(nucleus, nuc_graph, sgs.l, symmetric)
        perms = nucleus.perms
        self._one_way = next(
            ((i, p) for i, p in enumerate(perms) if p.inverse() not in perms), None
        )
        self._setup(nuc_graph, sgs, symmetric, keys, nucleus.m)

    def _setup(
        self,
        nuc_graph: Network,
        sgs: SuperGeneratorSet,
        symmetric: bool,
        keys: list[tuple],
        m: int,
    ) -> None:
        """Shared construction: ``keys[b]`` is the ``m`` label symbols of
        block ``b``, and ``b = color·M + nucleus node id``."""
        self.sgs = sgs
        self.symmetric = symmetric
        self.l = sgs.l
        self.m = m
        self._keys = keys
        self._encode = {key: b for b, key in enumerate(keys)}
        self._nodes = nuc_graph.num_nodes
        self._hops = shared_table(nuc_graph).table.tolist()
        self._nucleus_diameter = diameter(nuc_graph)
        perms = sgs.perms()
        # one program per final arrangement a route may need; a symmetric
        # route picks it by the destination's block colors
        self._program_of: dict[tuple, int] | None = None
        if symmetric:
            self.t = min_supergen_steps_symmetric(sgs)
            self._arrangements = reachable_arrangements(sgs)
            self._programs = []
            self._program_of = {}
            for arr, seq in fronting_schedules(sgs):
                self._program_of[arr] = len(self._programs)
                self._programs.append(_program(perms, seq, arr))
        else:
            self.t = min_supergen_steps(sgs)
            arr, seq = next(fronting_schedules(sgs))
            self._programs = [_program(perms, seq, arr)]

    # ------------------------------------------------------------------
    # label plumbing
    # ------------------------------------------------------------------
    def _blocks_of(self, label: Label, role: str) -> list[int]:
        """Block ids of a node label; ``ValueError`` naming what is wrong
        when ``label`` is not a node of the graph this router serves."""
        label = tuple(label)
        l, m = self.l, self.m
        if len(label) != l * m:
            raise ValueError(
                f"{role} label {label!r} has {len(label)} symbols, "
                f"expected {l * m} ({l} blocks of {m})"
            )
        encode = self._encode.get
        blocks = [encode(label[i : i + m]) for i in range(0, l * m, m)]
        if None in blocks:
            i, keys = blocks.index(None), self._keys
            raise ValueError(
                f"{role} label {label!r} is not a node: block {i} "
                f"{label[i * m : (i + 1) * m]!r} is not one of the "
                f"{len(keys)} valid blocks {keys[0]!r} .. {keys[-1]!r}"
            )
        if self.symmetric:
            colors = tuple(b // self._nodes for b in blocks)
            if colors not in self._arrangements:
                raise ValueError(
                    f"{role} label {label!r} is not a node: its block colors "
                    f"{colors} are not one of the {len(self._arrangements)} "
                    f"arrangements the super-generators reach"
                )
        return blocks

    def _label_of(self, blocks: list[int]) -> Label:
        return sum(map(self._keys.__getitem__, blocks), ())

    def _check_orientation(self, graph: Network) -> None:
        """``ValueError`` when ``graph`` is directed and a nucleus generator
        has no inverse: sorting a block could then take a reverse arc."""
        if graph.directed and self._one_way is not None:
            i, gen = self._one_way
            raise ValueError(
                f"cannot route on directed {graph.name!r}: nucleus generator "
                f"{i} {gen!r} of {self.nucleus.name!r} has no inverse among "
                f"the nucleus generators, so sorting a block may need a "
                f"reverse arc (one-way nuclei are not supported)"
            )

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _program_index(self, blocks: list[int], target: list[int]) -> int:
        """The program of a route from ``blocks`` to ``target``: in a
        symmetric graph, slot i must end where the destination holds its
        color."""
        if self._program_of is None:
            return 0
        nodes = self._nodes
        slot_of = {b // nodes: i for i, b in enumerate(blocks)}
        return self._program_of[tuple(slot_of[b // nodes] for b in target)]

    def _walk(
        self,
        blocks: list[int],
        target: list[int],
        steps: list[_Step],
        k: int = 0,
        gathered: bool = False,
    ) -> Iterator[int]:
        """The one block walker: run ``steps`` toward ``target`` from step
        ``k`` (whose gather is already done when ``gathered``), rewriting
        ``blocks`` in place, and yield the step index after each hop."""
        nodes, hops = self._nodes, self._hops
        for k in range(k, len(steps)):
            gather, pos = steps[k]
            if gather is not None and not gathered:
                moved = [blocks[i] for i in gather]
                if moved != blocks:
                    blocks[:] = moved
                    yield k
            gathered = False
            if pos >= 0:
                base = blocks[0] - blocks[0] % nodes
                u, t = blocks[0] - base, target[pos] - base
                row = hops[t]
                while u != t:
                    u = row[u]
                    blocks[0] = base + u
                    yield k

    def route_labels(self, src: Label, dst: Label) -> list[Label]:
        """Full node-label path from ``src`` to ``dst`` (inclusive).

        The walk stops at its first arrival at ``dst``, which may come
        before the end of its program.  Guaranteed length ≤ ``l·D_G + t``
        (non-symmetric) or ``l·D_G + t_S`` (symmetric).  Raises
        ``ValueError`` when either label is not a node.
        """
        blocks = self._blocks_of(src, "source")
        target = self._blocks_of(dst, "destination")
        join = self._label_of
        path = [join(blocks)]
        if blocks != target:
            steps = self._programs[self._program_index(blocks, target)]
            for _ in self._walk(blocks, target, steps):
                path.append(join(blocks))
                if blocks == target:
                    break
            else:
                raise RuntimeError("sorting router failed to reach destination")
        reg = obs.registry()
        reg.incr("routing.superip.routes")
        reg.observe("routing.superip.hops", len(path) - 1)
        return path

    def route_nodes(self, graph: IPGraph, src: int, dst: int) -> list[int]:
        """Route between node ids of a built graph; returns node-id path.

        Raises ``ValueError`` naming an id outside ``0..N-1``, or the
        nucleus generator without an inverse when ``graph`` is directed
        over a one-way nucleus.
        """
        self._check_orientation(graph)
        labels = self.route_labels(graph.label_of(src), graph.label_of(dst))
        return [graph.node_of(lab) for lab in labels]

    def backend(self, graph: IPGraph) -> "SuperIPBackend":
        """This router bound to ``graph`` as a
        :class:`~repro.routing.table.RoutingBackend`: under
        ``PacketSimulator(graph, routing=router.backend(graph))`` every
        packet follows :meth:`route_nodes` hop for hop.  Raises like
        :meth:`route_nodes` on a directed graph over a one-way nucleus,
        and names the first label that is not a node of this router."""
        return SuperIPBackend(self, graph)

    def max_route_length(self) -> int:
        """The Theorem 4.1/4.3 bound ``l·D_G + t``."""
        return self.l * self._nucleus_diameter + self.t


class ExplicitSuperIPRouter(SuperIPRouter):
    """Sorting router for :func:`~repro.networks.hier.explicit_super_graph`
    outputs (e.g. cyclic Petersen networks, whose nucleus is not a Cayley
    graph): labels are tuples of ``l`` nucleus node ids, one per block.

    Parameters
    ----------
    nucleus:
        The explicit nucleus network used to build the graph.
    sgs:
        The same super-generator set.
    """

    def __init__(self, nucleus: Network, sgs: SuperGeneratorSet):
        self.nucleus = nucleus
        keys = [(v,) for v in range(nucleus.num_nodes)]
        self._setup(nucleus, sgs, False, keys, 1)

    def _label_of(self, blocks: list[int]) -> Label:
        # block b's key is (b,), so the label is the block tuple itself
        return tuple(blocks)


class SuperIPBackend:
    """A :class:`SuperIPRouter` bound to one built graph: the
    :class:`~repro.routing.table.RoutingBackend` of its routes.

    A packet's state is 0 before its first hop and ``1 + p·S + k`` after
    a hop of step ``k`` of program ``p`` (``S`` steps in the longest
    program), so each :meth:`step` resumes the walker where the packet's
    last hop left it.  A packet therefore follows
    :meth:`SuperIPRouter.route_nodes` hop for hop, in any event order,
    and restarts its program when retransmitted (state 0 again).
    """

    def __init__(self, router: SuperIPRouter, graph: IPGraph):
        router._check_orientation(graph)
        self.router = router
        self.graph = graph
        self._blocks = [tuple(router._blocks_of(lab, "node")) for lab in graph.labels]
        self._span = max(map(len, router._programs))

    def step(
        self, nodes: np.ndarray, dsts: np.ndarray, state: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Next node and state of each packet (one walker hop each)."""
        router, blocks_of, span = self.router, self._blocks, self._span
        node_of, join, walk = self.graph.node_of, router._label_of, router._walk
        nxt = np.empty(len(nodes), dtype=np.int64)
        new = np.empty(len(nodes), dtype=np.int64)
        for i, (u, d, s) in enumerate(zip(nodes.tolist(), dsts.tolist(), state.tolist())):
            blocks, target = list(blocks_of[u]), blocks_of[d]
            if s:
                p, k = divmod(s - 1, span)
            else:
                p, k = router._program_index(blocks, target), 0
            k = next(walk(blocks, target, router._programs[p], k, s != 0), None)
            if k is None:
                raise RuntimeError(
                    f"sorting router ran past its program at node {u} "
                    f"toward node {d} (state {s})"
                )
            nxt[i] = node_of(join(blocks))
            new[i] = 1 + p * span + k
        return nxt, new


def verify_route(graph: IPGraph, path: list[int]) -> bool:
    """Check that consecutive path nodes are adjacent in the simple graph."""
    csr = graph.adjacency_csr()
    for u, v in zip(path, path[1:]):
        row = csr.indices[csr.indptr[u] : csr.indptr[u + 1]]
        if v not in row:
            return False
    return True
