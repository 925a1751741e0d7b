"""Test oracle for the Theorem-4.1/4.3 sorting router.

These are the two scalar routers and the two exact ``t`` / ``t_S``
searches that :mod:`repro.routing.superip` and
:mod:`repro.core.superip` replaced, kept verbatim:

* ``min_supergen_steps`` / ``min_supergen_steps_symmetric`` — one BFS
  over (arrangement, fronted-blocks) states each;
* ``SuperIPRouter`` — the label router: nucleus moves follow a lazy
  per-destination BFS over forward generator applications, blocks are
  symbol tuples;
* ``ExplicitSuperIPRouter`` — the same walk over explicit-nucleus
  labels, nucleus moves read a :class:`~repro.routing.table.NextHopTable`.

The contract, enforced by ``tests/test_routing.py`` and
``tests/test_superip.py``: the production ``t`` / ``t_S`` equal these.
These routers run their whole program; the production router stops at
its first arrival at the destination.  Explicit-router paths equal these
cut there.  The production IP router's :func:`whole_walk` has the same
length and the same super-generator hop positions as these (the
production router breaks nucleus ties by smallest node id, this one by
generator order, so the nucleus hops in between, and hence the first
arrival, may differ).
"""

from __future__ import annotations

from collections import deque

from repro import obs
from repro.core.ipgraph import IPGraph
from repro.core.network import Label, Network
from repro.core.superip import NucleusSpec, SuperGeneratorSet, reachable_arrangements
from repro.metrics.distances import diameter as _diameter
from repro.routing.table import NextHopTable


def whole_walk(router, src: Label, dst: Label) -> list[Label]:
    """The label path of a production router's walker through its whole
    program; its ``route_labels`` is this path cut at the first ``dst``."""
    blocks = router._blocks_of(src, "source")
    target = router._blocks_of(dst, "destination")
    path = [router._label_of(blocks)]
    if blocks != target:
        steps = router._programs[router._program_index(blocks, target)]
        path += [router._label_of(blocks) for _ in router._walk(blocks, target, steps)]
    return path


def min_supergen_steps(sgs: SuperGeneratorSet) -> int:
    """Exact ``t`` of Theorem 4.1: the minimum number of super-generator
    applications after which every block has occupied the leftmost position
    at least once (the initially-leftmost block counts immediately).

    Computed by BFS over (arrangement, visited-set) states; for all the
    paper's families the result is ``l - 1``.
    """
    l = sgs.l
    perms = sgs.perms()
    start_arr = tuple(range(l))
    full = (1 << l) - 1
    start = (start_arr, 1 << start_arr[0])
    if start[1] == full:
        return 0
    dist = {start: 0}
    queue = deque([start])
    while queue:
        arr, vis = queue.popleft()
        d = dist[(arr, vis)]
        for p in perms:
            nxt_arr = p(arr)
            nxt_vis = vis | (1 << nxt_arr[0])
            key = (nxt_arr, nxt_vis)
            if key in dist:
                continue
            if nxt_vis == full:
                return d + 1
            dist[key] = d + 1
            queue.append(key)
    raise ValueError(
        "super-generators cannot bring every block to the front "
        "(not a valid super-IP generator set)"
    )


def min_supergen_steps_symmetric(sgs: SuperGeneratorSet) -> int:
    """Exact ``t_S`` of Theorem 4.3: the worst case over reachable target
    arrangements of the minimum number of super-generator applications that
    (a) bring every block to the front at least once and (b) leave the
    blocks in the target arrangement.
    """
    l = sgs.l
    perms = sgs.perms()
    start_arr = tuple(range(l))
    full = (1 << l) - 1
    start = (start_arr, 1 << start_arr[0])
    dist = {start: 0}
    queue = deque([start])
    done: dict[tuple[int, ...], int] = {}
    if start[1] == full:
        done[start_arr] = 0
    while queue:
        arr, vis = queue.popleft()
        d = dist[(arr, vis)]
        for p in perms:
            nxt_arr = p(arr)
            nxt_vis = vis | (1 << nxt_arr[0])
            key = (nxt_arr, nxt_vis)
            if key in dist:
                continue
            dist[key] = d + 1
            if nxt_vis == full and nxt_arr not in done:
                done[nxt_arr] = d + 1
            queue.append(key)
    targets = reachable_arrangements(sgs)
    missing = targets - set(done)
    if missing:
        raise ValueError(f"arrangements unreachable with all blocks fronted: {missing}")
    return max(done[t] for t in targets)


def _schedule_all_fronted(sgs: SuperGeneratorSet) -> list[int]:
    """Shortest super-generator index sequence bringing every block to the
    front at least once (the ``t`` witness of Theorem 4.1)."""
    l = sgs.l
    perms = sgs.perms()
    start_arr = tuple(range(l))
    full = (1 << l) - 1
    start = (start_arr, 1 << start_arr[0])
    if start[1] == full:
        return []
    parent: dict = {start: (None, -1)}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        arr, vis = state
        for gi, p in enumerate(perms):
            nxt_arr = p(arr)
            nxt_vis = vis | (1 << nxt_arr[0])
            key = (nxt_arr, nxt_vis)
            if key in parent:
                continue
            parent[key] = (state, gi)
            if nxt_vis == full:
                seq: list[int] = []
                cur = key
                while parent[cur][0] is not None:
                    cur, gi2 = parent[cur][0], parent[cur][1]
                    seq.append(gi2)
                seq.reverse()
                return seq
            queue.append(key)
    raise ValueError("super-generators cannot front every block")


def _schedules_by_arrangement(sgs: SuperGeneratorSet) -> dict[tuple, list[int]]:
    """For the symmetric variant: shortest schedule per reachable target
    arrangement that fronts every block AND ends in that arrangement."""
    l = sgs.l
    perms = sgs.perms()
    start_arr = tuple(range(l))
    full = (1 << l) - 1
    start = (start_arr, 1 << start_arr[0])
    parent: dict = {start: (None, -1)}
    queue = deque([start])
    out: dict[tuple, list[int]] = {}

    def extract(key) -> list[int]:
        seq: list[int] = []
        cur = key
        while parent[cur][0] is not None:
            cur, gi = parent[cur][0], parent[cur][1]
            seq.append(gi)
        seq.reverse()
        return seq

    if start[1] == full:
        out[start_arr] = []
    while queue:
        state = queue.popleft()
        arr, vis = state
        for gi, p in enumerate(perms):
            nxt_arr = p(arr)
            nxt_vis = vis | (1 << nxt_arr[0])
            key = (nxt_arr, nxt_vis)
            if key in parent:
                continue
            parent[key] = (state, gi)
            if nxt_vis == full and nxt_arr not in out:
                out[nxt_arr] = extract(key)
            queue.append(key)
    return out


class SuperIPRouter:
    """Label-sorting router for a (symmetric) super-IP graph.

    Parameters must match the graph construction
    (:func:`repro.core.superip.build_super_ip_graph`): same nucleus, same
    super-generator set, same ``symmetric`` flag.

    The router works purely on labels — it never searches the (potentially
    huge) network graph; nucleus-level BFS tables (size ``O(M²)``) are the
    only precomputation.
    """

    def __init__(
        self, nucleus: NucleusSpec, sgs: SuperGeneratorSet, symmetric: bool = False
    ):
        self.nucleus = nucleus
        self.sgs = sgs
        self.symmetric = symmetric
        self.l = sgs.l
        self.m = nucleus.m
        self._nuc_graph = nucleus.build()
        self._nuc_node_of = self._nuc_graph.node_of
        self._nuc_gens = [g.perm for g in self._nuc_graph.generators]
        # next-generator table per destination nucleus node (lazy)
        self._next_gen_cache: dict[int, list[int]] = {}
        if symmetric:
            self._schedules = _schedules_by_arrangement(sgs)
            self.t = min_supergen_steps_symmetric(sgs)
        else:
            self._schedule = _schedule_all_fronted(sgs)
            self.t = min_supergen_steps(sgs)

    # ------------------------------------------------------------------
    # nucleus-level sorting
    # ------------------------------------------------------------------
    def _next_gen_table(self, dst_node: int) -> list[int]:
        """``next_gen[u]`` = nucleus generator moving ``u`` one step closer
        to ``dst_node`` (−1 at the destination itself)."""
        cached = self._next_gen_cache.get(dst_node)
        if cached is not None:
            obs.registry().incr("routing.superip.table_cache_hits")
            return cached
        obs.registry().incr("routing.superip.table_builds")
        g = self._nuc_graph
        n = g.num_nodes
        next_gen = [-1] * n
        dist = [-1] * n
        dist[dst_node] = 0
        q: deque[int] = deque([dst_node])
        # BFS backwards from dst: if gen gi maps u -> v and v is closer,
        # then at u we should apply gi.  Explore arcs from each settled v
        # using inverse generators.
        inv = [p.inverse() for p in self._nuc_gens]
        labels = g.labels
        node_of = g.node_of
        while q:
            v = q.popleft()
            for gi, pinv in enumerate(inv):
                u = node_of(pinv(labels[v]))
                if dist[u] == -1:
                    dist[u] = dist[v] + 1
                    next_gen[u] = gi
                    q.append(u)
        if any(d == -1 for d in dist):
            raise ValueError("nucleus graph is disconnected")
        self._next_gen_cache[dst_node] = next_gen
        return next_gen

    def _sort_front(self, blocks: list[tuple], target_block: tuple) -> list[list[tuple]]:
        """Nucleus-generator applications turning ``blocks[0]`` into
        ``target_block``; returns the successive block states (excluding the
        start)."""
        cur = blocks[0]
        dst_node = self._nuc_node_of(target_block)
        table = self._next_gen_table(dst_node)
        states = []
        while cur != target_block:
            gi = table[self._nuc_node_of(cur)]
            cur = self._nuc_gens[gi](cur)
            states.append([cur] + blocks[1:])
        return states

    # ------------------------------------------------------------------
    # label plumbing
    # ------------------------------------------------------------------
    def split(self, label: Label) -> list[tuple]:
        """Split a full label into its ``l`` blocks."""
        m = self.m
        return [tuple(label[b * m : (b + 1) * m]) for b in range(self.l)]

    @staticmethod
    def join(blocks: list[tuple]) -> Label:
        """Concatenate blocks back into a full label."""
        return tuple(s for b in blocks for s in b)

    def _color(self, block: tuple) -> int:
        """Color of a symmetric-variant block (which ``m``-symbol range)."""
        return min(block) // self.m

    def _normalize(self, block: tuple) -> tuple:
        """Map a colored block onto nucleus symbols (subtract the offset)."""
        c = self._color(block)
        return tuple(s - c * self.m for s in block)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def route_labels(self, src: Label, dst: Label) -> list[Label]:
        """Full node-label path from ``src`` to ``dst`` (inclusive).

        Guaranteed length ≤ ``l·D_G + t`` (non-symmetric) or
        ``l·D_G + t_S`` (symmetric).
        """
        reg = obs.registry()
        src, dst = tuple(src), tuple(dst)
        if src == dst:
            reg.incr("routing.superip.routes")
            reg.observe("routing.superip.hops", 0)
            return [src]
        blocks = self.split(src)
        dst_blocks = self.split(dst)
        if self.symmetric:
            schedule, d_map = self._symmetric_plan(blocks, dst_blocks)
        else:
            schedule = self._schedule
            d_map = self._final_positions(schedule)

        path = [src]
        perms = self.sgs.perms()
        # arrangement: arr[pos] = initial slot currently at pos
        arr = tuple(range(self.l))
        sorted_slots: set[int] = set()

        def sort_front_to(slot: int):
            target = dst_blocks[d_map[slot]]
            if self.symmetric:
                states = self._sort_front_sym(blocks, target)
            else:
                states = self._sort_front(blocks, target)
            for st in states:
                blocks[:] = st
                path.append(self.join(blocks))
            sorted_slots.add(slot)

        sort_front_to(arr[0])
        for gi in schedule:
            p = perms[gi]
            new_blocks = list(p(tuple(blocks)))
            new_arr = p(arr)
            if new_blocks != blocks:
                blocks[:] = new_blocks
                path.append(self.join(blocks))
            else:
                blocks[:] = new_blocks
            arr = new_arr
            slot = arr[0]
            if slot not in sorted_slots:
                sort_front_to(slot)
        if path[-1] != dst:
            raise RuntimeError("sorting router failed to reach destination")
        reg.incr("routing.superip.routes")
        reg.observe("routing.superip.hops", len(path) - 1)
        return path

    def _sort_front_sym(self, blocks: list[tuple], target_block: tuple) -> list[list[tuple]]:
        """Symmetric-variant front sorting: operate on normalized symbols."""
        cur = blocks[0]
        c = self._color(cur)
        if self._color(target_block) != c:
            raise RuntimeError("color mismatch during symmetric routing")
        offset = c * self.m
        cur_n = tuple(s - offset for s in cur)
        tgt_n = tuple(s - offset for s in target_block)
        dst_node = self._nuc_node_of(tgt_n)
        table = self._next_gen_table(dst_node)
        states = []
        while cur_n != tgt_n:
            gi = table[self._nuc_node_of(cur_n)]
            cur_n = self._nuc_gens[gi](cur_n)
            states.append([tuple(s + offset for s in cur_n)] + blocks[1:])
        return states

    def _final_positions(self, schedule: list[int]) -> dict[int, int]:
        """``d_map[slot] = final position`` of the block initially at
        ``slot`` after applying ``schedule``."""
        perms = self.sgs.perms()
        arr = tuple(range(self.l))
        for gi in schedule:
            arr = perms[gi](arr)
        return {slot: pos for pos, slot in enumerate(arr)}

    def _symmetric_plan(self, blocks: list[tuple], dst_blocks: list[tuple]):
        """Pick the schedule realizing the arrangement the destination's
        colors demand, and the matching ``d_map``."""
        src_colors = [self._color(b) for b in blocks]
        dst_pos_of_color = {self._color(b): i for i, b in enumerate(dst_blocks)}
        # required: slot i must end at dst position of its color
        required_d = {i: dst_pos_of_color[c] for i, c in enumerate(src_colors)}
        # as an arrangement: arr[pos] = slot  =>  arr[required_d[i]] = i
        arr = [0] * self.l
        for slot, pos in required_d.items():
            arr[pos] = slot
        key = tuple(arr)
        schedule = self._schedules.get(key)
        if schedule is None:
            raise ValueError("destination arrangement unreachable (invalid label?)")
        return schedule, required_d

    def route_nodes(self, graph: IPGraph, src: int, dst: int) -> list[int]:
        """Route between node ids of a built graph; returns node-id path."""
        labels = self.route_labels(graph.labels[src], graph.labels[dst])
        return [graph.node_of(lab) for lab in labels]

    def next_hop_function(self, graph: IPGraph):
        """A ``(u, dst) -> v`` callable for the packet simulator that follows
        this router's (distributed, table-free) paths instead of global
        shortest paths.

        Hops are memoized per ``(node, dst)`` taking each node's successor
        at its *last* occurrence on the computed route.  That makes the
        per-destination hop map loop-free: within one route the last-
        occurrence rule strictly advances along the path, and a later
        route's fresh nodes can never be re-entered by chains cached
        earlier (they were unknown then), so every chain terminates at
        ``dst``.
        """
        cache: dict[tuple[int, int], int] = {}

        def next_hop(u: int, dst: int) -> int:
            if u == dst:
                return dst
            key = (u, dst)
            hop = cache.get(key)
            if hop is None:
                path = self.route_nodes(graph, u, dst)
                # reversed + setdefault == keep the last-occurrence hop
                for a, b in reversed(list(zip(path, path[1:]))):
                    cache.setdefault((a, dst), b)
                hop = cache[key]
            return hop

        return next_hop

    def max_route_length(self) -> int:
        """The Theorem 4.1/4.3 bound ``l·D_G + t``."""
        return self.l * self.nucleus.diameter() + self.t


class ExplicitSuperIPRouter:
    """Sorting router for :func:`explicit_super_graph` outputs.

    Parameters
    ----------
    nucleus:
        The explicit nucleus network used to build the graph.
    sgs:
        The same super-generator set.
    """

    def __init__(self, nucleus: Network, sgs: SuperGeneratorSet):
        self.nucleus = nucleus
        self.sgs = sgs
        self.l = sgs.l
        self._table = NextHopTable(nucleus)
        self._schedule = _schedule_all_fronted(sgs)
        self.t = min_supergen_steps(sgs)
        self._nucleus_diameter = _diameter(nucleus)

    def max_route_length(self) -> int:
        """Theorem 4.1 bound ``l·D_G + t``."""
        return self.l * self._nucleus_diameter + self.t

    def route_labels(self, src: tuple, dst: tuple) -> list[tuple]:
        """Label path (tuples of nucleus states) from ``src`` to ``dst``."""
        src, dst = tuple(src), tuple(dst)
        if src == dst:
            return [src]
        blocks = list(src)
        dst_blocks = list(dst)
        perms = self.sgs.perms()
        # final position of slot i after the schedule
        arr = tuple(range(self.l))
        for gi in self._schedule:
            arr = perms[gi](arr)
        d_map = {slot: pos for pos, slot in enumerate(arr)}

        path = [src]
        arr = tuple(range(self.l))
        sorted_slots: set[int] = set()

        def sort_front(slot: int):
            target = dst_blocks[d_map[slot]]
            cur = blocks[0]
            while cur != target:
                cur = self._table.next_hop(cur, target)
                blocks[0] = cur
                path.append(tuple(blocks))
            sorted_slots.add(slot)

        sort_front(arr[0])
        for gi in self._schedule:
            p = perms[gi]
            new_blocks = list(p(tuple(blocks)))
            new_arr = p(arr)
            if new_blocks != blocks:
                blocks[:] = new_blocks
                path.append(tuple(blocks))
            else:
                blocks[:] = new_blocks
            arr = new_arr
            slot = arr[0]
            if slot not in sorted_slots:
                sort_front(slot)
        if path[-1] != dst:
            raise RuntimeError("explicit sorting router failed")
        return path

    def route_nodes(self, graph: IPGraph, src: int, dst: int) -> list[int]:
        """Node-id path on a graph built by ``explicit_super_graph``."""
        labels = self.route_labels(graph.labels[src], graph.labels[dst])
        return [graph.node_of(lab) for lab in labels]
