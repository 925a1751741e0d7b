"""Disjoint-path routing: path diversity behind the fault-tolerance claims.

Cayley-graph networks like the star graph owe their fault tolerance to
having ``degree`` node-disjoint paths between every pair (Akers et al.;
Fragopoulou & Akl build edge-disjoint spanning trees on the star graph for
exactly this reason — reference [14] of the paper).  This module extracts
maximum sets of node-/edge-disjoint paths between node pairs, so those
claims can be checked on every family in the library.

Node-disjoint paths come from :class:`NodeDisjointPaths`, an array-native
unit-capacity max-flow kernel on the node-split auxiliary network.  It
replays networkx's ``node_disjoint_paths`` (Edmonds–Karp flow, then the
saturated-arc path walk) step for step and in the same neighbor order,
so it returns exactly networkx's path list; ``tests/disjoint_oracle.py``
keeps the networkx version as the test oracle.  A fault epoch is a
capacity mask on the intact structure (:meth:`NodeDisjointPaths.mask`),
so the structure is built once per network, not once per survivor graph.

The exported functions take undirected networks only: on a directed one
they would count and return paths that run against arcs, so they raise
:class:`ValueError` naming it (the kernel itself symmetrizes, as the
resilient router's survivor detours need).
"""

from __future__ import annotations

import numpy as np

from repro.core.network import Network

__all__ = [
    "edge_disjoint_paths",
    "node_disjoint_paths",
    "path_diversity",
]


def _require_undirected(net: Network, func: str) -> None:
    if net.directed:
        raise ValueError(
            f"{func}: {net.name!r} is directed, but disjoint paths are "
            f"paths of the undirected graph"
        )


def edge_disjoint_paths(net: Network, s: int, t: int) -> list[list[int]]:
    """A maximum set of pairwise edge-disjoint s-t paths (max-flow based).
    Raises :class:`ValueError` on a directed network."""
    import networkx as nx

    _require_undirected(net, "edge_disjoint_paths")
    if s == t:
        raise ValueError("s and t must differ")
    return [list(p) for p in nx.edge_disjoint_paths(net.to_networkx(), s, t)]


def node_disjoint_paths(net: Network, s: int, t: int) -> list[list[int]]:
    """A maximum set of internally node-disjoint s-t paths (``[]`` when
    ``s`` and ``t`` are disconnected).  Raises :class:`ValueError` on a
    directed network."""
    _require_undirected(net, "node_disjoint_paths")
    return NodeDisjointPaths(net)(s, t)


class SurvivorMask:
    """Per-fault-epoch capacities of a :class:`NodeDisjointPaths` network:
    the survivor graph as a mask over the intact one (see
    :meth:`NodeDisjointPaths.mask`)."""

    __slots__ = ("cap", "degree")

    def __init__(self, cap: list[int], degree: list[int]):
        #: capacity (0 or 1) of every residual arc
        self.cap = cap
        #: survivor degree of every node
        self.degree = degree


class NodeDisjointPaths:
    """Node-disjoint path queries on one graph and any survivor subgraph.

    The flow network is networkx's: node ``i`` splits into ``iA -> iB``
    (aux ids ``2i``, ``2i + 1``), each edge ``{u, v}`` becomes the arcs
    ``uB -> vA`` and ``vB -> uA``, and every arc is paired with a
    zero-capacity reverse arc.  It is stored as one CSR over aux nodes
    (``head``/``rev`` per arc).  A node's residual successors and
    predecessors come in the same order in networkx (an arc and its
    reverse are inserted together), so one list serves both BFS sides;
    the arcs of each node are laid out in the order networkx's
    ``build_auxiliary_node_connectivity`` + ``build_residual_network``
    give them, and arc ids follow ``R.edges()``:

    * ``iA``: ``xB`` for ``x`` in ``sorted(N(i) | {i})``;
    * ``iB``: ``iA``, then ``vA`` for the lower neighbors ``v < i``
      ascending, then the higher ones in the graph's adjacency order —
      the order in which the networkx graph first saw each edge.

    ``net`` gives that adjacency order through its arc list, as
    ``net.to_networkx()`` does; :meth:`from_arcs` takes an arc list
    directly.  A survivor graph keeps the edge insertion order of its
    intact graph minus the dead edges, so masking dead edges to capacity
    0 reproduces networkx on the survivor graph exactly.
    """

    def __init__(self, net: Network):
        self._build(net.num_nodes, net.edges_src, net.edges_dst, net.directed)

    @classmethod
    def from_arcs(
        cls, n: int, src, dst, directed: bool = False
    ) -> "NodeDisjointPaths":
        """Kernel for the graph networkx builds from the arc list
        ``(src, dst)`` on nodes ``0..n-1`` (symmetrized when ``directed``)."""
        self = cls.__new__(cls)
        self._build(n, src, dst, directed)
        return self

    def _build(self, n: int, src, dst, directed: bool) -> None:
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        keep = src != dst
        src, dst = src[keep], dst[keep]
        m = len(src)
        # position of each arc in the undirected networkx graph's edge
        # insertion sequence: raw order, or (tail, raw order) for a
        # digraph, whose to_undirected() walks the successor dicts
        occ = np.arange(m, dtype=np.int64)
        if directed:
            occ += src * m
        lo, hi = np.minimum(src, dst), np.maximum(src, dst)
        code = lo * n + hi
        order = np.lexsort((occ, code))
        first = np.ones(m, dtype=bool)
        first[1:] = code[order[1:]] != code[order[:-1]]
        pick = order[first]  # each edge once, sorted by (lo, hi)
        lo, hi, key, code = lo[pick], hi[pick], occ[pick], code[pick]
        p = len(lo)

        # the 2p directed entries x -> y; entry e < p is edge e's lo -> hi
        x = np.concatenate([lo, hi])
        y = np.concatenate([hi, lo])
        deg = np.bincount(x, minlength=n)
        start = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(deg, out=start[1:])
        blk = np.repeat(deg + 1, 2)  # |iA block| = |iB block| = deg + 1
        ptr = np.zeros(2 * n + 1, dtype=np.int64)
        np.cumsum(blk, out=ptr[1:])
        arcs = int(ptr[-1])

        # iB block: lower neighbors ascending, then higher ones by key
        upper = y > x
        ob = np.lexsort((np.where(upper, np.concatenate([key, key]), y), upper, x))
        rank_b = np.empty(2 * p, dtype=np.int64)
        rank_b[ob] = np.arange(2 * p) - start[x[ob]]
        b_arc = ptr[2 * x + 1] + 1 + rank_b  # xB -> yA
        # iA block: sorted(N(i) | {i}); i's own slot follows its lower nbrs
        oa = np.lexsort((x, y))
        rank_a = np.empty(2 * p, dtype=np.int64)
        rank_a[oa] = np.arange(2 * p) - start[y[oa]]
        a_arc = ptr[2 * y] + rank_a + (x > y)  # yA -> xB, reverse of b_arc
        nodes = np.arange(n, dtype=np.int64)
        self_a = ptr[2 * nodes] + np.bincount(y[x < y], minlength=n)  # iA -> iB
        self_b = ptr[2 * nodes + 1]  # iB -> iA

        head = np.empty(arcs, dtype=np.int64)
        rev = np.empty(arcs, dtype=np.int64)
        head[b_arc], head[a_arc] = 2 * y, 2 * x + 1
        head[self_a], head[self_b] = 2 * nodes + 1, 2 * nodes
        rev[b_arc], rev[a_arc] = a_arc, b_arc
        rev[self_a], rev[self_b] = self_b, self_a
        cap = np.zeros(arcs, dtype=np.int64)
        cap[self_a] = 1

        self.num_nodes = n
        self._lo, self._hi = lo, hi
        self._code = code
        self._edge_arcs = b_arc  # lo -> hi arcs, then hi -> lo
        self._base_cap = cap
        self._ptr = ptr.tolist()
        self._head = head.tolist()
        self._rev = rev.tolist()
        self._flow = [0] * arcs  # all zero between queries
        self._intact = self.mask()

    def mask(self, dead_nodes=(), dead_links=()) -> SurvivorMask:
        """Capacities of the survivor graph: every edge at a dead node or
        in ``dead_links`` (unordered pairs) gets capacity 0."""
        n = self.num_nodes
        alive = np.ones(len(self._lo), dtype=bool)
        dead_nodes = list(dead_nodes)
        if dead_nodes:
            down = np.zeros(n, dtype=bool)
            down[dead_nodes] = True
            alive &= ~(down[self._lo] | down[self._hi])
        dead_links = list(dead_links)
        if dead_links:
            pairs = np.asarray(dead_links, dtype=np.int64).reshape(-1, 2)
            codes = pairs.min(axis=1) * n + pairs.max(axis=1)
            alive &= ~np.isin(self._code, codes)
        cap = self._base_cap.copy()
        cap[self._edge_arcs] = np.tile(alive, 2)
        degree = np.bincount(self._lo[alive], minlength=n) + np.bincount(
            self._hi[alive], minlength=n
        )
        return SurvivorMask(cap.tolist(), degree.tolist())

    def __call__(
        self, s: int, t: int, mask: SurvivorMask | None = None
    ) -> list[list[int]]:
        """A maximum set of internally node-disjoint s-t paths on the
        survivor graph ``mask`` (the intact graph by default): exactly
        networkx's ``node_disjoint_paths`` list, ``[]`` where networkx
        raises ``NetworkXNoPath``."""
        n = self.num_nodes
        for name, v in (("s", s), ("t", t)):
            if not 0 <= v < n:
                raise ValueError(f"{name}={v} is not a node id in 0..{n - 1}")
        if s == t:
            raise ValueError("s and t must differ")
        if mask is None:
            mask = self._intact
        cutoff = min(mask.degree[s], mask.degree[t])
        if not cutoff:
            return []
        return self._paths(2 * s + 1, 2 * t, cutoff, mask.cap)

    def _paths(self, src, snk, cutoff, cap) -> list[list[int]]:  # repro: noqa[RPR022] — per-arc dict probes by design: the kernel replays networkx's Edmonds–Karp and path walk step for step, which keeps the paths bit-identical
        """Edmonds–Karp from aux ``src`` (sB) to ``snk`` (tA), then the
        saturated-arc path walk of networkx's ``edge_disjoint_paths``."""
        ptr, head, rev, flow = self._ptr, self._head, self._rev, self._flow
        touched: list[int] = []
        value = 0
        while value < cutoff:
            # bidirectional BFS for a shortest augmenting path; pred/succ
            # hold the arc each aux node was reached by
            pred = {src: -1}
            succ = {snk: -1}
            q_s, q_t = [src], [snk]
            meet = -1
            while meet < 0:
                q = []
                if len(q_s) <= len(q_t):
                    for u in q_s:
                        for a in range(ptr[u], ptr[u + 1]):
                            v = head[a]
                            if v not in pred and flow[a] < cap[a]:
                                pred[v] = a
                                if v in succ:
                                    meet = v
                                    break
                                q.append(v)
                        if meet >= 0:
                            break
                    q_s = q
                else:
                    for u in q_t:
                        for a in range(ptr[u], ptr[u + 1]):
                            v = head[a]
                            r = rev[a]  # v -> u
                            if v not in succ and flow[r] < cap[r]:
                                succ[v] = r
                                if v in pred:
                                    meet = v
                                    break
                                q.append(v)
                        if meet >= 0:
                            break
                    q_t = q
                if meet < 0 and not q:
                    break
            if meet < 0:
                break
            # unit capacities: every augmenting path carries one unit
            v = meet
            while v != src:
                a = pred[v]
                flow[a] += 1
                flow[rev[a]] -= 1
                touched.append(a)
                v = head[rev[a]]
            v = meet
            while v != snk:
                a = succ[v]
                flow[a] += 1
                flow[rev[a]] -= 1
                touched.append(a)
                v = head[a]
            value += 1

        # saturated arcs (flow 1, never above capacity) in R.edges() order
        cutset = sorted({a for a in touched if flow[a] > 0})
        for a in touched:
            flow[a] = flow[rev[a]] = 0
        if not value:
            return []
        flow_dict: dict[int, dict[int, int]] = {}
        for a in cutset:
            flow_dict.setdefault(head[rev[a]], {})[head[a]] = 1
        paths = []
        found = 0
        for v in list(flow_dict[src]):
            if found >= cutoff:
                break
            if v == snk:
                paths.append([src // 2, snk // 2])
                continue
            path = [src]
            u = v
            while u != snk:
                path.append(u)
                nxt = flow_dict.get(u)
                if not nxt:
                    break
                u, _ = nxt.popitem()
            else:
                path.append(snk)
                # aux -> node ids, first occurrence kept (iA, iB -> i)
                paths.append(list(dict.fromkeys(w // 2 for w in path)))
                found += 1
        return paths


def path_diversity(
    net: Network,
    pairs: int,
    rng: np.random.Generator,
    kind: str = "node",
) -> dict:
    """Sampled path-diversity statistics.

    Picks ``pairs`` random node pairs and reports the min/mean count of
    disjoint paths and the mean length overhead of the alternative paths
    versus the shortest one.  Raises :class:`ValueError` on a directed
    network.
    """
    _require_undirected(net, "path_diversity")
    if kind not in ("node", "edge"):
        raise ValueError("kind must be 'node' or 'edge'")
    solver = NodeDisjointPaths(net) if kind == "node" else None
    counts = []
    overheads = []
    n = net.num_nodes
    for _ in range(pairs):
        s, t = rng.choice(n, size=2, replace=False)
        s, t = int(s), int(t)
        paths = solver(s, t) if solver else edge_disjoint_paths(net, s, t)
        counts.append(len(paths))
        lengths = sorted(len(p) - 1 for p in paths)
        if len(lengths) > 1:
            overheads.append(lengths[-1] - lengths[0])
    return {
        "min_paths": int(min(counts)),
        "mean_paths": float(np.mean(counts)),
        "mean_length_spread": float(np.mean(overheads)) if overheads else 0.0,
        "pairs": pairs,
        "kind": kind,
    }
