"""Fault models: schedules of node/link failures and their compiled timeline.

The paper motivates symmetric super-IP graphs by the star graph's fault
tolerance (connectivity = degree, graceful degradation).  This module makes
faults *injectable*: a :class:`FaultPlan` is a declarative schedule of
permanent or transient node/link failures — either explicit ``(t, kind, id)``
events or seeded random models (uniform link faults, per-link MTBF renewal
processes, correlated per-module node failures).  Compiling a plan against a
concrete :class:`~repro.core.network.Network` yields a
:class:`FaultTimeline`: per-entity down-intervals with scalar point and
range queries, plus the same intervals flattened into sorted arrays so a
whole batch of packets is checked with one ``searchsorted`` and a gather —
which is what the degraded-mode simulator and the
:class:`~repro.fault.resilient.ResilientRouter` consult on the hot path.

Links are identified by *undirected* endpoint pairs; failing ``(u, v)``
masks both directed arcs.  Times are integer cycles on the simulator clock.
"""

from __future__ import annotations

import bisect
import math
from typing import NamedTuple

import numpy as np

from repro.core.network import Network

__all__ = ["FaultEvent", "FaultPlan", "FaultTimeline"]

NODE = "node"
LINK = "link"
FAIL = "fail"
REPAIR = "repair"


class FaultEvent(NamedTuple):
    """One scheduled state change: at cycle ``t``, ``ident`` fails/repairs.

    ``ident`` is a node id for ``kind == "node"`` and an ``(u, v)`` endpoint
    pair for ``kind == "link"``.
    """

    t: int
    kind: str
    ident: int | tuple[int, int]
    action: str = FAIL


def _norm_link(ident) -> tuple[int, int]:
    u, v = ident
    u, v = int(u), int(v)
    return (u, v) if u <= v else (v, u)


class FaultPlan:
    """A declarative schedule of node/link failures and repairs.

    Build explicitly with the chainable ``fail_*`` / ``repair_*`` methods,
    or sample a seeded random model with the classmethod constructors.  A
    plan is topology-agnostic until :meth:`compile` checks it against a
    concrete network (node ids in range, links actually present).
    """

    def __init__(self, events: list[FaultEvent] | tuple = ()):
        self.events: list[FaultEvent] = []
        for ev in events:
            ev = FaultEvent(*ev)
            self._check(ev)
            self.events.append(ev)

    @staticmethod
    def _check(ev: FaultEvent) -> None:
        if ev.kind not in (NODE, LINK):
            raise ValueError(f"fault kind must be 'node' or 'link', got {ev.kind!r}")
        if ev.action not in (FAIL, REPAIR):
            raise ValueError(
                f"fault action must be 'fail' or 'repair', got {ev.action!r}"
            )
        if ev.t < 0:
            raise ValueError(f"fault time must be >= 0, got {ev.t}")

    # -- chainable builders ---------------------------------------------
    def _add(self, t: int, kind: str, ident, action: str) -> "FaultPlan":
        ev = FaultEvent(int(t), kind, ident, action)
        self._check(ev)
        self.events.append(ev)
        return self

    def fail_node(self, t: int, node: int) -> "FaultPlan":
        """Node ``node`` goes down at cycle ``t`` (until repaired)."""
        return self._add(t, NODE, int(node), FAIL)

    def repair_node(self, t: int, node: int) -> "FaultPlan":
        """Node ``node`` comes back up at cycle ``t``."""
        return self._add(t, NODE, int(node), REPAIR)

    def fail_link(self, t: int, u: int, v: int) -> "FaultPlan":
        """Undirected link ``(u, v)`` goes down at cycle ``t``."""
        return self._add(t, LINK, _norm_link((u, v)), FAIL)

    def repair_link(self, t: int, u: int, v: int) -> "FaultPlan":
        """Undirected link ``(u, v)`` comes back up at cycle ``t``."""
        return self._add(t, LINK, _norm_link((u, v)), REPAIR)

    # -- seeded random models -------------------------------------------
    @classmethod
    def random_link_faults(
        cls,
        net: Network,
        count: int,
        rng: np.random.Generator,
        horizon: int = 0,
        mttr: int | None = None,
    ) -> "FaultPlan":
        """``count`` distinct links fail at uniform times in ``[0, horizon]``.

        With ``mttr`` (mean time to repair) each failure is transient: the
        link repairs after an exponential holding time of that mean
        (rounded up to >= 1 cycle).  ``horizon=0`` fails everything at t=0.
        """
        _check_model(count=count, horizon=horizon, mttr=mttr)
        edges = _undirected_edges(net)
        if count > len(edges):
            raise ValueError(
                f"cannot fault {count} links: {net.name!r} has only "
                f"{len(edges)} undirected links"
            )
        plan = cls()
        picks = rng.choice(len(edges), size=count, replace=False)
        for e in sorted(int(i) for i in picks):
            u, v = edges[e].tolist()
            t = int(rng.integers(0, horizon + 1))
            plan.fail_link(t, u, v)
            if mttr is not None:
                plan.repair_link(t + max(1, round(rng.exponential(mttr))), u, v)
        return plan

    @classmethod
    def random_node_faults(
        cls,
        net: Network,
        count: int,
        rng: np.random.Generator,
        horizon: int = 0,
        mttr: int | None = None,
    ) -> "FaultPlan":
        """``count`` distinct nodes fail at uniform times in ``[0, horizon]``."""
        _check_model(count=count, horizon=horizon, mttr=mttr)
        if count >= net.num_nodes:
            raise ValueError("cannot fault every node")
        plan = cls()
        picks = rng.choice(net.num_nodes, size=count, replace=False)
        for v in sorted(int(i) for i in picks):
            t = int(rng.integers(0, horizon + 1))
            plan.fail_node(t, v)
            if mttr is not None:
                plan.repair_node(t + max(1, round(rng.exponential(mttr))), v)
        return plan

    @classmethod
    def link_mtbf(
        cls,
        net: Network,
        mtbf: float,
        horizon: int,
        rng: np.random.Generator,
        mttr: int | None = None,
    ) -> "FaultPlan":
        """Renewal-process link faults: every link fails independently with
        exponential inter-failure times of mean ``mtbf`` cycles, over
        ``[0, horizon]``.  With ``mttr`` each outage repairs (mean ``mttr``
        cycles); otherwise the first failure of a link is permanent."""
        if mtbf <= 0:
            raise ValueError("mtbf must be positive")
        _check_model(horizon=horizon, mttr=mttr)
        plan = cls()
        for u, v in _undirected_edges(net).tolist():
            t = rng.exponential(mtbf)
            while t <= horizon:
                t_fail = int(math.ceil(t))
                plan.fail_link(t_fail, u, v)
                if mttr is None:
                    break
                repair = t_fail + max(1, round(rng.exponential(mttr)))
                plan.repair_link(repair, u, v)
                t = repair + rng.exponential(mtbf)
        return plan

    @classmethod
    def module_failures(
        cls,
        net: Network,
        module_of: np.ndarray,
        modules: int,
        rng: np.random.Generator,
        t: int = 0,
        mttr: int | None = None,
    ) -> "FaultPlan":
        """Correlated faults: ``modules`` whole modules (e.g. boards/racks)
        lose all their nodes at cycle ``t`` — the clustered-failure regime
        hierarchical networks are meant to survive."""
        _check_model(mttr=mttr)
        module_of = np.asarray(module_of, dtype=np.int64)
        if len(module_of) != net.num_nodes:
            raise ValueError("module_of must assign a module to every node")
        ids = np.unique(module_of)
        if modules >= len(ids):
            raise ValueError("cannot fault every module")
        plan = cls()
        picks = rng.choice(len(ids), size=modules, replace=False)
        for m in sorted(int(i) for i in picks):
            for v in np.nonzero(module_of == ids[m])[0]:
                plan.fail_node(t, int(v))
                if mttr is not None:
                    plan.repair_node(t + max(1, round(rng.exponential(mttr))), int(v))
        return plan

    # -- introspection ---------------------------------------------------
    @property
    def is_empty(self) -> bool:
        """True when the plan schedules nothing."""
        return not self.events

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        nodes = sum(1 for e in self.events if e.kind == NODE and e.action == FAIL)
        links = sum(1 for e in self.events if e.kind == LINK and e.action == FAIL)
        return f"FaultPlan({len(self.events)} events: {nodes} node / {links} link failures)"

    def compile(self, net: Network) -> "FaultTimeline":
        """Validate against ``net`` and build the queryable timeline."""
        return FaultTimeline(net, self.events)


def _check_model(count: int = 0, horizon: int = 0, mttr: int | None = None) -> None:
    """Reject random-model parameters that would fail deep inside numpy or
    silently schedule nothing (or 1-cycle outages)."""
    if count < 0:
        raise ValueError(f"fault count must be >= 0, got {count}")
    if horizon < 0:
        raise ValueError(f"fault horizon must be >= 0, got {horizon}")
    if mttr is not None and mttr <= 0:
        raise ValueError(f"mttr must be > 0 cycles, got {mttr}")


def _undirected_edges(net: Network) -> np.ndarray:
    """Distinct undirected links of the simple graph as an ``(E, 2)`` int64
    array of ``u < v`` pairs, sorted by ``(u, v)``."""
    csr = net.adjacency_csr(directed=False)
    coo = csr.tocoo()  # row-major: rows ascending, columns in CSR order
    mask = coo.row < coo.col
    edges = np.column_stack((coo.row[mask], coo.col[mask])).astype(np.int64)
    if not csr.has_sorted_indices:
        edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
    return edges


def _build_intervals(events: list[tuple[int, str]]) -> list[tuple[int, float]]:
    """Fold (t, action) pairs into merged, sorted [down, up) intervals."""
    out: list[tuple[int, float]] = []
    down_at: int | None = None
    for t, action in sorted(events):
        if action == FAIL:
            if down_at is None:
                down_at = t
        else:
            if down_at is not None and t > down_at:
                out.append((down_at, t))
            down_at = None
    if down_at is not None:
        out.append((down_at, math.inf))
    return out


_INT64_MAX = int(np.iinfo(np.int64).max)


class _IntervalIndex:
    """Merged ``[down, up)`` intervals of many entities, flattened for batch
    queries.

    Entity ``r`` (a dense rank, ``-1`` = never down) owns a contiguous run
    of intervals sorted by start.  Each interval is keyed ``r·span + start``
    with ``span`` one past the latest start, so the keys are globally sorted
    and "the last interval of ``r`` starting before ``t``" is one
    ``searchsorted``.  A leading sentinel interval (owner ``-2``, empty)
    keeps every such index in range.  Memory is O(intervals); a permanent
    outage ends at the int64 maximum.
    """

    __slots__ = ("span", "size", "keys", "owner", "ends", "_key_list", "_owner_list", "_end_list")

    def __init__(self, runs: list[list[tuple[int, float]]]):
        starts = [a for ivs in runs for a, _ in ivs]
        ends = [_INT64_MAX if b == math.inf else b for ivs in runs for _, b in ivs]
        self.span = max(starts, default=0) + 1
        if len(runs) * self.span > _INT64_MAX:
            raise ValueError(
                f"fault timeline does not fit int64 interval keys: "
                f"{len(runs)} entities x {self.span} cycles (latest fault "
                f"at cycle {self.span - 1})"
            )
        if max(ends, default=0) > _INT64_MAX:
            raise ValueError(
                f"fault timeline repair at cycle {max(ends)} does not fit int64"
            )
        self.size = len(starts)
        owner = [-2] + [r for r, ivs in enumerate(runs) for _ in ivs]
        self._key_list = [-_INT64_MAX - 1] + [
            r * self.span + a for r, a in zip(owner[1:], starts)
        ]
        self._owner_list = owner
        self._end_list = [-_INT64_MAX - 1] + ends
        self.keys = np.asarray(self._key_list, dtype=np.int64)
        self.owner = np.asarray(owner, dtype=np.int64)
        self.ends = np.asarray(self._end_list, dtype=np.int64)

    def _overlaps(self, ranks: np.ndarray, before: int, after) -> np.ndarray:
        """Does each entity's last interval starting before cycle ``before``
        end after ``after``?"""
        if not self.size:
            return np.zeros(np.shape(ranks), dtype=bool)
        idx = self.keys.searchsorted(ranks * self.span + min(before, self.span)) - 1
        return (self.owner[idx] == ranks) & (self.ends[idx] > after)

    def down_at(self, ranks: np.ndarray, t: int) -> np.ndarray:
        """Is each entity inside one of its intervals at cycle ``t``?"""
        return self._overlaps(ranks, min(t, self.span - 1) + 1, t)

    def down_during(self, ranks: np.ndarray, t0, t1: int) -> np.ndarray:
        """Does one of each entity's intervals overlap ``[t0, t1)``?  With
        merged, disjoint intervals that is the last one starting before
        ``t1``, ending after ``t0``."""
        return self._overlaps(ranks, t1, t0)

    def _overlaps_one(self, r: int, before: int, after: int) -> bool:
        if r < 0:
            return False
        i = bisect.bisect_left(self._key_list, r * self.span + min(before, self.span)) - 1
        return self._owner_list[i] == r and self._end_list[i] > after

    def is_down(self, r: int, t: int) -> bool:
        """Scalar :meth:`down_at` for one entity rank."""
        return self._overlaps_one(r, min(t, self.span - 1) + 1, t)

    def was_down(self, r: int, t0: int, t1: int) -> bool:
        """Scalar :meth:`down_during` for one entity rank."""
        return self._overlaps_one(r, t1, t0)


class FaultTimeline:
    """Compiled fault schedule: per-node and per-link down-intervals.

    Intervals are half-open ``[t_down, t_up)``: the entity is unusable at
    ``t_down`` and usable again at ``t_up``.  Entities never named by the
    plan map to rank ``-1`` and cost one lookup.

    Both query families probe the same flattened intervals: the scalar ones
    (``node_up_at``, ``link_up_at``, ``link_down_during``) answer one
    question with a ``bisect``; the array ones (``nodes_up_at``,
    ``hops_alive``, ``links_down_during``) answer a whole batch with one
    ``searchsorted`` and a gather.  The scalar queries reject an id outside
    ``0..N-1``, and the link ones a pair that is not an edge; the array
    queries take in-range node ids (unchecked) and address links by
    *column* — see :meth:`link_columns`.
    """

    def __init__(self, net: Network, events: list[FaultEvent]):
        n = net.num_nodes
        edges = _undirected_edges(net)
        # every undirected edge, keyed u·n + v (u < v) -> its column in the
        # array queries; -1 for a link that never fails
        self._link_col = dict.fromkeys((edges[:, 0] * n + edges[:, 1]).tolist(), -1)
        node_ev: dict[int, list[tuple[int, str]]] = {}
        link_ev: dict[tuple[int, int], list[tuple[int, str]]] = {}
        for ev in events:
            if ev.kind == NODE:
                v = int(ev.ident)
                if not 0 <= v < n:
                    raise ValueError(
                        f"fault plan names node {v}, but {net.name!r} has "
                        f"nodes 0..{n - 1}"
                    )
                node_ev.setdefault(v, []).append((ev.t, ev.action))
            else:
                u, v = _norm_link(ev.ident)
                if not (0 <= u < n and 0 <= v < n) or u * n + v not in self._link_col:
                    raise ValueError(
                        f"fault plan names link ({u}, {v}), which is not an "
                        f"edge of {net.name!r}"
                    )
                link_ev.setdefault((u, v), []).append((ev.t, ev.action))
        self.net = net
        self.node_down = {
            v: ivs for v, e in node_ev.items() if (ivs := _build_intervals(e))
        }
        self.link_down = {
            k: ivs for k, e in link_ev.items() if (ivs := _build_intervals(e))
        }
        times: set[int] = set()
        for ivs in list(self.node_down.values()) + list(self.link_down.values()):
            for a, b in ivs:
                times.add(a)
                if b != math.inf:
                    times.add(int(b))
        self.change_times: list[int] = sorted(times)
        # array form: dense node ranks, links ranked by packed u·n + v key
        self._n = n
        self._node_rank = np.full(n, -1, dtype=np.int64)
        down_nodes = sorted(self.node_down)
        self._node_rank[down_nodes] = np.arange(len(down_nodes), dtype=np.int64)
        self._node_rank_list = self._node_rank.tolist()
        self._nodes = _IntervalIndex([self.node_down[v] for v in down_nodes])
        down_links = sorted(self.link_down)
        link_keys = [u * n + v for u, v in down_links]
        self._link_col.update((k, i) for i, k in enumerate(link_keys))
        # sorted keys plus an int64-max sentinel: searchsorted stays in range
        self._link_keys = np.asarray(link_keys + [_INT64_MAX], dtype=np.int64)
        self._links = _IntervalIndex([self.link_down[k] for k in down_links])

    @property
    def empty(self) -> bool:
        """True when no entity ever goes down."""
        return not self.node_down and not self.link_down

    # -- point / range queries ------------------------------------------
    @staticmethod
    def _down_at(intervals, t) -> bool:
        return any(a <= t < b for a, b in intervals)

    def _link_column(self, query: str, u: int, v: int) -> int:
        lo, hi = (u, v) if u <= v else (v, u)
        if lo < 0 or hi >= self._n:
            raise ValueError(
                f"{query}: link ({u}, {v}) has a node id outside 0..{self._n - 1}"
            )
        col = self._link_col.get(lo * self._n + hi)
        if col is None:
            raise ValueError(
                f"{query}: link ({u}, {v}) is not an edge of {self.net.name!r}"
            )
        return col

    def node_up_at(self, v: int, t: int) -> bool:
        """Is node ``v`` usable at cycle ``t``?  Raises :class:`ValueError`
        for an id outside ``0..N-1``."""
        if not 0 <= v < self._n:
            raise ValueError(
                f"node_up_at: node id {v} is outside 0..{self._n - 1}"
            )
        r = self._node_rank_list[v]
        return r < 0 or not self._nodes.is_down(r, t)

    def link_up_at(self, u: int, v: int, t: int) -> bool:
        """Is undirected link ``(u, v)`` usable at cycle ``t``?  Raises
        :class:`ValueError` for an id outside ``0..N-1`` or a non-edge."""
        col = self._link_column("link_up_at", u, v)
        return not self._links.is_down(col, t)

    def link_down_during(self, u: int, v: int, t0: int, t1: int) -> bool:
        """Did link ``(u, v)`` fail at any point while occupied over the
        transmission window ``[t0, t1)``?  (Used to drop in-flight packets.)
        Raises :class:`ValueError` like :meth:`link_up_at`."""
        col = self._link_column("link_down_during", u, v)
        return self._links.was_down(col, t0, t1)

    # -- batch queries over the flattened intervals ---------------------
    def link_columns(self, u, v) -> np.ndarray:
        """Column of each undirected link ``(u[i], v[i])`` in the array
        queries, or ``-1`` for a link that never fails (or is no link)."""
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        keys = lo * self._n + hi
        col = self._link_keys.searchsorted(keys)
        # range check: an out-of-range id would alias another link's key
        found = (self._link_keys[col] == keys) & (lo >= 0) & (hi < self._n)
        return np.where(found, col, -1)

    def nodes_up_at(self, v, t) -> np.ndarray:
        """Batch :meth:`node_up_at`: is each node ``v[i]`` usable at ``t``?"""
        return ~self._nodes.down_at(self._node_rank[v], t)

    def hops_alive(self, u, v, t) -> np.ndarray:
        """Can a packet at ``u[i]`` traverse ``(u[i], v[i])`` at cycle ``t``
        — link up and far endpoint up?"""
        link_dead = self._links.down_at(self.link_columns(u, v), t)
        return ~link_dead & self.nodes_up_at(v, t)

    def links_down_during(self, col, t0, t1) -> np.ndarray:
        """Batch :meth:`link_down_during` by link column (``-1`` never
        fails): was each link down at some point of ``[t0[i], t1)``?"""
        return self._links.down_during(np.asarray(col, dtype=np.int64), t0, t1)

    def epoch(self, t: int) -> int:
        """Index of the fault configuration in force at cycle ``t`` —
        increments at every state change, so it keys snapshot caches."""
        return bisect.bisect_right(self.change_times, t)

    def dead_nodes_at(self, t: int) -> set[int]:
        """Node ids down at cycle ``t``."""
        return {v for v, ivs in self.node_down.items() if self._down_at(ivs, t)}

    def dead_links_at(self, t: int) -> set[tuple[int, int]]:
        """Undirected link pairs down at cycle ``t``."""
        return {k for k, ivs in self.link_down.items() if self._down_at(ivs, t)}

    def __repr__(self) -> str:
        return (
            f"FaultTimeline({len(self.node_down)} nodes, "
            f"{len(self.link_down)} links, {len(self.change_times)} changes)"
        )
