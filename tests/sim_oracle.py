"""Test oracle for the batched event-driven packet simulator.

This is the original ``PacketSimulator`` implementation — one Python
``Packet`` object per packet, one heap entry per channel traversal —
kept as a correctness oracle when the batched event-driven core took
over :mod:`repro.sim.simulator`.  It is deliberately simple and slow:

* every event is popped and handled individually, so the semantics
  (FIFO channel queueing, ``(time, creation-order)`` event ordering,
  degraded-mode drop/retransmit/deroute rules) are easy to audit;
* packets are retained, so tests can inspect per-packet latencies and
  check the streaming aggregates against exact retained-array math.

The contract, enforced by ``tests/test_sim_equivalence_random.py``: the
event core's :class:`~repro.sim.stats.SimStats` is **bit-identical** to
this engine's on any workload, fault-free or degraded.  Keep the two in
lockstep — a semantic change here without the mirror change in the event
core (or vice versa) is a bug, and the randomized suite will say so.

The oracle takes a scalar ``next_hop=(u, dst) -> v`` callable; the event
core takes a batched routing backend.  :class:`HopFunction` is the one
adapter that hands such a callable to the event core.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable

import heapq

import numpy as np

from repro.core.network import Network
from repro.routing.table import NextHopTable
from repro.sim.policies import ChannelIndex
from repro.sim.stats import SimStats

if False:  # import for type checkers only — repro.fault imports repro.sim
    from repro.fault.plan import FaultPlan, FaultTimeline  # noqa: F401


class HopFunction:
    """A scalar ``(u, dst) -> v`` callable as a batched routing backend:
    ``PacketSimulator(net, routing=HopFunction(fn))`` asks ``fn`` once per
    packet hop (batched by hop index before a healthy run, by bucket in a
    faulted one) and passes the state through."""

    def __init__(self, next_hop: Callable[[int, int], int]):
        self.next_hop = next_hop

    def step(self, nodes, dsts, state):
        hop = self.next_hop
        nxt = [hop(u, d) for u, d in zip(nodes.tolist(), dsts.tolist())]
        return np.array(nxt, dtype=np.int64), state


class Packet:
    """A packet in flight (retained per-packet state, reference engine)."""

    __slots__ = (
        "pid",
        "src",
        "dst",
        "t_inject",
        "t_deliver",
        "hops",
        "off_hops",
        "retries",
        "deroutes",
        "route",
    )

    def __init__(self, pid: int, src: int, dst: int, t_inject: int):
        self.pid = pid
        self.src = src
        self.dst = dst
        self.t_inject = t_inject
        self.t_deliver = -1
        self.hops = 0
        self.off_hops = 0
        self.retries = 0  # retransmissions consumed
        self.deroutes = 0  # survivor-path detours consumed
        self.route: deque | None = None  # pinned detour (remaining nodes)

    @property
    def latency(self) -> int:
        """Delivery latency in cycles (−1 if still in flight)."""
        return -1 if self.t_deliver < 0 else self.t_deliver - self.t_inject


class ReferencePacketSimulator:
    """Per-event, per-packet oracle with the same interface as
    :class:`~repro.sim.simulator.PacketSimulator`.

    Parameters match the event core exactly; see its docstring.  Tests
    substitute it for ``PacketSimulator`` to cross-check the event core —
    it retains every packet and walks a Python heap, so million-packet
    runs belong to the event core.
    """

    def __init__(
        self,
        net: Network,
        delays: int | np.ndarray = 1,
        next_hop: Callable[[int, int], int] | None = None,
        module_of: np.ndarray | None = None,
        faults: "FaultPlan | None" = None,
        retransmit_timeout: int = 16,
        max_retries: int = 4,
        max_deroutes: int = 8,
    ):
        self.net = net
        self.channels = ChannelIndex(net)
        nchan = len(self.channels)
        if isinstance(delays, (int, np.integer)):
            self.delays = np.full(nchan, int(delays), dtype=np.int64)
        else:
            self.delays = np.asarray(delays, dtype=np.int64)
            if self.delays.shape != (nchan,):
                raise ValueError("delays must have one entry per directed arc")
        if (self.delays < 1).any():
            raise ValueError("channel delays must be >= 1 cycle")
        if retransmit_timeout < 1:
            raise ValueError("retransmit_timeout must be >= 1 cycle")
        if max_retries < 0 or max_deroutes < 0:
            raise ValueError("max_retries and max_deroutes must be >= 0")
        self.retransmit_timeout = int(retransmit_timeout)
        self.max_retries = int(max_retries)
        self.max_deroutes = int(max_deroutes)
        self._arc_sources = self.channels.sources
        self._indices = self.channels.indices

        self._timeline: "FaultTimeline | None" = (
            faults.compile(net) if faults is not None else None
        )
        if self._timeline is not None and self._timeline.empty:
            self._timeline = None
        self._router = None
        if next_hop is None:
            if self._timeline is not None:
                from repro.fault.resilient import ResilientRouter

                self._table = NextHopTable(net, with_distances=True)
                self._router = ResilientRouter(net, self._timeline)
                self.next_hop = self._table.next_hop
            else:
                self._table = NextHopTable(net)
                self.next_hop = self._table.next_hop
        else:
            # custom routers stay in charge of hop choice; degraded mode can
            # still drop on dead links, but cannot reroute for them
            self.next_hop = next_hop
        self.module_of = (
            None if module_of is None else np.asarray(module_of, dtype=np.int64)
        )

    # ------------------------------------------------------------------
    def _validated(
        self, injections: Iterable[tuple[int, int, int]]
    ) -> list[tuple[int, int, int]]:
        n = self.net.num_nodes
        out = []
        for i, (t, src, dst) in enumerate(injections):
            t, src, dst = int(t), int(src), int(dst)
            if t < 0:
                raise ValueError(
                    f"injection #{i}: injection time must be >= 0, got {t}"
                )
            if not (0 <= src < n and 0 <= dst < n):
                raise ValueError(
                    f"injection #{i}: node ids must be in [0, {n}) for "
                    f"{self.net.name!r}, got src={src}, dst={dst}"
                )
            if src == dst:
                raise ValueError(
                    f"injection #{i}: src == dst == {src}; self-addressed "
                    f"packets are not routable — filter them out of the "
                    f"workload (see repro.sim.workloads)"
                )
            out.append((t, src, dst))
        return out

    def run(
        self,
        injections,
        max_cycles: int | None = None,
    ) -> SimStats:
        """Run to completion (or ``max_cycles``); see the event core's
        :meth:`~repro.sim.simulator.PacketSimulator.run`."""
        if max_cycles is not None and max_cycles < 0:
            raise ValueError(f"max_cycles must be >= 0, got {max_cycles}")
        if isinstance(injections, np.ndarray):
            injections = [tuple(row) for row in injections.tolist()]
        packets: list[Packet] = []
        # (time, seq, pid, node, channel arrived on, transmit start)
        events: list[tuple[int, int, int, int, int, int]] = []
        seq = 0
        for t, src, dst in self._validated(injections):
            p = Packet(len(packets), src, dst, t)
            packets.append(p)
            events.append((t, seq, p.pid, src, -1, t))
            seq += 1
        heapq.heapify(events)

        busy_until = np.zeros(len(self._indices), dtype=np.int64)
        busy_time = np.zeros(len(self._indices), dtype=np.int64)
        horizon = 0
        mod = self.module_of

        timeline = self._timeline
        faulted = timeline is not None
        router = self._router
        arc_src = self._arc_sources
        indices = self._indices
        channel = self.channels.lookup
        hop_guard = 4 * self.net.num_nodes + 64
        dropped = retransmitted = rerouted = 0

        def _drop(p: Packet, now: int) -> None:
            """Drop the current attempt; retransmit from source with
            exponential backoff, or abandon past max_retries."""
            nonlocal dropped, retransmitted, seq
            dropped += 1
            p.route = None
            if p.retries >= self.max_retries:
                return
            p.retries += 1
            p.hops = 0
            p.off_hops = 0
            p.deroutes = 0
            at = now + self.retransmit_timeout * (1 << (p.retries - 1))
            seq += 1
            heapq.heappush(events, (at, seq, p.pid, p.src, -1, at))
            retransmitted += 1

        while events:
            t, _, pid, node, chan, start = heapq.heappop(events)
            if max_cycles is not None and t > max_cycles:
                break
            p = packets[pid]
            if faulted:
                # the link died while the packet occupied it, or the
                # packet landed on a node that is (now) down
                if chan >= 0 and timeline.link_down_during(
                    int(arc_src[chan]), int(indices[chan]), start, t
                ):
                    _drop(p, t)
                    continue
                if not timeline.node_up_at(node, t):
                    _drop(p, t)
                    continue
            if node == p.dst:
                p.t_deliver = t
                horizon = max(horizon, t)
                continue
            if p.hops > hop_guard:
                if faulted:  # treat livelock as a loss, not a crash
                    _drop(p, t)
                    continue
                raise RuntimeError(
                    f"packet {p.pid} exceeded the hop guard — routing loop?"
                )
            if faulted:
                nxt = -1
                if p.route:
                    cand = p.route[0]
                    if router is not None and router.hop_alive(node, cand, t):
                        nxt = p.route.popleft()
                    else:
                        p.route = None  # detour went stale — replan
                if nxt < 0:
                    if router is not None:
                        nxt, verdict, rest = router.route_next(node, p.dst, t)
                        if nxt < 0:
                            _drop(p, t)
                            continue
                        if verdict == "deroute":
                            p.deroutes += 1
                            if p.deroutes > self.max_deroutes:
                                _drop(p, t)
                                continue
                            p.route = deque(rest)
                            rerouted += 1
                        elif verdict == "reroute":
                            rerouted += 1
                    else:
                        # custom router: use its hop, drop if it is dead
                        nxt = self.next_hop(node, p.dst)
                        if not (
                            timeline.link_up_at(node, nxt, t)
                            and timeline.node_up_at(nxt, t)
                        ):
                            _drop(p, t)
                            continue
            else:
                nxt = self.next_hop(node, p.dst)
            c = channel(node, nxt)
            tx = max(t, int(busy_until[c]))
            finish = tx + int(self.delays[c])
            busy_until[c] = finish
            busy_time[c] += int(self.delays[c])
            p.hops += 1
            if mod is not None and mod[node] != mod[nxt]:
                p.off_hops += 1
            seq += 1
            heapq.heappush(events, (finish, seq, pid, nxt, c, tx))
            horizon = max(horizon, finish)

        return SimStats.from_run(
            packets=packets,
            horizon=horizon,
            busy_time=busy_time,
            arc_sources=self._arc_sources,
            arc_targets=self._indices,
            module_of=mod,
            num_nodes=self.net.num_nodes,
            dropped=dropped,
            retransmitted=retransmitted,
            rerouted=rerouted,
        )
