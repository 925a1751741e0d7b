"""Batched event-driven packet simulator (the million-packet core).

Section 5 of the paper argues that, under light traffic,

* packet-switched latency with *unit node capacity* is ∝ **DD-cost**;
* latency with fixed per-module off-module capacity is ∝ **ID-cost**;
* latency with slow off-module links is ∝ **II-cost**.

This simulator makes those claims measurable at realistic offered loads.
Model (identical to the per-event oracle in ``tests/sim_oracle.py``, which
this core must match bit for bit):

* one directed *channel* per simple arc; a channel serves one packet at a
  time with a per-channel integer service delay (``delay[c]`` cycles), so
  bandwidth is ``1/delay`` packets/cycle and queueing is FIFO;
* packets follow a deterministic next-hop routing function (shortest-path
  table by default, or any custom router such as the Theorem-4.1 sorter).

**Engine shape.**  Packets live in contiguous NumPy arrays (``src`` /
``dst`` / ``pos`` / ``t_inject`` / ``hops`` / ...), one slot per packet —
a packet has at most one pending event, so the arrays *are* the event
records.  Events sit in a calendar queue (a bucket of packet ids per
integer cycle; service delays are >= 1, so every new event lands strictly
in the future).  A whole bucket is retired per step: route lookups are one
fancy-indexing pass over the next-hop table, channel resolution is one
``searchsorted`` over the CSR arc keys, and contention resolves per
channel group as ``base + k·delay`` without touching individual packets.

**Ordering contract.**  Within a bucket, events are served in *creation
order* (FIFO), with the initial injection batch seeded in packet-id
order — the "FIFO-then-pid" tie-break.  No per-event sort is needed: each
chunk appended to a bucket is internally creation-ordered, buckets are
processed in time order, and service delays are >= 1, so chunks arrive at
a bucket in creation order and their concatenation already is the FIFO
order.  This reproduces the reference engine's ``(time, push-order)``
heap ordering exactly, which is what makes the two engines bit-identical
rather than merely statistically equivalent.

**Degraded mode.**  Passing a :class:`~repro.fault.FaultPlan` lets links
and nodes fail (and repair) mid-run; drops, exponential-backoff source
retransmission and fault-aware rerouting follow the oracle's semantics
(see ``tests/sim_oracle.py``).  Fault timelines force per-event
decisions, so the degraded path walks bucket events individually — still
on the calendar queue, still bit-identical.  With no plan — or an empty
one — the fully batched path runs.
"""

from __future__ import annotations

import heapq
import time
from collections.abc import Callable, Iterable

import numpy as np

from repro import obs
from repro.core.network import Network
from repro.routing.table import NextHopTable

if False:  # import for type checkers only — repro.fault imports repro.sim
    from repro.fault.plan import FaultPlan, FaultTimeline  # noqa: F401

from .policies import ChannelIndex
from .stats import SimStats, StreamingStats

__all__ = ["PacketSimulator"]


class PacketSimulator:
    """Simulate packet traffic on a network (batched event-driven core).

    Parameters
    ----------
    net:
        The topology.
    delays:
        Per-channel service delay.  Either an int (uniform), or an array
        aligned with the CSR arc order of ``net.adjacency_csr()`` — use the
        policies in :mod:`repro.sim.policies` to build one.
    next_hop:
        Routing function ``(u, dst) -> v``.  Defaults to a shortest-path
        :class:`~repro.routing.table.NextHopTable` (whose table is applied
        as one vectorized lookup per batch; a custom callable is consulted
        per packet, in event order).
    module_of:
        Optional module ids (for off-module hop accounting in the stats).
    faults:
        Optional :class:`~repro.fault.FaultPlan`.  A non-empty plan enables
        degraded mode (drops, retransmissions, fault-aware rerouting); an
        empty plan is exactly equivalent to ``faults=None``.
    retransmit_timeout:
        Base source-retransmission timeout in cycles; attempt *k* waits
        ``retransmit_timeout * 2**(k-1)`` cycles after the drop.
    max_retries:
        Retransmissions allowed per packet before it is abandoned.
    max_deroutes:
        Survivor-path detours allowed per delivery attempt before the packet
        is dropped (livelock guard).
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
        self._table: NextHopTable | None = None
        if next_hop is None:
            if self._timeline is not None:
                from repro.fault.resilient import ResilientRouter

                self._table = NextHopTable(net, with_distances=True)
                self._router = ResilientRouter(
                    net, self._timeline, table=self._table
                )
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
    def _validated_arrays(
        self, injections: Iterable[tuple[int, int, int]] | np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(t, src, dst)`` int64 columns, validated in one vector pass.

        Accepts an iterable of ``(t, src, dst)`` tuples or an ``(N, 3)``
        integer array (the zero-copy path for array workloads, e.g.
        :func:`repro.sim.workloads.uniform_random_array`).  Error messages
        match the reference engine's sequential validation: the first
        offending injection is named, checks applied in the same order.
        """
        if isinstance(injections, np.ndarray):
            arr = np.asarray(injections, dtype=np.int64)
            if arr.ndim != 2 or arr.shape[1] != 3:
                raise ValueError(
                    f"array injections must have shape (N, 3) of "
                    f"(t, src, dst) rows, got {arr.shape}"
                )
        else:
            rows = list(injections)
            if not rows:
                return (np.empty(0, np.int64),) * 3
            arr = np.array(rows, dtype=np.int64)
            if arr.ndim != 2 or arr.shape[1] != 3:
                raise ValueError(
                    "injections must be (t, src, dst) triples"
                )
        t, src, dst = arr[:, 0], arr[:, 1], arr[:, 2]
        n = self.net.num_nodes
        bad = (
            (t < 0)
            | (src < 0)
            | (src >= n)
            | (dst < 0)
            | (dst >= n)
            | (src == dst)
        )
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            ti, si, di = int(t[i]), int(src[i]), int(dst[i])
            if ti < 0:
                raise ValueError(
                    f"injection #{i}: injection time must be >= 0, got {ti}"
                )
            if not (0 <= si < n and 0 <= di < n):
                raise ValueError(
                    f"injection #{i}: node ids must be in [0, {n}) for "
                    f"{self.net.name!r}, got src={si}, dst={di}"
                )
            raise ValueError(
                f"injection #{i}: src == dst == {si}; self-addressed "
                f"packets are not routable — filter them out of the "
                f"workload (see repro.sim.workloads)"
            )
        return t.copy(), src.copy(), dst.copy()

    # ------------------------------------------------------------------
    def run(
        self,
        injections: Iterable[tuple[int, int, int]] | np.ndarray,
        max_cycles: int | None = None,
    ) -> SimStats:
        """Run to completion (or ``max_cycles``).

        Parameters
        ----------
        injections:
            Iterable of ``(t, src, dst)`` tuples or an ``(N, 3)`` int array
            (need not be sorted).  Validated up front: times >= 0, node ids
            in range, ``src != dst``.
        max_cycles:
            Optional hard stop; packets still in flight are reported as
            undelivered.

        Returns
        -------
        SimStats
        """
        _profiling = obs.enabled()
        with obs.span(
            "sim.run", network=self.net.name, nodes=self.net.num_nodes
        ) as _sp:
            _t0 = time.perf_counter() if _profiling else 0.0
            t_inject, src, dst = self._validated_arrays(injections)
            if self._timeline is None:
                run = self._run_batched(t_inject, src, dst, max_cycles)
            else:
                run = self._run_degraded(t_inject, src, dst, max_cycles)
            (acc, t_deliver, hops, offh, horizon, busy_time,
             events_processed, buckets_processed, max_depth,
             dropped, retransmitted, rerouted) = run

            if _profiling:
                self._report_obs(
                    _sp, _t0, t_inject, t_deliver, hops, horizon, acc,
                    events_processed, buckets_processed, max_depth,
                    dropped, retransmitted, rerouted,
                )

        return SimStats.from_streaming(
            acc,
            injected=len(t_inject),
            horizon=horizon,
            busy_time=busy_time,
            arc_sources=self._arc_sources,
            arc_targets=self._indices,
            module_of=self.module_of,
            num_nodes=self.net.num_nodes,
            dropped=dropped,
            retransmitted=retransmitted,
            rerouted=rerouted,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _inject(t_inject: np.ndarray):
        """Seed the calendar with the injection batch, grouped by cycle."""
        buckets: dict[int, list[np.ndarray]] = {}
        times: list[int] = []
        if len(t_inject):
            order = np.argsort(t_inject, kind="stable")
            ts = t_inject[order]
            cuts = np.flatnonzero(np.r_[True, ts[1:] != ts[:-1]])
            bounds = cuts.tolist() + [ts.size]
            for s, e in zip(bounds, bounds[1:]):
                tt = int(ts[s])
                buckets[tt] = [order[s:e]]  # repro: noqa[RPR022] — one insert per distinct cycle, O(cycles) not O(packets)
                times.append(tt)
            heapq.heapify(times)
        return buckets, times

    def _run_batched(self, t_inject, src, dst, max_cycles):
        """Fault-free path: retire a whole calendar bucket per step."""
        npkt = len(t_inject)
        pos = src.copy()
        hops = np.zeros(npkt, dtype=np.int64)
        offh = np.zeros(npkt, dtype=np.int64)
        t_deliver = np.full(npkt, -1, dtype=np.int64)

        buckets, times = self._inject(t_inject)
        busy_until = np.zeros(len(self.channels), dtype=np.int64)
        busy_time = np.zeros(len(self.channels), dtype=np.int64)
        delays = self.delays
        mod = self.module_of
        table = self._table.table if self._table is not None else None
        lookup_many = self.channels.lookup_many
        amap = self.channels.arc_map()
        nh = self.next_hop
        n = self.net.num_nodes
        guard = 4 * self.net.num_nodes + 64
        horizon = 0
        events_processed = 0
        buckets_processed = 0
        pending = npkt
        max_depth = npkt

        while times:  # repro: noqa[RPR020] — calendar loop (per bucket); scalar indexing below is the documented ≤48-event fast path
            tcur = heapq.heappop(times)
            if max_cycles is not None and tcur > max_cycles:
                events_processed += 1  # the reference pops the breaking event
                break
            chunks = buckets.pop(tcur)
            # chunks arrive in creation order and each chunk is internally
            # seq-sorted, and seqs are handed out monotonically — so the
            # concatenation is already in FIFO (seq) order, no sort needed
            pids = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)  # repro: noqa[RPR021] — each bucket's chunks merge exactly once, no quadratic regrowth
            events_processed += pids.size
            buckets_processed += 1
            pending -= pids.size

            if pids.size <= 48:
                # tiny buckets (drain tails, light loads): the vectorized
                # pipeline's fixed per-bucket cost dominates, so walk the
                # events scalar — same math, same order, same results
                for pid in pids.tolist():  # repro: noqa[RPR020] — intentional ≤48-event scalar fast path
                    node = int(pos[pid])
                    dstv = int(dst[pid])
                    if node == dstv:
                        t_deliver[pid] = tcur
                        if tcur > horizon:
                            horizon = tcur
                        continue
                    if hops[pid] > guard:
                        raise RuntimeError(
                            f"packet {pid} exceeded the hop guard — "
                            f"routing loop?"
                        )
                    nxt = int(table[dstv, node]) if table is not None else (
                        int(nh(node, dstv))
                    )
                    c = (
                        amap.get(node * n + nxt) if 0 <= nxt < n else None
                    )  # range check first: a negative id would alias a key
                    if c is None:
                        raise self.channels._missing(node, nxt)
                    bu = int(busy_until[c])
                    base = tcur if tcur > bu else bu
                    dl = int(delays[c])
                    fin = base + dl
                    busy_until[c] = fin
                    busy_time[c] += dl
                    hops[pid] += 1
                    if mod is not None and mod[node] != mod[nxt]:
                        offh[pid] += 1
                    pos[pid] = nxt
                    if fin > horizon:
                        horizon = fin
                    lst = buckets.get(fin)
                    if lst is None:
                        buckets[fin] = [np.array([pid], dtype=np.int64)]
                        heapq.heappush(times, fin)
                    else:
                        lst.append(np.array([pid], dtype=np.int64))
                    pending += 1
                if pending > max_depth:
                    max_depth = pending
                continue

            nodes = pos[pids]
            at_dst = nodes == dst[pids]
            if at_dst.any():
                t_deliver[pids[at_dst]] = tcur
                if tcur > horizon:
                    horizon = tcur
                act = pids[~at_dst]
                nodes = nodes[~at_dst]
            else:
                act = pids
            if act.size == 0:
                continue
            over = hops[act] > guard
            if over.any():
                bad = int(act[np.flatnonzero(over)[0]])
                raise RuntimeError(
                    f"packet {bad} exceeded the hop guard — routing loop?"
                )
            dsts = dst[act]
            if table is not None:
                nxt = table[dsts, nodes].astype(np.int64)
            else:
                nh = self.next_hop
                nxt = np.fromiter(
                    (nh(int(u), int(d)) for u, d in zip(nodes, dsts)),
                    dtype=np.int64,
                    count=act.size,
                )
            c = lookup_many(nodes, nxt)

            # contention: group events by channel, preserving creation
            # (seq) order, and stack each group behind the channel's
            # current busy horizon — slot k departs at base + (k+1)·delay
            corder = np.argsort(c, kind="stable")
            cs = c[corder]
            neq = np.empty(cs.size, dtype=bool)
            neq[0] = True
            np.not_equal(cs[1:], cs[:-1], out=neq[1:])
            cuts = np.flatnonzero(neq)
            uchan = cs[cuts]
            ends = np.empty(cuts.size, dtype=np.int64)
            ends[:-1] = cuts[1:]
            ends[-1] = cs.size
            counts = ends - cuts
            d = delays[uchan]
            base = np.maximum(tcur, busy_until[uchan])
            slot = np.arange(cs.size, dtype=np.int64) - np.repeat(cuts, counts)
            finish_sorted = np.repeat(base, counts) + (slot + 1) * np.repeat(
                d, counts
            )
            busy_until[uchan] = base + counts * d
            busy_time[uchan] += counts * d
            finish = np.empty_like(finish_sorted)
            finish[corder] = finish_sorted

            hops[act] += 1
            if mod is not None:
                offh[act] += mod[nodes] != mod[nxt]
            pos[act] = nxt
            hmax = int(finish_sorted.max())
            if hmax > horizon:
                horizon = hmax

            forder = np.argsort(finish, kind="stable")
            fp = act[forder]
            ft = finish[forder]
            neq = np.empty(ft.size, dtype=bool)
            neq[0] = True
            np.not_equal(ft[1:], ft[:-1], out=neq[1:])
            bounds = np.flatnonzero(neq).tolist() + [ft.size]
            for s, e in zip(bounds, bounds[1:]):
                tt = int(ft[s])
                lst = buckets.get(tt)
                if lst is None:
                    buckets[tt] = [fp[s:e]]
                    heapq.heappush(times, tt)
                else:
                    lst.append(fp[s:e])
            pending += act.size
            if pending > max_depth:
                max_depth = pending

        acc = StreamingStats()
        done = t_deliver >= 0
        if done.any():
            acc.observe_array(
                t_deliver[done] - t_inject[done], hops[done], offh[done]
            )
        return (acc, t_deliver, hops, offh, horizon, busy_time,
                events_processed, buckets_processed, max_depth, 0, 0, 0)

    # ------------------------------------------------------------------
    def _run_degraded(self, t_inject, src, dst, max_cycles):  # repro: noqa[RPR020,RPR021,RPR022] — per-event by design: mirrors the reference engine's fault semantics verbatim
        """Degraded-mode path: calendar queue, per-event fault decisions.

        Fault timelines and the three-stage resilient router are consulted
        per packet, so this path walks each bucket's events individually —
        in the same creation order as the batched path — and mirrors the
        reference engine's drop/retransmit/deroute semantics exactly.
        """
        from collections import deque

        npkt = len(t_inject)
        pos = src.copy()
        hops = np.zeros(npkt, dtype=np.int64)
        offh = np.zeros(npkt, dtype=np.int64)
        t_deliver = np.full(npkt, -1, dtype=np.int64)
        retries = np.zeros(npkt, dtype=np.int64)
        deroutes = np.zeros(npkt, dtype=np.int64)
        chan_in = np.full(npkt, -1, dtype=np.int64)  # channel arrived on
        tx_start = t_inject.copy()  # transmit start of the arrival channel
        routes: dict[int, deque] = {}  # pinned survivor detours

        buckets, times = self._inject(t_inject)
        busy_until = np.zeros(len(self.channels), dtype=np.int64)
        busy_time = np.zeros(len(self.channels), dtype=np.int64)
        delays = self.delays
        mod = self.module_of
        timeline = self._timeline
        router = self._router
        arc_src = self._arc_sources
        arc_dst = self._indices
        amap = self.channels.arc_map()
        n = self.net.num_nodes
        guard = 4 * self.net.num_nodes + 64
        horizon = 0
        events_processed = 0
        buckets_processed = 0
        pending = npkt
        max_depth = npkt
        dropped = retransmitted = rerouted = 0

        def _push(pid: int, at: int) -> None:
            nonlocal pending
            lst = buckets.get(at)
            if lst is None:
                buckets[at] = [np.array([pid], dtype=np.int64)]
                heapq.heappush(times, at)
            else:
                lst.append(np.array([pid], dtype=np.int64))
            pending += 1

        def _drop(pid: int, now: int) -> None:
            """Drop the current attempt; retransmit from source with
            exponential backoff, or abandon past max_retries."""
            nonlocal dropped, retransmitted
            dropped += 1
            routes.pop(pid, None)
            if retries[pid] >= self.max_retries:
                return
            retries[pid] += 1
            hops[pid] = 0
            offh[pid] = 0
            deroutes[pid] = 0
            at = now + self.retransmit_timeout * (1 << (int(retries[pid]) - 1))
            pos[pid] = src[pid]
            chan_in[pid] = -1
            tx_start[pid] = at
            _push(pid, at)
            retransmitted += 1

        stop = False
        while times and not stop:
            tcur = heapq.heappop(times)
            if max_cycles is not None and tcur > max_cycles:
                events_processed += 1
                break
            chunks = buckets.pop(tcur)
            # concatenation is already in creation (FIFO) order — see the
            # batched path
            pids = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
            buckets_processed += 1
            for pid in pids.tolist():
                events_processed += 1
                pending -= 1
                node = int(pos[pid])
                chan = int(chan_in[pid])
                # the link died while the packet occupied it, or the
                # packet landed on a node that is (now) down
                if chan >= 0 and timeline.link_down_during(
                    int(arc_src[chan]), int(arc_dst[chan]),
                    int(tx_start[pid]), tcur,
                ):
                    _drop(pid, tcur)
                    continue
                if not timeline.node_up_at(node, tcur):
                    _drop(pid, tcur)
                    continue
                dstv = int(dst[pid])
                if node == dstv:
                    t_deliver[pid] = tcur
                    if tcur > horizon:
                        horizon = tcur
                    continue
                if hops[pid] > guard:  # treat livelock as a loss, not a crash
                    _drop(pid, tcur)
                    continue
                nxt = -1
                rt = routes.get(pid)
                if rt:
                    cand = rt[0]
                    if router is not None and router.hop_alive(node, cand, tcur):
                        nxt = rt.popleft()
                    else:
                        routes.pop(pid, None)  # detour went stale — replan
                if nxt < 0:
                    if router is not None:
                        nxt, verdict, rest = router.route_next(node, dstv, tcur)
                        if nxt < 0:
                            _drop(pid, tcur)
                            continue
                        if verdict == "deroute":
                            deroutes[pid] += 1
                            if deroutes[pid] > self.max_deroutes:
                                _drop(pid, tcur)
                                continue
                            routes[pid] = deque(rest)
                            rerouted += 1
                        elif verdict == "reroute":
                            rerouted += 1
                    else:
                        # custom router: use its hop, drop if it is dead
                        nxt = self.next_hop(node, dstv)
                        if not (
                            timeline.link_up_at(node, nxt, tcur)
                            and timeline.node_up_at(nxt, tcur)
                        ):
                            _drop(pid, tcur)
                            continue
                c = (
                    amap.get(node * n + nxt) if 0 <= nxt < n else None
                )  # range check first: a negative id would alias a key
                if c is None:
                    raise self.channels._missing(node, nxt)
                tx = max(tcur, int(busy_until[c]))
                finish = tx + int(delays[c])
                busy_until[c] = finish
                busy_time[c] += int(delays[c])
                hops[pid] += 1
                if mod is not None and mod[node] != mod[nxt]:
                    offh[pid] += 1
                pos[pid] = nxt
                chan_in[pid] = c
                tx_start[pid] = tx
                _push(pid, finish)
                if finish > horizon:
                    horizon = finish
            if pending > max_depth:
                max_depth = pending

        acc = StreamingStats()
        done = t_deliver >= 0
        if done.any():
            acc.observe_array(
                t_deliver[done] - t_inject[done], hops[done], offh[done]
            )
        return (acc, t_deliver, hops, offh, horizon, busy_time,
                events_processed, buckets_processed, max_depth,
                dropped, retransmitted, rerouted)

    # ------------------------------------------------------------------
    def _report_obs(
        self, _sp, _t0, t_inject, t_deliver, hops, horizon, acc,
        events_processed, buckets_processed, max_depth,
        dropped, retransmitted, rerouted,
    ) -> None:
        """Emit the run's counters/gauges (profiling enabled only)."""
        _reg = obs.registry()
        dt = time.perf_counter() - _t0
        faulted = self._timeline is not None
        delivered = 0
        for pid in np.flatnonzero(t_deliver >= 0).tolist():  # repro: noqa[RPR020] — profiling-only path (obs enabled), off the hot run
            delivered += 1
            lat = int(t_deliver[pid] - t_inject[pid])
            _reg.observe("sim.latency", lat)
            _reg.observe("sim.hops", int(hops[pid]))
            if faulted:
                _reg.observe("sim.fault_latency", lat)
        _reg.incr("sim.runs")
        _reg.incr("sim.events", events_processed)
        _reg.incr("sim.buckets", buckets_processed)
        _reg.incr("sim.packets_injected", len(t_inject))
        _reg.incr("sim.packets_delivered", delivered)
        _reg.gauge_max("sim.max_queue_depth", max_depth)
        _reg.gauge("sim.events_per_sec", events_processed / dt if dt else 0.0)
        _reg.gauge("sim.delivered_per_sec", delivered / dt if dt else 0.0)
        if faulted:
            _reg.incr("sim.faults.drops", dropped)
            _reg.incr("sim.faults.retransmits", retransmitted)
            _reg.incr("sim.faults.reroutes", rerouted)
            if self._router is not None:
                _reg.incr("sim.faults.deroutes", self._router.deroutes)
        _sp.set(
            events=events_processed,
            buckets=buckets_processed,
            packets=len(t_inject),
            delivered=delivered,
            max_queue_depth=max_depth,
            horizon=int(max(horizon, 1)),
        )
