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
* packets follow a deterministic routing backend (the shortest-path table
  by default, or any :class:`~repro.routing.table.RoutingBackend` such as
  the Theorem-4.1 sorter's), asked once per bucket for every packet's hop.

**Engine shape.**  Packets live in contiguous NumPy arrays (``src`` /
``dst`` / ``pos`` / ``t_inject`` / ``hops`` / ...), one slot per packet —
a packet has at most one pending event, so the arrays *are* the event
records.  Events sit in a calendar queue (a bucket of packet ids per
integer cycle; service delays are >= 1, so every new event lands strictly
in the future).  A whole bucket is retired per step: route lookups are one
``step(nodes, dsts, state)`` call on the backend (for the table, one
fancy-indexing pass; each packet carries one int64 routing state, zero at
injection and at every retransmission), channel resolution is one
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
(see ``tests/sim_oracle.py``).  The same bucket loop runs: a decision
stage checks the whole bucket against the compiled fault timeline's
interval arrays (in-flight link deaths, dead nodes, delivery, the hop
guard, dead destinations, the backend's hop and whether it is alive).  A
passed backend's dead hop is a drop, decided in bulk; with the default
table only the residue — pinned survivor detours and dead primary hops
that need the resilient router — is decided one packet at a time, in
creation order.  Every decision depends only on the packet, the timeline
and the cycle, never on the channels, so deciding first and contending
after reproduces the per-event order.  Drops and retransmissions are
scheduled in bulk, merged with the forwarded packets in creation order.
With no plan — or an empty one — the decision stage is skipped.
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from collections.abc import Iterable

import numpy as np

from repro import obs
from repro.core.network import Network
from repro.routing.table import NextHopTable, RoutingBackend, shared_table

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
    routing:
        A :class:`~repro.routing.table.RoutingBackend`, asked
        ``step(nodes, dsts, state)`` once per event bucket; it is in charge
        of hop choice, and under faults its dead hops are drops (no
        rerouting).  ``None`` (default) routes on the network's
        :func:`~repro.routing.table.shared_table` (built once per network),
        with a :class:`~repro.fault.ResilientRouter` under faults.
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
        routing: RoutingBackend | None = None,
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
        if retransmit_timeout << max(max_retries - 1, 0) >= 1 << 62:
            raise ValueError(
                f"retransmit backoff overflows int64 cycles: "
                f"retransmit_timeout={retransmit_timeout} doubled over "
                f"max_retries={max_retries}"
            )
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
        # the default table: read scalar in tiny buckets, rerouted around
        # faults; a passed backend is asked in bulk on every bucket
        self._table: NextHopTable | None = None
        if routing is None:
            if self._timeline is not None:
                from repro.fault.resilient import ResilientRouter

                self._router = ResilientRouter(net, self._timeline)
                self._table = self._router.table
            else:
                self._table = shared_table(net)
            routing = self._table
        self.routing = routing
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
            Optional hard stop (>= 0); packets still in flight are reported
            as undelivered.

        Returns
        -------
        SimStats
        """
        if max_cycles is not None and max_cycles < 0:
            raise ValueError(f"max_cycles must be >= 0, got {max_cycles}")
        _profiling = obs.enabled()
        with obs.span(
            "sim.run", network=self.net.name, nodes=self.net.num_nodes
        ) as _sp:
            _t0 = time.perf_counter() if _profiling else 0.0
            t_inject, src, dst = self._validated_arrays(injections)
            run = self._run(t_inject, src, dst, max_cycles)
            (acc, t_deliver, hops, offh, horizon, busy_time,
             events_processed, buckets_processed, max_depth,
             dropped, retransmitted, rerouted) = run

            if _profiling:
                self._report_obs(
                    _sp, _t0, t_inject, t_deliver, hops, horizon,
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

    def _run(self, t_inject, src, dst, max_cycles):
        """Retire a whole calendar bucket per step, healthy or degraded."""
        npkt = len(t_inject)
        pos = src.copy()
        hops = np.zeros(npkt, dtype=np.int64)
        offh = np.zeros(npkt, dtype=np.int64)
        state = np.zeros(npkt, dtype=np.int64)  # the backend's, per packet
        t_deliver = np.full(npkt, -1, dtype=np.int64)

        buckets, times = self._inject(t_inject)
        busy_until = np.zeros(len(self.channels), dtype=np.int64)
        busy_time = np.zeros(len(self.channels), dtype=np.int64)
        delays = self.delays
        mod = self.module_of
        table = self._table.table if self._table is not None else None
        step = self.routing.step
        lookup_many = self.channels.lookup_many
        amap = self.channels.arc_map()
        n = self.net.num_nodes
        guard = 4 * self.net.num_nodes + 64
        faults = (
            None if self._timeline is None
            else _Degraded(self, t_inject, src, dst, pos, hops, offh, state)
        )
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
            if pids.size <= 48 and table is not None:
                # tiny buckets (drain tails, light loads) on the default
                # table: the vectorized pipeline's fixed per-bucket cost
                # dominates, so walk the events scalar — same math, same
                # order, same results
                for pid in pids.tolist():  # repro: noqa[RPR020] — intentional ≤48-event scalar fast path
                    node = int(pos[pid])
                    dstv = int(dst[pid])
                    lost = faults is not None and faults.lost(tcur, pid, node)
                    if not lost and node == dstv:
                        t_deliver[pid] = tcur
                        if tcur > horizon:
                            horizon = tcur
                        continue
                    if lost or hops[pid] > guard:
                        if faults is None:
                            raise RuntimeError(
                                f"packet {pid} exceeded the hop guard — "
                                f"routing loop?"
                            )
                        nxt = None  # lost on arrival, or livelocked: a drop
                    elif faults is not None:
                        nxt = faults.route_one(tcur, pid, node, dstv)
                    else:
                        nxt = int(table[dstv, node])
                    if nxt is None:
                        fin = faults.drop_one(tcur, pid)
                        if fin < 0:
                            continue
                    else:
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
                        if faults is not None:
                            faults.chan_in[pid] = c
                            faults.tx_start[pid] = base
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

            if faults is None:
                nodes = pos[pids]
                at_dst = nodes == dst[pids]
                act = pids[~at_dst]
                nodes = nodes[~at_dst]
                over = hops[act] > guard
                if over.any():
                    bad = int(act[np.flatnonzero(over)[0]])
                    raise RuntimeError(
                        f"packet {bad} exceeded the hop guard — routing loop?"
                    )
                nxt, state[act] = step(nodes, dst[act], state[act])
            else:
                fwd, nxt, at_dst, drop = faults.decide(tcur, pids)
                act = pids[fwd]
                nodes = pos[act]
            if at_dst.any():
                t_deliver[pids[at_dst]] = tcur
                if tcur > horizon:
                    horizon = tcur
            finish = np.empty(0, dtype=np.int64)
            if act.size:
                c = lookup_many(nodes, nxt)
                finish = self._contend(tcur, c, busy_until, busy_time)
                hops[act] += 1
                if mod is not None:
                    offh[act] += mod[nodes] != mod[nxt]
                pos[act] = nxt
                hmax = int(finish.max())
                if hmax > horizon:
                    horizon = hmax
            fp, ft = act, finish
            if faults is not None:
                if act.size:
                    faults.sent(act, c, finish)
                resent = faults.drop(tcur, pids, drop)
                if resent is not None:
                    # retransmissions join the forwarded packets in bucket
                    # (creation) order: one push time per bucket slot
                    at = np.full(pids.size, -1, dtype=np.int64)
                    at[fwd] = finish
                    at[resent[0]] = resent[1]
                    keep = np.flatnonzero(at >= 0)
                    fp, ft = pids[keep], at[keep]
            if fp.size == 0:
                continue
            forder = np.argsort(ft, kind="stable")
            fp = fp[forder]
            ft = ft[forder]
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
            pending += fp.size
            if pending > max_depth:
                max_depth = pending

        acc = StreamingStats()
        done = t_deliver >= 0
        if done.any():
            acc.observe_array(
                t_deliver[done] - t_inject[done], hops[done], offh[done]
            )
        dropped = retransmitted = rerouted = 0
        if faults is not None:
            dropped = faults.dropped
            retransmitted = faults.retransmitted
            rerouted = faults.rerouted
        return (acc, t_deliver, hops, offh, horizon, busy_time,
                events_processed, buckets_processed, max_depth,
                dropped, retransmitted, rerouted)

    def _contend(self, tcur, c, busy_until, busy_time) -> np.ndarray:
        """Finish cycle of each hop onto channel ``c[i]`` (bucket order).

        Groups the hops by channel, preserving creation (seq) order, and
        stacks each group behind the channel's current busy horizon — slot
        k departs at ``base + (k+1)·delay``.
        """
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
        d = self.delays[uchan]
        base = np.maximum(tcur, busy_until[uchan])
        slot = np.arange(cs.size, dtype=np.int64) - np.repeat(cuts, counts)
        finish_sorted = np.repeat(base, counts) + (slot + 1) * np.repeat(
            d, counts
        )
        busy_until[uchan] = base + counts * d
        busy_time[uchan] += counts * d
        finish = np.empty_like(finish_sorted)
        finish[corder] = finish_sorted
        return finish

    # ------------------------------------------------------------------
    def _report_obs(
        self, _sp, _t0, t_inject, t_deliver, hops, horizon,
        events_processed, buckets_processed, max_depth,
        dropped, retransmitted, rerouted,
    ) -> None:
        """Emit the run's counters/gauges (profiling enabled only)."""
        _reg = obs.registry()
        dt = time.perf_counter() - _t0
        faulted = self._timeline is not None
        done = t_deliver >= 0
        lat = t_deliver[done] - t_inject[done]
        delivered = int(lat.size)
        _reg.observe_array("sim.latency", lat)
        _reg.observe_array("sim.hops", hops[done])
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


class _Degraded:
    """Degraded-mode state of one run, and its drop / route decisions.

    Shares the run's packet arrays (``pos``/``hops``/``offh`` and the
    backend's ``state``, reset at each retransmission) and adds
    what faults need: the channel a packet arrived on and when its
    transmission started (to drop it if that link died in flight), retry
    and detour counts, and pinned survivor detours.  Every query goes to
    the compiled timeline's interval arrays.
    """

    def __init__(self, sim, t_inject, src, dst, pos, hops, offh, state):
        npkt = len(t_inject)
        self.tl = sim._timeline
        self.router = sim._router
        self.step = sim.routing.step
        self.missing = sim.channels._missing
        self.n = sim.net.num_nodes
        self.delays = sim.delays
        self.arc_src = sim._arc_sources
        self.arc_dst = sim._indices
        self.guard = 4 * sim.net.num_nodes + 64
        self.max_retries = sim.max_retries
        self.max_deroutes = sim.max_deroutes
        self.rto = sim.retransmit_timeout
        self.src, self.dst = src, dst
        self.pos, self.hops, self.offh, self.state = pos, hops, offh, state
        self.retries = np.zeros(npkt, dtype=np.int64)
        self.deroutes = np.zeros(npkt, dtype=np.int64)
        self.chan_in = np.full(npkt, -1, dtype=np.int64)  # channel arrived on
        self.tx_start = t_inject.copy()  # transmit start on that channel
        self.pinned = np.zeros(npkt, dtype=bool)  # routes[pid] is live
        self.routes: dict[int, deque] = {}  # pinned survivor detours
        # channel -> column of its undirected link in the timeline (-1:
        # never fails), plus a trailing -1 for "arrived on no channel"
        self.chan_col = np.concatenate(
            [self.tl.link_columns(self.arc_src, self.arc_dst), [-1]]
        )
        self.dropped = self.retransmitted = self.rerouted = 0

    def decide(self, t, pids):
        """Drop, deliver or route every packet of a bucket at cycle ``t``.

        Returns masks over ``pids`` — packets that move on (``fwd``), that
        are delivered, that are dropped — and the next hops of the ``fwd``
        packets.  One backend ``step`` gives every free packet its hop; a
        passed backend's dead hop is a drop.  With the default table only
        the residue (pinned detours, dead primary hops) is decided per
        packet, by the resilient router.
        """
        tl = self.tl
        nodes = self.pos[pids]
        dsts = self.dst[pids]
        # the link died while the packet occupied it, or the packet landed
        # on a node that is (now) down
        drop = tl.links_down_during(
            self.chan_col[self.chan_in[pids]], self.tx_start[pids], t
        )
        if tl.node_down:
            drop |= ~tl.nodes_up_at(nodes, t)
        at_dst = nodes == dsts
        at_dst &= ~drop
        go = ~(drop | at_dst)
        over = self.hops[pids] > self.guard
        if over.any():  # livelock is a loss
            over &= go
            drop |= over
            go &= ~over
        fwd = np.zeros(pids.size, dtype=bool)
        nxt = np.full(pids.size, -1, dtype=np.int64)
        router = self.router
        free = go & ~self.pinned[pids]
        if router is not None and tl.node_down:
            dead_dst = free & ~tl.nodes_up_at(dsts, t)
            if dead_dst.any():  # route_next's verdict for these, in bulk
                router.unreachable += int(dead_dst.sum())
                drop |= dead_dst
                go &= ~dead_dst
                free &= ~dead_dst
        fi = np.flatnonzero(free)
        if fi.size:
            hop, st = self.step(nodes[fi], dsts[fi], self.state[pids[fi]])
            bad = (hop < 0) | (hop >= self.n)
            if bad.any():  # an out-of-range id would alias a timeline slot
                j = int(np.flatnonzero(bad)[0])
                raise self.missing(int(nodes[fi[j]]), int(hop[j]))
            alive = tl.hops_alive(nodes[fi], hop, t)
            ok = fi[alive]
            nxt[ok] = hop[alive]
            fwd[ok] = True
            self.state[pids[ok]] = st[alive]
            if router is None:  # a passed backend cannot reroute: drop
                drop[fi[~alive]] = True
                go[fi[~alive]] = False
        for i in np.flatnonzero(go & ~fwd).tolist():  # repro: noqa[RPR020] — scalar residue of the default table: pinned detours and dead primary hops, ~1% of a faulted run's events
            v = self.route_one(t, int(pids[i]), int(nodes[i]), int(dsts[i]))
            if v is None:
                drop[i] = True
            else:
                nxt[i] = v
                fwd[i] = True
        return fwd, nxt[fwd], at_dst, drop

    def lost(self, t: int, pid: int, node: int) -> bool:
        """Scalar arrival check: did the packet's link die while it was on
        it, or is the node it landed on down?"""
        tl = self.tl
        c = int(self.chan_in[pid])
        if self.chan_col[c] >= 0 and tl.link_down_during(
            int(self.arc_src[c]), int(self.arc_dst[c]), int(self.tx_start[pid]), t
        ):
            return True
        return not tl.node_up_at(node, t)

    def route_one(self, t: int, pid: int, u: int, d: int) -> int | None:
        """Next hop of one packet at ``u`` toward ``d`` on the default
        table, or ``None`` to drop it: follow its pinned detour while
        alive, else ask the resilient router (primary / reroute / deroute /
        unreachable)."""
        router = self.router
        if self.pinned[pid]:
            rt = self.routes[pid]
            if router.hop_alive(u, rt[0], t):
                self.pinned[pid] = len(rt) > 1
                return rt.popleft()
            self.pinned[pid] = False  # detour went stale — replan
        v, verdict, rest = router.route_next(u, d, t)
        if verdict == "deroute":
            self.deroutes[pid] += 1
            if self.deroutes[pid] > self.max_deroutes:
                return None
            if rest:
                self.routes[pid] = deque(rest)
                self.pinned[pid] = True
        if v < 0:
            return None
        if verdict != "primary":
            self.rerouted += 1
        return v

    def drop_one(self, t: int, pid: int) -> int:
        """Scalar :meth:`drop` of one packet: its retransmission cycle, or
        ``-1`` if it is abandoned."""
        self.dropped += 1
        self.pinned[pid] = False
        if self.retries[pid] >= self.max_retries:
            return -1
        self.retries[pid] += 1
        self.hops[pid] = self.offh[pid] = self.deroutes[pid] = 0
        self.state[pid] = 0
        at = t + (self.rto << (int(self.retries[pid]) - 1))
        self.pos[pid] = self.src[pid]
        self.chan_in[pid] = -1
        self.tx_start[pid] = at
        self.retransmitted += 1
        return at

    def drop(self, t, pids, mask):
        """Drop the masked attempts; reschedule each from its source with
        exponential backoff, or abandon it past ``max_retries``.  Returns
        ``(slots, at)`` of the retransmissions, or ``None``."""
        slots = np.flatnonzero(mask)
        if slots.size == 0:
            return None
        dp = pids[slots]
        self.dropped += dp.size
        self.pinned[dp] = False
        retry = self.retries[dp] < self.max_retries
        slots, rp = slots[retry], dp[retry]
        if rp.size == 0:
            return None
        self.retries[rp] += 1
        self.hops[rp] = 0
        self.offh[rp] = 0
        self.deroutes[rp] = 0
        self.state[rp] = 0
        at = t + (self.rto << (self.retries[rp] - 1))
        self.pos[rp] = self.src[rp]
        self.chan_in[rp] = -1
        self.tx_start[rp] = at
        self.retransmitted += rp.size
        return slots, at

    def sent(self, act, chans, finish) -> None:
        """Record the channel each forwarded packet took and when its
        transmission started."""
        self.chan_in[act] = chans
        self.tx_start[act] = finish - self.delays[chans]
