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
  the Theorem-4.1 sorter's).

**Engine shape.**  Packets live in contiguous NumPy arrays, one slot per
packet — a packet has at most one pending event, so the arrays *are* the
event records.  Events sit in a calendar queue (a bucket of packet ids per
integer cycle; service delays are >= 1, so every new event lands strictly
in the future), and a whole bucket is retired per step.  Without faults a
route never depends on the cycle, so every packet's channels are found
before the first cycle — one backend ``step`` and one
:meth:`~repro.sim.policies.ChannelIndex.find` per hop index over all
packets still en route — and a bucket reads its hops from that flat route
array by per-packet cursor; a route that ends in an error raises when its
packet gets there, as in the oracle.  Contention resolves per channel
group as ``base + k·delay`` after one radix sort by channel, and the
bucket's packets are rescheduled with one stable sort by finish cycle.
The batched stage costs ~10–20 µs per bucket, so a run of 1–2-event
buckets (a light load on a small network) pays that per event.

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
from repro.routing.table import RoutingBackend, shared_table

if False:  # import for type checkers only — repro.fault imports repro.sim
    from repro.fault.plan import FaultPlan, FaultTimeline  # noqa: F401

from .policies import ChannelIndex, channel_inputs, injection_arrays
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
        A :class:`~repro.routing.table.RoutingBackend`, in charge of hop
        choice: asked ``step(nodes, dsts, state)`` once per hop index before
        a healthy run, once per event bucket under faults, where its dead
        hops are drops (no rerouting).  ``None`` (default) routes on the network's
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
        self.delays, self.module_of = channel_inputs(
            self.channels, delays, module_of
        )
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
        # contention sorts channel ids: 16 bits take numpy's radix sort
        self._chan_key = np.int16 if len(self.channels) <= 2**15 else np.int64
        self._indices = self.channels.indices

        self._timeline: "FaultTimeline | None" = (
            faults.compile(net) if faults is not None else None
        )
        if self._timeline is not None and self._timeline.empty:
            self._timeline = None
        self._router = None
        if routing is None:  # the shared table, rerouted around faults
            if self._timeline is not None:
                from repro.fault.resilient import ResilientRouter

                self._router = ResilientRouter(net, self._timeline)
                routing = self._router.table
            else:
                routing = shared_table(net)
        self.routing = routing

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
            (need not be sorted; an array is the zero-copy path of e.g.
            :func:`repro.sim.workloads.uniform_random_array`).  Validated up
            front by :func:`~repro.sim.policies.injection_arrays` (integer
            values, times >= 0, node ids in range), then ``src != dst``.
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
            t_inject, src, dst = injection_arrays(self.net, injections)
            same = np.flatnonzero(src == dst)
            if same.size:  # checked after every row's time and node ids
                i = int(same[0])
                raise ValueError(
                    f"injection #{i}: src == dst == {int(src[i])}; "
                    f"self-addressed packets are not routable — filter them "
                    f"out of the workload (see repro.sim.workloads)"
                )
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
    def _run(self, t_inject, src, dst, max_cycles):
        """Retire a whole calendar bucket per step, healthy or degraded."""
        npkt = len(t_inject)
        t_deliver = np.full(npkt, -1, dtype=np.int64)
        buckets: dict[int, list[np.ndarray]] = {}
        times: list[int] = []
        _schedule(buckets, times, np.arange(npkt, dtype=np.int64), t_inject, 0)
        busy_until = np.zeros(len(self.channels), dtype=np.int64)
        busy_time = None  # healthy: summed over the routes taken, at the end
        if self._timeline is None:
            faults = None
            route, cursor, end, hops, offh, failed = self._routes(src, dst)
        else:
            faults = _Degraded(self, t_inject, src, dst)
            hops, offh = faults.hops, faults.offh
            busy_time = np.zeros(len(self.channels), dtype=np.int64)
        events_processed = 0
        buckets_processed = 0
        pending = npkt
        max_depth = npkt

        while times:  # repro: noqa[RPR020] — calendar loop, one iteration per bucket; `at[fwd]` scatters by a boolean mask
            tcur, pids = _pop(buckets, times)
            if max_cycles is not None and tcur > max_cycles:
                events_processed += 1  # the reference pops the breaking event
                break
            events_processed += pids.size
            buckets_processed += 1
            pending -= pids.size

            if faults is None:
                # a packet's cursor walks its precomputed route; at the end
                # of it the packet is delivered (or fails, see _routes)
                k = cursor[pids]
                go = k < end[pids]
                act = pids[go]
                if act.size < pids.size:
                    done = pids[~go]
                    if failed.size:
                        self._raise_first(done, failed)
                    t_deliver[done] = tcur
                    k = k[go]
                fp = act
                ft = self._contend(tcur, route[k], busy_until, busy_time)
                cursor[act] = k + 1
            else:
                fwd, nxt, c, at_dst, drop = faults.decide(tcur, pids)
                t_deliver[pids[at_dst]] = tcur
                act = pids[fwd]
                finish = self._contend(tcur, c, busy_until, busy_time)
                faults.move(act, nxt, c, finish)
                fp, ft = act, finish
                resent = faults.drop(tcur, pids, drop)
                if resent is not None:
                    # retransmissions join the forwarded packets in bucket
                    # (creation) order: one push time per bucket slot
                    at = np.full(pids.size, -1, dtype=np.int64)
                    at[fwd] = finish
                    at[resent[0]] = resent[1]
                    keep = (at >= 0).nonzero()[0]
                    fp, ft = pids[keep], at[keep]
            _schedule(buckets, times, fp, ft, tcur)
            pending += fp.size
            if pending > max_depth:
                max_depth = pending

        # every delivery lands at some hop's finish cycle, and each
        # channel's busy_until is its latest finish: the horizon is their max
        horizon = int(busy_until.max(initial=0))
        if busy_time is None:  # each channel is busy its delay per hop taken
            taken = np.arange(route.size) < np.repeat(cursor, hops)
            busy_time = self.delays * np.bincount(
                route[taken], minlength=len(self.channels)
            )
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

    def _routes(self, src, dst):
        """Every packet's channels from source to destination, in hop order.

        Without faults a route depends on the packet alone, never on the
        cycle, so the backend is asked once per hop index for every packet
        still short of its destination: the ``step`` questions the run
        would ask bucket by bucket, batched by hop.  Returns the flat
        channel array ``route`` with each packet's ``[cursor, end)`` slice
        of it, hop and off-module hop counts, and ``failed``: one
        ``(pid, u, v)`` row, by pid, per packet whose route ends in an
        error — a hop ``u -> v`` that is not an arc, or (``u = v = -1``)
        more hops than the guard allows — raised when the run reaches that
        point of its route.
        """
        npkt = src.size
        guard = 4 * self.net.num_nodes + 64
        mod = self.module_of
        step = self.routing.step
        find = self.channels.find
        hops = np.zeros(npkt, dtype=np.int64)
        offh = np.zeros(npkt, dtype=np.int64)
        failed: list[np.ndarray] = []
        legs: list[tuple[np.ndarray, np.ndarray]] = []
        pids = np.arange(npkt, dtype=np.int64)
        nodes = src
        dsts = dst
        state = np.zeros(npkt, dtype=np.int64)  # the backend's, per packet
        for k in range(guard + 2):
            go = (nodes != dsts).nonzero()[0]  # gathers beat mask compresses
            if go.size < pids.size:
                pids, nodes, dsts, state = pids[go], nodes[go], dsts[go], state[go]
            if pids.size == 0:
                break
            if k > guard:  # caught in a routing loop
                loop = np.full((pids.size, 3), -1, dtype=np.int64)
                loop[:, 0] = pids
                failed.append(loop)
                break
            nxt, state = step(nodes, dsts, state)
            c = find(nodes, nxt)
            bad = c < 0
            if bad.any():
                failed.append(np.column_stack([pids[bad], nodes[bad], nxt[bad]]))
                ok = ~bad
                pids, nodes, dsts = pids[ok], nodes[ok], dsts[ok]
                state, nxt, c = state[ok], nxt[ok], c[ok]
            legs.append((pids, c))
            hops[pids] = k + 1
            if mod is not None:
                offh[pids] += mod[nodes] != mod[nxt]
            nodes = nxt
        cursor = np.zeros(npkt, dtype=np.int64)
        np.cumsum(hops[:-1], out=cursor[1:])
        route = np.empty(int(hops.sum()), dtype=np.int64)
        for k, (p, c) in enumerate(legs):
            route[cursor[p] + k] = c
        rows = (
            np.concatenate(failed) if failed else np.empty((0, 3), dtype=np.int64)
        )
        rows = rows[rows[:, 0].argsort()]
        return route, cursor, cursor + hops, hops, offh, rows

    def _raise_first(self, pids: np.ndarray, failed: np.ndarray) -> None:
        """Raise the route error of the first packet of ``pids`` that has
        one (``failed`` as returned by :meth:`_routes`)."""
        hit = np.isin(pids, failed[:, 0])
        if not hit.any():
            return
        p = int(pids[hit.argmax()])
        _, u, v = failed[np.searchsorted(failed[:, 0], p)].tolist()
        if u < 0:
            raise RuntimeError(f"packet {p} exceeded the hop guard — routing loop?")
        raise self.channels._missing(u, v)

    def _contend(self, tcur, c, busy_until, busy_time) -> np.ndarray:
        """Finish cycle of each hop onto channel ``c[i]`` (bucket order).

        Groups the hops by channel, preserving creation (seq) order, and
        stacks each group behind the channel's current busy horizon — slot
        k departs at ``base + (k+1)·delay``.  When no two hops share a
        channel (most small buckets) every k is 0, and the groups are not
        built.
        """
        if c.size == 0:
            return c
        # a 16-bit key takes numpy's radix sort (O(n), stable)
        corder = c.astype(self._chan_key).argsort(kind="stable")
        cs = c[corder]
        bounds = _run_bounds(cs)
        if bounds.size > c.size:  # one hop per channel: k = 0 everywhere
            d = self.delays[c]
            finish = np.maximum(busy_until[c], tcur) + d
            busy_until[c] = finish
            if busy_time is not None:
                busy_time[c] += d
            return finish
        cuts = bounds[:-1]
        counts = bounds[1:] - cuts
        uchan = cs[cuts]
        d = self.delays[uchan]
        base = np.maximum(busy_until[uchan], tcur)
        span = counts * d
        busy_until[uchan] = base + span
        if busy_time is not None:
            busy_time[uchan] += span
        # sorted position i of the group starting at cut departs at
        # base + (i - cut + 1)·d
        finish = np.empty(cs.size, dtype=np.int64)
        finish[corder] = (base - cuts * d).repeat(counts) + np.arange(
            1, cs.size + 1
        ) * self.delays[cs]
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


def _run_bounds(a: np.ndarray) -> np.ndarray:
    """Start of each run of equal values in the non-empty sorted array
    ``a``, then ``a.size``: run ``j`` is ``a[bounds[j]:bounds[j + 1]]``."""
    edge = np.empty(a.size + 1, dtype=bool)
    edge[0] = edge[-1] = True
    np.not_equal(a[1:], a[:-1], out=edge[1:-1])
    return edge.nonzero()[0]


def _pop(
    buckets: dict[int, list[np.ndarray]], times: list[int]
) -> tuple[int, np.ndarray]:
    """Take the earliest cycle off the calendar, with its packets in FIFO
    order.

    Chunks arrive in creation order, each chunk is internally seq-sorted
    and seqs are handed out monotonically, so the concatenation already is
    the FIFO (seq) order: no sort needed.
    """
    t = heapq.heappop(times)
    chunks = buckets.pop(t)
    return t, chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


def _schedule(
    buckets: dict[int, list[np.ndarray]],
    times: list[int],
    pids: np.ndarray,
    at: np.ndarray,
    now: int,
) -> None:
    """Append packet ``pids[i]`` to the calendar bucket of cycle ``at[i]``
    (every ``at[i] >= now``).

    ``pids`` is in creation order; a stable sort by cycle keeps that order
    within each bucket, so every chunk appended is internally FIFO.  One
    dict probe (and at most one heap push) per distinct cycle.
    """
    if pids.size == 0:
        return
    off = at - now
    # offsets under 2**16 (every bucket short of a very deep queue) take
    # numpy's radix sort: O(n), stable
    key = off.astype(np.uint16) if off.max() < 1 << 16 else off
    order = key.argsort(kind="stable")
    pids = pids[order]
    at = at[order]
    bounds = _run_bounds(at)
    cycles = at[bounds[:-1]].tolist()
    bounds = bounds.tolist()
    for tt, s, e in zip(cycles, bounds, bounds[1:]):
        chunks = buckets.setdefault(tt, [])  # repro: noqa[RPR022] — one probe per distinct cycle of the batch, not per packet
        if not chunks:
            heapq.heappush(times, tt)
        chunks.append(pids[s:e])


class _Degraded:
    """Degraded-mode state of one run, and its drop / route decisions.

    Holds the packet arrays a faulted run moves bucket by bucket
    (``pos``/``hops``/``offh`` and the backend's ``state``, reset at each
    retransmission) and what faults need besides: the channel a packet arrived on and when its
    transmission started (to drop it if that link died in flight), retry
    and detour counts, and pinned survivor detours.  Every query goes to
    the compiled timeline's interval arrays.
    """

    def __init__(self, sim, t_inject, src, dst):
        npkt = len(t_inject)
        self.tl = sim._timeline
        self.router = sim._router
        self.step = sim.routing.step
        self.missing = sim.channels._missing
        self.find = sim.channels.find
        self.delays = sim.delays
        self.guard = 4 * sim.net.num_nodes + 64
        self.max_retries = sim.max_retries
        self.max_deroutes = sim.max_deroutes
        self.rto = sim.retransmit_timeout
        self.lookup = sim.channels.lookup
        self.mod = sim.module_of
        self.src, self.dst = src, dst
        self.pos = src.copy()
        self.hops = np.zeros(npkt, dtype=np.int64)
        self.offh = np.zeros(npkt, dtype=np.int64)
        self.state = np.zeros(npkt, dtype=np.int64)  # the backend's, per packet
        self.retries = np.zeros(npkt, dtype=np.int64)
        self.deroutes = np.zeros(npkt, dtype=np.int64)
        self.chan_in = np.full(npkt, -1, dtype=np.int64)  # channel arrived on
        self.tx_start = t_inject.copy()  # transmit start on that channel
        self.pinned = np.zeros(npkt, dtype=bool)  # routes[pid] is live
        self.routes: dict[int, deque] = {}  # pinned survivor detours
        # channel -> column of its undirected link in the timeline (-1:
        # never fails), plus a trailing -1 for "arrived on no channel"
        self.chan_col = np.concatenate(
            [self.tl.link_columns(sim._arc_sources, sim._indices), [-1]]
        )
        self.dropped = self.retransmitted = self.rerouted = 0

    def decide(self, t, pids):
        """Drop, deliver or route every packet of a bucket at cycle ``t``.

        Returns masks over ``pids`` — packets that move on (``fwd``), that
        are delivered, that are dropped — and the next hops and channels of
        the ``fwd`` packets.  One backend ``step`` gives every free packet
        its hop; a passed backend's dead hop is a drop.  With the default
        table only the residue (pinned detours, dead primary hops) is
        decided per packet, by the resilient router.
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
        if np.count_nonzero(over):  # livelock is a loss
            over &= go
            drop |= over
            go &= ~over
        fwd = np.zeros(pids.size, dtype=bool)
        nxt = np.full(pids.size, -1, dtype=np.int64)
        chan = np.full(pids.size, -1, dtype=np.int64)
        router = self.router
        free = go & ~self.pinned[pids]
        if router is not None and tl.node_down:
            dead_dst = free & ~tl.nodes_up_at(dsts, t)
            if dead_dst.any():  # route_next's verdict for these, in bulk
                router.unreachable += int(dead_dst.sum())
                drop |= dead_dst
                go &= ~dead_dst
                free &= ~dead_dst
        fi = free.nonzero()[0]
        if fi.size:
            hop, st = self.step(nodes[fi], dsts[fi], self.state[pids[fi]])
            c = self.find(nodes[fi], hop)
            bad = (c < 0).nonzero()[0]
            if bad.size:  # the healthy run's error, before any timeline probe
                j = int(bad[0])
                raise self.missing(int(nodes[fi[j]]), int(hop[j]))
            # the link of the channel is up, and so is the node it enters
            alive = ~tl.links_down_during(self.chan_col[c], t, t + 1)
            if tl.node_down:
                alive &= tl.nodes_up_at(hop, t)
            ok = fi[alive]
            nxt[ok] = hop[alive]
            chan[ok] = c[alive]
            fwd[ok] = True
            self.state[pids[ok]] = st[alive]
            if router is None:  # a passed backend cannot reroute: drop
                drop[fi[~alive]] = True
                go[fi[~alive]] = False
        res = np.flatnonzero(go & ~fwd)
        for i in res.tolist():  # repro: noqa[RPR020] — scalar residue of the default table: pinned detours and dead primary hops, ~1% of a faulted run's events
            u = int(nodes[i])
            v = self.route_one(t, int(pids[i]), u, int(dsts[i]))
            if v is None:
                drop[i] = True
            else:
                nxt[i] = v
                chan[i] = self.lookup(u, v)
                fwd[i] = True
        return fwd, nxt[fwd], chan[fwd], at_dst, drop

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

    def drop(self, t, pids, mask):
        """Drop the masked attempts; reschedule each from its source with
        exponential backoff, or abandon it past ``max_retries``.  Returns
        ``(slots, at)`` of the retransmissions, or ``None``."""
        slots = mask.nonzero()[0]
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

    def move(self, act, nxt, chans, finish) -> None:
        """Move the forwarded packets ``act`` to their next hops ``nxt``,
        recording the channel each one took and when its transmission
        started."""
        self.hops[act] += 1
        if self.mod is not None:
            self.offh[act] += self.mod[self.pos[act]] != self.mod[nxt]
        self.pos[act] = nxt
        self.chan_in[act] = chans
        self.tx_start[act] = finish - self.delays[chans]
