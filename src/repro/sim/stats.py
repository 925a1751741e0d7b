"""Simulation statistics: streaming accumulation and the aggregate snapshot.

Both simulator engines — the batched event-driven core and the retained
per-packet reference oracle — report results through the *same* streaming
accumulator (:class:`StreamingStats`), so their :class:`SimStats` are
bit-identical whenever their event semantics agree.  Nothing here retains
per-packet state: latency percentiles come from the exact integer-value
histogram :class:`repro.obs.LatencyHistogram`, whose memory is bounded by
the number of *distinct* latency values, never by the packet count, which
is what lets a single run handle millions of packets.
"""

from __future__ import annotations

import numpy as np

from repro.obs.histogram import LatencyHistogram

__all__ = ["StreamingStats", "SimStats"]


class StreamingStats:
    """Running aggregates over delivered packets — O(1) state per packet.

    Sums are exact Python integers, so accumulation order cannot change any
    derived mean; the latency histogram keeps percentiles exact (see
    :class:`LatencyHistogram`).  Both simulator engines feed this and then
    snapshot through :meth:`SimStats.from_streaming`.
    """

    __slots__ = ("delivered", "lat_sum", "hops_sum", "off_sum", "lat_max", "hist")

    def __init__(self) -> None:
        self.delivered = 0
        self.lat_sum = 0
        self.hops_sum = 0
        self.off_sum = 0
        self.lat_max = -1
        self.hist = LatencyHistogram()

    def observe(self, latency: int, hops: int, off_hops: int) -> None:
        """Record one delivered packet."""
        latency, hops, off_hops = int(latency), int(hops), int(off_hops)
        self.delivered += 1
        self.lat_sum += latency
        self.hops_sum += hops
        self.off_sum += off_hops
        if latency > self.lat_max:
            self.lat_max = latency
        self.hist.add(latency)

    def observe_array(self, lat, hops, off_hops) -> None:
        """Record a batch of delivered packets (aligned int arrays)."""
        lat = np.asarray(lat)
        if lat.size == 0:
            return
        self.delivered += int(lat.size)
        self.lat_sum += int(lat.sum())
        self.hops_sum += int(np.asarray(hops).sum())
        self.off_sum += int(np.asarray(off_hops).sum())
        m = int(lat.max())
        if m > self.lat_max:
            self.lat_max = m
        self.hist.add_array(lat)


class SimStats:
    """Aggregated results of one simulator run.

    Attributes
    ----------
    injected, delivered, undelivered:
        Packet counts (``injected = delivered + undelivered``).
    delivery_ratio:
        ``delivered / injected`` (NaN when nothing was injected) — the
        headline resilience figure under faults; 1.0 on a healthy network.
    dropped, retransmitted, rerouted:
        Degraded-mode counters: delivery attempts lost to failures, source
        retransmissions scheduled, and non-primary hop decisions (alternate
        minimal hops + survivor-path detours).  All zero without faults.
    mean_latency, p99_latency, max_latency:
        Injection-to-delivery cycle counts over delivered packets (for
        retransmitted packets, latency spans from the *original* injection).
    mean_hops, mean_off_hops:
        Average path length and off-module hop count per delivered packet.
    throughput:
        Delivered packets per cycle per node.
    mean_utilization, mean_off_utilization, mean_on_utilization:
        Channel busy-time fractions (overall / off-module / on-module).
    horizon:
        Last event time.
    """

    def __init__(self, **kw):
        self.__dict__.update(kw)

    @classmethod
    def from_streaming(
        cls,
        acc: StreamingStats,
        injected: int,
        horizon,
        busy_time,
        arc_sources,
        arc_targets,
        module_of,
        num_nodes,
        dropped: int = 0,
        retransmitted: int = 0,
        rerouted: int = 0,
    ) -> "SimStats":
        """Snapshot a finished run from its streaming accumulator.

        This is the single aggregation path: the reference oracle funnels
        its retained packets through the same accumulator, so equal event
        semantics give bit-identical stats.
        """
        delivered = acc.delivered
        horizon = max(int(horizon), 1)
        util = busy_time / horizon
        if module_of is not None and len(arc_sources):
            off_mask = module_of[arc_sources] != module_of[arc_targets]
            off_util = float(util[off_mask].mean()) if off_mask.any() else 0.0
            on_util = float(util[~off_mask].mean()) if (~off_mask).any() else 0.0
        else:
            off_util = on_util = float("nan")
        injected = int(injected)
        return cls(
            injected=injected,
            delivered=delivered,
            undelivered=injected - delivered,
            delivery_ratio=delivered / injected if injected else float("nan"),
            dropped=int(dropped),
            retransmitted=int(retransmitted),
            rerouted=int(rerouted),
            mean_latency=acc.lat_sum / delivered if delivered else float("nan"),
            p99_latency=acc.hist.percentile(99) if delivered else float("nan"),
            max_latency=acc.lat_max if delivered else -1,
            mean_hops=acc.hops_sum / delivered if delivered else float("nan"),
            mean_off_hops=acc.off_sum / delivered if delivered else float("nan"),
            throughput=delivered / horizon / max(num_nodes, 1),
            mean_utilization=float(util.mean()) if len(util) else 0.0,
            mean_off_utilization=off_util,
            mean_on_utilization=on_util,
            horizon=horizon,
        )

    @classmethod
    def from_run(
        cls,
        packets,
        horizon,
        busy_time,
        arc_sources,
        arc_targets,
        module_of,
        num_nodes,
        dropped: int = 0,
        retransmitted: int = 0,
        rerouted: int = 0,
    ) -> "SimStats":
        """Aggregate retained per-packet objects (reference/wormhole path).

        Accepts any objects with ``t_deliver`` / ``latency`` / ``hops`` /
        ``off_hops`` attributes and feeds them through the same streaming
        accumulator the event core uses.
        """
        acc = StreamingStats()
        for p in packets:
            if p.t_deliver >= 0:
                acc.observe(p.latency, p.hops, p.off_hops)
        return cls.from_streaming(
            acc,
            injected=len(packets),
            horizon=horizon,
            busy_time=busy_time,
            arc_sources=arc_sources,
            arc_targets=arc_targets,
            module_of=module_of,
            num_nodes=num_nodes,
            dropped=dropped,
            retransmitted=retransmitted,
            rerouted=rerouted,
        )

    def as_dict(self) -> dict:
        """Plain-dict snapshot (JSON-friendly, equality-comparable)."""
        return dict(self.__dict__)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimStats):
            return NotImplemented

        def _key(d):
            # NaN != NaN would make equal runs compare unequal
            return {k: (None if v != v else v) for k, v in d.items()}

        return _key(self.__dict__) == _key(other.__dict__)

    def __repr__(self) -> str:
        extra = ""
        if self.dropped or self.retransmitted or self.rerouted:
            extra = (
                f", dropped={self.dropped}, retransmitted={self.retransmitted}, "
                f"rerouted={self.rerouted}"
            )
        return (
            f"SimStats(delivered={self.delivered}, undelivered={self.undelivered}, "
            f"mean_latency={self.mean_latency:.2f}, mean_hops={self.mean_hops:.2f}, "
            f"throughput={self.throughput:.4f}{extra})"
        )
