"""Virtual cut-through (wormhole-style) message simulator.

Section 5 distinguishes switching regimes: "when wormhole or cut-through
routing is used and messages are long, the delay of a network with light
traffic is approximately proportional to its inter-cluster degree".  The
packet simulator models store-and-forward; this module models pipelined
messages:

* a message of ``length`` flits acquires channels hop by hop;
* a channel transfers one flit per ``delay`` cycles, so a message holds it
  for ``length·delay`` cycles, but the *header* moves on after ``delay`` —
  transmission is pipelined across the path;
* buffers are infinite (virtual cut-through): a blocked header waits at a
  node without stalling upstream channels.  This is the standard
  analytical model behind the paper's light-load claims.

Light-load latency ≈ Σ path delays + (length − 1)·max(path delays): the
serialization term is dominated by the slowest channel — which is why slow
(or capacity-shared) off-module links make latency track the I-degree.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable

import numpy as np

from repro.core.network import Network
from repro.routing.table import shared_table

from .policies import ChannelIndex, channel_inputs, injection_arrays
from .stats import SimStats

__all__ = ["WormholeSimulator", "Message"]


class Message:
    """A multi-flit message in flight."""

    __slots__ = ("mid", "src", "dst", "length", "t_inject", "t_deliver", "hops", "off_hops")

    def __init__(self, mid: int, src: int, dst: int, length: int, t_inject: int):
        self.mid = mid
        self.src = src
        self.dst = dst
        self.length = length
        self.t_inject = t_inject
        self.t_deliver = -1
        self.hops = 0
        self.off_hops = 0

    @property
    def latency(self) -> int:
        """Injection-to-tail-delivery latency (−1 if still in flight)."""
        return -1 if self.t_deliver < 0 else self.t_deliver - self.t_inject


class WormholeSimulator:
    """Simulate pipelined (virtual cut-through) messages.

    Routes on the network's :func:`~repro.routing.table.shared_table`:
    its per-event heap loop asks one hop at a time, so it takes no
    batched routing backend.  ``run`` takes ``(t, src, dst)`` injections
    plus a message ``length`` in flits.
    """

    def __init__(
        self,
        net: Network,
        delays: int | np.ndarray = 1,
        module_of: np.ndarray | None = None,
    ):
        self.net = net
        self.channels = ChannelIndex(net)
        self._indptr = self.channels.indptr
        self._indices = self.channels.indices
        self.delays, self.module_of = channel_inputs(
            self.channels, delays, module_of
        )
        self._table = shared_table(net)

    def run(
        self,
        injections: Iterable[tuple[int, int, int]],
        length: int = 16,
        max_cycles: int | None = None,
    ) -> SimStats:
        """Run all messages to delivery (or ``max_cycles``).

        Event = header arrival of a message at a node, together with the
        time its *tail* clears the arrival channel (needed to deliver).
        Injections are checked by
        :func:`~repro.sim.policies.injection_arrays` (``ValueError`` naming
        the row); a self-addressed one is skipped.
        """
        if length < 1:
            raise ValueError("message length must be >= 1 flit")
        messages: list[Message] = []
        # event: (header_time, seq, mid, node, tail_time)
        events: list[tuple[int, int, int, int, int]] = []
        seq = 0
        ts, srcs, dsts = injection_arrays(self.net, injections)
        keep = srcs != dsts  # a self-addressed message is never sent
        for t, src, dst in zip(
            ts[keep].tolist(), srcs[keep].tolist(), dsts[keep].tolist()
        ):
            m = Message(len(messages), src, dst, length, t)
            messages.append(m)
            events.append((t, seq, m.mid, src, t))
            seq += 1
        heapq.heapify(events)

        lookup = self.channels.lookup
        busy_until = np.zeros(len(self._indices), dtype=np.int64)
        busy_time = np.zeros(len(self._indices), dtype=np.int64)
        horizon = 0
        mod = self.module_of
        table = self._table.table

        while events:
            t, _, mid, node, tail = heapq.heappop(events)
            if max_cycles is not None and t > max_cycles:
                break
            m = messages[mid]
            if node == m.dst:
                m.t_deliver = tail  # delivered when the tail arrives
                horizon = max(horizon, tail)
                continue
            if m.hops > 4 * self.net.num_nodes + 64:
                raise RuntimeError(
                    f"message {m.mid} exceeded the hop guard — routing loop?"
                )
            nxt = int(table[m.dst, node])
            c = lookup(node, nxt)
            d = int(self.delays[c])
            # header may enter the channel when both the channel is free
            # and the header has arrived
            start = max(t, int(busy_until[c]))
            header_out = start + d
            # the tail leaves this channel after streaming all flits, but
            # never before it has itself arrived at `node` plus one transfer
            # (slow upstream channels throttle the stream)
            tail_out = max(start + d * m.length, tail + d)
            busy_until[c] = tail_out
            busy_time[c] += d * m.length
            m.hops += 1
            if mod is not None and mod[node] != mod[nxt]:
                m.off_hops += 1
            seq += 1
            heapq.heappush(events, (header_out, seq, mid, nxt, tail_out))
            horizon = max(horizon, tail_out)

        return SimStats.from_run(
            packets=messages,
            horizon=horizon,
            busy_time=busy_time,
            arc_sources=self.channels.sources,
            arc_targets=self._indices,
            module_of=mod,
            num_nodes=self.net.num_nodes,
        )
