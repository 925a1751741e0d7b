"""Per-channel delay policies modeling the paper's capacity assumptions.

Each policy returns a delay array aligned with the CSR arc order of
``net.adjacency_csr()``, suitable for
:class:`repro.sim.simulator.PacketSimulator`.

* :func:`uniform_delay` — every link identical (baseline);
* :func:`unit_node_capacity` — the sum of a node's outgoing link
  capacities is fixed, so each channel's service time equals the source
  node's degree.  Light-load latency then tracks **DD-cost** (Fig. 2);
* :func:`on_off_module_delay` — off-module channels are ``off_factor``
  slower than on-module ones (off-chip pins vs on-chip wires, §5.4).
  Light-load latency then tracks **II-cost** (Fig. 5);
* :func:`unit_offmodule_capacity` — a node's *off-module* capacity is
  fixed, so each off-module channel's service time equals the source
  node's off-module link count; on-module links stay fast.  Light-load
  latency then tracks I-degree × I-distance (the ID/II regime of Fig. 4/5).
"""

from __future__ import annotations

import numpy as np

from repro.core.network import Network, RoutingError
from repro.metrics.clustering import ModuleAssignment, offmodule_links_per_node

__all__ = [
    "uniform_delay",
    "unit_node_capacity",
    "on_off_module_delay",
    "unit_offmodule_capacity",
    "arc_endpoints",
    "ChannelIndex",
]


def arc_endpoints(net: Network) -> tuple[np.ndarray, np.ndarray]:
    """(source, target) node id per directed arc in CSR order."""
    csr = net.adjacency_csr()
    src = np.repeat(np.arange(net.num_nodes), np.diff(csr.indptr))
    return src, csr.indices.copy()


class ChannelIndex:
    """Directed-arc lookup shared by every simulator engine.

    Maps a hop ``(u, v)`` to its channel index in the CSR arc order of
    ``net.adjacency_csr()`` — the order every delay policy above and every
    ``busy_until``/``busy_time`` array is aligned with.  The CSR layout is
    row-major with sorted columns, so the composite key ``u·n + v`` is
    globally sorted and one :func:`np.searchsorted` resolves a whole batch
    of hops at once.

    A hop that is not an arc of the network raises
    :class:`~repro.core.network.RoutingError` naming the offending pair —
    the contract routers rely on to surface non-neighbor next hops.
    """

    #: below this node count a dense ``n² -> channel`` table (int64, so
    #: 32 MiB at the cap) replaces searchsorted in :meth:`lookup_many`
    DENSE_NODE_LIMIT = 2048

    __slots__ = (
        "net", "indptr", "indices", "sources", "_keys", "_n", "_map", "_dense"
    )

    def __init__(self, net: Network):
        csr = net.adjacency_csr()
        self.net = net
        self.indptr = csr.indptr
        self.indices = csr.indices
        self.sources = np.repeat(np.arange(net.num_nodes), np.diff(csr.indptr))
        self._n = net.num_nodes
        self._keys = self.sources.astype(np.int64) * self._n + self.indices
        self._map: dict[int, int] | None = None
        self._dense: np.ndarray | None = None
        if 0 < self._n <= self.DENSE_NODE_LIMIT:
            dense = np.full(self._n * self._n, -1, dtype=np.int64)
            dense[self._keys] = np.arange(len(self._keys), dtype=np.int64)
            self._dense = dense

    def __len__(self) -> int:
        return len(self.indices)

    def arc_map(self) -> dict[int, int]:
        """``{u·n + v: channel}`` dict for O(1) scalar lookups.

        Built lazily on first use: per-call it beats the ``searchsorted``
        scalar path ~10×, which matters in the simulator's ≤48-event
        bucket path (healthy or faulted); batch callers never need it.
        """
        if self._map is None:
            self._map = {int(k): i for i, k in enumerate(self._keys.tolist())}
        return self._map

    def _missing(self, u: int, v: int) -> RoutingError:
        return RoutingError(
            f"no channel {u}->{v} in {self.net.name!r}: the router "
            f"returned a non-neighbor next hop"
        )

    def lookup(self, u: int, v: int) -> int:
        """Channel index of arc ``u -> v`` (RoutingError if absent)."""
        if not 0 <= v < self._n:
            raise self._missing(u, v)
        key = u * self._n + v
        pos = int(np.searchsorted(self._keys, key))
        if pos >= len(self._keys) or self._keys[pos] != key:
            raise self._missing(u, v)
        return pos

    def lookup_many(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Channel indices for aligned hop arrays ``u[i] -> v[i]``.

        Raises for the first (lowest-index) missing arc, matching the
        scalar lookup's behavior on a sequential scan.
        """
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        # range-check v before keying: a negative or >= n id would alias
        # another arc's composite key
        ok = (v >= 0) & (v < self._n)
        keys = u * self._n + v
        if not ok.all():
            keys = np.where(ok, keys, 0)  # any in-range stand-in
        if self._dense is not None:
            pos = self._dense[keys]
            bad = pos < 0
        else:
            pos = np.searchsorted(self._keys, keys)
            bad = (pos >= len(self._keys)) | (
                self._keys[np.minimum(pos, len(self._keys) - 1)] != keys
            )
        bad |= ~ok
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise self._missing(int(u[i]), int(v[i]))
        return pos


def uniform_delay(net: Network, delay: int = 1) -> np.ndarray:
    """Every channel takes ``delay`` cycles."""
    csr = net.adjacency_csr()
    return np.full(len(csr.indices), int(delay), dtype=np.int64)


def unit_node_capacity(net: Network) -> np.ndarray:
    """Service time of a channel = degree of its source node."""
    src, _ = arc_endpoints(net)
    return net.degrees()[src].astype(np.int64)


def on_off_module_delay(
    net: Network,
    assignment: ModuleAssignment,
    on_delay: int = 1,
    off_factor: int = 10,
) -> np.ndarray:
    """On-module channels take ``on_delay``; off-module ones
    ``on_delay * off_factor``."""
    src, dst = arc_endpoints(net)
    mod = assignment.module_of
    off = mod[src] != mod[dst]
    out = np.full(len(src), int(on_delay), dtype=np.int64)
    out[off] = int(on_delay) * int(off_factor)
    return out


def unit_offmodule_capacity(
    net: Network,
    assignment: ModuleAssignment,
    on_delay: int = 1,
    off_scale: int = 1,
) -> np.ndarray:
    """Off-module channel service time = source node's off-module link
    count × ``off_scale`` (fixed per-node off-module capacity); on-module
    channels take ``on_delay``."""
    src, dst = arc_endpoints(net)
    mod = assignment.module_of
    off = mod[src] != mod[dst]
    off_links = offmodule_links_per_node(assignment)
    out = np.full(len(src), int(on_delay), dtype=np.int64)
    out[off] = np.maximum(1, off_links[src[off]] * int(off_scale))
    return out
