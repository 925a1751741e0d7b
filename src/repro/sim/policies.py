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
    "integer_array",
    "injection_arrays",
    "channel_inputs",
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
    globally sorted.  Up to :attr:`DENSE_NODE_LIMIT` nodes every lookup
    reads a dense ``n²`` key -> channel table (one gather resolves a whole
    batch of hops); above it they :func:`np.searchsorted` the sorted keys.

    :meth:`lookup` resolves one hop and raises
    :class:`~repro.core.network.RoutingError` naming a pair that is not
    an arc — the contract routers rely on to surface non-neighbor next
    hops; :meth:`find` resolves a batch and marks such hops ``-1`` for
    its caller to raise on in event order.
    """

    #: below this node count a dense ``n² -> channel`` table (int64, so
    #: 32 MiB at the cap) replaces searchsorted in every lookup
    DENSE_NODE_LIMIT = 2048

    __slots__ = ("net", "indptr", "indices", "sources", "_keys", "_n", "_dense")

    def __init__(self, net: Network):
        csr = net.adjacency_csr()
        self.net = net
        self.indptr = csr.indptr
        self.indices = csr.indices
        self.sources = np.repeat(np.arange(net.num_nodes), np.diff(csr.indptr))
        self._n = net.num_nodes
        self._keys = self.sources.astype(np.int64) * self._n + self.indices
        self._dense: np.ndarray | None = None
        if 0 < self._n <= self.DENSE_NODE_LIMIT:
            dense = np.full(self._n * self._n, -1, dtype=np.int64)
            dense[self._keys] = np.arange(len(self._keys), dtype=np.int64)
            self._dense = dense

    def __len__(self) -> int:
        return len(self.indices)

    def _missing(self, u: int, v: int) -> RoutingError:
        return RoutingError(
            f"no channel {u}->{v} in {self.net.name!r}: the router "
            f"returned a non-neighbor next hop"
        )

    def lookup(self, u: int, v: int) -> int:
        """Channel index of arc ``u -> v`` (RoutingError if absent)."""
        # range-check both ends first: an out-of-range id would alias
        # another arc's composite key
        if not (0 <= u < self._n and 0 <= v < self._n):
            raise self._missing(u, v)
        key = u * self._n + v
        if self._dense is not None:
            pos = int(self._dense[key])
            if pos < 0:
                raise self._missing(u, v)
            return pos
        pos = int(np.searchsorted(self._keys, key))
        if pos >= len(self._keys) or self._keys[pos] != key:
            raise self._missing(u, v)
        return pos

    def find(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Channel index of each hop ``u[i] -> v[i]``, ``-1`` where it is
        not an arc (ids out of range included)."""
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        # range-check both ends before keying: a negative or >= n id would
        # alias another arc's composite key (read unsigned, a negative id
        # is huge)
        ok = np.maximum(u.view(np.uint64), v.view(np.uint64)) < self._n
        keys = u * self._n + v
        in_range = bool(ok.all())
        if not in_range:
            keys[~ok] = 0  # any in-range stand-in
        if self._dense is not None:
            pos = self._dense[keys]
        else:
            pos = np.searchsorted(self._keys, keys)
            hit = self._keys[np.minimum(pos, len(self._keys) - 1)] == keys
            pos[~hit] = -1
        if not in_range:
            pos[~ok] = -1
        return pos


def integer_array(name: str, values) -> np.ndarray:
    """``values`` as an int64 array (0-d for a scalar), checked, not cast.

    Integer input passes as is; float input must hold whole numbers, which
    a plain ``astype`` would silently truncate (``1.7`` -> ``1``).  Raises
    ``ValueError`` naming the first entry that is not a whole number or
    does not fit int64 (which a cast would wrap), or the dtype when it is
    neither integer nor float.
    """
    arr = np.asarray(values)
    if arr.dtype.kind == "f":
        bad = ~(np.trunc(arr) == arr) | (np.abs(arr) >= 2.0**63)
    elif arr.dtype.kind in "iu":
        bad = arr > np.iinfo(np.int64).max if arr.dtype == np.uint64 else None
    else:
        raise ValueError(f"{name} must hold integers, got dtype {arr.dtype}")
    if bad is not None and bad.any():
        at = np.unravel_index(int(np.flatnonzero(bad)[0]), arr.shape)
        where = f"[{', '.join(map(str, at))}]" if arr.ndim else ""
        raise ValueError(f"{name}{where} = {arr[at].item()!r} is not an int64 integer")
    return arr.astype(np.int64, copy=False)


def injection_arrays(
    net: Network, injections
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(t, src, dst)`` int64 columns of an injection batch, validated.

    Accepts an iterable of ``(t, src, dst)`` triples or an ``(N, 3)``
    integer array.  Values go through :func:`integer_array`; a wrong shape,
    a negative time or a node id outside ``net`` raises ``ValueError``
    naming the first offending row.  Self-addressed rows (``src == dst``)
    pass: each simulator decides what they mean.
    """
    if isinstance(injections, np.ndarray):
        arr = integer_array("injections", injections)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise ValueError(
                f"array injections must have shape (N, 3) of "
                f"(t, src, dst) rows, got {arr.shape}"
            )
    else:
        rows = list(injections)
        if not rows:
            return (np.empty(0, np.int64),) * 3
        arr = integer_array("injections", rows)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise ValueError("injections must be (t, src, dst) triples")
    t, src, dst = arr[:, 0], arr[:, 1], arr[:, 2]
    n = net.num_nodes
    bad = (t < 0) | (src < 0) | (src >= n) | (dst < 0) | (dst >= n)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        ti, si, di = int(t[i]), int(src[i]), int(dst[i])
        if ti < 0:
            raise ValueError(
                f"injection #{i}: injection time must be >= 0, got {ti}"
            )
        raise ValueError(
            f"injection #{i}: node ids must be in [0, {n}) for "
            f"{net.name!r}, got src={si}, dst={di}"
        )
    return t.copy(), src.copy(), dst.copy()


def channel_inputs(
    channels: ChannelIndex, delays, module_of
) -> tuple[np.ndarray, np.ndarray | None]:
    """A simulator's per-channel ``delays`` and per-node ``module_of``.

    ``delays`` is an int (uniform) or one entry per channel, each >= 1
    cycle; ``module_of`` is ``None`` or one module id per node.  Both go
    through :func:`integer_array`; a wrong shape or a delay below one cycle
    raises ``ValueError`` naming it.
    """
    net = channels.net
    nchan = len(channels)
    d = integer_array("delays", delays)
    if d.ndim == 0:
        d = np.full(nchan, int(d), dtype=np.int64)
    elif d.shape != (nchan,):
        raise ValueError(
            f"delays must be an int or have one entry per directed arc "
            f"({nchan} in {net.name!r}), got shape {d.shape}"
        )
    low = np.flatnonzero(d < 1)
    if low.size:
        i = int(low[0])
        raise ValueError(
            f"channel delays must be >= 1 cycle, got delays[{i}] = {d[i]}"
        )
    if module_of is not None:
        module_of = integer_array("module_of", module_of)
        if module_of.shape != (net.num_nodes,):
            raise ValueError(
                f"module_of must have one module id per node "
                f"({net.num_nodes} in {net.name!r}), got shape "
                f"{module_of.shape}"
            )
    return d, module_of


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
