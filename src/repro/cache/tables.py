"""Cache-aware construction of routing artifacts (next-hop tables).

A :class:`~repro.routing.table.NextHopTable` is a pure function of the
topology it is built on, so when the topology itself came out of the
artifact cache (and therefore carries a ``cache_key`` attribute, stamped
by :func:`repro.networks.registry.build`), the table is stored beside it,
one raw ``.npy`` spill per array, and mapped read-only instead of
re-running the all-pairs BFS.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .artifacts import ArtifactCache, cache_key, get_cache

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.core.network import Network
    from repro.routing.table import NextHopTable

__all__ = ["cached_next_hop_table"]


def cached_next_hop_table(
    net: "Network",
    with_distances: bool = False,
    cache: ArtifactCache | None = None,
) -> "NextHopTable":
    """The next-hop table of ``net``, mapped from the artifact cache.

    Falls back to the network's in-memory table
    (:func:`~repro.routing.table.shared_table`) when no cache is
    configured or the network has no ``cache_key`` (i.e. it was not built
    through the registry with caching enabled).

    Otherwise every array (``table``, and ``dist`` when
    ``with_distances``) is one spill keyed by
    ``cache_key("routing.next_hop_table", graph=<registry key>,
    array=<name>)``, so a table-only and a with-distances request share
    the ``table`` spill.  A missing spill is written from the table the
    network holds, built only if it holds none.  A spill that cannot be
    read, or is not a C-ordered ``int32`` ``(N, N)`` array, counts
    ``cache.error``, is removed and is written again.  The returned
    table's arrays are the read-only maps themselves (no copy); they
    replace the table the network holds, so later
    :func:`~repro.routing.table.shared_table` users, and later calls on
    the same network, read the same mapped pages.
    """
    from repro import obs
    from repro.routing.table import NextHopTable, _record, shared_table

    cache = cache if cache is not None else get_cache()
    net_key = getattr(net, "cache_key", None)
    if cache is None or net_key is None:
        table = shared_table(net, with_distances=with_distances)
        if obs.artifact_sink() is not None:
            obs.artifact("routing.next_hop_table", table.to_arrays())
        return table
    n = net.num_nodes
    held = dict(zip(("table", "dist"), net._next_hops or ()))
    arrays: dict[str, np.ndarray] = {}
    built: dict[str, np.ndarray] | None = None
    for name in ("table", "dist") if with_distances else ("table",):
        key = cache_key("routing.next_hop_table", graph=net_key, array=name)
        path = cache.mmap_path(key)
        spill = held.get(name)
        if isinstance(spill, np.memmap) and spill.filename == path.resolve():
            arrays[name] = spill  # the network holds this very spill, mapped
            continue
        spill = cache.load_mmap(key)
        if spill is not None and not (
            isinstance(spill, np.memmap)
            and spill.shape == (n, n)
            and spill.dtype == np.int32
            and spill.flags.c_contiguous
        ):  # readable, but not this table: as corrupt as garbage
            obs.registry().incr("cache.error")
            path.unlink(missing_ok=True)
            spill = None
        if spill is None:
            if built is None:
                built = shared_table(net, with_distances=with_distances).to_arrays()
            spill = cache.export_mmap(key, built[name])
        arrays[name] = spill
    obs.artifact("routing.next_hop_table", arrays)
    table = NextHopTable.from_arrays(net, table=arrays["table"], dist=arrays.get("dist"))
    _record(net, table.table, table.dist)
    return table
