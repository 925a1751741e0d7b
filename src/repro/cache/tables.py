"""Cache-aware construction of routing artifacts (next-hop tables).

A :class:`~repro.routing.table.NextHopTable` is a pure function of the
topology it is built on, so when the topology itself came out of the
artifact cache (and therefore carries a ``cache_key`` attribute, stamped
by :func:`repro.networks.registry.build`), the table can be persisted
alongside it and reloaded instead of re-running the all-pairs BFS.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

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
    """Build (or reload) the next-hop table for ``net``.

    Falls back to the network's in-memory table
    (:func:`~repro.routing.table.shared_table`) when no cache is
    configured or the network has no ``cache_key`` (i.e. it was not built
    through the registry with caching enabled).  The distance matrix is
    stored only when ``with_distances`` is requested.  A reloaded table
    replaces the one the network holds, like a build would, so a build
    followed by a reload keeps one copy in memory, not two.
    """
    from repro import obs
    from repro.routing.table import NextHopTable, _record, shared_table

    cache = cache if cache is not None else get_cache()
    net_key = getattr(net, "cache_key", None)
    if cache is None or net_key is None or net.num_nodes < cache.min_nodes:
        table = shared_table(net, with_distances=with_distances)
        if obs.artifact_sink() is not None:
            obs.artifact("routing.next_hop_table", table.to_arrays())
        return table
    key = cache_key(
        "routing.next_hop_table",
        graph=net_key,
        with_distances=with_distances,
        # no longer a choice: kept in the key so tables already on disk hit
        allow_unreachable=False,
    )
    arrays = cache.load_arrays(key)
    if arrays is not None:
        obs.artifact("routing.next_hop_table", arrays)
        table = NextHopTable.from_arrays(
            net, table=arrays["table"], dist=arrays.get("dist")
        )
        _record(net, table.table, table.dist)
        return table
    table = NextHopTable(net, with_distances=with_distances)
    arrays = table.to_arrays()
    cache.store_arrays(key, arrays)
    if obs.artifact_sink() is not None:
        obs.artifact("routing.next_hop_table", arrays)
    return table
