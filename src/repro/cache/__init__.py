"""Persistent artifact caching (``repro.cache``).

Two layers, one package:

* **Disk** (:mod:`repro.cache.artifacts`) — a content-addressed store
  for built graphs (``.npz`` archives) and routing tables (raw ``.npy``
  spills, mapped read-only by :func:`cached_next_hop_table`), keyed by a
  stable hash of family name, parameters, generator set, and engine
  version.  Opt-in:
  call :func:`configure` (or pass ``--cache-dir`` to the CLI) to turn it
  on; :func:`repro.networks.registry.build` and
  :func:`repro.core.superip.build_super_ip_graph` consult it
  automatically once configured.
* **Memory** (:mod:`repro.cache.memory`) — small, bounded, centrally
  clearable LRU memoization for in-process reuse (nucleus graphs,
  quotient metrics), replacing ad-hoc unbounded ``lru_cache`` sites that
  pinned whole graphs for the process lifetime.

Example::

    from repro import cache, networks

    cache.configure("/tmp/repro-cache")     # or $REPRO_CACHE_DIR / ~/.cache/repro
    g1 = networks.build("hsn", l=3, n=3)    # cold: builds + stores
    g2 = networks.build("hsn", l=3, n=3)    # warm: loads the artifact
    cache.get_cache().clear()               # drop every stored artifact
    cache.clear_memory_caches()             # flush in-process LRUs too
"""

from __future__ import annotations

from .artifacts import (
    CACHE_SCHEMA,
    ArtifactCache,
    cache_key,
    configure,
    default_cache_dir,
    get_cache,
    set_cache,
)
from .memory import clear_memory_caches, memoize_lru, registered_memory_caches
from .tables import cached_next_hop_table

__all__ = [
    "CACHE_SCHEMA",
    "ArtifactCache",
    "cache_key",
    "cached_next_hop_table",
    "clear_memory_caches",
    "configure",
    "default_cache_dir",
    "get_cache",
    "memoize_lru",
    "registered_memory_caches",
    "set_cache",
]
