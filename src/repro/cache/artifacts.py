"""Content-addressed on-disk artifact cache for built graphs and tables.

Theorem 4.1/4.3 artifacts — super-IP closures, distance matrices, next-hop
tables — are pure functions of ``(family, params, generator set, engine
version)``, so they can be persisted once and reloaded for free on every
later sweep.  This module provides:

* :func:`cache_key` — a stable SHA-256 over a canonicalized description of
  the artifact (family name, parameters, generator permutations, cache
  schema + engine version), so any change to the inputs *or* to the engine
  release invalidates the entry;
* :class:`ArtifactCache` — a directory of artifacts addressed by key
  (two-level fan-out on the key prefix): whole networks as ``.npz``
  archives via :mod:`repro.io` (CSR arc arrays + label arrays + generator
  metadata), and single arrays (next-hop tables, distance matrices) as raw
  ``.npy`` spills that every reader maps read-only;
* a process-wide default cache: :func:`configure` (honouring
  ``$REPRO_CACHE_DIR`` and falling back to ``~/.cache/repro``),
  :func:`get_cache`, :func:`set_cache`.

Caching is **opt-in**: the default cache is ``None`` until
:func:`configure` is called (the CLI does so under ``--cache-dir``), and
library call sites treat a missing cache as "build from scratch".

Obs accounting: ``cache.hit`` / ``cache.miss`` counters, ``cache.store``
and ``cache.bytes`` (artifacts and bytes written), ``cache.bytes.read``
(bytes of the artifacts found on hits), ``cache.error`` for unreadable
artifacts, and ``cache.skip`` for networks that are not stored.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro import obs

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.core.network import Network

__all__ = [
    "CACHE_SCHEMA",
    "RULESET_VERSION",
    "ArtifactCache",
    "cache_key",
    "configure",
    "default_cache_dir",
    "get_cache",
    "set_cache",
]

#: bump to invalidate every existing cache entry (serialization changes)
CACHE_SCHEMA = 1

#: revision of the static-analysis rule set (``repro.check``), mixed into
#: every key: an analyzer upgrade that tightens the determinism /
#: cache-soundness contract invalidates artifacts built under the weaker
#: one.  Kept here, not in ``repro.check``, so that computing a key
#: imports no analyzer.  Append-only history:
#:
#: 1. lint (RPR001–RPR005) + contracts (CTR001–CTR008)
#: 2. dataflow tier: RPR010–RPR012 + runtime sanitizer (SAN001–SAN003)
#: 3. perf tier: RPR020–RPR024 + perf sanitizer (SAN004–SAN005)
#: 4. shape tier: static shape rules (RPR03x) + shape sanitizer (SAN006)
#:
#: The static shape rules were later retired without a bump: they never
#: fired on ``src/`` and no artifact depended on them, so retiring them
#: weakens no contract a cached artifact was built under.  SAN006 now
#: runs under ``perf --measure``; retired codes are never reused.
RULESET_VERSION = 4


# ----------------------------------------------------------------------
# stable keys
# ----------------------------------------------------------------------
def _jsonable(obj: Any) -> Any:
    """Canonical JSON-safe form of a key component (order-stable)."""
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (set, frozenset)):
        return sorted(repr(x) for x in obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if hasattr(obj, "img"):  # Permutation-like: the image tuple is the identity
        return {"perm": [int(i) for i in obj.img]}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
        return {"dataclass": type(obj).__qualname__, "fields": _jsonable(fields)}
    return repr(obj)


#: key -> {kind, schema, engine, ruleset} for every key computed in-process;
#: every store persists the entry as a ``.json`` manifest beside the artifact
_PROVENANCE: dict[str, dict[str, Any]] = {}


def cache_key(kind: str, **parts: Any) -> str:
    """Stable content key for one artifact.

    ``kind`` namespaces the artifact ("registry.build", "superip.build",
    "routing.next_hop_table", ...); ``parts`` are the inputs the artifact
    is a pure function of.  The cache schema version, the engine (package)
    version, and the :mod:`repro.check` rule-set revision
    (:data:`RULESET_VERSION`) are always mixed in — a rule-set bump marks
    an analyzer-relevant engine change (e.g. a determinism fix the
    analyzer now enforces), so artifacts built before it cannot be served
    after it.
    """
    from repro import __version__

    payload = {
        "schema": CACHE_SCHEMA,
        "engine": __version__,
        "ruleset": RULESET_VERSION,
        "kind": kind,
        "parts": _jsonable(parts),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    key = hashlib.sha256(blob).hexdigest()
    # in-process memo: a store reads it in the same process that computed
    # the key (build → key → store); each worker keeps its own consistent copy
    _PROVENANCE[key] = {  # repro: noqa[RPR011]
        "kind": kind,
        "schema": CACHE_SCHEMA,
        "engine": __version__,
        "ruleset": RULESET_VERSION,
    }
    return key


# ----------------------------------------------------------------------
# the on-disk cache
# ----------------------------------------------------------------------
class ArtifactCache:
    """A directory of artifacts addressed by :func:`cache_key`: whole
    networks as ``.npz`` archives and arrays as raw ``.npy`` spills.

    Writes are atomic (temp file + ``os.replace``), so concurrent workers
    racing on the same key at worst redo the serialization — readers never
    observe a partial file.  Every artifact gets a provenance manifest
    (``<key>.json``) beside it.

    Networks smaller than ``min_nodes`` are never stored: for tiny
    instances the fixed ``.npz`` open/decompress cost exceeds the build
    itself, so caching them makes warm runs *slower* (measured in
    ``benchmarks/bench_parallel_sweep.py``).  Pass ``min_nodes=1`` to cache
    everything.  Spills are stored at any size: mapping one costs about a
    millisecond whatever the array.
    """

    def __init__(self, root: str | Path, min_nodes: int = 64) -> None:
        self.root = Path(root).expanduser()
        self.min_nodes = int(min_nodes)
        self.root.mkdir(parents=True, exist_ok=True)

    def __repr__(self) -> str:
        return f"ArtifactCache({str(self.root)!r})"

    # -- paths ----------------------------------------------------------
    def path_for(self, key: str) -> Path:
        """On-disk location of a network archive (``<root>/<k[:2]>/<k>.net.npz``)."""
        return self.root / key[:2] / f"{key}.net.npz"

    def mmap_path(self, key: str) -> Path:
        """On-disk location of an array spill (``<root>/<k[:2]>/<k>.npy``)."""
        return self.root / key[:2] / f"{key}.npy"

    def manifest_path(self, key: str) -> Path:
        """Location of the artifact's provenance manifest (``.json``)."""
        return self.root / key[:2] / f"{key}.json"

    def _record_store(self, key: str, nbytes: int) -> None:
        """Count a published artifact (``cache.store``/``cache.bytes``)
        and record the key's provenance (kind/schema/engine/ruleset)
        beside it, so ``repro cache info`` can explain stale entries even
        across engine upgrades.  The manifest is best-effort: a missing
        one never affects loads (artifacts are addressed purely by key)."""
        reg = obs.registry()
        reg.incr("cache.store")
        reg.incr("cache.bytes", nbytes)
        prov = dict(_PROVENANCE.get(key, {"kind": "unknown"}))
        prov["bytes"] = int(nbytes)
        path = self.manifest_path(key)
        try:
            path.write_text(json.dumps(prov, sort_keys=True))
        except OSError:  # pragma: no cover — manifest is advisory only
            pass

    def provenance(self, key: str) -> dict[str, Any] | None:
        """The stored provenance manifest for an artifact, or ``None``."""
        path = self.manifest_path(key)
        if not path.exists():
            return None
        try:
            return json.loads(path.read_text())
        except (OSError, ValueError):
            return None

    def _atomic_write(self, path: Path, writer: Any) -> int:
        """Run ``writer(tmp_path)`` then atomically publish; returns bytes."""
        path.parent.mkdir(parents=True, exist_ok=True)
        # pid only names the scratch file (concurrent-writer safety); the
        # published artifact's path and bytes are pid-independent
        tmp = path.with_name(f"{path.stem}.{os.getpid()}.tmp{path.suffix}")  # repro: noqa[RPR010]
        try:
            writer(tmp)
            nbytes = tmp.stat().st_size
            os.replace(tmp, path)
        finally:
            if tmp.exists():  # writer failed before the replace
                tmp.unlink(missing_ok=True)
        return nbytes

    # -- whole networks -------------------------------------------------
    def store_network(self, key: str, net: "Network") -> bool:
        """Persist a built network under ``key`` (True when stored).

        Only plain :class:`~repro.core.network.Network` /
        :class:`~repro.core.ipgraph.IPGraph` instances round-trip through
        :mod:`repro.io`; richer subclasses and non-JSON labels are skipped
        (counted as ``cache.skip``) rather than stored lossily.
        """
        from repro.core.ipgraph import IPGraph
        from repro.core.network import Network
        from repro.io import save_network

        if type(net) not in (Network, IPGraph) or net.num_nodes < self.min_nodes:
            obs.registry().incr("cache.skip")
            return False
        try:
            nbytes = self._atomic_write(self.path_for(key), lambda tmp: save_network(net, tmp))
        except TypeError:  # labels not JSON-serializable
            obs.registry().incr("cache.skip")
            return False
        self._record_store(key, nbytes)
        return True

    def load_network(self, key: str) -> "Network | None":
        """Load the network stored under ``key`` (None on a miss)."""
        from repro.io import load_network

        return self._load(self.path_for(key), load_network)

    # -- raw .npy spills (zero-copy shared arrays) ----------------------
    def export_mmap(self, key: str, array: np.ndarray) -> np.memmap:
        """Write ``array`` as the raw ``.npy`` spill of ``key`` and return
        it mapped read-only (see :meth:`load_mmap`)."""

        # np.save appends ".npy" to bare filenames; write through a file
        # object so the atomic temp name is saved verbatim
        def _save(tmp: Path) -> None:
            with open(tmp, "wb") as fh:
                np.save(fh, array)

        path = self.mmap_path(key)
        self._record_store(key, self._atomic_write(path, _save))
        return np.load(path, mmap_mode="r", allow_pickle=False)

    def load_mmap(self, key: str) -> np.memmap | None:
        """Map the spill of ``key`` read-only (``None`` on a miss).

        The returned array is an ``np.memmap`` backed by the page cache,
        so any number of processes opening the same spill share one
        physical copy of the data.
        """
        return self._load(
            self.mmap_path(key), lambda p: np.load(p, mmap_mode="r", allow_pickle=False)
        )

    def _load(self, path: Path, reader: Any) -> Any:
        """``reader(path)``, counting ``cache.hit``/``cache.miss``; an
        unreadable artifact counts ``cache.error``, is removed and is a miss."""
        reg = obs.registry()
        if not path.exists():
            reg.incr("cache.miss")
            return None
        try:
            out = reader(path)
        except (OSError, ValueError, KeyError):  # corrupt/foreign file
            reg.incr("cache.error")
            path.unlink(missing_ok=True)
            reg.incr("cache.miss")
            return None
        reg.incr("cache.hit")
        reg.incr("cache.bytes.read", path.stat().st_size)
        return out

    # -- maintenance ----------------------------------------------------
    def entries(self) -> list[Path]:
        """Every artifact file currently in the cache (archives and spills)."""
        return sorted(p for p in self.root.glob("*/*") if p.suffix in (".npz", ".npy"))

    def size_bytes(self) -> int:
        """Total bytes of every artifact file."""
        return sum(p.stat().st_size for p in self.entries())

    def clear(self) -> int:
        """Delete every artifact (and its provenance manifest); returns the
        number of artifact files removed."""
        entries = self.entries()
        for p in entries + list(self.root.glob("*/*.json")):
            p.unlink(missing_ok=True)
        for d in sorted(self.root.glob("*")):
            if d.is_dir() and not any(d.iterdir()):
                d.rmdir()
        return len(entries)


# ----------------------------------------------------------------------
# process-wide default cache
# ----------------------------------------------------------------------
_default_cache: ArtifactCache | None = None


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` when set, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    return Path("~/.cache/repro").expanduser()


def configure(path: str | Path | None = None, min_nodes: int = 64) -> ArtifactCache:
    """Install (and return) the process-wide default cache.

    ``path=None`` uses :func:`default_cache_dir`.  Until this is called,
    :func:`get_cache` returns ``None`` and nothing touches the disk.
    ``min_nodes`` is the smallest network worth persisting (see
    :class:`ArtifactCache`).
    """
    global _default_cache
    _default_cache = ArtifactCache(
        path if path is not None else default_cache_dir(), min_nodes=min_nodes
    )
    return _default_cache


def get_cache() -> ArtifactCache | None:
    """The process-wide default cache, or ``None`` when caching is off."""
    return _default_cache


def set_cache(cache: ArtifactCache | None) -> None:
    """Replace the default cache (``None`` disables caching)."""
    global _default_cache
    _default_cache = cache
