"""Content-addressed on-disk artifact cache for built graphs and tables.

Theorem 4.1/4.3 artifacts — super-IP closures, distance matrices, next-hop
tables — are pure functions of ``(family, params, generator set, engine
version)``, so they can be persisted once and reloaded for free on every
later sweep.  This module provides:

* :func:`cache_key` — a stable SHA-256 over a canonicalized description of
  the artifact (family name, parameters, generator permutations, cache
  schema + engine version), so any change to the inputs *or* to the engine
  release invalidates the entry;
* :class:`ArtifactCache` — a directory of ``.npz`` archives addressed by
  key (two-level fan-out on the key prefix), storing whole networks via
  :mod:`repro.io` (CSR arc arrays + label arrays + generator metadata) and
  raw array bundles (distance / next-hop tables);
* a process-wide default cache: :func:`configure` (honouring
  ``$REPRO_CACHE_DIR`` and falling back to ``~/.cache/repro``),
  :func:`get_cache`, :func:`set_cache`.

Caching is **opt-in**: the default cache is ``None`` until
:func:`configure` is called (the CLI does so under ``--cache-dir``), and
library call sites treat a missing cache as "build from scratch".

Obs accounting: ``cache.hit`` / ``cache.miss`` counters, ``cache.bytes``
(bytes written), ``cache.bytes.read`` (bytes loaded on hits), and
``cache.skip`` for artifacts that cannot be serialized.
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
#: store_* persists the entry as a ``.json`` manifest beside the artifact
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
    # in-process memo: store_* reads it in the same process that computed
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
    """A directory of ``.npz`` artifacts addressed by :func:`cache_key`.

    Writes are atomic (temp file + ``os.replace``), so concurrent workers
    racing on the same key at worst redo the serialization — readers never
    observe a partial archive.

    Networks smaller than ``min_nodes`` are never stored: for tiny
    instances the fixed ``.npz`` open/decompress cost exceeds the build
    itself, so caching them makes warm runs *slower* (measured in
    ``benchmarks/bench_parallel_sweep.py``).  Pass ``min_nodes=1`` to cache
    everything.
    """

    def __init__(self, root: str | Path, min_nodes: int = 64) -> None:
        self.root = Path(root).expanduser()
        self.min_nodes = int(min_nodes)
        self.root.mkdir(parents=True, exist_ok=True)

    def __repr__(self) -> str:
        return f"ArtifactCache({str(self.root)!r})"

    # -- paths ----------------------------------------------------------
    def path_for(self, key: str, suffix: str = "net") -> Path:
        """On-disk location of an artifact (``<root>/<k[:2]>/<k>.<suffix>.npz``)."""
        return self.root / key[:2] / f"{key}.{suffix}.npz"

    def contains(self, key: str, suffix: str = "net") -> bool:
        """Whether an artifact exists for ``key`` (no counters touched)."""
        return self.path_for(key, suffix).exists()

    def manifest_path(self, key: str, suffix: str = "net") -> Path:
        """Location of the artifact's provenance manifest (``.json``)."""
        return self.root / key[:2] / f"{key}.{suffix}.json"

    def _write_manifest(self, key: str, suffix: str, nbytes: int) -> None:
        """Record the key's provenance (kind/schema/engine/ruleset) beside
        the artifact so ``repro cache info`` can explain stale entries even
        across engine upgrades.  Best-effort: a missing manifest never
        affects loads (artifacts are addressed purely by key)."""
        prov = dict(_PROVENANCE.get(key, {"kind": "unknown"}))
        prov["bytes"] = int(nbytes)
        path = self.manifest_path(key, suffix)
        try:
            path.write_text(json.dumps(prov, sort_keys=True))
        except OSError:  # pragma: no cover — manifest is advisory only
            pass

    def provenance(self, key: str, suffix: str = "net") -> dict[str, Any] | None:
        """The stored provenance manifest for an artifact, or ``None``."""
        path = self.manifest_path(key, suffix)
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
        tmp = path.with_name(f"{path.stem}.{os.getpid()}.tmp.npz")  # repro: noqa[RPR010]
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

        reg = obs.registry()
        if type(net) not in (Network, IPGraph) or net.num_nodes < self.min_nodes:
            reg.incr("cache.skip")
            return False
        path = self.path_for(key, "net")
        try:
            nbytes = self._atomic_write(path, lambda tmp: save_network(net, tmp))
        except TypeError:  # labels not JSON-serializable
            reg.incr("cache.skip")
            return False
        self._write_manifest(key, "net", nbytes)
        reg.incr("cache.store")
        reg.incr("cache.bytes", nbytes)
        return True

    def load_network(self, key: str) -> "Network | None":
        """Load the network stored under ``key`` (None on a miss)."""
        from repro.io import load_network

        reg = obs.registry()
        path = self.path_for(key, "net")
        if not path.exists():
            reg.incr("cache.miss")
            return None
        try:
            net = load_network(path)
        except (OSError, ValueError, KeyError):  # corrupt/foreign archive
            reg.incr("cache.error")
            path.unlink(missing_ok=True)
            reg.incr("cache.miss")
            return None
        reg.incr("cache.hit")
        reg.incr("cache.bytes.read", path.stat().st_size)
        return net

    # -- raw array bundles (distance / next-hop tables) ----------------
    def store_arrays(self, key: str, arrays: dict[str, np.ndarray], suffix: str = "tbl") -> bool:
        """Persist a named bundle of arrays under ``key``."""
        reg = obs.registry()
        path = self.path_for(key, suffix)
        nbytes = self._atomic_write(
            path, lambda tmp: np.savez_compressed(tmp, **arrays)
        )
        self._write_manifest(key, suffix, nbytes)
        reg.incr("cache.store")
        reg.incr("cache.bytes", nbytes)
        return True

    def load_arrays(self, key: str, suffix: str = "tbl") -> dict[str, np.ndarray] | None:
        """Load an array bundle (None on a miss)."""
        reg = obs.registry()
        path = self.path_for(key, suffix)
        if not path.exists():
            reg.incr("cache.miss")
            return None
        try:
            with np.load(path, allow_pickle=False) as data:
                out = {name: data[name] for name in data.files}
        except (OSError, ValueError, KeyError):
            reg.incr("cache.error")
            path.unlink(missing_ok=True)
            reg.incr("cache.miss")
            return None
        reg.incr("cache.hit")
        reg.incr("cache.bytes.read", path.stat().st_size)
        return out

    # -- uncompressed mmap spills (shared read-only serving tables) -----
    def mmap_path(self, key: str, name: str, suffix: str = "srv") -> Path:
        """On-disk location of one array's uncompressed ``.npy`` spill.

        Compressed ``.npz`` archives cannot be memory-mapped (``np.load``
        silently ignores ``mmap_mode`` for zip archives), so artifacts that
        must be shared zero-copy across processes — the serving layer's
        next-hop tables — are materialized once as raw ``.npy`` files
        beside the canonical archive and opened with ``mmap_mode="r"``.
        """
        return self.root / key[:2] / f"{key}.{suffix}.{name}.npy"

    def export_mmap(
        self, key: str, arrays: dict[str, np.ndarray], suffix: str = "srv"
    ) -> dict[str, Path]:
        """Materialize ``arrays`` as mmap-able ``.npy`` spills under ``key``.

        Idempotent: existing spills are kept (they are pure functions of the
        key).  Writes are atomic like every other artifact.  Returns the
        spill path per array name.
        """
        reg = obs.registry()
        out: dict[str, Path] = {}
        for name, arr in arrays.items():
            path = self.mmap_path(key, name, suffix)
            if not path.exists():
                # np.save appends ".npy" to bare filenames; write through a
                # file object so the atomic temp name is saved verbatim
                def _save(tmp: Path, a: np.ndarray = arr) -> None:
                    with open(tmp, "wb") as fh:
                        np.save(fh, np.ascontiguousarray(a))

                nbytes = self._atomic_write(path, _save)
                reg.incr("cache.mmap.export")
                reg.incr("cache.bytes", nbytes)
            out[name] = path
        return out

    def load_mmap(self, key: str, name: str, suffix: str = "srv") -> np.ndarray | None:
        """Open one spill memory-mapped read-only (``None`` on a miss).

        The returned array is an ``np.memmap`` view backed by the page
        cache, so any number of processes opening the same spill share one
        physical copy of the data.
        """
        reg = obs.registry()
        path = self.mmap_path(key, name, suffix)
        if not path.exists():
            reg.incr("cache.miss")
            return None
        try:
            arr = np.load(path, mmap_mode="r", allow_pickle=False)
        except (OSError, ValueError):  # corrupt/foreign spill
            reg.incr("cache.error")
            path.unlink(missing_ok=True)
            reg.incr("cache.miss")
            return None
        reg.incr("cache.mmap.open")
        return arr

    # -- maintenance ----------------------------------------------------
    def entries(self) -> list[Path]:
        """Every artifact file currently in the cache."""
        return sorted(self.root.glob("*/*.npz"))

    def size_bytes(self) -> int:
        """Total bytes currently stored."""
        return sum(p.stat().st_size for p in self.entries())

    def clear(self) -> int:
        """Delete every artifact (and its provenance manifest); returns the
        number of artifact files removed."""
        removed = 0
        for p in self.entries():
            p.unlink(missing_ok=True)
            removed += 1
        for m in self.root.glob("*/*.json"):
            m.unlink(missing_ok=True)
        for m in self.root.glob("*/*.npy"):  # serving-layer mmap spills
            m.unlink(missing_ok=True)
        for d in sorted(self.root.glob("*")):
            if d.is_dir() and not any(d.iterdir()):
                d.rmdir()
        return removed


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
