"""Profile-guided perf sanitizer (``python -m repro.check perf --measure``).

The static pass (:mod:`repro.check.perf`) reasons about the *declared*
hot-path perimeter; this module closes the loop at runtime.  It runs a
fixed set of seeded micro-workloads — one per perimeter kernel family —
and checks three things the AST cannot see:

* **SAN004 — hot function outside the perimeter.**  Each workload runs
  once under :mod:`cProfile`; any function in the scanned tree whose own
  (``tottime``) share of the profile exceeds a threshold but is *not* in
  the statically-closed hot perimeter is reported.  This is the recall
  backstop for the perimeter's precision-first typed-edge closure: a
  kernel the static pass missed cannot stay hidden once it actually
  burns cycles.
* **SAN005 — per-unit cost regression.**  Each workload also runs
  un-profiled (best of ``repeats``) and reports a per-unit cost
  (µs per node / packet / query / mask entry).  Costs are compared
  against ``benchmarks/perf_budgets.json``; a measured cost above its
  recorded budget is a regression finding.  Budgets are recorded with a
  generous (default 6x) margin over the measuring machine so that normal
  scheduling noise never trips the gate — only an asymptotic or
  constant-factor regression does.
* **SAN006 — concrete shape/dtype drift.**  After timing, the same
  prepared workload runs once more in its recording mode and stores the
  named arrays it produces (the CSR arrays of the built closure, the
  ``(n, n)`` table and distance matrices, the query-aligned resolve
  outputs, the ``(B, n)`` component labels, ...).  Every workload is
  fully seeded, so the check is exact equality against
  ``benchmarks/shape_contracts.json``: a changed rank, extent or dtype is
  a contract break (or an intentional change that must re-record), and
  so are arrays recorded without a contract and contracted arrays that
  stopped being recorded.

``--update-budgets`` re-measures and rewrites the budget file, and
``--update-contracts`` re-records the contract file, for the profile
being run (``smoke`` or ``full``), preserving the other profile's
entries.  Findings reuse the shared :class:`~repro.check.findings.Report`
model, so rendering and exit codes match every other tier.
"""

from __future__ import annotations

import cProfile
import json
import os
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from pathlib import Path

from repro import obs

from .findings import Finding, Report

__all__ = [
    "PERF_SANITIZE_RULES",
    "SHAPE_SANITIZE_RULES",
    "Workload",
    "WORKLOADS",
    "Measurement",
    "measure",
    "run_workload",
    "perimeter_frame_index",
    "hot_frames",
    "load_profiles",
    "load_budgets",
    "load_contracts",
    "write_profile",
    "update_budgets",
    "record_shapes",
    "write_contracts",
    "perf_sanitize",
]

#: rule code -> one-line summary (catalog in DESIGN.md §7.5)
PERF_SANITIZE_RULES: dict[str, str] = {
    "SAN004": "profiled-hot function outside the declared hot-path perimeter",
    "SAN005": "perimeter kernel per-unit cost exceeds its recorded budget",
}
#: rule code -> one-line summary (catalog in DESIGN.md §7.5)
SHAPE_SANITIZE_RULES: dict[str, str] = {
    "SAN006": "recorded workload array shape/dtype drifts from its contract",
}

#: default budget and contract files, relative to the repo root (CI runs
#: from there)
DEFAULT_BUDGETS_PATH = "benchmarks/perf_budgets.json"
DEFAULT_CONTRACTS_PATH = "benchmarks/shape_contracts.json"
#: headroom multiplier applied by ``--update-budgets`` over the measured cost
BUDGET_MARGIN = 6.0
#: SAN004 fires only above max(_FLOOR_S, _FRAC * profile total) own-time
_FLOOR_S = 0.05
_FRAC = 0.10
#: a profiled frame matches a perimeter ``def`` within this many lines
#: (``co_firstlineno`` of a decorated function is its first decorator)
_LINENO_SLACK = 8


# ----------------------------------------------------------------------
# seeded micro-workloads: the one catalog of the runtime tiers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    """One seeded micro-benchmark exercising a perimeter kernel family.

    ``prepare(smoke)`` does all setup (network builds, injection draws,
    cached-group materialization) *outside* the measured region and
    returns a thunk.  ``thunk()`` runs the kernel once and returns the
    number of units processed (nodes, packets, mask rows, ...) — the
    SAN004/SAN005 timing pass.  ``thunk(record)`` runs it once more and
    stores the named ndarrays whose geometry the shape contracts pin into
    the ``record`` dict — the SAN006 recording pass.
    """

    name: str
    kernel: str  #: perimeter root qualname this workload exercises
    unit: str  #: what "per-unit" means in the budget file
    prepare: Callable[[bool], Callable[..., int]]


def _wl_closure(smoke: bool) -> Callable[..., int]:
    from repro.core.ipgraph import build_ip_graph
    from repro.core.permutation import from_cycles

    k = 6 if smoke else 7
    seed = tuple(range(k))
    gens = [from_cycles(k, [(0, i)]) for i in range(1, k)]

    def run(record: dict | None = None) -> int:
        net = build_ip_graph(seed, gens, name="perfsan-star")
        if record is not None:
            csr = net.adjacency_csr()
            record.update(indptr=csr.indptr, indices=csr.indices, data=csr.data)
        return net.num_nodes

    return run


def _wl_routing(smoke: bool) -> Callable[..., int]:
    from repro.networks import build
    from repro.routing.table import NextHopTable

    net = build("hsn", l=2, n=3) if smoke else build("hypercube", n=9)

    def run(record: dict | None = None) -> int:
        if record is None:
            NextHopTable(net)
        else:
            table = NextHopTable(net, with_distances=True)
            record.update(table=table.table, dist=table.dist)
        return net.num_nodes

    return run


def _wl_sim(smoke: bool) -> Callable[..., int]:
    import numpy as np

    from repro.networks import build
    from repro.sim.simulator import PacketSimulator
    from repro.sim.workloads import uniform_random_array

    net = build("hsn", l=2, n=3)
    rng = np.random.default_rng(12345)
    cycles = 50 if smoke else 400
    inj = uniform_random_array(net, 0.2, cycles, rng)
    sim = PacketSimulator(net)

    def run(record: dict | None = None) -> int:
        sim.run(inj)
        if record is not None:
            csr = net.adjacency_csr()
            record.update(injections=inj, indptr=csr.indptr, indices=csr.indices)
        return len(inj)

    return run


def _wl_serve(smoke: bool) -> Callable[..., int]:
    from repro.networks import build
    from repro.routing.table import NextHopTable
    from repro.serve import RouteService
    from repro.serve.harness import seeded_queries

    net = build("hsn", l=2, n=3) if smoke else build("hypercube", n=9)
    svc = RouteService.from_table(NextHopTable(net, with_distances=True))
    count = 50_000 if smoke else 500_000
    src, dst = seeded_queries(net.num_nodes, count, seed=0)

    def run(record: dict | None = None) -> int:
        batch = svc.resolve(src, dst, paths=record is not None)
        if record is not None:
            record.update(
                src=batch.src,
                dst=batch.dst,
                next_hop=batch.next_hop,
                distance=batch.distance,
                paths=batch.paths,
            )
        return count

    return run


def _wl_percolation(smoke: bool) -> Callable[..., int]:
    import numpy as np

    from repro.fault.percolation import masked_components
    from repro.networks import build

    net = build("hsn", l=2, n=3)
    rng = np.random.default_rng(6789)
    batch = 64 if smoke else 1024
    node_alive = rng.random((batch, net.num_nodes)) > 0.1

    def run(record: dict | None = None) -> int:
        labels = masked_components(net, node_alive=node_alive)
        if record is not None:
            record.update(node_alive=node_alive, labels=labels)
        return batch * net.num_nodes

    return run


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "closure_fast",
        "repro.core.ipgraph.build_ip_graph",
        "node",
        _wl_closure,
    ),
    Workload(
        "routing_table",
        "repro.routing.table.NextHopTable.__init__",
        "node",
        _wl_routing,
    ),
    Workload(
        "sim_run",
        "repro.sim.simulator.PacketSimulator.run",
        "packet",
        _wl_sim,
    ),
    Workload(
        "route_resolve",
        "repro.serve.service.RouteService.resolve",
        "query",
        _wl_serve,
    ),
    Workload(
        "percolation",
        "repro.fault.percolation.masked_components",
        "mask-entry",
        _wl_percolation,
    ),
)


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
@dataclass
class Measurement:
    """Best-of-N timing plus one profiled pass for a workload."""

    workload: str
    unit: str
    units: int
    seconds: float  #: best un-profiled wall time
    profile: cProfile.Profile  #: one profiled pass (for SAN004)

    @property
    def per_unit_us(self) -> float:
        return self.seconds / self.units * 1e6 if self.units else 0.0


def run_workload(w: Workload, smoke: bool = False, repeats: int = 3) -> Measurement:
    """Prepare one workload and :func:`measure` it."""
    return measure(w, w.prepare(smoke), repeats)


def measure(w: Workload, thunk: Callable[..., int], repeats: int = 3) -> Measurement:
    """Measure a prepared workload: warm-up, ``repeats`` timed runs (best
    kept), then one profiled run for SAN004 attribution.

    The warm-up pass absorbs one-time costs (imports, artifact caches)
    so the timed passes see the steady-state kernel.
    """
    units = thunk()  # warm-up
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        thunk()
        best = min(best, time.perf_counter() - t0)
    prof = cProfile.Profile()
    prof.enable()
    thunk()
    prof.disable()
    return Measurement(w.name, w.unit, units, best, prof)


# ----------------------------------------------------------------------
# SAN004: profile attribution against the static perimeter
# ----------------------------------------------------------------------
def perimeter_frame_index(
    paths: Iterable[str | Path] = ("src",),
    kernels=None,
) -> tuple[dict[tuple[str, str], list[int]], list[str]]:
    """Map the statically-closed hot perimeter to profiler frame keys.

    Returns ``((realpath, funcname) -> [def linenos], scan roots)`` for
    every function the perimeter reaches; the scan roots are the real
    paths of ``paths``, all of which SAN004 checks.  cProfile keys frames
    by ``(filename, co_firstlineno, funcname)``; decorated functions put
    ``co_firstlineno`` on the first decorator, so matching tolerates a
    small lineno offset rather than demanding equality.
    """
    from .callgraph import build_callgraph
    from .perf import hot_path_perimeter

    cg = build_callgraph(paths)
    index: dict[tuple[str, str], list[int]] = {}
    for qual in hot_path_perimeter(cg, kernels).reached:
        fn = cg.functions[qual]
        index.setdefault((os.path.realpath(fn.path), fn.name), []).append(fn.lineno)
    return index, [os.path.realpath(str(p)) for p in paths]


def hot_frames(
    prof: cProfile.Profile,
    floor_s: float = _FLOOR_S,
    frac: float = _FRAC,
) -> list[tuple[str, int, str, float, float]]:
    """Frames whose own time clears the SAN004 threshold.

    Returns ``(realpath, firstlineno, funcname, tottime, total)`` rows,
    hottest first.  ``total`` is the profile-wide sum of own times, so
    the threshold adapts to the workload: ``max(floor_s, frac * total)``.
    """
    prof.create_stats()
    stats = prof.stats  # type: ignore[attr-defined]
    total = sum(row[2] for row in stats.values())  # tt = inline own time
    threshold = max(floor_s, frac * total)
    out = []
    for (filename, lineno, funcname), (_cc, _nc, tt, _ct, _callers) in stats.items():
        if tt >= threshold and filename and not filename.startswith("<"):
            out.append((os.path.realpath(filename), lineno, funcname, tt, total))
    out.sort(key=lambda r: -r[3])
    return out


def _under(roots: Iterable[str], path: str) -> bool:
    return any(path.startswith(root + os.sep) for root in roots)


# ----------------------------------------------------------------------
# SAN005: budgets
# ----------------------------------------------------------------------
def load_profiles(path: str | Path) -> dict:
    """Load a per-profile JSON file (the SAN005 budgets, or the SAN006
    shape contracts); ``{}`` when absent."""
    p = Path(path)
    if not p.exists():
        return {}
    with open(p) as fh:
        return json.load(fh)


load_budgets = load_contracts = load_profiles


def write_profile(path: str | Path, profile: str, entries: dict, meta: dict) -> dict:
    """Merge ``entries`` into ``profile`` of the JSON file at ``path``
    (the other profile's entries are kept) and set its ``_meta`` to
    ``meta``, so a retired meta key does not outlive a re-record;
    returns the written dict."""
    data = load_profiles(path)
    data["_meta"] = dict(meta)
    data.setdefault("profiles", {}).setdefault(profile, {}).update(entries)
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with open(p, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return data


def update_budgets(
    path: str | Path,
    measurements: Iterable[Measurement],
    profile: str,
    margin: float = BUDGET_MARGIN,
) -> dict:
    """Write measured costs x ``margin`` as the ``profile`` budgets,
    preserving the other profile's entries; returns the written dict."""
    entries = {
        m.workload: {
            "per_unit_us": round(m.per_unit_us * margin, 3),
            "measured_us": round(m.per_unit_us, 3),
            "units": m.units,
            "unit": m.unit,
        }
        for m in measurements
    }
    meta = {
        "margin": margin,
        "unit": "per_unit_us",
        "generated_by": "python -m repro.check perf --measure --update-budgets",
        "note": (
            "budgets are measured-cost x margin on the recording machine; "
            "regenerate after intentional kernel changes or hardware moves"
        ),
    }
    return write_profile(path, profile, entries, meta)


# ----------------------------------------------------------------------
# SAN006: shape contracts
# ----------------------------------------------------------------------
def record_shapes(thunk: Callable[..., int]) -> dict[str, dict]:
    """Run a prepared workload's recording pass and flatten its arrays to
    ``{name: {shape, dtype}}``."""
    import numpy as np

    arrays: dict = {}
    thunk(arrays)
    out: dict[str, dict] = {}
    for name, arr in arrays.items():
        a = np.asarray(arr)
        out[name] = {"shape": [int(d) for d in a.shape], "dtype": str(a.dtype)}
    return out


def write_contracts(
    path: str | Path,
    recorded: dict[str, dict[str, dict]],
    profile: str,
) -> dict:
    """Write ``recorded`` (workload -> array -> shape/dtype) as the
    ``profile`` contracts, preserving the other profile's entries;
    returns the written dict."""
    meta = {
        "note": (
            "exact shapes/dtypes of the seeded check workloads; "
            "re-record after an intentional kernel geometry change"
        ),
    }
    return write_profile(path, profile, recorded, meta)


def _drift(want: dict, got: dict, contracts_path: str | Path) -> list[str]:
    """One SAN006 message per array whose recorded geometry differs from
    its contract (vanished and uncontracted arrays included)."""
    out = []
    for name in sorted(set(want) | set(got)):
        c, g = want.get(name), got.get(name)
        if c is None:
            out.append(
                f"now records array `{name}` {tuple(g['shape'])} "
                f"{g['dtype']} with no contract in {contracts_path} — "
                f"record it with --update-contracts"
            )
        elif g is None:
            out.append(
                f"no longer records array `{name}` (contracted as "
                f"{tuple(c['shape'])} {c['dtype']} in {contracts_path})"
            )
        elif c["shape"] != g["shape"] or c["dtype"] != g["dtype"]:
            out.append(
                f"array `{name}` is {tuple(g['shape'])} {g['dtype']} "
                f"but the contract in {contracts_path} says "
                f"{tuple(c['shape'])} {c['dtype']} — a geometry "
                f"regression, or rerun --update-contracts after an "
                f"intentional change"
            )
    return out


# ----------------------------------------------------------------------
# the sanitizer
# ----------------------------------------------------------------------
def perf_sanitize(
    paths: Iterable[str | Path] = ("src",),
    smoke: bool = False,
    budgets_path: str | Path = DEFAULT_BUDGETS_PATH,
    update: bool = False,
    workloads: Iterable[Workload] | None = None,
    kernels=None,
    floor_s: float = _FLOOR_S,
    frac: float = _FRAC,
    repeats: int = 3,
    contracts_path: str | Path = DEFAULT_CONTRACTS_PATH,
    update_contracts: bool = False,
) -> Report:
    """Run the seeded workloads and report SAN004–SAN006 findings.

    Each workload is prepared once: timed and profiled, then recorded.
    ``smoke`` selects the small workload sizes (and the ``smoke`` budget
    and contract profiles); ``update=True`` rewrites that profile's
    budgets from the measurement, and ``update_contracts=True`` its
    contracts from the recording, instead of comparing (SAN004 still
    runs).  Only workloads with a contract are recorded unless the
    contracts are being rewritten.  ``workloads`` and ``kernels`` exist
    for fixture tests; production callers use the registered
    :data:`WORKLOADS` against :data:`~repro.check.perf.HOT_PERIMETER`.
    """
    wls = tuple(workloads) if workloads is not None else WORKLOADS
    profile_name = "smoke" if smoke else "full"
    report = Report()
    reg = obs.registry()
    with obs.span("check.perfsan", profile=profile_name, workloads=len(wls)):
        index, roots = perimeter_frame_index(paths, kernels)
        budgets = {} if update else (
            load_profiles(budgets_path).get("profiles", {}).get(profile_name, {})
        )
        contracts = {} if update_contracts else (
            load_profiles(contracts_path).get("profiles", {}).get(profile_name, {})
        )
        measurements: list[Measurement] = []
        recorded: dict[str, dict[str, dict]] = {}
        for w in wls:
            thunk = w.prepare(smoke)
            m = measure(w, thunk, repeats)
            measurements.append(m)
            where = f"perf[{w.name}]"

            # SAN004: hot frames inside the scanned tree, outside the
            # perimeter.  The check harness itself is exempt (it drives
            # the profiler), as are frames outside the scanned root
            # (numpy, scipy, stdlib).
            report.checked += 1
            harness = os.path.realpath(os.path.dirname(__file__))
            for path, lineno, funcname, tt, total in hot_frames(
                m.profile, floor_s, frac
            ):
                if not _under(roots, path) or _under([harness], path):
                    continue
                linenos = index.get((path, funcname), ())
                if any(abs(lineno - ln) <= _LINENO_SLACK for ln in linenos):
                    continue
                rel = os.path.relpath(path)
                report.add(
                    Finding(
                        where,
                        0,
                        "SAN004",
                        f"`{funcname}` ({rel}:{lineno}) burned {tt:.3f}s of "
                        f"{total:.3f}s profiled ({tt / total:.0%}) but is not "
                        f"in the declared hot-path perimeter — add it to "
                        f"HOT_PERIMETER (or stop calling it per element)",
                    )
                )
                reg.incr("check.perfsan.escapes")

            # SAN005: per-unit cost vs budget
            budget = budgets.get(w.name)
            if budget is not None:
                report.checked += 1
                limit = float(budget["per_unit_us"])
                if m.per_unit_us > limit:
                    report.add(
                        Finding(
                            where,
                            0,
                            "SAN005",
                            f"{w.kernel} costs {m.per_unit_us:.3f}us per "
                            f"{m.unit} ({m.units} units in {m.seconds:.4f}s), "
                            f"over the {limit:.3f}us budget in "
                            f"{budgets_path} — a perf regression, or rerun "
                            f"--update-budgets after an intentional change",
                        )
                    )
                    reg.incr("check.perfsan.regressions")

            # SAN006: the same prepared workload, recorded
            want = contracts.get(w.name)
            if want is not None or update_contracts:
                got = recorded[w.name] = record_shapes(thunk)
            if want is not None:
                report.checked += 1
                for msg in _drift(want, got, contracts_path):
                    report.add(Finding(f"shapes[{w.name}]", 0, "SAN006", f"{w.kernel} {msg}"))
                    reg.incr("check.perfsan.drift")
            reg.incr("check.perfsan.workloads")
        if update:
            update_budgets(budgets_path, measurements, profile_name)
        if update_contracts:
            write_contracts(contracts_path, recorded, profile_name)
    return report
