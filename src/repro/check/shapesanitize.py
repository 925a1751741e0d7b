"""Runtime shape sanitizer (``python -m repro.check shapes --measure``).

The static pass (:mod:`repro.check.shapes`) proves what it can from
source; this module closes the loop at runtime.  It runs the one seeded
workload catalog, :data:`repro.check.perfsanitize.WORKLOADS` (closure
build, next-hop table, simulator, route resolve, percolation, orbit
signatures), in its recording mode and checks every recorded array
against the committed contracts:

* **SAN006 — concrete shape/dtype drift.**  Each workload's thunk, given
  a ``record`` dict, runs the kernel once from the same setup as the
  perf tier's timing pass and records the named arrays it produces (the
  CSR arrays of the built closure, the ``(n, n)`` table and distance
  matrices, the query-aligned resolve outputs, the ``(B, n)`` component
  labels, ...).  Because every workload is fully seeded, the concrete
  shapes are deterministic, so the check is exact equality against
  ``benchmarks/shape_contracts.json`` — a changed rank, extent, or dtype
  is a contract break (or an intentional change that must re-record).
  Arrays recorded without a contract, and contracted arrays that stopped
  being recorded, are drift too.

``--update-contracts`` re-records and rewrites the contracts for the
profile being run (``smoke`` or ``full``), preserving the other
profile's entries — the same flow (and the same JSON helpers) as
SAN005's ``--update-budgets``.  Findings reuse the shared
:class:`~repro.check.findings.Report` model.
"""

from __future__ import annotations

from collections.abc import Iterable
from pathlib import Path

from repro import obs

from .findings import Finding, Report
from .perfsanitize import WORKLOADS, Workload, load_profiles, write_profile

__all__ = [
    "SHAPE_SANITIZE_RULES",
    "record_shapes",
    "load_contracts",
    "update_contracts",
    "shape_sanitize",
]

#: rule code -> one-line summary (catalog in DESIGN.md §7.6)
SHAPE_SANITIZE_RULES: dict[str, str] = {
    "SAN006": "recorded workload array shape/dtype drifts from its contract",
}

#: default contract file, relative to the repo root (CI runs from there)
DEFAULT_CONTRACTS_PATH = "benchmarks/shape_contracts.json"

load_contracts = load_profiles


def record_shapes(workload: Workload, smoke: bool = False) -> dict[str, dict]:
    """Run one workload's recording pass and flatten its arrays to
    ``{name: {shape, dtype}}``."""
    import numpy as np

    arrays: dict = {}
    workload.prepare(smoke)(arrays)
    out: dict[str, dict] = {}
    for name, arr in arrays.items():
        a = np.asarray(arr)
        out[name] = {"shape": [int(d) for d in a.shape], "dtype": str(a.dtype)}
    return out


def update_contracts(
    path: str | Path,
    recorded: dict[str, dict[str, dict]],
    profile: str,
) -> dict:
    """Write ``recorded`` (workload -> array -> shape/dtype) as the
    ``profile`` contracts, preserving the other profile's entries;
    returns the written dict."""
    meta = {
        "generated_by": "python -m repro.check shapes --measure --update-contracts",
        "note": (
            "exact shapes/dtypes of the seeded check workloads; "
            "re-record after an intentional kernel geometry change"
        ),
    }
    return write_profile(path, profile, recorded, meta)


# ----------------------------------------------------------------------
# the sanitizer
# ----------------------------------------------------------------------
def shape_sanitize(
    smoke: bool = False,
    contracts_path: str | Path = DEFAULT_CONTRACTS_PATH,
    update: bool = False,
    workloads: Iterable[Workload] | None = None,
) -> Report:
    """Run the workloads' recording passes and report SAN006 findings.

    ``smoke`` selects the small workload sizes (and the ``smoke``
    contract profile); ``update=True`` rewrites that profile's contracts
    from the recording instead of comparing.  ``workloads`` exists for
    fixture tests; production callers use the one catalog,
    :data:`~repro.check.perfsanitize.WORKLOADS`.
    """
    wls = tuple(workloads) if workloads is not None else WORKLOADS
    profile_name = "smoke" if smoke else "full"
    report = Report()
    reg = obs.registry()
    with obs.span("check.shapesan", profile=profile_name, workloads=len(wls)):
        contracts = {} if update else (
            load_profiles(contracts_path).get("profiles", {}).get(profile_name, {})
        )
        recorded: dict[str, dict[str, dict]] = {}
        for w in wls:
            got = record_shapes(w, smoke=smoke)
            recorded[w.name] = got
            reg.incr("check.shapesan.workloads")
            want = contracts.get(w.name)
            if want is None:
                continue  # un-contracted workload: nothing to compare yet
            report.checked += 1
            where = f"shapes[{w.name}]"
            for name in sorted(set(want) | set(got)):
                c, g = want.get(name), got.get(name)
                if c is None:
                    msg = (
                        f"now records array `{name}` {tuple(g['shape'])} "
                        f"{g['dtype']} with no contract in {contracts_path} — "
                        f"record it with --update-contracts"
                    )
                elif g is None:
                    msg = (
                        f"no longer records array `{name}` (contracted as "
                        f"{tuple(c['shape'])} {c['dtype']} in {contracts_path})"
                    )
                elif c["shape"] != g["shape"] or c["dtype"] != g["dtype"]:
                    msg = (
                        f"array `{name}` is {tuple(g['shape'])} {g['dtype']} "
                        f"but the contract in {contracts_path} says "
                        f"{tuple(c['shape'])} {c['dtype']} — a geometry "
                        f"regression, or rerun --update-contracts after an "
                        f"intentional change"
                    )
                else:
                    continue
                report.add(Finding(where, 0, "SAN006", f"{w.kernel} {msg}"))
                reg.incr("check.shapesan.drift")
        if update:
            update_contracts(contracts_path, recorded, profile_name)
    return report
