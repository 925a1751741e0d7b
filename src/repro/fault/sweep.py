"""Monte-Carlo resilience sweeps: delivery ratio and latency dilation vs
fault count.

The paper's case for symmetric super-IP graphs leans on graceful
degradation; this driver demonstrates it end to end.  For each fault count
it samples seeded random fault plans, runs the degraded-mode
:class:`~repro.sim.simulator.PacketSimulator` under uniform traffic, and
aggregates delivery ratio, latency dilation (mean latency relative to the
same network's zero-fault run), and the reroute/drop/retransmit counters.
Seeding is fully deterministic: trial ``j`` at any fault count reuses the
same workload, so curves across fault counts are paired-sample comparable.

Every ``(fault count, trial)`` pair is an independent task whose RNG
streams derive from ``(seed, fault count, trial)`` alone, so the sweep
fans out over a process pool (``jobs``) with **bit-identical** results to
the serial run — the trials are computed by the same function either way
and aggregated in the same task order (see :mod:`repro.parallel`).
"""

from __future__ import annotations

import numpy as np

from repro.core.network import Network
from repro.parallel import run_tasks
from repro.routing.table import shared_table
from repro.sim.simulator import PacketSimulator
from repro.sim.workloads import uniform_random_array

from .plan import FaultPlan

__all__ = ["fault_sweep", "fault_comparison", "default_resilience_cases"]


def _sample_plan(
    net: Network, kind: str, count: int, cycles: int, rng: np.random.Generator
) -> FaultPlan:
    if kind == "link":
        return FaultPlan.random_link_faults(net, count, rng, horizon=cycles)
    if kind == "node":
        return FaultPlan.random_node_faults(net, count, rng, horizon=cycles)
    raise ValueError(f"fault kind must be 'link' or 'node', got {kind!r}")


def _fault_trial(ctx: dict, task: tuple[int, int]) -> dict | None:
    """One seeded Monte-Carlo trial: ``task = (fault count, trial index)``.

    Module-level so the process pool can pickle it; all randomness derives
    from ``(seed, faults, trial)``, never from execution order.  Returns
    ``None`` when the workload injects nothing (the trial contributes no
    samples, exactly as in the serial aggregation).
    """
    net = ctx["net"]
    faults, trial = task
    seed, cycles = ctx["seed"], ctx["cycles"]
    workload_rng = np.random.default_rng([seed, 1_000_003, trial])
    injections = uniform_random_array(net, ctx["rate"], cycles, workload_rng)
    if not len(injections):
        return None
    plan = None
    if faults:
        fault_rng = np.random.default_rng([seed, faults, trial])
        plan = _sample_plan(net, ctx["kind"], faults, cycles, fault_rng)
    elif ctx["faulted"]:
        # the faulted trials' ResilientRouter needs distances: recording
        # the table with them here leaves one build for the whole sweep
        shared_table(net, with_distances=True)
    sim = PacketSimulator(
        net,
        delays=ctx["delays"],
        faults=plan,
        retransmit_timeout=ctx["retransmit_timeout"],
        max_retries=ctx["max_retries"],
    )
    stats = sim.run(injections, max_cycles=cycles * ctx["max_cycles_factor"])
    return {
        "delivery_ratio": stats.delivery_ratio,
        "mean_latency": stats.mean_latency if stats.delivered else None,
        "dropped": stats.dropped,
        "retransmitted": stats.retransmitted,
        "rerouted": stats.rerouted,
    }


def fault_sweep(
    net: Network,
    fault_counts: list[int],
    trials: int = 5,
    *,
    kind: str = "link",
    rate: float = 0.05,
    cycles: int = 60,
    seed: int = 0,
    delays=1,
    max_cycles_factor: int = 50,
    retransmit_timeout: int = 16,
    max_retries: int = 4,
    jobs: int = 1,
) -> list[dict]:
    """Delivery-ratio / latency-dilation curve for one network.

    For each entry of ``fault_counts``, runs ``trials`` seeded Monte-Carlo
    repetitions: sample a random permanent fault plan (``kind`` ``"link"``
    or ``"node"``, fault times uniform over the injection window), drive
    ``cycles`` cycles of uniform traffic at ``rate``, then drain.  Returns
    one aggregated row per fault count; ``latency_dilation`` is relative to
    the zero-fault mean latency of the same workload (NaN until a zero-fault
    baseline exists in the sweep or nothing was delivered).

    ``jobs`` fans the ``(fault count, trial)`` grid out over a process pool
    (``0`` = all cores); results are bit-identical to ``jobs=1``.
    """
    if kind not in ("link", "node"):
        raise ValueError(f"fault kind must be 'link' or 'node', got {kind!r}")
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"injection rate must be in [0, 1], got {rate}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if cycles < 1:
        raise ValueError(f"cycles must be >= 1, got {cycles}")
    if max_cycles_factor < 1:
        raise ValueError(
            f"max_cycles_factor must be >= 1, got {max_cycles_factor}"
        )
    if len(fault_counts) == 0:
        raise ValueError("fault_counts must be non-empty")
    counts = sorted(set(int(f) for f in fault_counts))
    if counts[0] < 0:
        raise ValueError(f"fault counts must be >= 0, got {counts[0]}")
    ctx = {
        "net": net,
        "kind": kind,
        "rate": rate,
        "cycles": cycles,
        "seed": seed,
        "delays": delays,
        "max_cycles_factor": max_cycles_factor,
        "retransmit_timeout": retransmit_timeout,
        "max_retries": max_retries,
        "faulted": counts[-1] > 0,
    }
    tasks = [(faults, trial) for faults in counts for trial in range(trials)]
    results = run_tasks(_fault_trial, ctx, tasks, jobs=jobs)
    by_count: dict[int, list[dict]] = {f: [] for f in counts}
    for (faults, _), res in zip(tasks, results):
        if res is not None:
            by_count[faults].append(res)
    rows = []
    baseline_latency: float | None = None
    for faults in counts:
        samples = by_count[faults]
        ratios = [s["delivery_ratio"] for s in samples]
        latencies = [s["mean_latency"] for s in samples if s["mean_latency"] is not None]
        drops = [s["dropped"] for s in samples]
        retx = [s["retransmitted"] for s in samples]
        reroutes = [s["rerouted"] for s in samples]
        mean_latency = float(np.mean(latencies)) if latencies else float("nan")
        if faults == 0 and latencies:
            baseline_latency = mean_latency
        rows.append(
            {
                "network": net.name,
                "faults": faults,
                "kind": kind,
                "trials": trials,
                "delivery_ratio": float(np.mean(ratios)) if ratios else float("nan"),
                "mean_latency": mean_latency,
                "latency_dilation": (
                    mean_latency / baseline_latency
                    if baseline_latency
                    else float("nan")
                ),
                "dropped": float(np.mean(drops)) if drops else 0.0,
                "retransmitted": float(np.mean(retx)) if retx else 0.0,
                "rerouted": float(np.mean(reroutes)) if reroutes else 0.0,
            }
        )
    return rows


def default_resilience_cases() -> list[Network]:
    """The paper-motivated comparison set: HSN and symmetric HSN against a
    cyclic-shift network and classic baselines of comparable size."""
    from repro import networks

    nucleus = networks.hypercube_nucleus(2)
    return [
        networks.hsn(2, nucleus),  # 16 nodes, plain HSN
        networks.symmetric_hsn(2, nucleus),  # 32 nodes, vertex-symmetric
        networks.complete_cn(2, nucleus),  # 16 nodes, complete CN
        networks.hypercube(5),  # 32 nodes
        networks.ring(32),  # fragile baseline
    ]


def fault_comparison(
    cases: list[Network] | None = None,
    fault_counts: list[int] = (0, 1, 2, 4),
    **kw,
) -> list[dict]:
    """Run :func:`fault_sweep` over a case list (default: the paper set) and
    concatenate the rows — the table behind ``python -m repro faults``.

    Keyword arguments (including ``jobs``) pass through to
    :func:`fault_sweep`; the fan-out happens within each case's sweep so
    row order is independent of the ``jobs`` setting.
    """
    if cases is None:
        cases = default_resilience_cases()
    rows: list[dict] = []
    for net in cases:
        rows.extend(fault_sweep(net, list(fault_counts), **kw))
    return rows
