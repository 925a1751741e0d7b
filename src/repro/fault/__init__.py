"""Fault injection: fault models, resilient routing, sweeps.

The subsystem behind the paper's graceful-degradation story:

* :class:`FaultPlan` / :class:`FaultEvent` / :class:`FaultTimeline` —
  declarative schedules of permanent/transient node and link failures
  (explicit events or seeded random models) compiled into queryable
  down-interval timelines (:mod:`repro.fault.plan`);
* :class:`ResilientRouter` — primary → alternate-minimal → survivor-path
  adaptive routing on undirected networks, reading the timeline directly
  and keeping one survivor CSR per fault epoch, searched by an early-exit
  BFS per detour (:mod:`repro.fault.resilient`);
* :func:`fault_sweep` / :func:`fault_comparison` — Monte-Carlo resilience
  curves, exposed as the ``faults`` CLI subcommand
  (:mod:`repro.fault.sweep`);
* :func:`percolation_sweep` / :func:`percolation_comparison` /
  :func:`estimate_threshold` / :func:`threshold_traffic_runs` — random
  node/link-survival percolation: giant-component and routability curves
  over a survival-probability grid, per-family threshold estimates, and
  degraded-traffic probes around the threshold
  (:mod:`repro.fault.percolation`);
* :func:`exhaustive_fault_sweep` — certification of all ``k``-fault
  patterns, labeled in ``(B, n)`` mask batches by the same component
  labeler, with the disconnecting patterns as counterexamples
  (:mod:`repro.fault.percolation`).

Pass a :class:`FaultPlan` to :class:`repro.sim.PacketSimulator` to simulate
in degraded mode; an empty plan is bit-identical to the fault-free
simulator.
"""

from .percolation import (
    default_probability_grid,
    estimate_threshold,
    exhaustive_fault_sweep,
    masked_components,
    percolation_comparison,
    percolation_sweep,
    threshold_traffic_runs,
)
from .plan import FaultEvent, FaultPlan, FaultTimeline
from .resilient import ResilientRouter
from .sweep import default_resilience_cases, fault_comparison, fault_sweep

__all__ = [
    "default_probability_grid",
    "default_resilience_cases",
    "estimate_threshold",
    "exhaustive_fault_sweep",
    "FaultEvent",
    "fault_comparison",
    "FaultPlan",
    "fault_sweep",
    "FaultTimeline",
    "masked_components",
    "percolation_comparison",
    "percolation_sweep",
    "ResilientRouter",
    "threshold_traffic_runs",
]
