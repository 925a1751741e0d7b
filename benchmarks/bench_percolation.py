"""Percolation + orbit-collapse benchmarks for the resilience subsystem.

Two promises are held here:

* **collapse** — on a symmetric family (hypercube Q4, k=3 node faults)
  the orbit-collapsed exhaustive sweep must enumerate >= ``MIN_COLLAPSE``x
  fewer patterns than brute force while producing the *exact same*
  weighted summary (the equality is asserted, not assumed);
* **throughput** — a full percolation sweep (20-point probability grid,
  8 coupled trials, batched union-find over every grid point) on a
  512-node hypercube must finish in under ``SWEEP_BUDGET_S`` seconds,
  i.e. masked component labeling stays vectorized end to end.

Methodology mirrors ``bench_sim_throughput.py``: GC parked during timing,
best-of-``ROUNDS`` for the timed section.  Results are printed as JSON;
set ``REPRO_BENCH_TRAJECTORY=<path>`` to append the record to a JSONL
trajectory file for tracking across commits.

Run directly (exits non-zero on regression)::

    PYTHONPATH=src python benchmarks/bench_percolation.py
"""

from __future__ import annotations

import gc
import sys
import time

from repro import networks as nw
from repro import obs
from repro.fault import (
    brute_force_fault_sweep,
    estimate_threshold,
    exhaustive_fault_sweep,
    percolation_sweep,
)

MIN_COLLAPSE = 10.0  # orbit patterns vs brute-force patterns
SWEEP_BUDGET_S = 30.0  # wall-clock budget for the 512-node sweep
ROUNDS = 3

# collapse workload: Q4, all C(16,3)=560 triple node faults
COLLAPSE_LOG2 = 4
COLLAPSE_K = 3

# sweep workload: Q9 (512 nodes), default 20-point grid, 8 trials
SWEEP_LOG2 = 9
SWEEP_TRIALS = 8
SEED = 0


def _timed(fn) -> float:
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def main() -> int:
    small = nw.hypercube(COLLAPSE_LOG2)

    orbit_result = {}

    def _orbit():
        orbit_result["r"] = exhaustive_fault_sweep(small, COLLAPSE_K, kind="node")

    dt_orbit = min(_timed(_orbit) for _ in range(ROUNDS))
    dt_brute = _timed(
        lambda: orbit_result.setdefault(
            "bf", brute_force_fault_sweep(small, COLLAPSE_K, kind="node")
        )
    )
    summary = orbit_result["r"]["summary"]
    bf_summary = orbit_result["bf"]["summary"]
    exact_keys = (
        "patterns",
        "connected_patterns",
        "mean_components",
        "min_giant",
        "routability",
        "sums",
    )
    if any(summary[k] != bf_summary[k] for k in exact_keys):
        print("FAIL: orbit sweep disagrees with brute force", file=sys.stderr)
        return 1
    collapse = summary["collapse_ratio"]

    big = nw.hypercube(SWEEP_LOG2)
    sweep_rows = {}

    def _sweep():
        sweep_rows["rows"] = percolation_sweep(
            big, trials=SWEEP_TRIALS, kind="node", seed=SEED
        )

    dt_sweep = min(_timed(_sweep) for _ in range(ROUNDS))
    threshold = estimate_threshold(sweep_rows["rows"])

    record = {
        "bench": "percolation",
        "collapse_network": small.name,
        "collapse_k": COLLAPSE_K,
        "patterns": summary["patterns"],
        "orbits": summary["orbits"],
        "collapse_ratio": round(collapse, 2),
        "orbit_s": round(dt_orbit, 4),
        "brute_s": round(dt_brute, 4),
        "sweep_network": big.name,
        "sweep_points": len(sweep_rows["rows"]),
        "sweep_trials": SWEEP_TRIALS,
        "sweep_s": round(dt_sweep, 4),
        "threshold": round(threshold, 4),
    }
    obs.emit_record(record)

    ok = True
    if collapse < MIN_COLLAPSE:
        print(
            f"FAIL: orbit collapse {collapse:.1f}x < {MIN_COLLAPSE:.0f}x "
            f"({summary['orbits']} orbits for {summary['patterns']} patterns)",
            file=sys.stderr,
        )
        ok = False
    if dt_sweep > SWEEP_BUDGET_S:
        print(
            f"FAIL: {big.name} percolation sweep took {dt_sweep:.1f}s "
            f"(budget {SWEEP_BUDGET_S:.0f}s)",
            file=sys.stderr,
        )
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
