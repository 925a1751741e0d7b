"""Percolation + exhaustive-certification benchmarks for the resilience
subsystem.

Two promises are held here:

* **exhaustive** — every one of the C(32, 5) = 201,376 five-node-fault
  patterns of the hypercube Q5 is labeled, exactly the 2^5 = 32 patterns
  that fault a node's whole neighbourhood (isolating it) are reported as
  disconnecting, and the sweep finishes inside ``EXHAUSTIVE_BUDGET_S``
  seconds (it measured 0.8 s on a shared 2-vCPU host);
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
from math import comb

from repro import networks as nw
from repro import obs
from repro.fault import (
    estimate_threshold,
    exhaustive_fault_sweep,
    percolation_sweep,
)

EXHAUSTIVE_BUDGET_S = 4.0  # wall-clock budget for the Q5, k=5 sweep
SWEEP_BUDGET_S = 30.0  # wall-clock budget for the 512-node sweep
ROUNDS = 3

# exhaustive workload: Q5, all C(32,5) five-node fault patterns; a pattern
# disconnects Q5 iff it is some node's full neighbourhood: 2^5 of them
EXHAUSTIVE_LOG2 = 5
EXHAUSTIVE_K = 5

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
    small = nw.hypercube(EXHAUSTIVE_LOG2)
    exhaustive = {}

    def _exhaustive():
        exhaustive["r"] = exhaustive_fault_sweep(small, EXHAUSTIVE_K, kind="node")

    dt_exhaustive = min(_timed(_exhaustive) for _ in range(ROUNDS))
    summary = exhaustive["r"]["summary"]
    want_patterns = comb(small.num_nodes, EXHAUSTIVE_K)
    want_disconnected = 2**EXHAUSTIVE_LOG2

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
        "exhaustive_network": small.name,
        "exhaustive_k": EXHAUSTIVE_K,
        "patterns": summary["patterns"],
        "disconnected_patterns": summary["disconnected_patterns"],
        "exhaustive_s": round(dt_exhaustive, 4),
        "sweep_network": big.name,
        "sweep_points": len(sweep_rows["rows"]),
        "sweep_trials": SWEEP_TRIALS,
        "sweep_s": round(dt_sweep, 4),
        "threshold": round(threshold, 4),
    }
    obs.emit_record(record)

    ok = True
    if (summary["patterns"], summary["disconnected_patterns"]) != (
        want_patterns,
        want_disconnected,
    ):
        print(
            f"FAIL: {small.name} k={EXHAUSTIVE_K} reported "
            f"{summary['disconnected_patterns']} disconnecting of "
            f"{summary['patterns']} patterns, expected {want_disconnected} "
            f"of {want_patterns}",
            file=sys.stderr,
        )
        ok = False
    if dt_exhaustive > EXHAUSTIVE_BUDGET_S:
        print(
            f"FAIL: {small.name} exhaustive k={EXHAUSTIVE_K} sweep took "
            f"{dt_exhaustive:.2f}s (budget {EXHAUSTIVE_BUDGET_S:.0f}s)",
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
