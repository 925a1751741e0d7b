"""Simulator throughput: the batched event core vs the per-event oracle.

The event-driven rewrite of :class:`repro.sim.PacketSimulator` exists to
make million-packet load sweeps routine; this bench holds it to that:

* **speedup** — on a >= 100k-packet uniform-load run the event core must
  deliver >= 10x the packets/sec of the oracle in ``tests/sim_oracle.py``,
  while producing the exact same ``SimStats`` (the equality is asserted,
  not assumed);
* **scale** — a 1,000,000-packet run must finish in under 60 s.

Methodology mirrors ``bench_obs_overhead.py``: GC parked during timing,
best-of-``ROUNDS`` for the fast engine (the slow oracle runs once — it
dominates wall time).  Results are printed as JSON; set
``REPRO_BENCH_TRAJECTORY=<path>`` to append the record to a JSONL
trajectory file for tracking across commits.

Run directly (exits non-zero on regression)::

    PYTHONPATH=src python benchmarks/bench_sim_throughput.py
"""

from __future__ import annotations

import gc
import sys
import time
from pathlib import Path

import numpy as np

from repro import networks as nw
from repro import obs
from repro.sim import PacketSimulator, uniform_random_array

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.sim_oracle import ReferencePacketSimulator  # noqa: E402

MIN_SPEEDUP = 10.0  # event core vs reference, packets/sec
MILLION_BUDGET_S = 60.0  # wall-clock budget for the 1M-packet run
ROUNDS = 3

# comparison workload: 256-node hypercube, ~104k packets of uniform load
CMP_LOG2 = 8
CMP_RATE = 0.45
CMP_CYCLES = 900
SEED = 0

# scale workload: ~1.0M packets on the same topology
BIG_RATE = 1.0
BIG_CYCLES = 3907


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
    net = nw.hypercube(CMP_LOG2)
    w = uniform_random_array(
        net, CMP_RATE, CMP_CYCLES, np.random.default_rng(SEED)
    )
    npkt = len(w)
    assert npkt >= 100_000, f"comparison workload too small: {npkt}"

    event_stats = None

    def _event():
        nonlocal event_stats
        event_stats = PacketSimulator(net).run(w)

    dt_event = min(_timed(_event) for _ in range(ROUNDS))
    ref_sim = ReferencePacketSimulator(net)
    ref_holder = {}

    def _ref():
        ref_holder["stats"] = ref_sim.run(w)

    dt_ref = _timed(_ref)
    if event_stats != ref_holder["stats"]:
        print("FAIL: engines disagree on the comparison workload", file=sys.stderr)
        return 1

    speedup = dt_ref / dt_event
    pps_event = npkt / dt_event
    pps_ref = npkt / dt_ref

    big = uniform_random_array(
        net, BIG_RATE, BIG_CYCLES, np.random.default_rng(SEED)
    )
    big_stats = None

    def _big():
        nonlocal big_stats
        big_stats = PacketSimulator(net).run(big)

    dt_big = _timed(_big)

    record = {
        "bench": "sim_throughput",
        "network": net.name,
        "packets": npkt,
        "event_s": round(dt_event, 4),
        "reference_s": round(dt_ref, 4),
        "event_pps": round(pps_event),
        "reference_pps": round(pps_ref),
        "speedup": round(speedup, 2),
        "million_packets": len(big),
        "million_s": round(dt_big, 2),
        "million_pps": round(len(big) / dt_big),
        "million_delivered": big_stats.delivered,
    }
    obs.emit_record(record)

    ok = True
    if speedup < MIN_SPEEDUP:
        print(
            f"FAIL: event core speedup {speedup:.1f}x < {MIN_SPEEDUP:.0f}x "
            f"({pps_event:,.0f} vs {pps_ref:,.0f} packets/sec)",
            file=sys.stderr,
        )
        ok = False
    if dt_big > MILLION_BUDGET_S:
        print(
            f"FAIL: {len(big):,} packets took {dt_big:.1f}s "
            f"(budget {MILLION_BUDGET_S:.0f}s)",
            file=sys.stderr,
        )
        ok = False
    if ok:
        print(
            f"OK: {speedup:.1f}x over reference at {npkt:,} packets; "
            f"{len(big):,} packets in {dt_big:.1f}s "
            f"({len(big) / dt_big:,.0f} packets/sec)"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
