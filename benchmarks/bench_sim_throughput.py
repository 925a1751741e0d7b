"""Simulator throughput: the batched event core vs the per-event oracle.

The event-driven rewrite of :class:`repro.sim.PacketSimulator` exists to
make million-packet load sweeps routine; this bench holds it to that:

* **speedup** — on a >= 100k-packet uniform-load run the event core must
  deliver >= 10x the packets/sec of the oracle in ``tests/sim_oracle.py``,
  while producing the exact same ``SimStats`` (the equality is asserted,
  not assumed);
* **scale** — a 1,000,000-packet run must finish in under 60 s;
* **degraded** — one 16-link-fault ``fault_sweep`` trial on HSN(3,Q3)
  (N=512) must match the oracle's ``SimStats`` and resilient-router
  counters exactly, and the event core must spend >= 3x less time than
  the oracle outside the survivor-path kernel both engines share
  (``ResilientRouter._compute_survivor_path``, budgeted on its own by
  ``bench_fault_sweep.py``).  The whole-run ratio is reported too.

Methodology mirrors ``bench_obs_overhead.py``: GC parked during timing;
both comparisons alternate the two engines round by round for
``ROUNDS`` rounds and keep the best of each, so host drift hits both.
Results are printed as JSON; set
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
from repro.fault import FaultPlan, ResilientRouter
from repro.sim import PacketSimulator, uniform_random, uniform_random_array

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

# degraded workload: trial 0 of fault_sweep(HSN(3,Q3), [16], seed=1)
MIN_DEGRADED_SPEEDUP = 3.0  # oracle vs event core, survivor-path kernel excluded
DEG_FAULTS = 16
DEG_SEED = 1
DEG_RATE = 0.05
DEG_CYCLES = 60


def _timed(fn) -> float:
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def degraded_case() -> dict:
    """Both engines on one faulted trial: equality, run time and the time
    spent outside the shared survivor-path kernel (best of ``ROUNDS``)."""
    net = nw.build("hsn", l=3, n=3)
    w = uniform_random(
        net, DEG_RATE, DEG_CYCLES, np.random.default_rng([DEG_SEED, 1_000_003, 0])
    )
    plan = FaultPlan.random_link_faults(
        net, DEG_FAULTS, np.random.default_rng([DEG_SEED, DEG_FAULTS, 0]),
        horizon=DEG_CYCLES,
    )
    kernel = ResilientRouter._compute_survivor_path
    spent = [0.0]

    def timed_kernel(*args):
        t0 = time.perf_counter()
        try:
            return kernel(*args)
        finally:
            spent[0] += time.perf_counter() - t0

    def one_round(cls):
        sim = cls(net, faults=plan)  # fresh router: no cached detours
        spent[0] = 0.0
        out = []
        dt = _timed(lambda: out.append(sim.run(w, max_cycles=DEG_CYCLES * 50)))
        r = sim._router
        return out[0], (r.reroutes, r.deroutes, r.unreachable), dt, dt - spent[0]

    engines = (PacketSimulator, ReferencePacketSimulator)
    runs = {cls: [] for cls in engines}
    ResilientRouter._compute_survivor_path = timed_kernel
    try:
        for _ in range(ROUNDS):  # interleaved, so host drift hits both engines
            for cls in engines:
                runs[cls].append(one_round(cls))
    finally:
        ResilientRouter._compute_survivor_path = kernel
    (ev_stats, ev_counts, _, _), (ref_stats, ref_counts, _, _) = (
        runs[cls][-1] for cls in engines
    )
    ev_run, ref_run = (min(r[2] for r in runs[cls]) for cls in engines)
    ev_engine, ref_engine = (min(r[3] for r in runs[cls]) for cls in engines)
    return {
        "degraded_network": net.name,
        "degraded_faults": DEG_FAULTS,
        "degraded_packets": len(w),
        "degraded_identical": ev_stats == ref_stats and ev_counts == ref_counts,
        "degraded_event_s": round(ev_run, 4),
        "degraded_reference_s": round(ref_run, 4),
        "degraded_speedup": round(ref_run / ev_run, 2),
        "degraded_engine_speedup": round(ref_engine / ev_engine, 2),
    }


def main() -> int:
    net = nw.hypercube(CMP_LOG2)
    w = uniform_random_array(
        net, CMP_RATE, CMP_CYCLES, np.random.default_rng(SEED)
    )
    npkt = len(w)
    assert npkt >= 100_000, f"comparison workload too small: {npkt}"

    ref_sim = ReferencePacketSimulator(net)
    stats = {}

    def _event():
        stats[PacketSimulator] = PacketSimulator(net).run(w)

    def _ref():
        stats[ReferencePacketSimulator] = ref_sim.run(w)

    times = {_event: [], _ref: []}
    for _ in range(ROUNDS):  # interleaved, so host drift hits both engines
        for fn in times:
            times[fn].append(_timed(fn))
    dt_event, dt_ref = min(times[_event]), min(times[_ref])
    if stats[PacketSimulator] != stats[ReferencePacketSimulator]:
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
        **degraded_case(),
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
    if not record["degraded_identical"]:
        print("FAIL: engines disagree on the degraded trial", file=sys.stderr)
        ok = False
    if record["degraded_engine_speedup"] < MIN_DEGRADED_SPEEDUP:
        print(
            f"FAIL: degraded event core speedup "
            f"{record['degraded_engine_speedup']:.1f}x < "
            f"{MIN_DEGRADED_SPEEDUP:.0f}x outside the survivor-path kernel",
            file=sys.stderr,
        )
        ok = False
    if ok:
        print(
            f"OK: {speedup:.1f}x over reference at {npkt:,} packets; "
            f"{len(big):,} packets in {dt_big:.1f}s "
            f"({len(big) / dt_big:,.0f} packets/sec); degraded f{DEG_FAULTS} "
            f"trial {record['degraded_engine_speedup']:.1f}x outside the "
            f"survivor-path kernel ({record['degraded_speedup']:.1f}x whole run)"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
