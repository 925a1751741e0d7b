"""Disabled-path overhead of the observability layer (<2% budget).

Compares the instrumented :func:`repro.core.ipgraph.build_ip_graph`
(with :mod:`repro.obs` disabled, the default) against the same closure
helpers called without the instrumentation, kept below as the baseline.  Asserts the
median of paired instrumented/baseline ratios stays under 2% — the
guarantee DESIGN.md makes for benchmark neutrality.

Run directly (exits non-zero on regression)::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py
"""

from __future__ import annotations

import gc
import statistics
import sys
import time

from repro.core.ipgraph import (
    Generator,
    IPGraph,
    _arc_table,
    _closure,
    _key_constants,
    _labels,
    _padded_rows,
    build_ip_graph,
)
from repro.core.permutation import transposition

THRESHOLD = 0.02
ROUNDS = 11
STAR_K = 8  # 8! = 40320 nodes — big enough that one build takes tens of ms


def _baseline_build(seed, generators):
    """The batched closure with its instrumentation stripped, graph
    assembly included, so both sides of the comparison do identical work."""
    gens = [g if isinstance(g, Generator) else Generator(g) for g in generators]
    seed_t = tuple(seed)
    seed_row, imgs, alphabet = _padded_rows(seed_t, gens)
    consts = _key_constants(0, seed_row.nbytes // 8)
    rows, dst, _ = _closure(seed_row, imgs, consts, 2_000_000)
    labels = _labels(rows, len(seed_t), alphabet)
    return IPGraph(labels, gens, _arc_table(dst, len(gens)), seed=seed_t)


def _time_once(fn) -> float:
    gc.collect()
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _paired_overhead(fn_base, fn_inst, rounds: int = ROUNDS):
    """Median of per-round instrumented/baseline ratios.

    Within a round the two builds run back to back (order alternating to
    cancel ordering bias), so slow drift — CPU frequency, cache/NUMA state,
    noisy neighbours — hits both sides of each ratio equally; the median
    then discards one-off spikes.  GC is off during timing and collected
    between samples so allocation debt from one build never bills the next.
    """
    ratios, base_times, inst_times = [], [], []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for i in range(rounds):
            if i % 2 == 0:
                b = _time_once(fn_base)
                t = _time_once(fn_inst)
            else:
                t = _time_once(fn_inst)
                b = _time_once(fn_base)
            base_times.append(b)
            inst_times.append(t)
            ratios.append(t / b)
    finally:
        if gc_was_enabled:
            gc.enable()
        gc.collect()
    return statistics.median(ratios), min(base_times), min(inst_times)


def measure(rounds: int = ROUNDS) -> dict:
    from repro import obs

    assert not obs.enabled(), "overhead must be measured with obs disabled"
    seed = tuple(range(STAR_K))
    gens = [transposition(STAR_K, 0, i) for i in range(1, STAR_K)]

    # sanity: both paths build the same graph
    g = build_ip_graph(seed, gens)
    b = _baseline_build(seed, gens)
    nodes = b.num_nodes
    assert g.num_nodes == nodes
    assert g.labels == b.labels
    assert (g.edges_src == b.edges_src).all()
    assert (g.edges_dst == b.edges_dst).all()

    # warm-up both paths, then measure in pairs
    _baseline_build(seed, gens)
    build_ip_graph(seed, gens)
    ratio, base, inst = _paired_overhead(
        lambda: _baseline_build(seed, gens),
        lambda: build_ip_graph(seed, gens),
        rounds,
    )
    overhead = ratio - 1.0
    return {
        "nodes": nodes,
        "baseline_s": base,
        "instrumented_s": inst,
        "overhead": overhead,
    }


def main() -> int:
    # a shared box can still throw a >2% outlier median; a real regression
    # fails every attempt, noise doesn't — so require 3 consecutive misses
    for attempt in range(1, 4):
        r = measure()
        print(
            f"batched closure, star S{STAR_K} ({r['nodes']} nodes), "
            f"median of {ROUNDS} paired ratios (attempt {attempt}):\n"
            f"  uninstrumented baseline       {r['baseline_s'] * 1e3:8.2f} ms (best)\n"
            f"  instrumented (obs disabled)   {r['instrumented_s'] * 1e3:8.2f} ms (best)\n"
            f"  overhead (median ratio)       {r['overhead'] * 100:+8.2f} %"
        )
        if r["overhead"] < THRESHOLD:
            print(f"OK: under the {THRESHOLD:.0%} budget")
            return 0
        print("over budget, retrying...", file=sys.stderr)
    print(f"FAIL: disabled-path overhead exceeds {THRESHOLD:.0%}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
