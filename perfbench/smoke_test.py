"""Smoke self-test of the benchmark on tiny instances (a few seconds).

Run from the repository root::

    python3 perfbench/smoke_test.py

For every workload it runs one untraced and one traced pass through the
same harness and workload code as ``run.py``, on a tiny instance, and
checks that:

* every op passes its output check and every metric named in
  ``BENCHMARK.json`` is printed with its unit;
* in each traced op the per-layer self times plus ``other`` add up to the
  op's wall time, and ``pipeline_cold`` builds two routing tables per op;
* a deliberately corrupted copy of a resolved batch fails its check, so
  the failed share of ops (``failed / attempted``) rises above 0.

Exits non-zero on the first broken promise.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import workloads  # noqa: E402

WORK_DIR = ROOT / ".perfbench_work"


def tiny_workloads() -> list:
    return [
        workloads.PipelineCold(l=2, n=2, queries=2000, cycles=20, verify=100),
        workloads.ServeReplay(WORK_DIR, l=2, n=3, shards=2, batch=512, batches=4),
        workloads.FaultSweep(l=2, n=3, op_seeds=(0, 1), cycles=20, expected=None),
        workloads.BuildScale(l=2, n=3, lookups=200),
    ]


class CorruptedServe(workloads.ServeReplay):
    """Returns a copy of each resolved batch with every next hop shifted."""

    def op(self, i, tr):
        out = super().op(i, tr)
        return dataclasses.replace(out, next_hop=(out.next_hop + 1) % self.svc.num_nodes)


def _fail(msg: str) -> None:
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def _check_metrics(name: str, result: dict, declared: list[dict]) -> None:
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        _fail(f"{name}: {result['failed']} of {result['attempted']} ops failed")
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        _fail(f"{name}: metrics {got} differ from BENCHMARK.json {want}")
    for k, v in result["metrics"].items():
        print(f"  {name:14s} {k:24s} {v['value']:>16.6g} {v['unit']}")


def _check_spans(name: str, spans: list[dict]) -> None:
    ops = sorted({s["op"] for s in spans if s["op"].startswith("op")})
    if not ops:
        _fail(f"{name}: traced run recorded no op spans")
    for op in ops:
        wall, self_ms = harness.self_times_ms([s for s in spans if s["op"] == op], "op")
        if abs(sum(self_ms.values()) - wall) > 1e-6 * max(wall, 1.0):
            _fail(f"{name} {op}: self times {self_ms} do not add up to {wall} ms")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for wl in tiny_workloads():
        for trace in (False, True):
            result, spans = harness.run(wl, seed=0, seconds=0, trace=trace, started=time.perf_counter())
            declared = bench["per_layer"] if trace else bench["end_to_end"]
            _check_metrics(wl.name, result, declared)
            if trace:
                _check_spans(wl.name, spans)
                builds = result["metrics"]["routing.table_builds"]["value"]
                if wl.name == "pipeline_cold" and builds != 2:
                    _fail(f"pipeline_cold built {builds} routing tables per op, expected 2")

    bad = CorruptedServe(WORK_DIR, l=2, n=3, shards=2, batch=512, batches=4)
    result, _ = harness.run(bad, seed=0, seconds=0, trace=False, started=time.perf_counter())
    fail_frac = result["failed"] / result["attempted"]
    print(f"  corrupted serve batch: fail_frac {fail_frac:.3f}")
    if result["correct"] or not fail_frac > 0:
        _fail("a corrupted resolved batch passed its output check")
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
