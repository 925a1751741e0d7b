#!/usr/bin/env bash
# Full CI gate: static analysis + tier-1 test suite + overhead budgets +
# example smoke tests.
#
# Usage:  scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== static analysis: custom lint (repro.check) =="
python -m repro.check lint src

echo
echo "== static analysis: paper-invariant contract sweep =="
python -m repro.check contracts

echo
echo "== static analysis: determinism & cache-soundness dataflow =="
python -m repro.check dataflow src

echo
echo "== static analysis: kernel-perf hot-path lint =="
python -m repro.check perf src


echo
echo "== static analysis: ruff =="
if command -v ruff > /dev/null 2>&1; then
    ruff check src
elif python -c "import ruff" > /dev/null 2>&1; then
    python -m ruff check src
else
    echo "skipped (ruff not installed; pip install -e '.[test]')"
fi

echo
echo "== static analysis: mypy (strict perimeter: core + networks) =="
if python -c "import mypy" > /dev/null 2>&1; then
    python -m mypy src/repro/core src/repro/networks
else
    echo "skipped (mypy not installed; pip install -e '.[test]')"
fi

echo
echo "== tier-1 tests =="
python -m pytest -x -q

echo
echo "== observability disabled-path overhead budget (<2%) =="
python benchmarks/bench_obs_overhead.py

echo
echo "== simulator throughput budgets (>=10x vs reference, 1M pkts <60s, degraded f16 >=3x) =="
python benchmarks/bench_sim_throughput.py

echo
echo "== simulator artifact hash: seeded healthy and faulted runs reproduce one fingerprint each =="
python - <<'PYEOF'
import numpy as np
from repro import networks
from repro.check.sanitize import artifact_fingerprint
from repro.fault import FaultPlan
from repro.sim import PacketSimulator, uniform_random_array
from tests.sim_oracle import ReferencePacketSimulator

net = networks.build("hsn", l=2, n=3)  # 64 nodes
w = uniform_random_array(net, 0.3, 80, np.random.default_rng(7))
fps = [
    artifact_fingerprint(cls(net).run(w).as_dict())
    for cls in (PacketSimulator, PacketSimulator, ReferencePacketSimulator)
]
assert fps[0] == fps[1], f"event core not reproducible: {fps[0]} != {fps[1]}"
assert fps[0] == fps[2], f"event core diverged from reference: {fps[0]} != {fps[2]}"
print(f"seeded sim fingerprint {fps[0]} stable across reruns and engines")

# the degraded stage on small buckets (tens of events each): 8 link faults
plan = FaultPlan.random_link_faults(net, 8, np.random.default_rng(7), horizon=80)
runs = [
    cls(net, faults=plan).run(w)
    for cls in (PacketSimulator, PacketSimulator, ReferencePacketSimulator)
]
assert runs[0].dropped and runs[0].rerouted, "fault plan never hit a packet"
fps = [artifact_fingerprint(s.as_dict()) for s in runs]
assert fps[0] == fps[1], f"faulted run not reproducible: {fps[0]} != {fps[1]}"
assert fps[0] == fps[2], f"faulted run diverged from reference: {fps[0]} != {fps[2]}"
print(f"seeded faulted sim fingerprint {fps[0]} stable across reruns and engines")
PYEOF
echo "OK"

echo
echo "== percolation + exhaustive budgets (Q5 k=5: 32 of 201376 disconnect in <4s, sweep <30s) =="
python benchmarks/bench_percolation.py

echo
echo "== percolation CLI smoke (coarse grid, threshold estimate) =="
python -m repro faults percolation --smoke > /dev/null
echo "OK"

echo
echo "== IP-graph closure (HSN(4,Q4) N=65536, bit-identical: closure_build >=5x and super_ip_build >=5x vs per-label oracle, explicit_super_build >=3x vs tuple-state oracle) =="
python benchmarks/bench_closure.py

echo
echo "== next-hop table build (>=3x vs oracle, bit-identical, N=4096) =="
python benchmarks/bench_routing.py

echo
echo "== survivor detours (identical to the shortest-survivor oracle, never longer than node-disjoint, >=3x vs networkx node-disjoint engine, f16 HSN(3,Q3)) =="
python benchmarks/bench_fault_sweep.py

echo
echo "== route-serving budgets (>=100k qps, mmap-shared, bit-identical) =="
python benchmarks/bench_route_service.py

echo
echo "== serve CLI smoke (small replay, scalar equality assert) =="
SERVE_CACHE="$(mktemp -d)"
SERVE_TRAJ="$SERVE_CACHE/trajectory.jsonl"
REPRO_BENCH_TRAJECTORY="$SERVE_TRAJ" python -m repro serve bench \
    --network hypercube --param n=6 --queries 20000 --batch 5000 \
    --shards 2 --verify-sample 1000 \
    --cache-dir "$SERVE_CACHE" > /dev/null
python - "$SERVE_TRAJ" <<'PYEOF'
import json, sys
# the bench replay above must have appended one JSONL trajectory record
# with a clean scalar cross-check
(rec,) = [json.loads(line) for line in open(sys.argv[1])]
assert rec["mismatches"] == 0 and rec["verified"] == 1000, rec
assert rec["backend"] == "mmap" and rec["mmap"], rec
PYEOF
rm -rf "$SERVE_CACHE"
echo "OK"

echo
echo "== fault-tolerance example smoke test =="
python examples/fault_tolerance.py > /dev/null
echo "OK"

echo
echo "== parallel/cache layer budgets (serial <3%, warm rebuild >=5x) =="
python benchmarks/bench_parallel_sweep.py

echo
echo "== cache determinism: same sweep twice, warm hit + identical JSON =="
python - <<'PYEOF'
import json, tempfile
from repro import cache, networks, obs
from repro.fault.sweep import fault_sweep

with tempfile.TemporaryDirectory() as d:
    cache.configure(d)
    obs.reset(); obs.enable()
    g1 = networks.build("hsn", l=2, n=3)  # 64 nodes: cold build + store
    run1 = json.dumps(fault_sweep(g1, [0, 2], trials=2, cycles=40, jobs=1))
    c1 = obs.report()["counters"]
    assert c1.get("cache.miss", 0) >= 1 and c1.get("cache.store", 0) >= 1, c1
    # every trial shares the network's next-hop table: one build, with
    # the distances the faulted trials need, not one per trial
    assert c1.get("routing.table.builds", 0) == 1, c1
    obs.reset()
    g2 = networks.build("hsn", l=2, n=3)  # warm: loaded from the cache
    run2 = json.dumps(fault_sweep(g2, [0, 2], trials=2, cycles=40, jobs=2))
    c2 = obs.report()["counters"]
    assert c2.get("cache.hit", 0) >= 1, c2
    assert run1 == run2, "cached + parallel sweep diverged from cold serial run"
    obs.disable(); obs.reset()
    cache.set_cache(None)
print("cache hit on rerun; 1 table build; cold-serial and warm-parallel JSON identical")
PYEOF
echo "OK"

echo
echo "== runtime determinism sanitizer (serial/parallel + cold/warm hashes) =="
python -m repro.check sanitize --smoke

echo
echo "== runtime perf sanitizer (perimeter escapes + per-unit budgets + shape contracts) =="
python -m repro.check perf --measure --smoke

echo
echo "CI OK"
