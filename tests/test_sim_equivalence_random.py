"""Randomized equivalence: the batched event core must be bit-identical to
the per-event oracle (``tests/sim_oracle.py``) on arbitrary seeded runs.

``PacketSimulator`` (the event core) promises to reproduce
``ReferencePacketSimulator``'s ``SimStats`` exactly — not statistically,
bit for bit — on any workload, fault-free or degraded.  Here we fuzz ~50
seeded-random cases mixing network families, workload kinds, injection
rates, delay policies, module assignments, truncation via ``max_cycles``,
custom routers and fault plans (permanent and transient), and compare the
full stats dict of both engines, mirroring ``test_equivalence_random.py``
for the graph-closure layer.
"""

import random

import numpy as np
import pytest

from repro import networks as nw
from repro.fault import FaultPlan
from repro.routing.table import NextHopTable
from repro.sim import (
    PacketSimulator,
    hotspot,
    random_permutation_traffic,
    uniform_random,
    unit_node_capacity,
)

from .sim_oracle import ReferencePacketSimulator

N_CASES = 50

FAMILIES = {
    "ring": lambda: nw.ring(12),
    "path": lambda: nw.path(10),
    "hypercube": lambda: nw.hypercube(4),
    "torus": lambda: nw.torus((4, 4)),
    "star": lambda: nw.star_graph(4),
    "hsn": lambda: nw.hsn(2, nw.hypercube_nucleus(2)),
}
WORKLOADS = ("uniform", "hotspot", "permutation")
FAULTS = (None, "link", "node", "link_mttr", "node_mttr")


def _random_case(rng: random.Random):
    """One random simulation setup, kept small enough that the per-event
    oracle stays fast (<= 32 nodes, <= 60 injection cycles)."""
    return {
        "family": rng.choice(sorted(FAMILIES)),
        "workload": rng.choice(WORKLOADS),
        "rate": rng.choice((0.05, 0.2, 0.5, 0.9)),
        "cycles": rng.randint(10, 60),
        "seed": rng.randrange(2**32),
        "delays": rng.choice(("unit", "uniform3", "degree")),
        "modules": rng.random() < 0.5,
        "faults": rng.choice(FAULTS),
        "fault_count": rng.randint(1, 3),
        "retransmit_timeout": rng.choice((2, 16)),
        "max_retries": rng.choice((1, 4)),
        "max_cycles": rng.choice((30, 200)) if rng.random() < 0.3 else None,
        "custom_router": rng.random() < 0.25,
    }


def _case_params():
    rng = random.Random(0x51B_1DE4)
    cases = [_random_case(rng) for _ in range(N_CASES)]
    # make sure the suite actually covers the interesting regimes
    assert {c["family"] for c in cases} == set(FAMILIES)
    assert {c["workload"] for c in cases} == set(WORKLOADS)
    assert {c["faults"] for c in cases} == set(FAULTS)
    assert any(c["faults"] and c["custom_router"] for c in cases)
    assert any(c["faults"] and c["modules"] for c in cases)
    assert any(c["max_cycles"] is not None for c in cases)
    assert any(c["max_cycles"] is not None and c["faults"] for c in cases)
    assert any(c["rate"] == 0.9 for c in cases)  # real channel contention
    return cases


def _build(case, cls):
    net = FAMILIES[case["family"]]()
    n = net.num_nodes
    if case["delays"] == "unit":
        delays = 1
    elif case["delays"] == "uniform3":
        delays = 3
    else:
        delays = unit_node_capacity(net)
    module_of = np.arange(n) // max(1, n // 4) if case["modules"] else None
    faults = None
    if case["faults"]:
        frng = np.random.default_rng([case["seed"], 0xFA])
        kind = case["faults"]
        mttr = 20 if kind.endswith("_mttr") else None
        count = min(case["fault_count"], 2 if kind.startswith("node") else 3)
        if kind.startswith("link"):
            faults = FaultPlan.random_link_faults(
                net, count, frng, horizon=case["cycles"], mttr=mttr
            )
        else:
            faults = FaultPlan.random_node_faults(
                net, count, frng, horizon=case["cycles"], mttr=mttr
            )
    next_hop = NextHopTable(net).next_hop if case["custom_router"] else None
    sim = cls(
        net,
        delays=delays,
        next_hop=next_hop,
        module_of=module_of,
        faults=faults,
        retransmit_timeout=case["retransmit_timeout"],
        max_retries=case["max_retries"],
    )
    wrng = np.random.default_rng(case["seed"])
    if case["workload"] == "uniform":
        w = uniform_random(net, case["rate"], case["cycles"], wrng)
    elif case["workload"] == "hotspot":
        w = hotspot(net, case["rate"], case["cycles"], wrng)
    else:
        w = random_permutation_traffic(net, wrng, packets_per_pair=3)
    return sim, w


@pytest.mark.parametrize("case", _case_params())
def test_event_core_matches_reference(case):
    ev, w = _build(case, PacketSimulator)
    ref, w2 = _build(case, ReferencePacketSimulator)
    assert w == w2  # same seeded workload on both engines
    a = ev.run(w, max_cycles=case["max_cycles"])
    b = ref.run(w, max_cycles=case["max_cycles"])
    assert a.as_dict() == pytest.approx(b.as_dict(), abs=0, rel=0, nan_ok=True)
    assert a == b


def test_equivalence_holds_under_profiling(tmp_path):
    """Instrumentation must not perturb either engine's output."""
    from repro import obs

    case = _case_params()[0]
    ev, w = _build(case, PacketSimulator)
    bare = ev.run(w)
    obs.enable(trace=str(tmp_path / "t.jsonl"))
    try:
        ev_p, _ = _build(case, PacketSimulator)
        ref_p, _ = _build(case, ReferencePacketSimulator)
        a = ev_p.run(w)
        b = ref_p.run(w)
    finally:
        obs.disable()
        obs.reset()
    assert a == bare == b
