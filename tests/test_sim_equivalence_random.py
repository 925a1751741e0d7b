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


def _custom_routing(cls, net):
    """The table of ``net`` as a custom router (``None``: the default):
    a ``next_hop`` callable for the oracle, a backend for the event core."""
    if net is None:
        return {}
    table = NextHopTable(net)
    if cls is ReferencePacketSimulator:
        return {"next_hop": table.next_hop}
    return {"routing": table}


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
    sim = cls(
        net,
        delays=delays,
        **_custom_routing(cls, net if case["custom_router"] else None),
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


#: seeded degraded runs on HSN(3,Q3) (N=512): ~25 injections per cycle at
#: rate 0.05, so most buckets hold hundreds of events; every bucket, large
#: or small, goes through the vectorized fault decision stage
BIG_CASES = {
    "link4": dict(kind="link", count=4),
    "link4_mttr": dict(kind="link", count=4, mttr=15),
    "link16": dict(kind="link", count=16),
    "link16_mttr": dict(kind="link", count=16, mttr=10, delays="degree"),
    "node4": dict(kind="node", count=4),
    "node6_mttr": dict(kind="node", count=6, mttr=20, retransmit_timeout=2),
    "link16_custom_router": dict(kind="link", count=16, mttr=25, custom=True),
    "link16_truncated": dict(kind="link", count=16, max_cycles=45, max_retries=1),
}


@pytest.fixture(scope="module")
def hsn512():
    return nw.build("hsn", l=3, n=3)


def _run_big(cls, net, case, seed):
    rng = np.random.default_rng([seed, 0xFA])
    model = (
        FaultPlan.random_link_faults if case["kind"] == "link"
        else FaultPlan.random_node_faults
    )
    plan = model(net, case["count"], rng, horizon=60, mttr=case.get("mttr"))
    delays = unit_node_capacity(net) if case.get("delays") == "degree" else 1
    sim = cls(
        net,
        delays=delays,
        **_custom_routing(cls, net if case.get("custom") else None),
        module_of=np.arange(net.num_nodes) // 64,
        faults=plan,
        retransmit_timeout=case.get("retransmit_timeout", 16),
        max_retries=case.get("max_retries", 4),
    )
    w = uniform_random(net, 0.05, 60, np.random.default_rng(seed))
    return sim, sim.run(w, max_cycles=case.get("max_cycles"))


@pytest.mark.parametrize("name", sorted(BIG_CASES))
def test_batched_fault_stage_matches_reference_at_scale(name, hsn512, monkeypatch):
    from repro import obs
    from repro.sim.simulator import _Degraded

    net = hsn512
    case = BIG_CASES[name]
    sizes = []
    decide = _Degraded.decide

    def spy(self, t, pids):
        sizes.append(pids.size)
        return decide(self, t, pids)

    monkeypatch.setattr(_Degraded, "decide", spy)
    for seed in (3, 4):
        sizes.clear()
        obs.reset()
        obs.enable()
        try:
            ev, a = _run_big(PacketSimulator, net, case, seed)
            events = obs.report()["counters"]["sim.events"]
        finally:
            obs.disable()
            obs.reset()
        ref, b = _run_big(ReferencePacketSimulator, net, case, seed)
        # every popped event went through the batched stage, except the
        # one a truncated run pops to see it is past max_cycles
        broke = int(case.get("max_cycles") is not None)
        assert sizes and sum(sizes) == events - broke
        assert a.as_dict() == pytest.approx(b.as_dict(), abs=0, rel=0, nan_ok=True)
        assert a == b
        assert (a.dropped, a.retransmitted, a.rerouted) == (
            b.dropped, b.retransmitted, b.rerouted
        )
        if ref._router is not None:
            assert (
                ev._router.reroutes, ev._router.deroutes, ev._router.unreachable
            ) == (
                ref._router.reroutes, ref._router.deroutes, ref._router.unreachable
            )


def test_big_cases_exercise_the_fault_paths(hsn512):
    """The N=512 cases drop, retransmit, abandon, reroute, deroute and find
    dead destinations — not just the primary hop."""
    net = hsn512
    runs = {
        name: _run_big(PacketSimulator, net, case, 3)
        for name, case in BIG_CASES.items()
    }
    stats = [s for _, s in runs.values()]
    assert sum(s.dropped for s in stats) > 0
    assert sum(s.retransmitted for s in stats) > 0
    assert any(s.dropped > s.retransmitted for s in stats)  # abandoned
    assert sum(s.rerouted for s in stats) > 0
    routers = [sim._router for sim, _ in runs.values() if sim._router is not None]
    assert sum(r.deroutes for r in routers) > 0
    assert sum(r.unreachable for r in routers) > 0
    assert runs["link16_truncated"][1].delivered < runs["link16_truncated"][1].injected


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
