"""Degraded-mode simulator tests: drops, retransmission, rerouting, sweeps."""

import numpy as np
import pytest

from repro import networks as nw
from repro import obs
from repro.core.network import RoutingError
from repro.fault import FaultPlan, fault_sweep
from repro.routing.table import NextHopTable
from repro.sim.simulator import PacketSimulator
from repro.sim.workloads import uniform_random

from .sim_oracle import HopFunction, ReferencePacketSimulator


class TestNoFaultEquivalence:
    """ISSUE acceptance: an empty FaultPlan is bit-identical to faults=None."""

    def _workload(self, net, seed=11):
        return uniform_random(net, 0.4, 60, np.random.default_rng(seed))

    @pytest.mark.parametrize("builder,args", [
        (nw.hypercube, (4,)),
        (nw.ring, (16,)),
    ])
    def test_empty_plan_bit_identical(self, builder, args):
        net = builder(*args)
        inj = self._workload(net)
        s_plain = PacketSimulator(net).run(inj)
        s_empty = PacketSimulator(net, faults=FaultPlan()).run(inj)
        assert s_plain == s_empty
        assert s_empty.as_dict().keys() == s_plain.as_dict().keys()

    def test_plan_that_compiles_empty_is_identical_too(self):
        net = nw.ring(8)
        inj = self._workload(net)
        plan = FaultPlan().repair_node(5, 3)  # unmatched repair: no-op
        assert PacketSimulator(net, faults=plan).run(inj) == (
            PacketSimulator(net).run(inj)
        )

    def test_healthy_run_has_zero_fault_counters(self):
        net = nw.hypercube(3)
        s = PacketSimulator(net).run(self._workload(net))
        assert s.dropped == s.retransmitted == s.rerouted == 0
        assert s.delivery_ratio == 1.0
        assert s.injected == s.delivered


class TestDegradedMode:
    def test_link_fault_rerouted_and_delivered(self):
        g = nw.hypercube(3)
        # kill the only minimal 0->1 link before injection: forces a detour
        sim = PacketSimulator(g, faults=FaultPlan().fail_link(0, 0, 1))
        s = sim.run([(0, 0, 1)])
        assert s.delivered == 1
        assert s.delivery_ratio == 1.0
        assert s.rerouted >= 1
        assert s.dropped == 0
        assert s.mean_hops >= 3  # genuine detour, not the dead direct hop

    def test_transient_fault_retransmit_with_backoff(self):
        # ring(4), 10-cycle channels: packet 0->1 occupies the link over
        # [0, 10); the link dies at t=5 so the attempt is dropped at t=10.
        # Retry #1 fires at 10+16=26 with the link repaired -> delivered at 36.
        r4 = nw.ring(4)
        plan = FaultPlan().fail_link(5, 0, 1).repair_link(20, 0, 1)
        s = PacketSimulator(r4, delays=10, faults=plan).run([(0, 0, 1)])
        assert s.delivered == 1
        assert s.dropped == 1
        assert s.retransmitted == 1
        # latency counts from the ORIGINAL injection, not the retransmission
        assert s.mean_latency == 36.0

    def test_backoff_doubles_between_retries(self):
        # Primary-only routing (custom next_hop + faults): every attempt uses
        # the dead link, so timings expose the exponential backoff schedule.
        # Drop at t=10; retry#1 at 26 (dead, dropped); retry#2 at 26+32=58
        # with the link back up -> delivered at 68.
        r4 = nw.ring(4)
        table = NextHopTable(r4)
        plan = FaultPlan().fail_link(5, 0, 1).repair_link(50, 0, 1)
        s = PacketSimulator(
            r4, delays=10, routing=table, faults=plan
        ).run([(0, 0, 1)])
        assert s.delivered == 1
        assert s.dropped == 2
        assert s.retransmitted == 2
        assert s.mean_latency == 68.0

    def test_dead_destination_exhausts_retries(self):
        g = nw.hypercube(3)
        sim = PacketSimulator(
            g, faults=FaultPlan().fail_node(0, 7), max_retries=2
        )
        s = sim.run([(0, 0, 7)])
        assert s.delivered == 0
        assert s.delivery_ratio == 0.0
        assert s.dropped == 3  # original attempt + 2 retries
        assert s.retransmitted == 2
        assert s.undelivered == 1

    def test_bucket_of_only_retransmissions_matches_oracle(self):
        # 60 packets all head for a node that is down: nothing forwards,
        # every packet is rescheduled
        g = nw.hypercube(6)
        inj = [(0, s, 63) for s in range(60)]
        runs = []
        for cls in (PacketSimulator, ReferencePacketSimulator):
            sim = cls(g, faults=FaultPlan().fail_node(0, 63), max_retries=2)
            runs.append((sim.run(inj), sim._router.unreachable))
        (a, unreachable), (b, want) = runs
        assert a == b and unreachable == want == 180
        assert (a.dropped, a.retransmitted, a.delivered) == (180, 120, 0)

    def test_custom_router_cannot_avoid_faults(self):
        r4 = nw.ring(4)
        table = NextHopTable(r4)
        sim = PacketSimulator(
            r4,
            routing=table,
            faults=FaultPlan().fail_link(0, 0, 1),
            max_retries=1,
        )
        s = sim.run([(0, 0, 1)])
        assert s.delivered == 0
        assert s.dropped == 2
        assert s.rerouted == 0

    def test_other_traffic_unaffected(self):
        g = nw.hypercube(3)
        plan = FaultPlan().fail_link(0, 0, 1)
        s = PacketSimulator(g, faults=plan).run([(0, 2, 6), (0, 5, 4)])
        assert s.delivered == 2
        assert s.rerouted == 0  # neither flow touches the dead link

    def test_fault_counters_reach_obs_registry(self):
        g = nw.hypercube(3)
        obs.enable()
        try:
            PacketSimulator(g, faults=FaultPlan().fail_link(0, 0, 1)).run(
                [(0, 0, 1)]
            )
            rep = obs.report()
            counters = rep["counters"]
            assert counters.get("sim.faults.reroutes", 0) >= 1
            assert "sim.latency" in rep["values"]
            assert "sim.fault_latency" not in rep["values"]
        finally:
            obs.disable()


class TestChannelAndValidation:
    def test_channel_raises_routing_error_on_non_neighbor(self):
        r4 = nw.ring(4)
        sim = PacketSimulator(r4, routing=HopFunction(lambda u, dst: (u + 2) % 4))
        with pytest.raises(RoutingError, match="non-neighbor next hop"):
            sim.run([(0, 0, 2)])

    @pytest.mark.parametrize("hop", [lambda u, dst: (u + 2) % 4, lambda u, dst: -1])
    def test_non_neighbor_hop_raises_under_fault_plan(self, hop):
        # the fault decision stage checks a passed backend's hops and must
        # keep the healthy loop's error, out-of-range ids included
        r4 = nw.ring(4)
        bad = hop(0, 2)
        sim = PacketSimulator(
            r4, routing=HopFunction(hop), faults=FaultPlan().fail_link(50, 1, 2)
        )
        with pytest.raises(
            RoutingError,
            match=rf"^no channel 0->{bad} in 'ring\(4\)': the router "
            r"returned a non-neighbor next hop$",
        ):
            sim.run([(0, 0, 2)])

    def test_wormhole_non_neighbor_hop_raises(self):
        from repro.sim.wormhole import WormholeSimulator

        # a corrupt shared table: node 0 "routes" to its antipode
        r4 = nw.ring(4)
        bad = NextHopTable(r4).table.copy()
        bad[2, 0] = 2
        r4._next_hops = (bad, None)
        sim = WormholeSimulator(r4)
        with pytest.raises(
            RoutingError,
            match=r"^no channel 0->2 in 'ring\(4\)': the router "
            r"returned a non-neighbor next hop$",
        ):
            sim.run([(0, 0, 2)], length=2)

    @pytest.mark.parametrize("cls", [PacketSimulator, ReferencePacketSimulator])
    def test_negative_max_cycles_rejected(self, cls):
        # fails fast on both engines, instead of silently delivering nothing
        with pytest.raises(ValueError, match=r"^max_cycles must be >= 0, got -1$"):
            cls(nw.ring(4)).run([(0, 0, 1)], max_cycles=-1)

    def test_zero_max_cycles_still_runs(self):
        s = PacketSimulator(nw.ring(4)).run([(0, 0, 1)], max_cycles=0)
        assert s.injected == 1 and s.delivered == 0

    def test_retransmit_backoff_overflow_rejected(self):
        with pytest.raises(
            ValueError,
            match=r"^retransmit backoff overflows int64 cycles: "
            r"retransmit_timeout=16 doubled over max_retries=60$",
        ):
            PacketSimulator(nw.ring(4), max_retries=60)
        PacketSimulator(nw.ring(4), max_retries=57)  # 16·2^56 < 2^62 fits

    def test_routing_error_is_a_value_error(self):
        assert issubclass(RoutingError, ValueError)

    def test_simulators_never_route_a_delivered_packet(self, monkeypatch):
        from repro.fault import ResilientRouter

        calls = []
        route_next = ResilientRouter.route_next

        def spy(self, u, dst, t):
            calls.append((u, dst))
            return route_next(self, u, dst, t)

        monkeypatch.setattr(ResilientRouter, "route_next", spy)
        g = nw.build("hsn", l=2, n=3)
        plan = FaultPlan.random_link_faults(g, 10, np.random.default_rng(4), horizon=20)
        inj = uniform_random(g, 0.2, 30, np.random.default_rng(5))
        for cls in (PacketSimulator, ReferencePacketSimulator):
            calls.clear()
            cls(g, faults=plan).run(inj)
            assert calls and all(u != dst for u, dst in calls), cls.__name__


class TestResilienceSweep:
    def test_sweep_rows_shape_and_determinism(self):
        g = nw.hypercube(3)
        kw = dict(trials=2, rate=0.2, cycles=20, seed=5)
        rows = fault_sweep(g, [0, 1], **kw)
        assert [r["faults"] for r in rows] == [0, 1]
        for r in rows:
            assert r["network"] == g.name
            assert 0.0 <= r["delivery_ratio"] <= 1.0
        assert rows[0]["delivery_ratio"] == 1.0
        assert rows[0]["latency_dilation"] == 1.0
        assert rows == fault_sweep(g, [0, 1], **kw)

    def test_symmetric_hsn_beats_ring_baseline(self):
        # ISSUE acceptance: seeded sweep shows symmetric HSN delivery ratio
        # >= the ring baseline at the same fault count.
        from repro.networks import hypercube_nucleus, symmetric_hsn

        hsn = symmetric_hsn(2, hypercube_nucleus(2))
        ring = nw.ring(32)
        kw = dict(trials=3, rate=0.1, cycles=30, seed=0)
        for faults in (2, 4):
            r_hsn = fault_sweep(hsn, [faults], **kw)[0]
            r_ring = fault_sweep(ring, [faults], **kw)[0]
            assert r_hsn["delivery_ratio"] >= r_ring["delivery_ratio"]

    @pytest.mark.parametrize("factor", [0, -2])
    def test_max_cycles_factor_below_one_rejected(self, factor):
        with pytest.raises(
            ValueError, match=rf"^max_cycles_factor must be >= 1, got {factor}$"
        ):
            fault_sweep(nw.hypercube(3), [0, 1], trials=1, max_cycles_factor=factor)

    def test_node_fault_sweep(self):
        g = nw.hypercube(4)
        rows = fault_sweep(
            g, [2], trials=2, kind="node", rate=0.1, cycles=20, seed=3
        )
        assert rows[0]["kind"] == "node"
        assert rows[0]["delivery_ratio"] <= 1.0
