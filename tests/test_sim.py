"""Tests for the packet simulator, delay policies and workloads."""

import numpy as np
import pytest

from repro import networks as nw
from repro.metrics import nucleus_modules, subcube_modules
from repro.sim import (
    PacketSimulator,
    bit_reversal_pairs,
    complement_pairs,
    hotspot,
    on_off_module_delay,
    permutation_traffic,
    random_permutation_traffic,
    transpose_pairs,
    uniform_delay,
    uniform_random,
    unit_node_capacity,
    unit_offmodule_capacity,
)

from repro.sim.wormhole import WormholeSimulator

from .sim_oracle import HopFunction


class TestInputValidation:
    """Non-integer values and wrong shapes fail fast, naming the value,
    instead of being truncated by a cast or failing mid-run."""

    @pytest.fixture
    def q3(self):
        return nw.hypercube(3)

    def test_fractional_delays_rejected(self, q3):
        nchan = len(unit_node_capacity(q3))
        with pytest.raises(ValueError, match=r"delays\[0\] = 1\.7 is not an int64 integer"):
            PacketSimulator(q3, delays=np.full(nchan, 1.7))
        with pytest.raises(ValueError, match=r"delays = 1\.5 is not an int64 integer"):
            PacketSimulator(q3, delays=1.5)

    def test_values_past_int64_rejected(self, q3):
        nchan = len(unit_node_capacity(q3))
        with pytest.raises(ValueError, match=r"delays\[0\] = 9223372036854775808 is not an int64"):
            PacketSimulator(q3, delays=np.full(nchan, 2**63, dtype=np.uint64))
        with pytest.raises(ValueError, match=r"injections\[0, 0\] = 1e\+19 is not an int64"):
            PacketSimulator(q3).run(np.array([[1e19, 0, 7]]))

    def test_whole_float_delays_equal_int_delays(self, q3):
        nchan = len(unit_node_capacity(q3))
        sim = PacketSimulator(q3, delays=np.full(nchan, 2.0))
        assert sim.delays.dtype == np.int64
        assert sim.run([(0, 0, 7)]) == PacketSimulator(q3, delays=2).run([(0, 0, 7)])

    def test_wormhole_fractional_delays_rejected(self, q3):
        nchan = len(unit_node_capacity(q3))
        with pytest.raises(ValueError, match=r"delays\[0\] = 0\.5 is not an int64 integer"):
            WormholeSimulator(q3, delays=0.5 * np.ones(nchan))

    def test_delay_errors_name_the_value(self, q3):
        d = unit_node_capacity(q3)
        d[5] = 0
        for cls in (PacketSimulator, WormholeSimulator):
            with pytest.raises(ValueError, match=r"delays\[5\] = 0"):
                cls(q3, delays=d)
            with pytest.raises(ValueError, match=r"24 in 'Q3'\), got shape \(3,\)"):
                cls(q3, delays=np.ones(3, dtype=np.int64))

    def test_fractional_injection_array_rejected(self, q3):
        sim = PacketSimulator(q3)
        with pytest.raises(ValueError, match=r"injections\[0, 0\] = 0\.5 is not an int64 integer"):
            sim.run(np.array([[0.5, 0, 7]]))
        with pytest.raises(ValueError, match=r"injections\[1, 2\] = 6\.5"):
            sim.run([(0, 0, 7), (1, 2, 6.5)])
        with pytest.raises(ValueError, match=r"injections\[0, 0\] = 0\.5"):
            WormholeSimulator(q3).run([(0.5, 0, 7)])
        whole = sim.run(np.array([[1.0, 0, 7]]))
        assert whole == sim.run(np.array([[1, 0, 7]]))
        assert whole.mean_latency == 3

    @pytest.mark.parametrize("size", [7, 9])
    def test_module_of_of_wrong_length_rejected(self, q3, size):
        for cls in (PacketSimulator, WormholeSimulator):
            with pytest.raises(
                ValueError,
                match=rf"one module id per node \(8 in 'Q3'\), got shape \({size},\)",
            ):
                cls(q3, module_of=np.zeros(size, dtype=np.int64))

    def test_fractional_module_of_rejected(self, q3):
        with pytest.raises(ValueError, match=r"module_of\[3\] = 0\.25"):
            PacketSimulator(q3, module_of=np.array([0, 0, 0, 0.25, 1, 1, 1, 1]))

    @pytest.mark.parametrize(
        "inj, msg",
        [
            # -1 used to wrap to destination 7's table row
            ([(0, 0, -1)], r"injection #0: node ids must be in \[0, 8\) for 'Q3', got src=0, dst=-1"),
            # used to fail with a bare IndexError
            ([(0, 0, 99)], r"injection #0: node ids must be in \[0, 8\) for 'Q3', got src=0, dst=99"),
            # used to run, with latency 23
            ([(0, 0, 7), (-5, 0, 7)], r"injection #1: injection time must be >= 0, got -5"),
            ([(0, 0, 7, 1)], r"injections must be \(t, src, dst\) triples"),
        ],
    )
    def test_wormhole_injections_checked_like_packets(self, q3, inj, msg):
        for sim in (WormholeSimulator(q3), PacketSimulator(q3)):
            with pytest.raises(ValueError, match=msg):
                sim.run(inj)

    def test_wormhole_skips_self_addressed_messages(self, q3):
        worm = WormholeSimulator(q3)
        assert worm.run([(0, 3, 3), (0, 0, 7)]) == worm.run([(0, 0, 7)])
        with pytest.raises(ValueError, match=r"injection #0: src == dst == 3"):
            PacketSimulator(q3).run([(0, 3, 3), (0, 0, 7)])


class TestSimulatorBasics:
    def test_single_packet_latency_is_path_delay(self):
        r = nw.ring(8)
        sim = PacketSimulator(r, delays=1)
        stats = sim.run([(0, 0, 4)])
        assert stats.delivered == 1
        assert stats.mean_latency == 4  # 4 hops × 1 cycle
        assert stats.mean_hops == 4

    def test_custom_delay(self):
        r = nw.ring(8)
        sim = PacketSimulator(r, delays=3)
        stats = sim.run([(0, 0, 2)])
        assert stats.mean_latency == 6

    def test_self_packets_rejected(self):
        r = nw.ring(6)
        sim = PacketSimulator(r)
        with pytest.raises(ValueError, match="src == dst"):
            sim.run([(0, 2, 2)])

    def test_out_of_range_injection_rejected(self):
        r = nw.ring(6)
        sim = PacketSimulator(r)
        with pytest.raises(ValueError, match=r"in \[0, 6\)"):
            sim.run([(0, 0, 6)])
        with pytest.raises(ValueError, match="injection #1"):
            sim.run([(0, 0, 3), (0, -1, 2)])

    def test_negative_injection_time_rejected(self):
        r = nw.ring(6)
        sim = PacketSimulator(r)
        with pytest.raises(ValueError, match=">= 0"):
            sim.run([(-1, 0, 3)])

    def test_fifo_contention(self):
        """Two packets sharing a channel: second waits for the first."""
        p = nw.path(3)
        sim = PacketSimulator(p, delays=2)
        # both injected at t=0 at node 0, destined for node 2
        stats = sim.run([(0, 0, 2), (0, 0, 2)])
        assert stats.delivered == 2
        # packet 1: 2+2 = 4; packet 2: waits 2 on first channel: 2+2+2=6
        assert stats.max_latency == 6
        assert stats.mean_latency == 5

    def test_max_cycles_cutoff(self):
        r = nw.ring(10)
        sim = PacketSimulator(r, delays=10)
        stats = sim.run([(0, 0, 5)], max_cycles=5)
        assert stats.undelivered == 1

    def test_off_hop_accounting(self):
        g = nw.hsn_hypercube(2, 2)
        ma = nucleus_modules(g)
        sim = PacketSimulator(g, module_of=ma.module_of)
        rng = np.random.default_rng(0)
        stats = sim.run(uniform_random(g, 0.05, 50, rng))
        assert stats.delivered > 0
        assert stats.mean_off_hops <= stats.mean_hops
        # HCN I-diameter is 1: no packet crosses modules more than once
        assert stats.mean_off_hops <= 1.0

    def test_bad_delay_array(self):
        r = nw.ring(5)
        with pytest.raises(ValueError):
            PacketSimulator(r, delays=np.ones(3, dtype=int))
        with pytest.raises(ValueError):
            PacketSimulator(r, delays=0)

    def test_custom_next_hop(self):
        q = nw.hypercube(3)
        # e-cube routing as a next-hop function
        def nh(u, dst):
            diff = u ^ dst
            bit = (diff & -diff).bit_length() - 1
            return u ^ (1 << bit)

        sim = PacketSimulator(q, routing=HopFunction(nh))
        stats = sim.run([(0, 0, 7)])
        assert stats.mean_hops == 3

    def test_throughput_positive(self):
        q = nw.hypercube(4)
        rng = np.random.default_rng(1)
        stats = PacketSimulator(q).run(uniform_random(q, 0.1, 100, rng))
        assert stats.throughput > 0
        assert 0 <= stats.mean_utilization <= 1


class TestPolicies:
    def test_uniform_delay(self):
        q = nw.hypercube(3)
        d = uniform_delay(q, 4)
        assert (d == 4).all()
        assert len(d) == q.adjacency_csr().nnz

    def test_unit_node_capacity(self):
        q = nw.hypercube(3)
        d = unit_node_capacity(q)
        assert (d == 3).all()  # regular graph: every channel = degree

    def test_unit_node_capacity_irregular(self):
        g = nw.hsn_hypercube(2, 2)  # degrees 2 and 3
        d = unit_node_capacity(g)
        assert set(np.unique(d)) == {2, 3}

    def test_on_off_module_delay(self):
        g = nw.hsn_hypercube(2, 2)
        ma = nucleus_modules(g)
        d = on_off_module_delay(g, ma, on_delay=1, off_factor=7)
        assert set(np.unique(d)) == {1, 7}

    def test_unit_offmodule_capacity(self):
        q = nw.hypercube(5)
        ma = subcube_modules(q, 2)
        d = unit_offmodule_capacity(q, ma)
        # off-module channels get delay = 3 (n - c off links per node)
        assert d.max() == 3
        assert d.min() == 1


class TestWorkloads:
    def test_uniform_random_excludes_self(self):
        q = nw.hypercube(3)
        rng = np.random.default_rng(2)
        for t, s, d in uniform_random(q, 0.5, 20, rng):
            assert s != d
            assert 0 <= t < 20

    def test_uniform_random_rate_validation(self):
        with pytest.raises(ValueError):
            uniform_random(nw.ring(4), 1.5, 10, np.random.default_rng(0))

    def test_permutation_traffic(self):
        inj = permutation_traffic([(0, 1), (1, 0), (2, 2)], packets_per_pair=2, spacing=5)
        assert len(inj) == 4  # self pair dropped
        assert {t for t, _, _ in inj} == {0, 5}

    def test_random_permutation_traffic(self):
        q = nw.hypercube(3)
        inj = random_permutation_traffic(q, np.random.default_rng(3))
        assert len(inj) <= 8

    def test_bit_reversal_pairs(self):
        q = nw.hypercube(3)
        pairs = bit_reversal_pairs(q)
        lab = dict(enumerate(q.labels))
        for s, d in pairs:
            assert lab[d] == tuple(reversed(lab[s]))

    def test_transpose_pairs(self):
        q = nw.hypercube(4)
        for s, d in transpose_pairs(q):
            ls, ld = q.labels[s], q.labels[d]
            assert ld == ls[2:] + ls[:2]

    def test_complement_pairs(self):
        q = nw.hypercube(3)
        for s, d in complement_pairs(q):
            assert all(a != b for a, b in zip(q.labels[s], q.labels[d]))

    def test_hotspot(self):
        q = nw.hypercube(4)
        rng = np.random.default_rng(4)
        inj = hotspot(q, 0.3, 50, rng, hotspot_node=0, hotspot_fraction=1.0)
        dsts = {d for _, s, d in inj if s != 0}
        assert dsts == {0}


class TestLatencyClaims:
    """Section 5: light-load latency tracks the cost figures of merit."""

    def _light_load_latency(self, net, delays, seed=0):
        rng = np.random.default_rng(seed)
        sim = PacketSimulator(net, delays=delays)
        stats = sim.run(uniform_random(net, 0.01, 400, rng))
        assert stats.delivered > 50
        return stats.mean_latency

    def test_dd_cost_ordering_under_unit_node_capacity(self):
        """At equal size, the lower-DD network has lower simulated latency
        under the unit-node-capacity model."""
        s = nw.star_graph(5)  # 120 nodes, DD = 4*6 = 24
        r = nw.ring(120)  # DD = 2*60 = 120
        lat_s = self._light_load_latency(s, unit_node_capacity(s))
        lat_r = self._light_load_latency(r, unit_node_capacity(r))
        assert lat_s < lat_r

    def test_ii_cost_ordering_with_slow_offmodule_links(self):
        """With off-module links 10× slower, HSN (II ≈ 0.9) beats the
        hypercube (II = 4) of the same size."""
        h = nw.hsn_hypercube(2, 3)  # 64 nodes, modules of 8
        q = nw.hypercube(6)  # 64 nodes
        ma_h = nucleus_modules(h)
        ma_q = subcube_modules(q, 3)  # modules of 8
        lat_h = self._light_load_latency(h, on_off_module_delay(h, ma_h, off_factor=10))
        lat_q = self._light_load_latency(q, on_off_module_delay(q, ma_q, off_factor=10))
        assert lat_h < lat_q
