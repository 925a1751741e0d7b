"""The batched routing contract ``step(nodes, dsts, state) -> (next, state)``.

The packet simulator asks every hop through it: the table answers with a
gather, and the Theorem-4.1 backend (``SuperIPRouter.backend``) resumes
the router's program at each packet's state, so a packet follows
``route_nodes`` hop for hop whatever order the events come in.
"""

import numpy as np
import pytest

from repro import networks as nw
from repro.core.permutation import cyclic_shift_left
from repro.core.superip import NucleusSpec, SuperGeneratorSet, build_super_ip_graph
from repro.fault import FaultPlan
from repro.networks.hier import explicit_super_graph
from repro.routing import (
    ExplicitSuperIPRouter,
    NextHopTable,
    SuperIPRouter,
    verify_route,
)
from repro.sim import PacketSimulator, uniform_random_array


def test_table_step_is_the_gather():
    net = nw.hypercube(4)
    table = NextHopTable(net)
    rng = np.random.default_rng(0)
    nodes, dsts = rng.integers(0, 16, size=(2, 50))
    state = rng.integers(0, 99, size=50)
    nxt, out = table.step(nodes, dsts, state)
    assert nxt.dtype == np.int64
    assert np.array_equal(nxt, table.table[dsts, nodes])
    assert out is state


def test_table_step_flat_take_matches_the_2d_gather(tmp_path):
    # a fresh build, a from_arrays table given a Fortran-ordered copy, and
    # a table over a read-only mmap all answer with the 2-D gather, bit for
    # bit, through a flat view that never copies the table
    net = nw.hsn(2, nw.hypercube_nucleus(3))
    fresh = NextHopTable(net)
    np.save(tmp_path / "table.npy", fresh.table)
    mm = np.load(tmp_path / "table.npy", mmap_mode="r")
    tables = {
        "fresh": fresh,
        "from_arrays": NextHopTable.from_arrays(net, np.asfortranarray(fresh.table)),
        "mmap": NextHopTable.from_arrays(net, mm),
    }
    assert np.shares_memory(tables["mmap"].table, mm)
    rng = np.random.default_rng(1)
    nodes, dsts = rng.integers(0, net.num_nodes, size=(2, 5000))
    want = fresh.table[dsts, nodes].astype(np.int64)
    for name, table in tables.items():
        assert table.table.flags.c_contiguous, name
        assert np.shares_memory(table.table.reshape(-1), table.table), name
        nxt, _ = table.step(nodes, dsts, None)
        assert nxt.dtype == np.int64 and np.array_equal(nxt, want), name


def _hsn(symmetric: bool):
    nuc = nw.hypercube_nucleus(2)
    sgs = SuperGeneratorSet.transpositions(3)
    return (
        build_super_ip_graph(nuc, sgs, symmetric=symmetric),
        SuperIPRouter(nuc, sgs, symmetric=symmetric),
    )


def _ring_cn_petersen():
    nuc = nw.petersen()
    sgs = SuperGeneratorSet.ring(2)
    return explicit_super_graph(nuc, sgs), ExplicitSuperIPRouter(nuc, sgs)


ROUTED = {
    "hsn3_q2": lambda: _hsn(False),
    "sym_hsn3_q2": lambda: _hsn(True),
    "ring_cn2_petersen": _ring_cn_petersen,
}


@pytest.fixture(scope="module", params=sorted(ROUTED))
def routed(request):
    return ROUTED[request.param]()


def _route_hops(g, r, src: int, dst: int) -> int:
    """Hops of a packet along ``route_nodes(src, dst)``, which ends at
    its first arrival at ``dst``, where the packet is delivered."""
    route = r.route_nodes(g, src, dst)
    assert verify_route(g, route) and len(route) - 1 <= r.max_route_length()
    return len(route) - 1


def _hop_total(stats) -> int:
    return round(stats.mean_hops * stats.delivered)


def test_packets_follow_their_routes_in_any_event_order(routed):
    g, r = routed
    w = uniform_random_array(g, 0.4, 30, np.random.default_rng(1))
    want = sum(_route_hops(g, r, s, d) for _, s, d in w.tolist())
    stats = PacketSimulator(g, routing=r.backend(g)).run(w)
    assert stats.delivered == stats.injected == len(w)
    assert stats.mean_hops == want / len(w)
    # permuted rows reorder the events within every bucket
    perm = np.random.default_rng(2).permutation(len(w))
    again = PacketSimulator(g, routing=r.backend(g)).run(w[perm])
    assert _hop_total(again) == _hop_total(stats) == want


def _resumed_route(g, r):
    """A route whose last hop comes after a super-generator hop, so the
    packet's state there is past the program's first step."""
    m = r.m
    for s in range(g.num_nodes):
        for d in range(g.num_nodes):
            route = r.route_nodes(g, s, d)
            lead = route[:-1]
            if any(g.labels[a][m:] != g.labels[b][m:] for a, b in zip(lead, lead[1:])):
                return s, d, route
    raise AssertionError("no route with a super-generator hop before its last")


def test_retransmission_restarts_the_program():
    g, r = _hsn(False)
    src, dst, route = _resumed_route(g, r)
    h = len(route) - 1
    # 10-cycle channels: the packet holds its last link over
    # [10(h-1), 10h); the link is down for 3 cycles in between, so that
    # attempt drops on arrival and the retransmission starts over
    t0 = 10 * (h - 1) + 5
    plan = FaultPlan().fail_link(t0, route[-2], dst).repair_link(t0 + 3, route[-2], dst)
    stats = PacketSimulator(
        g, delays=10, routing=r.backend(g), faults=plan
    ).run([(0, src, dst)])
    assert (stats.dropped, stats.retransmitted, stats.delivered) == (1, 1, 1)
    assert stats.mean_hops == h


def test_backend_rejects_a_foreign_graph():
    g, r = _hsn(False)
    with pytest.raises(ValueError, match="node label"):
        r.backend(nw.hypercube(6))


ONE_WAY = (
    "cannot route on directed 'directed-ring(l=2,C3one)': nucleus generator "
    "0 Permutation([1, 2, 0]) of 'C3one' has no inverse among the nucleus "
    "generators, so sorting a block may need a reverse arc (one-way nuclei "
    "are not supported)"
)


def test_one_way_nucleus_fails_fast_on_a_directed_graph():
    nuc = NucleusSpec("C3one", (0, 1, 2), (cyclic_shift_left(3, 1),))
    sgs = SuperGeneratorSet.directed_ring(2)
    g = build_super_ip_graph(nuc, sgs, directed=True)
    r = SuperIPRouter(nuc, sgs)
    with pytest.raises(ValueError) as err:
        r.route_nodes(g, 0, 1)
    assert str(err.value) == ONE_WAY
    with pytest.raises(ValueError) as err:
        r.backend(g)
    assert str(err.value) == ONE_WAY
    # the undirected graph over the same nucleus still routes
    und = build_super_ip_graph(nuc, sgs)
    assert verify_route(und, r.route_nodes(und, 0, 1))


def test_directed_cn_over_a_hypercube_nucleus_routes():
    nuc = nw.hypercube_nucleus(2)
    g = nw.directed_cn(3, nuc)
    r = SuperIPRouter(nuc, SuperGeneratorSet.directed_ring(3))
    n = g.num_nodes
    for s in range(n):
        for d in range(n):
            route = r.route_nodes(g, s, d)
            assert verify_route(g, route)  # arcs only, in their direction
            assert len(route) - 1 <= r.max_route_length()
    w = uniform_random_array(g, 0.2, 20, np.random.default_rng(3))
    stats = PacketSimulator(g, routing=r.backend(g)).run(w)
    assert stats.delivered == stats.injected == len(w)
