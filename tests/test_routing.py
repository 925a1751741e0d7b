"""Tests for all routers: Theorem-4.1 sorter, family routers, BFS tables."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import networks as nw
from repro.core.superip import SuperGeneratorSet, build_super_ip_graph, reachable_arrangements
from repro.metrics.distances import bfs_distances, single_source_distances
from repro.networks.hier import explicit_super_graph
from repro.routing import (
    ExplicitSuperIPRouter,
    NextHopTable,
    SuperIPRouter,
    debruijn_route,
    ecube_route,
    shortest_path,
    star_route,
    star_route_length_bound,
    verify_route,
)

from . import superip_oracle as oracle

FAMILIES = {
    "transpositions": SuperGeneratorSet.transpositions,
    "ring": SuperGeneratorSet.ring,
    "complete": SuperGeneratorSet.complete_shifts,
    "flips": SuperGeneratorSet.flips,
}


class TestSuperIPRouter:
    @pytest.mark.parametrize("fam", list(FAMILIES))
    @pytest.mark.parametrize("sym", [False, True])
    def test_all_pairs_valid_and_bounded(self, fam, sym):
        nuc = nw.hypercube_nucleus(1)
        sgs = FAMILIES[fam](3)
        g = build_super_ip_graph(nuc, sgs, symmetric=sym)
        r = SuperIPRouter(nuc, sgs, symmetric=sym)
        bound = r.max_route_length()
        for s in range(g.num_nodes):
            for d in range(g.num_nodes):
                path = r.route_nodes(g, s, d)
                assert path[0] == s and path[-1] == d
                assert verify_route(g, path)
                assert len(path) - 1 <= bound

    def test_bound_attained_somewhere(self):
        """Theorem 4.1 is exact: some pair needs the full l·D_G + t."""
        nuc = nw.hypercube_nucleus(2)
        sgs = SuperGeneratorSet.transpositions(2)
        g = build_super_ip_graph(nuc, sgs)
        d = bfs_distances(g, np.arange(g.num_nodes))
        r = SuperIPRouter(nuc, sgs)
        assert d.max() == r.max_route_length()

    def test_route_matches_bfs_for_worst_pair(self):
        nuc = nw.hypercube_nucleus(2)
        sgs = SuperGeneratorSet.transpositions(2)
        g = build_super_ip_graph(nuc, sgs)
        r = SuperIPRouter(nuc, sgs)
        d = bfs_distances(g, [0])[0]
        far = int(np.argmax(d))
        path = r.route_nodes(g, 0, far)
        assert len(path) - 1 == d[far]  # router is optimal at the diameter

    def test_trivial_route(self):
        nuc = nw.hypercube_nucleus(1)
        sgs = SuperGeneratorSet.transpositions(2)
        r = SuperIPRouter(nuc, sgs)
        g = build_super_ip_graph(nuc, sgs)
        assert r.route_nodes(g, 3, 3) == [3]

    def test_star_nucleus_router(self):
        nuc = nw.star_nucleus(3)
        sgs = SuperGeneratorSet.ring(2)
        g = build_super_ip_graph(nuc, sgs)
        r = SuperIPRouter(nuc, sgs)
        rng = np.random.default_rng(3)
        for _ in range(40):
            s, d = rng.integers(0, g.num_nodes, 2)
            path = r.route_nodes(g, int(s), int(d))
            assert verify_route(g, path)
            assert len(path) - 1 <= r.max_route_length()

    def test_symmetric_router_colors(self):
        nuc = nw.hypercube_nucleus(2)
        sgs = SuperGeneratorSet.transpositions(3)
        g = build_super_ip_graph(nuc, sgs, symmetric=True)
        r = SuperIPRouter(nuc, sgs, symmetric=True)
        rng = np.random.default_rng(5)
        for _ in range(50):
            s, d = rng.integers(0, g.num_nodes, 2)
            path = r.route_nodes(g, int(s), int(d))
            assert verify_route(g, path)
            assert path[-1] == d

    def test_symmetric_router_with_twelve_symbol_nucleus(self):
        """The symmetric seed renumbers nucleus symbols in ``repr`` order
        (``0, 1, 10, 11, 2, ...`` for Q6's 12 symbols), so a colored block
        is not the nucleus label plus an offset.  The scalar router assumed
        it was and raised ``KeyError`` here."""
        nuc = nw.hypercube_nucleus(6)
        sgs = SuperGeneratorSet.transpositions(2)
        g = build_super_ip_graph(nuc, sgs, symmetric=True)
        r = SuperIPRouter(nuc, sgs, symmetric=True)
        pairs = np.random.default_rng(6).integers(0, g.num_nodes, size=(50, 2))
        for s, d in pairs.tolist():
            path = r.route_nodes(g, s, d)
            assert path[0] == s and path[-1] == d
            assert verify_route(g, path) and len(path) - 1 <= r.max_route_length()

    def test_route_ends_at_first_arrival(self):
        """The walk stops when the blocks equal the destination's, so no
        route passes through ``dst`` before its last node (all pairs of
        HSN(3,Q2), where a whole program often does)."""
        nuc = nw.hypercube_nucleus(2)
        sgs = SuperGeneratorSet.transpositions(3)
        g = build_super_ip_graph(nuc, sgs)
        r = SuperIPRouter(nuc, sgs)
        for s in range(g.num_nodes):
            for d in range(g.num_nodes):
                path = r.route_nodes(g, s, d)
                assert path[-1] == d and d not in path[:-1]

    def test_route_labels_direct(self):
        nuc = nw.hypercube_nucleus(1)
        sgs = SuperGeneratorSet.transpositions(2)
        r = SuperIPRouter(nuc, sgs)
        src = (0, 1, 0, 1)
        dst = (1, 0, 1, 0)
        path = r.route_labels(src, dst)
        assert path[0] == src and path[-1] == dst


class TestFamilyRouters:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 1000), st.integers(0, 1000))
    def test_ecube_optimal(self, n, a, b):
        a %= 1 << n
        b %= 1 << n
        la = tuple((a >> (n - 1 - i)) & 1 for i in range(n))
        lb = tuple((b >> (n - 1 - i)) & 1 for i in range(n))
        path = ecube_route(la, lb)
        assert path[0] == la and path[-1] == lb
        assert len(path) - 1 == bin(a ^ b).count("1")
        for u, v in zip(path, path[1:]):
            assert sum(x != y for x, y in zip(u, v)) == 1

    def test_ecube_length_mismatch(self):
        with pytest.raises(ValueError):
            ecube_route((0, 1), (0, 1, 0))

    @settings(max_examples=40, deadline=None)
    @given(st.permutations(list(range(5))), st.permutations(list(range(5))))
    def test_star_route_valid_and_bounded(self, src, dst):
        src, dst = tuple(src), tuple(dst)
        path = star_route(src, dst)
        assert path[0] == src and path[-1] == dst
        assert len(path) - 1 <= star_route_length_bound(5)
        # every hop is a star-generator move (swap position 0 with some i)
        for u, v in zip(path, path[1:]):
            diff = [i for i in range(5) if u[i] != v[i]]
            assert len(diff) == 2 and 0 in diff
            i = [d for d in diff if d != 0][0]
            assert u[0] == v[i] and u[i] == v[0]

    def test_star_route_against_bfs(self):
        g = nw.star_graph(4)
        d = single_source_distances(g, g.node_of(tuple(range(4))))
        # greedy routing is within the diameter bound but not always optimal;
        # check against the known bound and a couple of optimal cases
        for node, lab in enumerate(g.labels):
            path = star_route(lab, tuple(range(4)))
            assert len(path) - 1 >= d[node]  # can't beat BFS
            assert len(path) - 1 <= star_route_length_bound(4)

    def test_star_route_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            star_route((0, 1, 2), (0, 1, 3))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 5), st.integers(0, 500), st.integers(0, 500))
    def test_debruijn_route(self, n, a, b):
        la = tuple((a >> i) & 1 for i in range(n))
        lb = tuple((b >> i) & 1 for i in range(n))
        path = debruijn_route(la, lb)
        assert path[0] == la and path[-1] == lb
        assert len(path) - 1 <= n
        for u, v in zip(path, path[1:]):
            assert v[:-1] == u[1:]  # shift edge

    def test_debruijn_overlap_shortcut(self):
        # src suffix == dst prefix: route uses the overlap
        path = debruijn_route((0, 1, 1), (1, 1, 0))
        assert len(path) - 1 == 1


class TestTableRouting:
    def test_shortest_path_endpoints(self):
        g = nw.hypercube(4)
        p = shortest_path(g, 0, 15)
        assert p[0] == 0 and p[-1] == 15
        assert len(p) - 1 == 4

    def test_shortest_path_trivial(self):
        g = nw.ring(5)
        assert shortest_path(g, 2, 2) == [2]

    def test_shortest_path_disconnected(self):
        from repro.core.network import Network

        net = Network([(0,), (1,)], [], [])
        with pytest.raises(ValueError):
            shortest_path(net, 0, 1)

    def test_next_hop_table_paths_are_shortest(self):
        g = nw.cube_connected_cycles(3)
        table = NextHopTable(g)
        d = bfs_distances(g, np.arange(g.num_nodes))
        rng = np.random.default_rng(0)
        for _ in range(60):
            s, t = rng.integers(0, g.num_nodes, 2)
            p = table.path(int(s), int(t))
            assert len(p) - 1 == d[t, s]

    def test_next_hop_self(self):
        g = nw.ring(6)
        table = NextHopTable(g)
        assert table.next_hop(3, 3) == 3

    def test_table_rejects_disconnected(self):
        from repro.core.network import Network

        net = Network.from_edge_list([(i,) for i in range(4)], [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            NextHopTable(net)


class TestDirectedCNRouting:
    def test_directed_ring_cn_router(self):
        """The sorting router also serves directed CNs: only the forward
        shift exists, and every route respects arc directions."""
        import numpy as np

        from repro import networks as nw
        from repro.core.superip import build_super_ip_graph

        nuc = nw.hypercube_nucleus(1)
        sgs = SuperGeneratorSet.directed_ring(3)
        g = build_super_ip_graph(nuc, sgs, directed=True)
        r = SuperIPRouter(nuc, sgs)
        csr = g.adjacency_csr()  # directed
        rng = np.random.default_rng(0)
        for _ in range(30):
            s, d = rng.integers(0, g.num_nodes, 2)
            path = r.route_nodes(g, int(s), int(d))
            for u, v in zip(path, path[1:]):
                assert v in csr.indices[csr.indptr[u] : csr.indptr[u + 1]]
            assert len(path) - 1 <= r.max_route_length()

    def test_directed_diameter_formula(self):
        from repro import metrics as mt
        from repro import networks as nw
        from repro.core.superip import diameter_formula
        from repro.metrics.distances import eccentricities

        nuc = nw.hypercube_nucleus(1)
        g = nw.directed_cn(3, nuc)
        d = int(eccentricities(g).max())
        assert d == diameter_formula(nuc.diameter(), SuperGeneratorSet.directed_ring(3))


def _super_hops(labels: list[tuple], m: int) -> list[int]:
    """Positions of super-generator hops on a label path.  A nucleus move
    changes only the leftmost block; a super-generator permutes blocks, and
    a permutation that keeps blocks 1..l-1 keeps block 0 as well."""
    return [i for i, (a, b) in enumerate(zip(labels, labels[1:])) if a[m:] != b[m:]]


def _first_arrival(path: list) -> list:
    """``path`` cut at its first arrival at its destination: the scalar
    oracles run their whole program, the walker stops there."""
    return path[: path.index(path[-1]) + 1]


def _assert_same_walk(r, ours, theirs, m):
    """``ours`` is the walker's whole-program walk cut at its first arrival,
    and that walk has the oracle's length and super-generator hop positions.
    Nucleus ties break differently, so the two walks may first reach the
    destination at different hops: the oracle's path is not cut."""
    whole = oracle.whole_walk(r, ours[0], ours[-1])
    assert ours == _first_arrival(whole)
    assert len(whole) == len(theirs)
    assert whole[0] == theirs[0] and whole[-1] == theirs[-1]
    assert _super_hops(whole, m) == _super_hops(theirs, m)


class TestRouterOracle:
    """The one block walker against the scalar routers it replaced
    (``tests/superip_oracle.py``)."""

    @pytest.mark.parametrize("fam", list(FAMILIES))
    @pytest.mark.parametrize("sym", [False, True])
    def test_ip_router_all_pairs(self, fam, sym):
        nuc = nw.hypercube_nucleus(1 if sym else 2)
        sgs = FAMILIES[fam](3)
        g = build_super_ip_graph(nuc, sgs, symmetric=sym)
        r = SuperIPRouter(nuc, sgs, symmetric=sym)
        want = oracle.SuperIPRouter(nuc, sgs, symmetric=sym)
        assert (r.t, r.max_route_length()) == (want.t, want.max_route_length())
        bound = r.max_route_length()
        for s in range(g.num_nodes):
            for d in range(g.num_nodes):
                path = r.route_nodes(g, s, d)
                assert verify_route(g, path) and len(path) - 1 <= bound
                _assert_same_walk(
                    r,
                    [g.labels[v] for v in path],
                    want.route_labels(g.labels[s], g.labels[d]),
                    nuc.m,
                )

    def test_ip_router_hsn_4_q4_seeded(self):
        nuc = nw.hypercube_nucleus(4)
        sgs = SuperGeneratorSet.transpositions(4)
        g = build_super_ip_graph(nuc, sgs)
        assert g.num_nodes == 65_536
        r = SuperIPRouter(nuc, sgs)
        want = oracle.SuperIPRouter(nuc, sgs)
        bound = r.max_route_length()
        pairs = np.random.default_rng(41).integers(0, g.num_nodes, size=(2000, 2))
        for s, d in pairs.tolist():
            path = r.route_nodes(g, s, d)
            assert verify_route(g, path) and len(path) - 1 <= bound
            _assert_same_walk(
                r,
                [g.labels[v] for v in path],
                want.route_labels(g.labels[s], g.labels[d]),
                nuc.m,
            )

    def test_symmetric_ip_router_hsn_4_q4_seeded_labels(self):
        """Symmetric HSN(4,Q4) has 24·16⁴ nodes, too many to build here, so
        labels are drawn directly and every hop is checked to be one
        generator application."""
        from repro.core.permutation import block_permutation, lift_to_block

        nuc = nw.hypercube_nucleus(4)
        sgs = SuperGeneratorSet.transpositions(4)
        r = SuperIPRouter(nuc, sgs, symmetric=True)
        want = oracle.SuperIPRouter(nuc, sgs, symmetric=True)
        m, l = nuc.m, sgs.l
        gens = [lift_to_block(p, l, m, block=0) for p in nuc.perms]
        gens += [block_permutation(p.img, m) for p in sgs.perms()]
        gens += [p.inverse() for p in gens]
        blocks = nuc.build().labels
        arrangements = sorted(reachable_arrangements(sgs))
        rng = np.random.default_rng(43)

        def draw():
            colors = arrangements[rng.integers(len(arrangements))]
            return tuple(
                c * m + s for c in colors for s in blocks[rng.integers(len(blocks))]
            )

        for _ in range(2000):
            src, dst = draw(), draw()
            path = r.route_labels(src, dst)
            assert len(path) - 1 <= r.max_route_length()
            assert all(any(p(a) == b for p in gens) for a, b in zip(path, path[1:]))
            _assert_same_walk(r, path, want.route_labels(src, dst), m)

    def test_explicit_router_all_pairs_ring_cn_2_petersen(self):
        nuc = nw.petersen()
        sgs = SuperGeneratorSet.ring(2)
        g = explicit_super_graph(nuc, sgs)
        r = ExplicitSuperIPRouter(nuc, sgs)
        want = oracle.ExplicitSuperIPRouter(nuc, sgs)
        assert (r.t, r.max_route_length()) == (want.t, want.max_route_length())
        for s in range(g.num_nodes):
            for d in range(g.num_nodes):
                assert r.route_nodes(g, s, d) == _first_arrival(want.route_nodes(g, s, d))

    def test_explicit_router_ring_cn_3_petersen_seeded(self):
        nuc = nw.petersen()
        sgs = SuperGeneratorSet.ring(3)
        g = explicit_super_graph(nuc, sgs)
        assert g.num_nodes == 1000
        r = ExplicitSuperIPRouter(nuc, sgs)
        want = oracle.ExplicitSuperIPRouter(nuc, sgs)
        pairs = np.random.default_rng(47).integers(0, g.num_nodes, size=(2000, 2))
        for s, d in pairs.tolist():
            path = r.route_nodes(g, s, d)
            assert path == _first_arrival(want.route_nodes(g, s, d))
            assert verify_route(g, path) and len(path) - 1 <= r.max_route_length()

    def test_explicit_router_backend(self):
        nuc = nw.petersen()
        sgs = SuperGeneratorSet.transpositions(2)
        g = explicit_super_graph(nuc, sgs)
        r = ExplicitSuperIPRouter(nuc, sgs)
        backend = r.backend(g)
        for s, d in [(0, 99), (37, 5), (12, 3)]:
            walk, state = [s], np.zeros(1, dtype=np.int64)
            while walk[-1] != d:
                nxt, state = backend.step(np.array([walk[-1]]), np.array([d]), state)
                walk.append(int(nxt[0]))
            # the packet's walk is the route, which ends at its first arrival
            assert walk == r.route_nodes(g, s, d)
            assert verify_route(g, walk) and len(walk) - 1 <= r.max_route_length()


class TestRouterValidation:
    """Bad ids and labels fail fast with a message naming the bad value and
    the valid range; they never wrap around or raise a bare ``KeyError``."""

    @pytest.fixture(scope="class")
    def hsn22(self):
        nuc = nw.hypercube_nucleus(2)
        sgs = SuperGeneratorSet.transpositions(2)
        return build_super_ip_graph(nuc, sgs), SuperIPRouter(nuc, sgs)

    @pytest.mark.parametrize("src,dst,bad", [(-1, 0, -1), (0, 16, 16)])
    def test_ip_router_rejects_node_id(self, hsn22, src, dst, bad):
        g, r = hsn22
        with pytest.raises(ValueError) as err:
            r.route_nodes(g, src, dst)
        assert str(err.value) == (
            f"node id {bad} is out of range for 'transpositions(l=2,Q2)' "
            f"(valid ids: 0..15)"
        )

    def test_ip_router_rejects_wrong_length(self, hsn22):
        g, r = hsn22
        with pytest.raises(ValueError) as err:
            r.route_labels((0, 1, 2), g.labels[0])
        assert str(err.value) == (
            "source label (0, 1, 2) has 3 symbols, expected 8 (2 blocks of 4)"
        )

    def test_ip_router_rejects_out_of_alphabet_symbol(self, hsn22):
        g, r = hsn22
        with pytest.raises(ValueError) as err:
            r.route_labels(g.labels[0], (0, 1, 2, 3, 0, 1, 2, 9))
        assert str(err.value) == (
            "destination label (0, 1, 2, 3, 0, 1, 2, 9) is not a node: block 1 "
            "(0, 1, 2, 9) is not one of the 4 valid blocks "
            "(0, 1, 2, 3) .. (1, 0, 3, 2)"
        )

    def test_symmetric_router_rejects_unreachable_colors(self):
        nuc = nw.hypercube_nucleus(1)
        sgs = SuperGeneratorSet.ring(3)  # rotations only: 3 arrangements
        r = SuperIPRouter(nuc, sgs, symmetric=True)
        with pytest.raises(ValueError) as err:
            r.route_labels((2, 3, 0, 1, 4, 5), (0, 1, 2, 3, 4, 5))
        assert str(err.value) == (
            "source label (2, 3, 0, 1, 4, 5) is not a node: its block colors "
            "(1, 0, 2) are not one of the 3 arrangements the super-generators "
            "reach"
        )

    def test_explicit_router_rejects_id_and_label(self):
        nuc = nw.petersen()
        sgs = SuperGeneratorSet.ring(2)
        g = explicit_super_graph(nuc, sgs)
        r = ExplicitSuperIPRouter(nuc, sgs)
        with pytest.raises(ValueError) as err:
            r.route_nodes(g, 0, -1)
        assert str(err.value) == (
            f"node id -1 is out of range for {g.name!r} (valid ids: 0..99)"
        )
        with pytest.raises(ValueError) as err:
            r.route_labels((3, 10), (0, 0))
        assert str(err.value) == (
            "source label (3, 10) is not a node: block 1 (10,) is not one of "
            "the 10 valid blocks (0,) .. (9,)"
        )
