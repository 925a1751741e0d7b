"""Tests for symmetry-collapsed exhaustive fault certification
(repro.fault.orbits) and the node/edge orbit APIs (repro.metrics.symmetry).

The load-bearing property: the orbit-collapsed sweep must agree with
brute force *exactly* — same weighted integer sums, same per-pattern
verdicts after mapping through the canonical signature — while
enumerating far fewer patterns on symmetric families.
"""

import json
import tempfile

import numpy as np
import pytest

from repro import cache, networks as nw
from repro.fault.orbits import (
    brute_force_fault_sweep,
    cached_automorphism_group,
    exhaustive_fault_sweep,
    fault_signature,
)
from repro.metrics.symmetry import (
    automorphism_group,
    automorphism_orbits,
    edge_orbits,
)

EXACT_KEYS = (
    "patterns",
    "connected_patterns",
    "mean_components",
    "min_giant",
    "routability",
    "sums",
)

# >= 3 small registry families with distinct symmetry structure
FAMILIES = [
    ("hypercube", {"n": 3}),  # Cayley, |Aut| = 48
    ("ring", {"n": 8}),  # dihedral, |Aut| = 16
    ("star", {"n": 4}),  # star graph S4, 24 nodes, |Aut| = 144
]


def _build(name, params):
    return nw.build(name, **params)


class TestOrbitAPIs:
    def test_hypercube_single_node_orbit(self):
        g = nw.hypercube(3)
        assert (automorphism_orbits(g) == 0).all()

    def test_hypercube_single_edge_orbit(self):
        g = nw.hypercube(3)
        edges, labels = edge_orbits(g)
        assert len(edges) == 12
        assert (labels == 0).all()

    def test_path_orbits_mirror(self):
        g = nw.build("path", n=4)
        orbits = automorphism_orbits(g)
        assert orbits.tolist() == [0, 1, 1, 0]

    def test_group_is_sorted_with_identity_first(self):
        g = nw.ring(6)
        group = automorphism_group(g)
        assert group.shape == (12, 6)  # dihedral group D6
        assert (group[0] == np.arange(6)).all()
        for a, b in zip(group, group[1:]):
            assert tuple(a) < tuple(b)

    def test_explicit_group_shape_validated(self):
        g = nw.ring(6)
        with pytest.raises(ValueError, match="group"):
            automorphism_orbits(g, group=np.zeros((2, 5), dtype=np.int64))


class TestExactAgreement:
    @pytest.mark.parametrize("name,params", FAMILIES)
    @pytest.mark.parametrize("kind", ["node", "link"])
    def test_summary_equals_brute_force(self, name, params, kind):
        g = _build(name, params)
        k = 2
        ex = exhaustive_fault_sweep(g, k, kind=kind)
        bf = brute_force_fault_sweep(g, k, kind=kind)
        for key in EXACT_KEYS:
            assert ex["summary"][key] == bf["summary"][key], key

    @pytest.mark.parametrize("name,params", FAMILIES)
    def test_per_pattern_verdicts_match_via_signature(self, name, params):
        g = _build(name, params)
        group = cached_automorphism_group(g)
        ex = exhaustive_fault_sweep(g, 2, kind="node", group=group)
        bf = brute_force_fault_sweep(g, 2, kind="node")
        for row in bf["patterns"]:
            sig = fault_signature(g, row["pattern"], kind="node", group=group)
            verdict = ex["by_signature"][sig]
            for key in ("components", "giant", "connected", "conn_pairs"):
                assert row[key] == verdict[key], (row["pattern"], key)

    def test_k3_agreement_on_hypercube(self):
        g = nw.hypercube(3)
        ex = exhaustive_fault_sweep(g, 3, kind="node")
        bf = brute_force_fault_sweep(g, 3, kind="node")
        for key in EXACT_KEYS:
            assert ex["summary"][key] == bf["summary"][key], key

    def test_weights_cover_all_patterns(self):
        g = nw.ring(8)
        ex = exhaustive_fault_sweep(g, 2, kind="link")
        assert sum(r["weight"] for r in ex["orbits"]) == ex["summary"]["patterns"]


class TestCollapse:
    def test_ten_x_collapse_on_symmetric_family(self):
        g = nw.hypercube(4)
        ex = exhaustive_fault_sweep(g, 3, kind="node")
        s = ex["summary"]
        assert s["patterns"] == 560
        assert s["collapse_ratio"] >= 10.0
        assert s["orbits"] <= 56

    def test_collapse_gauge_recorded(self):
        from repro import obs

        g = nw.hypercube(3)
        obs.reset()
        obs.enable()
        try:
            exhaustive_fault_sweep(g, 2, kind="node")
            gauges = obs.report()["gauges"]
            assert gauges.get("orbits.collapse_ratio", 0) > 1.0
        finally:
            obs.disable()
            obs.reset()

    def test_k_zero_single_orbit(self):
        g = nw.hypercube(3)
        ex = exhaustive_fault_sweep(g, 0, kind="node")
        assert ex["summary"]["patterns"] == 1
        assert ex["summary"]["all_connected"]


class TestSignature:
    def test_invariant_under_group_action(self):
        g = nw.hypercube(3)
        group = cached_automorphism_group(g)
        base = (0, 3)
        sig = fault_signature(g, base, kind="node", group=group)
        for perm in group[::7]:
            image = tuple(int(perm[v]) for v in base)
            assert fault_signature(g, image, kind="node", group=group) == sig

    def test_link_signature_invariant(self):
        g = nw.ring(8)
        group = cached_automorphism_group(g)
        base = [(0, 1), (3, 4)]
        sig = fault_signature(g, base, kind="link", group=group)
        perm = group[5]
        image = [(int(perm[u]), int(perm[v])) for u, v in base]
        assert fault_signature(g, image, kind="link", group=group) == sig

    def test_distinct_orbits_distinct_signatures(self):
        g = nw.ring(8)
        # adjacent vs antipodal node pairs are not automorphic on a ring
        sig_adj = fault_signature(g, (0, 1), kind="node")
        sig_far = fault_signature(g, (0, 4), kind="node")
        assert sig_adj != sig_far


class TestDeterminismAndCache:
    def test_bit_identical_across_jobs(self):
        g = nw.hypercube(4)
        a = exhaustive_fault_sweep(g, 2, kind="node", jobs=1)
        b = exhaustive_fault_sweep(g, 2, kind="node", jobs=4)
        assert repr(a) == repr(b)

    def test_group_artifact_round_trips(self):
        with tempfile.TemporaryDirectory() as d:
            cache.configure(d)
            try:
                g = nw.build("hypercube", n=3)
                g1 = cached_automorphism_group(g)
                g2 = cached_automorphism_group(g)
                assert (g1 == g2).all()
                store = cache.get_cache()
                assert list(store.root.glob("*/*.orb.npz"))
            finally:
                cache.set_cache(None)


class TestValidation:
    def setup_method(self):
        self.g = nw.ring(8)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 0"):
            exhaustive_fault_sweep(self.g, -1)

    def test_non_integer_k_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            exhaustive_fault_sweep(self.g, 1.5)

    def test_all_nodes_faulted_rejected(self):
        with pytest.raises(ValueError):
            exhaustive_fault_sweep(self.g, 8, kind="node")

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            brute_force_fault_sweep(self.g, 1, kind="router")

