"""Tests for exhaustive k-fault certification
(repro.fault.percolation.exhaustive_fault_sweep).

The load-bearing property: the batched sweep equals the per-pattern brute
force of ``tests/exhaustive_oracle.py`` *exactly* — the same integer
summary and the same disconnecting patterns in the same order — on every
family, fault kind and small ``k``, whatever the chunk size.
"""

from itertools import combinations
from math import comb

import numpy as np
import pytest

from repro import networks as nw
from repro import obs
from repro.__main__ import main
from repro.fault import exhaustive_fault_sweep, masked_components
from repro.fault import percolation

from .exhaustive_oracle import _row_sums, brute_force_fault_sweep

# three small registry families with distinct symmetry structure
FAMILIES = [
    ("hypercube", {"n": 3}),
    ("ring", {"n": 8}),
    ("star", {"n": 4}),  # star graph S4, 24 nodes
]
CASES = [
    pytest.param(name, params, kind, k, id=f"{name}{params['n']}-{kind}-k{k}")
    for name, params in FAMILIES
    for kind in ("node", "link")
    for k in range(4)
]


class TestOracle:
    @pytest.mark.parametrize("name,params,kind,k", CASES)
    def test_equals_oracle(self, name, params, kind, k):
        g = nw.build(name, **params)
        got = exhaustive_fault_sweep(g, k, kind=kind)
        want = brute_force_fault_sweep(g, k, kind=kind)
        assert got["summary"] == want["summary"]
        assert got["disconnecting"] == want["disconnecting"]
        assert (got["network"], got["kind"], got["k"]) == (g.name, kind, k)

    @pytest.mark.parametrize(
        "name,params", [pytest.param(*f, id=f"{f[0]}{f[1]['n']}") for f in FAMILIES]
    )
    def test_per_pattern_verdicts(self, name, params):
        # every k=2 node pattern, labeled in one batch as the sweep does,
        # has the oracle's per-pattern components, giant and pair count,
        # and is listed as disconnecting exactly when the oracle says so
        g = nw.build(name, **params)
        want = brute_force_fault_sweep(g, 2, kind="node")["patterns"]
        idx = np.array([row["pattern"] for row in want], dtype=np.int64)
        alive = np.ones((len(idx), g.num_nodes), dtype=bool)
        alive[np.arange(len(idx))[:, None], idx] = False
        sums = percolation._component_sums(masked_components(g, alive))
        disconnecting = set(exhaustive_fault_sweep(g, 2, kind="node")["disconnecting"])
        for i, row in enumerate(want):
            for key in ("components", "giant", "conn_pairs"):
                assert int(sums[key][i]) == row[key], (row["pattern"], key)
            assert (row["pattern"] in disconnecting) == (not row["connected"]), row["pattern"]


class TestClosedForms:
    @pytest.mark.parametrize("n", [3, 4])
    def test_hypercube_n_node_faults_isolate_exactly_one_node(self, n):
        # Q_n has connectivity n: the only disconnecting n-sets are the
        # 2^n node neighbourhoods
        g = nw.hypercube(n)
        r = exhaustive_fault_sweep(g, n, kind="node")
        assert r["summary"]["patterns"] == comb(2**n, n)
        assert r["summary"]["disconnected_patterns"] == 2**n
        csr = g.adjacency_csr(directed=False)
        hoods = {
            tuple(sorted(csr.indices[csr.indptr[v] : csr.indptr[v + 1]].tolist()))
            for v in range(2**n)
        }
        assert {tuple(sorted(p)) for p in r["disconnecting"]} == hoods

    @pytest.mark.parametrize("m", [5, 8, 11])
    def test_ring_two_node_faults(self, m):
        # two faulted nodes split the ring unless they are adjacent
        r = exhaustive_fault_sweep(nw.ring(m), 2, kind="node")
        assert r["summary"]["patterns"] == comb(m, 2)
        assert r["summary"]["disconnected_patterns"] == comb(m, 2) - m

    @pytest.mark.parametrize("m", [5, 8, 11])
    def test_ring_two_link_faults(self, m):
        r = exhaustive_fault_sweep(nw.ring(m), 2, kind="link")
        assert r["summary"]["patterns"] == comb(m, 2)
        assert r["summary"]["disconnected_patterns"] == comb(m, 2)
        assert r["disconnecting"][0] == ((0, 1), (0, m - 1))

    def test_k_zero_single_pattern(self):
        r = exhaustive_fault_sweep(nw.hypercube(3), 0, kind="node")
        assert r["summary"]["patterns"] == 1
        assert r["summary"]["all_connected"]
        assert r["disconnecting"] == []


class TestChunking:
    @pytest.mark.parametrize("name,params", FAMILIES)
    @pytest.mark.parametrize("kind", ["node", "link"])
    def test_chunk_boundaries_do_not_change_results(self, monkeypatch, name, params, kind):
        g = nw.build(name, **params)
        want = exhaustive_fault_sweep(g, 2, kind=kind)
        m = g.adjacency_csr(directed=False).nnz // 2
        # 7 mask entries -> one pattern per chunk; 7 (n + m) -> 7 patterns
        # per chunk, with a partial last chunk
        for chunk in (7, 7 * (g.num_nodes + m)):
            monkeypatch.setattr(percolation, "EXHAUSTIVE_CHUNK", chunk)
            assert repr(exhaustive_fault_sweep(g, 2, kind=kind)) == repr(want)


class TestComponentSums:
    def test_batched_rows_equal_per_row_unique(self):
        g = nw.build("hsn", l=2, n=3)
        rng = np.random.default_rng(11)
        alive = rng.random((6, g.num_nodes)) < np.linspace(0.0, 1.0, 6)[:, None]
        sums = percolation._component_sums(masked_components(g, alive))
        for i in range(len(alive)):
            want = _row_sums(masked_components(g, alive[i])[0], alive[i])
            assert {key: int(col[i]) for key, col in sums.items()} == want


class TestObservability:
    def test_span_and_component_counter(self):
        obs.reset()
        obs.enable()
        try:
            r = exhaustive_fault_sweep(nw.ring(8), 2, kind="node")
            report = obs.report()
        finally:
            obs.disable()
            obs.reset()
        assert "fault.exhaustive" in report["timers"]
        assert report["counters"]["percolation.components"] == r["summary"]["sums"]["components"]


class TestCLI:
    def test_prints_summary_then_disconnecting_patterns(self, capsys):
        argv = ["faults", "exhaustive", "--network", "ring", "--param", "n=6",
                "--k", "2", "--kind", "node"]
        assert main(argv) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "ring(6): 15 node-fault patterns (k=2); 9 disconnect"
        assert out[1].startswith("connected: 6/15;")
        rows = [line.strip() for line in out[4:]]
        want = [p for p in combinations(range(6), 2) if (p[1] - p[0]) % 6 not in (1, 5)]
        assert rows == [str(p) for p in want]

    def test_connected_network_prints_no_rows(self, capsys):
        argv = ["faults", "exhaustive", "--network", "hypercube", "--param", "n=3",
                "--k", "2", "--kind", "node"]
        assert main(argv) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 2 and "(ALL)" in out[1]


class TestValidation:
    def setup_method(self):
        self.g = nw.ring(8)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 0, got -1"):
            exhaustive_fault_sweep(self.g, -1)

    def test_non_integer_k_rejected(self):
        with pytest.raises(ValueError, match="integer, got 1.5"):
            exhaustive_fault_sweep(self.g, 1.5)
        with pytest.raises(ValueError, match="integer, got True"):
            exhaustive_fault_sweep(self.g, True)

    def test_all_nodes_faulted_rejected(self):
        with pytest.raises(ValueError, match=r"cannot fault every node: k=8 .* N=8"):
            exhaustive_fault_sweep(self.g, 8, kind="node")

    def test_more_link_faults_than_links_rejected(self):
        with pytest.raises(ValueError, match="cannot fault 9 links: 'ring\\(8\\)' has only 8"):
            exhaustive_fault_sweep(self.g, 9, kind="link")

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind must be 'node' or 'link', got 'router'"):
            exhaustive_fault_sweep(self.g, 1, kind="router")
