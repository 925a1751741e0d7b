"""Contract-sweep tests (repro.check.invariants).

The sweep must cover 100% of the registry, pass on the real builders,
and — via mutation tests — demonstrably *fail* on corrupted networks, so
a regression in any family construction is caught by CI.
"""

import numpy as np
import pytest

from repro.check import FAMILY_SPECS, Report, check_family, check_network, run_contracts
from repro.check.__main__ import main as check_main
from repro.core.ipgraph import IPGraph
from repro.core.network import Network
from repro.networks import available, build


class TestCoverage:
    def test_specs_cover_every_registry_family(self):
        assert set(FAMILY_SPECS) == set(available())

    def test_unknown_family_fails_with_ctr008(self):
        r = check_family("not-a-family")
        assert [f.code for f in r.findings] == ["CTR008"]

    def test_stale_spec_detected(self, monkeypatch):
        import repro.check.invariants as inv

        monkeypatch.setitem(inv.FAMILY_SPECS, "ghost_family", inv.FamilySpec({}))
        r = run_contracts()
        assert any(f.code == "CTR008" and f.path == "ghost_family" for f in r.findings)


@pytest.mark.parametrize("name", sorted(FAMILY_SPECS))
def test_family_contracts_pass(name):
    r = check_family(name)
    assert r.ok, r.render()
    assert r.checked >= 4


class TestSweep:
    def test_full_sweep_clean(self):
        r = run_contracts()
        assert r.ok, r.render()
        # every family contributes several assertions
        assert r.checked >= 4 * len(FAMILY_SPECS)

    def test_subset_sweep(self):
        r = run_contracts(["hsn", "ring_cn"])
        assert r.ok and r.checked > 0

    def test_cli_exit_zero(self, capsys):
        assert check_main(["contracts", "--family", "hypercube"]) == 0
        assert "clean" in capsys.readouterr().out


class TestMutations:
    """Deliberately corrupted networks must fail the contracts."""

    def test_wrong_node_count_fires_ctr001(self):
        g = build("hypercube", n=3)
        r = Report()
        check_network(g, "mutant", r, expected_nodes=16)
        assert "CTR001" in {f.code for f in r.findings}

    def test_removed_edge_breaks_diameter_and_regularity(self):
        ring = build("ring", n=5)
        keep = ~((ring.edges_src == 0) & (ring.edges_dst == 1))
        keep &= ~((ring.edges_src == 1) & (ring.edges_dst == 0))
        mutant = Network(
            ring.labels, ring.edges_src[keep], ring.edges_dst[keep], name="broken-ring"
        )
        r = Report()
        check_network(mutant, "mutant", r, expected_diameter=2, regular=True)
        codes = {f.code for f in r.findings}
        assert "CTR006" in codes and "CTR002" in codes

    def test_disconnected_fires_ctr007(self):
        g = Network([(0,), (1,), (2,)], [0], [1], name="islands")
        r = Report()
        check_network(g, "mutant", r)
        assert "CTR007" in {f.code for f in r.findings}

    def test_label_swap_fires_ctr005(self):
        g = build("hypercube", n=2)
        # swap two labels without updating the index: round-trips break
        g.labels[0], g.labels[1] = g.labels[1], g.labels[0]
        r = Report()
        check_network(g, "mutant", r)
        assert "CTR005" in {f.code for f in r.findings}

    def test_corrupted_vertex_set_fires_ctr003(self):
        g = build("star_ip", n=3)
        # corrupt the label store itself: node 2's row becomes (0, 0, 0),
        # which no generator maps into the vertex set; label_of / node_of
        # still round-trip, so only the closure contract can notice
        rows = g._label_rows.copy()
        rows[2] = 0
        arcs = np.column_stack([g.edges_src, g.edges_dst, g.edges_gen])
        g = IPGraph(rows, g.generators, arcs, name="corrupt-star")
        r = Report()
        check_network(g, "mutant", r)
        assert "CTR003" in {f.code for f in r.findings}

    def test_mutation_report_renders_instance(self):
        r = check_family("not-a-family")
        assert r.render().startswith("not-a-family: CTR008")


class TestObsIntegration:
    def test_counters_recorded_when_enabled(self):
        from repro import obs

        obs.reset()
        obs.enable()
        try:
            run_contracts(["hypercube"])
            rep = obs.report()
            counters = rep["counters"]
            assert counters["check.contracts.families"] == 1
            assert counters["check.contracts.checks"] >= 4
            assert counters["check.contracts.failures"] == 0
        finally:
            obs.disable()
            obs.reset()
