"""Paper-invariant contract checker (``python -m repro.check contracts``).

Builds every ``REGISTRY`` family at its smallest useful parameters and
verifies the machine-checkable contracts the paper's constructions must
preserve (cf. Ganesan, *Cayley graphs and symmetric interconnection
networks*: symmetry/regularity properties are exactly the checkable
invariants of these families):

========  =============================================================
CTR001    Node count matches the closed form (Theorem 3.2's ``M^l`` for
          super-IP families, ``|A|·M^l`` for symmetric variants —
          ``l!·M^l`` for symmetric HSN, ``l·M^l`` for symmetric CN —
          and the standard formulas for the classic families).
CTR002    Degree regularity for Cayley/symmetric variants and the
          regular classics.
CTR003    Generator closure on IP graphs: every generator maps every
          node label to a node label, involutions are self-inverse, and
          each generator image is an actual neighbor.
CTR004    Undirected adjacency CSR is symmetric (A == Aᵀ).
CTR005    ``node_of(label_of(i)) == i`` round-trips for every node.
CTR006    Diameter equals ``l·D_G + t`` (Theorem 4.1 / Corollary 4.2;
          ``t_S`` per Theorem 4.3 for symmetric variants) on the small
          HSN/CN instances, and matches pinned values elsewhere.
CTR007    The instance is connected (strongly, for directed families).
CTR008    Sweep coverage: every registered family has a contract spec —
          adding a family without one fails the sweep.
========  =============================================================

Findings reuse the shared :class:`~repro.check.findings.Report` model, so
the CLI, exit codes, and obs counters are identical to the lint layer.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

from repro import obs
from repro.core.ipgraph import IPGraph
from repro.core.network import Network

from .findings import Finding, Report

__all__ = ["FamilySpec", "FAMILY_SPECS", "check_network", "check_family", "run_contracts"]


# ----------------------------------------------------------------------
# per-family contract specs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FamilySpec:
    """Smallest-parameter contract expectations for one registry family.

    ``expected_nodes``/``expected_diameter`` are the closed forms from the
    paper evaluated at ``params`` (the formula is quoted next to each
    spec).  ``superip`` names the super-generator family + nucleus so the
    sweep can *recompute* ``M^l`` (Theorem 3.2) and ``l·D_G + t``
    (Theorem 4.1) live instead of trusting pinned numbers.  ``symmetric``
    adds a symmetric-variant sub-check (Theorems 3.5/4.3): node count
    ``|A|·M^l`` and regular degree.
    """

    params: dict = field(default_factory=dict)
    expected_nodes: int | None = None
    expected_diameter: int | None = None
    regular: bool | None = None
    #: (sgs_factory_name, l, nucleus_builder) — enables live formula checks
    superip: tuple[str, int, Callable[[], "object"]] | None = None
    #: params for the symmetric variant, or None when unsupported
    symmetric_params: dict | None = None
    expected_symmetric_nodes: int | None = None


def _q(n: int) -> Callable[[], object]:
    from repro.networks.nuclei import hypercube_nucleus

    return lambda: hypercube_nucleus(n)


def _k(m: int) -> Callable[[], object]:
    from repro.networks.nuclei import complete_nucleus

    return lambda: complete_nucleus(m)


def _star(n: int) -> Callable[[], object]:
    from repro.networks.nuclei import star_nucleus

    return lambda: star_nucleus(n)


#: registry name -> spec; the sweep fails (CTR008) on any registry family
#: missing from this table, so new families must declare their contracts.
FAMILY_SPECS: dict[str, FamilySpec] = {
    # ---- baselines (standard closed forms) ---------------------------
    "ring": FamilySpec({"n": 5}, 5, 5 // 2, True),  # N=n, D=⌊n/2⌋
    "path": FamilySpec({"n": 5}, 5, 4, False),  # D=n−1
    "mesh": FamilySpec({"dims": [2, 3]}, 6, 3, False),  # D=Σ(d−1)
    "torus": FamilySpec({"dims": [3, 3]}, 9, 2, True),  # D=Σ⌊d/2⌋
    "kary_ncube": FamilySpec({"k": 3, "n": 2}, 9, 2, True),  # N=k^n
    "hypercube": FamilySpec({"n": 3}, 8, 3, True),  # N=2^n, D=n
    "folded_hypercube": FamilySpec({"n": 3}, 8, 2, True),  # D=⌈n/2⌉
    "generalized_hypercube": FamilySpec({"radices": [2, 3]}, 6, 2, True),  # N=Πr, D=#dims
    "complete": FamilySpec({"n": 5}, 5, 1, True),
    "petersen": FamilySpec({}, 10, 2, True),  # the degree-3 Moore graph
    "star": FamilySpec({"n": 3}, 6, 3, True),  # N=n!, D=⌊3(n−1)/2⌋
    "pancake": FamilySpec({"n": 3}, 6, 3, True),  # N=n!
    "bubble_sort": FamilySpec({"n": 3}, 6, 3, True),  # N=n!, D=n(n−1)/2
    "debruijn": FamilySpec({"d": 2, "n": 2}, 4, 2, False),  # N=d^n, D=n
    "kautz": FamilySpec({"d": 2, "n": 2}, 6, 2, None),  # N=d^n+d^(n−1)
    "shuffle_exchange": FamilySpec({"n": 3}, 8, 5, False),  # N=2^n, D=2n−1
    "ccc": FamilySpec({"n": 3}, 24, 6, True),  # N=n·2^n, ccc_diameter(n)
    "butterfly": FamilySpec({"n": 3}, 24, 4, True),  # N=n·2^n
    # ---- two-level explicit ------------------------------------------
    "hcn": FamilySpec({"n": 1}, 4, 2, True),  # N=4^n
    "hfn": FamilySpec({"n": 1}, 4, 2, True),  # N=4^n
    # ---- super-IP families over Q_n nuclei (Theorems 3.2/4.1/4.3) ----
    "hsn": FamilySpec(
        {"l": 2, "n": 1},
        superip=("transpositions", 2, _q(1)),
        symmetric_params={"l": 2, "n": 1},
        expected_symmetric_nodes=math.factorial(2) * 2**2,  # l!·M^l
    ),
    "ring_cn": FamilySpec(
        {"l": 2, "n": 1},
        superip=("ring", 2, _q(1)),
        symmetric_params={"l": 2, "n": 1},
        expected_symmetric_nodes=2 * 2**2,  # l·M^l
    ),
    "complete_cn": FamilySpec(
        {"l": 2, "n": 1},
        superip=("complete_shifts", 2, _q(1)),
        symmetric_params={"l": 2, "n": 1},
        expected_symmetric_nodes=2 * 2**2,  # l·M^l
    ),
    "super_flip": FamilySpec(
        {"l": 2, "n": 1},
        superip=("flips", 2, _q(1)),
        symmetric_params={"l": 2, "n": 1},
        expected_symmetric_nodes=2 * 2**2,  # |A|·M^l with |A|=2 flips at l=2
    ),
    "rcc": FamilySpec({"l": 2, "m": 3}, superip=("transpositions", 2, _k(3))),
    "macro_star_like": FamilySpec({"l": 2, "n": 3}, superip=("transpositions", 2, _star(3))),
    "cyclic_petersen": FamilySpec({"l": 2}, 100, 5, None),  # N=10^l, D=l·2+t
    "macro_star": FamilySpec({"l": 2, "n": 2}, 120, 8, True),  # N=(l·n+1)!/... = 5!
    "rotator": FamilySpec({"n": 3}, 6, 2, True),  # N=n! (directed)
    "scc": FamilySpec({"n": 3}, 12, 6, True),  # N=(n−1)·n!/... per SCC(3)
    "qcn": FamilySpec({"l": 2, "n": 2, "merge_bits": 1}, 8, 3, False),  # N=M^l/2^b
    "hse": FamilySpec({"l": 2, "n": 2}, 16, 7, False),  # N=M^l with M=2^n
    "hhn": FamilySpec({"l": 2, "n": 1}, 16, 7, False),
    "rhsn": FamilySpec({"levels": 2, "n": 1}, 4, 3, False),  # = HSN(2, Q_1)
    # ---- IP-engine twins of classics (must match the explicit builds) -
    "hypercube_ip": FamilySpec({"n": 3}, 8, 3, True),
    "star_ip": FamilySpec({"n": 3}, 6, 3, True),
    "pancake_ip": FamilySpec({"n": 3}, 6, 3, True),
    "shuffle_exchange_ip": FamilySpec({"n": 3}, 8, 5, False),
    "debruijn_ip": FamilySpec({"n": 3}, 8, 3, None),  # directed dB(2,3)
}


def _instance(name: str, params: dict) -> str:
    inner = ", ".join(f"{k}={v}" for k, v in params.items())
    return f"{name}({inner})"


# ----------------------------------------------------------------------
# structural contracts on a built network
# ----------------------------------------------------------------------
def check_network(
    net: Network,
    where: str,
    report: Report,
    expected_nodes: int | None = None,
    expected_diameter: int | None = None,
    regular: bool | None = None,
) -> None:
    """Run the structural contracts (CTR001–CTR007) on one built network.

    Appends findings to ``report``; ``where`` labels them (usually
    ``family(params)``).
    """
    # CTR001 node count
    report.checked += 1
    if expected_nodes is not None and net.num_nodes != expected_nodes:
        report.add(
            Finding(
                where,
                0,
                "CTR001",
                f"node count {net.num_nodes} != closed-form {expected_nodes}",
            )
        )
    # CTR005 label round-trips
    report.checked += 1
    bad = [i for i in range(net.num_nodes) if net.node_of(net.label_of(i)) != i]
    if bad:
        report.add(
            Finding(
                where,
                0,
                "CTR005",
                f"node_of(label_of(i)) != i for {len(bad)} nodes (first: {bad[0]})",
            )
        )
    # CTR004 undirected CSR symmetry
    if not net.directed:
        report.checked += 1
        a = net.adjacency_csr()
        if (a != a.T).nnz != 0:
            report.add(Finding(where, 0, "CTR004", "undirected adjacency CSR is not symmetric"))
    # CTR007 connectivity
    from repro.metrics.distances import is_connected

    report.checked += 1
    if not is_connected(net):
        report.add(Finding(where, 0, "CTR007", "network is not connected"))
    # CTR002 regularity
    if regular is not None:
        report.checked += 1
        if net.is_regular() != regular:
            deg = net.degree_histogram()
            report.add(
                Finding(
                    where,
                    0,
                    "CTR002",
                    f"expected {'regular' if regular else 'non-regular'} degrees, "
                    f"got histogram {deg}",
                )
            )
    # CTR003 generator closure (IP graphs only)
    if isinstance(net, IPGraph):
        report.checked += 1
        problems = _generator_closure_problems(net)
        for p in problems[:3]:
            report.add(Finding(where, 0, "CTR003", p))
        if len(problems) > 3:
            report.add(
                Finding(where, 0, "CTR003", f"... and {len(problems) - 3} more closure violations")
            )
    # CTR006 diameter
    if expected_diameter is not None and net.num_nodes <= 5000:
        from repro.metrics.distances import diameter

        report.checked += 1
        d = diameter(net)
        if d != expected_diameter:
            report.add(
                Finding(
                    where,
                    0,
                    "CTR006",
                    f"diameter {d} != expected {expected_diameter} (= l·D_G + t "
                    "for super-IP families, Theorem 4.1)",
                )
            )


def _generator_closure_problems(net: IPGraph) -> list[str]:
    """Violations of the generator-closure contract on an IP graph."""
    problems: list[str] = []
    neigh_cache: dict[int, set[int]] = {}

    def neighbors(i: int) -> set[int]:
        if i not in neigh_cache:
            neigh_cache[i] = set(net.neighbors(i))
        return neigh_cache[i]

    for g, gen in enumerate(net.generators):
        involution = gen.perm.is_involution()
        for i, lab in enumerate(net.labels):
            try:
                img = gen(lab)
            except Exception as exc:
                problems.append(
                    f"generator {gen.name} cannot act on node {i} ({lab!r}): "
                    f"{type(exc).__name__}: {exc}"
                )
                continue
            try:
                j = net.node_of(img)
            except KeyError:
                problems.append(
                    f"generator {gen.name} maps node {i} ({lab!r}) outside the "
                    f"vertex set (to {img!r})"
                )
                continue
            if j != i and j not in neighbors(i):
                problems.append(
                    f"generator {gen.name} image of node {i} (node {j}) is not "
                    "an adjacent vertex"
                )
            if involution and gen(img) != lab:
                problems.append(
                    f"involution generator {gen.name} is not self-inverse at node {i}"
                )
        if len(problems) > 8:
            break
    return problems


# ----------------------------------------------------------------------
# family sweep
# ----------------------------------------------------------------------
def _superip_expectations(spec: FamilySpec) -> tuple[int, int]:
    """(expected nodes, expected diameter) recomputed from the paper's
    closed forms: Theorem 3.2 (``M^l``) and Theorem 4.1 (``l·D_G + t``)."""
    from repro.core.superip import SuperGeneratorSet, diameter_formula, super_ip_size

    sgs_name, l, nucleus_factory = spec.superip  # type: ignore[misc]
    sgs = getattr(SuperGeneratorSet, sgs_name)(l)
    nucleus = nucleus_factory()
    return (
        super_ip_size(nucleus.size(), l),
        diameter_formula(nucleus.diameter(), sgs),
    )


def check_family(name: str, spec: FamilySpec | None = None) -> Report:
    """Contract-check one registry family at its smallest parameters."""
    from repro.networks.registry import build

    if spec is None:
        spec = FAMILY_SPECS.get(name)
    report = Report()
    if spec is None:
        report.add(
            Finding(
                name,
                0,
                "CTR008",
                "registry family has no contract spec in "
                "repro.check.invariants.FAMILY_SPECS — add one",
            )
        )
        return report
    where = _instance(name, spec.params)
    try:
        net = build(name, **spec.params)
    except Exception as exc:  # building at the spec's params must succeed
        report.add(Finding(where, 0, "CTR001", f"build failed: {type(exc).__name__}: {exc}"))
        return report
    expected_nodes = spec.expected_nodes
    expected_diameter = spec.expected_diameter
    regular = spec.regular
    if spec.superip is not None:
        expected_nodes, expected_diameter = _superip_expectations(spec)
    check_network(
        net,
        where,
        report,
        expected_nodes=expected_nodes,
        expected_diameter=expected_diameter,
        regular=regular,
    )
    if spec.symmetric_params is not None:
        sym_where = _instance(name, {**spec.symmetric_params, "symmetric": True})
        try:
            sym = build(name, symmetric=True, **spec.symmetric_params)
        except Exception as exc:
            report.add(
                Finding(sym_where, 0, "CTR001", f"build failed: {type(exc).__name__}: {exc}")
            )
            return report
        sym_diameter = None
        if spec.superip is not None:
            from repro.core.superip import SuperGeneratorSet, symmetric_diameter_formula

            sgs_name, l, nucleus_factory = spec.superip
            sgs = getattr(SuperGeneratorSet, sgs_name)(l)
            sym_diameter = symmetric_diameter_formula(nucleus_factory().diameter(), sgs)
        # Cayley variants are vertex-transitive, hence regular (Thm 3.5)
        check_network(
            sym,
            sym_where,
            report,
            expected_nodes=spec.expected_symmetric_nodes,
            expected_diameter=sym_diameter,
            regular=True,
        )
    return report


def _family_task(_ctx: None, name: str) -> Report:
    """Process-pool task: contract-check one family (reports are picklable)."""
    return check_family(name)


def run_contracts(families: list[str] | None = None, jobs: int = 1) -> Report:
    """Contract-sweep the registry (all families, or a named subset).

    CTR008 guarantees 100% coverage: any registered family without a
    spec — or any spec naming a family that no longer exists — fails.

    ``jobs`` fans the per-family checks out over a process pool (``0`` =
    all cores); findings are merged in family order, so the rendered
    report is identical to a serial sweep.
    """
    from repro.networks.registry import available
    from repro.parallel import run_tasks

    names = available() if families is None else list(families)
    report = Report()
    with obs.span("check.contracts", families=len(names), jobs=jobs):
        for family_report in run_tasks(_family_task, None, names, jobs=jobs):
            report.extend(family_report)
        if families is None:
            for name in sorted(set(FAMILY_SPECS) - set(names)):
                report.add(
                    Finding(
                        name,
                        0,
                        "CTR008",
                        "contract spec exists but the family is not in the registry",
                    )
                )
                report.checked += 1
        reg = obs.registry()
        reg.incr("check.contracts.families", len(names))
        reg.incr("check.contracts.checks", report.checked)
        reg.incr("check.contracts.failures", len(report.findings))
    return report
