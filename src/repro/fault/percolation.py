"""Percolation sweeps: where does the network actually break?

Jin & Reidys (arXiv:0909.4037) study random induced subgraphs of
transposition Cayley graphs — exactly the symmetric super-IP families of
the paper — and show a sharp giant-component threshold in the survival
probability.  This module measures that curve empirically for *any*
registry family: each node (or link) survives independently with
probability ``p``, and the survivor graph's connectivity is summarized as
a function of ``p``.

Engine shape:

* **Monotone coupling.**  Each trial draws one uniform per node (or per
  link) and an entity survives at probability ``p`` iff its draw is
  ``< p``.  Survivor sets are therefore *nested* across the probability
  grid — the same trial at a higher ``p`` keeps strictly more of the
  network — so giant-component curves are monotone in ``p`` sample by
  sample, not just in expectation, and comparisons across ``p`` are
  paired.
* **Batched components.**  Connected components for all grid points of a
  trial are labeled in one flat pass: surviving edges of every grid point
  are packed into a single offset graph, labeled by
  :func:`scipy.sparse.csgraph.connected_components`, and each component is
  renamed to its smallest node id by one first-occurrence pass — no
  per-node Python loops (the ``percolation.components`` obs counter
  tallies components found).
* **Exhaustive certification.**  :func:`exhaustive_fault_sweep` labels
  every ``k``-fault pattern, not a sample: patterns stream through the
  same labeler in fixed-size ``(B, n)`` mask chunks, and the patterns that
  disconnect the network come back as counterexamples.
* **Deterministic fan-out.**  Trials are independent tasks whose RNG
  streams derive from ``(seed, trial)`` alone, so ``jobs`` fans them out
  over a process pool with bit-identical results to the serial run (see
  :mod:`repro.parallel`).

The aggregate rows use pooled integer sums (survivor counts, giant sizes,
connected pair counts) divided once at the end, so results are exactly
reproducible regardless of aggregation order.
"""

from __future__ import annotations

import math
from itertools import combinations, islice

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro.core.network import Network
from repro.parallel import run_tasks
from repro.sim.simulator import PacketSimulator
from repro.sim.workloads import uniform_random_array

from .plan import FaultPlan, _undirected_edges

__all__ = [
    "percolation_sweep",
    "percolation_comparison",
    "estimate_threshold",
    "threshold_traffic_runs",
    "default_probability_grid",
    "masked_components",
    "exhaustive_fault_sweep",
]


def default_probability_grid() -> list[float]:
    """The default survival-probability grid: 0.05 to 1.0 in steps of 0.05."""
    return [round(0.05 * i, 2) for i in range(1, 21)]


def _validated_probs(probs) -> np.ndarray:
    """A non-empty, strictly increasing survival-probability grid in [0, 1].

    Raises a descriptive ``ValueError`` otherwise — threshold estimation
    interpolates adjacent grid points in order, so an empty, unsorted, or
    out-of-range grid would silently produce a meaningless answer.
    """
    out = np.asarray([float(p) for p in probs], dtype=np.float64)
    if out.size == 0:
        raise ValueError("probs must be a non-empty list of survival probabilities")
    for p in out:
        if not 0.0 <= p <= 1.0 or math.isnan(p):
            raise ValueError(f"survival probabilities must lie in [0, 1], got {p!r}")
    if (np.diff(out) <= 0).any():
        raise ValueError(
            f"probs must be strictly increasing (threshold estimation "
            f"interpolates them in order), got {out.tolist()!r}"
        )
    return out


# ----------------------------------------------------------------------
# batched connected components
# ----------------------------------------------------------------------
def masked_components(
    net: Network,
    node_alive: np.ndarray | None = None,
    edge_alive: np.ndarray | None = None,
) -> np.ndarray:
    """Connected-component labels of one or many masked survivor graphs.

    ``node_alive`` / ``edge_alive`` are boolean masks over the nodes and
    the sorted undirected edge list (:func:`edge_list` order); either may
    be 1-D (one mask) or 2-D ``(B, ·)`` (a batch of masks, labeled in one
    flat ``connected_components`` pass).  An edge survives iff its own
    mask entry and both endpoint entries are alive.  Returns int labels shaped like
    ``node_alive`` broadcast to ``(B, n)``; dead nodes are labeled ``-1``,
    live nodes carry the smallest live node id of their component.
    """
    n = net.num_nodes
    edges = _undirected_edges(net)
    src, dst = edges[:, 0], edges[:, 1]
    if node_alive is None:
        node_alive = np.ones(n, dtype=bool)
    node_alive = np.atleast_2d(np.asarray(node_alive, dtype=bool))
    batch = node_alive.shape[0]
    if node_alive.shape != (batch, n):
        raise ValueError(f"node_alive must be (B, {n}), got {node_alive.shape}")
    if edge_alive is None:
        edge_alive = np.ones((batch, len(src)), dtype=bool)
    edge_alive = np.atleast_2d(np.asarray(edge_alive, dtype=bool))
    if edge_alive.shape != (batch, len(src)):
        raise ValueError(
            f"edge_alive must be (B, {len(src)}), got {edge_alive.shape}"
        )
    live_edge = edge_alive & node_alive[:, src] & node_alive[:, dst]
    b_idx, e_idx = np.nonzero(live_edge)
    flat_src = b_idx * n + src[e_idx]
    flat_dst = b_idx * n + dst[e_idx]
    total = batch * n
    # edges are sorted by (u, v) and np.nonzero is row-major, so flat_src
    # is sorted: the CSR is built directly, in the float64 / int32 form
    # csgraph works on, so it is not converted again
    indptr = np.zeros(total + 1, dtype=np.int32)
    np.cumsum(np.bincount(flat_src, minlength=total), out=indptr[1:])
    graph = sp.csr_matrix(
        (np.ones(len(flat_dst)), flat_dst.astype(np.int32), indptr), shape=(total, total)
    )
    # attribute access loads scipy.sparse.csgraph on first use, not at import
    ncomp, comp = sp.csgraph.connected_components(graph, directed=False)
    # first-occurrence pass: each component's smallest flat id names it
    first = np.full(ncomp, total, dtype=np.int64)
    np.minimum.at(first, comp, np.arange(total, dtype=np.int64))
    label = first[comp].reshape(batch, n)
    label -= np.arange(batch, dtype=np.int64)[:, None] * n  # back to node ids
    label[~node_alive] = -1
    # dead nodes have no live edge, so each is a singleton component
    live_components = ncomp - (total - int(np.count_nonzero(node_alive)))
    obs.registry().incr("percolation.components", live_components)
    return label


def _component_sums(labels: np.ndarray) -> dict[str, np.ndarray]:
    """Integer connectivity primitives of a batch of survivor graphs.

    ``labels`` is :func:`masked_components` output, ``(B, n)`` with dead
    nodes at ``-1``.  One ``bincount`` over row-offset labels (shifted by
    one, so each row's dead nodes land in its own leading bin) gives every
    component's size; returns per-row ``int64`` arrays ``alive``,
    ``components``, ``giant``, ``conn_pairs`` (ordered connected pairs)
    and ``total_pairs``.
    """
    batch, n = labels.shape
    keys = labels + (np.arange(batch, dtype=np.int64)[:, None] * (n + 1) + 1)
    counts = np.bincount(keys.ravel(), minlength=batch * (n + 1)).reshape(batch, n + 1)
    sizes = counts[:, 1:]
    alive = n - counts[:, 0]
    return {
        "alive": alive,
        "components": np.count_nonzero(sizes, axis=1),
        "giant": sizes.max(axis=1, initial=0),
        "conn_pairs": np.einsum("ij,ij->i", sizes, sizes) - alive,
        "total_pairs": alive * (alive - 1),
    }


# ----------------------------------------------------------------------
# exhaustive k-fault certification
# ----------------------------------------------------------------------
#: mask entries (nodes + links per pattern) labeled per masked_components
#: call; a chunk of ``EXHAUSTIVE_CHUNK // (n + m)`` patterns keeps each
#: call's flat CSR at a few MiB
EXHAUSTIVE_CHUNK = 1 << 20


def _validated_k(k, count: int, kind: str, net: Network) -> int:
    """``k`` as an int in ``[0, count]`` faultable elements (fewer than N
    for nodes), or a ``ValueError`` naming the bad value."""
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise ValueError(f"fault count k must be an integer, got {k!r}")
    if k < 0:
        raise ValueError(f"fault count k must be >= 0, got {k}")
    if kind == "node" and k >= count:
        raise ValueError(
            f"cannot fault every node: k={k} but {net.name!r} has N={count} nodes"
        )
    if k > count:
        raise ValueError(f"cannot fault {k} {kind}s: {net.name!r} has only {count}")
    return int(k)


def exhaustive_fault_sweep(net: Network, k: int, *, kind: str = "node") -> dict:
    """Certify *every* pattern of ``k`` node or link faults.

    Streams all ``C(·, k)`` patterns of :func:`itertools.combinations`
    in chunks of ``EXHAUSTIVE_CHUNK // (n + m)``; each chunk becomes one
    ``(B, n)`` node mask or ``(B, m)`` link mask (links in
    :func:`edge_list` order), labeled by one :func:`masked_components`
    call and reduced by one :func:`_component_sums`.

    Returns a dict with ``"summary"`` — integer sums over all patterns
    (``"sums"``) and the counts and ratios derived from them — and
    ``"disconnecting"``, every pattern whose survivor graph is not one
    component, in enumeration order: node-id tuples for ``kind="node"``,
    tuples of undirected ``(u, v)`` pairs (``u < v``) for ``kind="link"``.
    Raises ``ValueError`` for a non-integer or negative ``k``, ``k >= N``
    node faults, more link faults than links, or an unknown ``kind``.
    """
    if kind not in ("node", "link"):
        raise ValueError(f"fault kind must be 'node' or 'link', got {kind!r}")
    n = net.num_nodes
    edges = _undirected_edges(net)
    count = n if kind == "node" else len(edges)
    k = _validated_k(k, count, kind, net)
    rows = max(1, EXHAUSTIVE_CHUNK // (n + len(edges)))
    sums = dict.fromkeys(("alive", "components", "giant", "conn_pairs", "total_pairs"), 0)
    patterns = connected = 0
    min_giant = n
    disconnecting = []
    combos = combinations(range(count), k)
    with obs.span("fault.exhaustive", network=net.name, k=k, kind=kind):
        while block := list(islice(combos, rows)):
            idx = np.array(block, dtype=np.int64).reshape(len(block), k)
            node_alive = np.ones((len(block), n), dtype=bool)
            edge_alive = np.ones((len(block), len(edges)), dtype=bool)
            hit = node_alive if kind == "node" else edge_alive
            hit[np.arange(len(block))[:, None], idx] = False
            out = _component_sums(masked_components(net, node_alive, edge_alive))
            for key in sums:
                sums[key] += int(out[key].sum())
            ok = (out["alive"] > 0) & (out["components"] == 1)
            patterns += len(block)
            connected += int(np.count_nonzero(ok))
            min_giant = min(min_giant, int(out["giant"].min()))
            if kind == "node":
                disconnecting.extend(tuple(p) for p in idx[~ok].tolist())
            else:
                disconnecting.extend(tuple(map(tuple, p)) for p in edges[idx[~ok]].tolist())
    summary = {
        "patterns": patterns,
        "connected_patterns": connected,
        "disconnected_patterns": patterns - connected,
        "all_connected": connected == patterns,
        "mean_components": sums["components"] / patterns,
        "min_giant": min_giant,
        "routability": (
            sums["conn_pairs"] / sums["total_pairs"] if sums["total_pairs"] else 1.0
        ),
        "sums": sums,
    }
    return {
        "network": net.name,
        "kind": kind,
        "k": k,
        "summary": summary,
        "disconnecting": disconnecting,
    }


# ----------------------------------------------------------------------
# the sweep
# ----------------------------------------------------------------------
def _survival_masks(
    net: Network,
    num_edges: int,
    probs: np.ndarray,
    kind: str,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coupled survival masks for one trial: ``(node_alive, edge_alive, u)``.

    One uniform draw per entity; entity survives at grid point ``i`` iff
    its draw is ``< probs[i]`` — the monotone coupling described in the
    module docstring.  ``u`` is the raw draw vector (what
    :func:`threshold_traffic_runs` turns into a :class:`FaultPlan`).
    """
    n = net.num_nodes
    grid = len(probs)
    if kind == "node":
        u = rng.random(n)
        node_alive = u[None, :] < probs[:, None]
        edge_alive = np.ones((grid, num_edges), dtype=bool)
    else:
        u = rng.random(num_edges)
        node_alive = np.ones((grid, n), dtype=bool)
        edge_alive = u[None, :] < probs[:, None]
    return node_alive, edge_alive, u


def _percolation_trial(ctx: dict, trial: int) -> list[dict]:
    """One seeded trial: per-grid-point integer connectivity primitives.

    Module-level so the process pool can pickle it; all randomness derives
    from ``(seed, trial)``, never from execution order.
    """
    net = ctx["net"]
    probs = np.asarray(ctx["probs"], dtype=np.float64)
    num_edges = net.adjacency_csr(directed=False).nnz // 2  # loop-free, symmetric
    rng = np.random.default_rng([ctx["seed"], 7_919, trial])
    node_alive, edge_alive, _ = _survival_masks(
        net, num_edges, probs, ctx["kind"], rng
    )
    sums = _component_sums(masked_components(net, node_alive, edge_alive))
    return [
        {key: int(col[i]) for key, col in sums.items()} for i in range(len(probs))
    ]


def percolation_sweep(
    net: Network,
    probs: list[float] | None = None,
    trials: int = 8,
    *,
    kind: str = "node",
    seed: int = 0,
    jobs: int = 1,
) -> list[dict]:
    """Survivor-graph connectivity vs survival probability, one row per ``p``.

    For each grid point ``p`` of ``probs`` (default
    :func:`default_probability_grid`) and each of ``trials`` seeded
    trials, every node (``kind="node"``) or undirected link
    (``kind="link"``) survives independently with probability ``p``; the
    row aggregates the trials' survivor graphs:

    * ``alive_frac`` — surviving-node fraction (pooled over trials);
    * ``components`` — mean component count among survivors;
    * ``giant_frac`` — largest-component size over *total* nodes (pooled;
      monotone in ``p`` by the coupling, so threshold interpolation on it
      is well-posed);
    * ``routability`` — probability that two distinct random survivors
      are connected (pooled pair counts).

    ``jobs`` fans trials out over a process pool (``0`` = all cores) with
    results bit-identical to ``jobs=1``.  Raises ``ValueError`` for an
    empty/unsorted/out-of-range grid, ``kind`` not ``"node"``/``"link"``,
    or ``trials < 1``.
    """
    if kind not in ("node", "link"):
        raise ValueError(f"percolation kind must be 'node' or 'link', got {kind!r}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    grid = _validated_probs(probs if probs is not None else default_probability_grid())
    ctx = {"net": net, "probs": grid.tolist(), "kind": kind, "seed": seed}
    with obs.span("fault.percolation", network=net.name, grid=len(grid), trials=trials):
        per_trial = run_tasks(_percolation_trial, ctx, list(range(trials)), jobs=jobs)
    n = net.num_nodes
    rows = []
    for i, p in enumerate(grid.tolist()):
        sums = {k: 0 for k in ("alive", "components", "giant", "conn_pairs", "total_pairs")}
        for trial_rows in per_trial:
            for k in sums:
                sums[k] += trial_rows[i][k]
        rows.append(
            {
                "network": net.name,
                "kind": kind,
                "p": p,
                "trials": trials,
                "alive_frac": sums["alive"] / (trials * n) if n else 0.0,
                "components": sums["components"] / trials,
                "giant_frac": sums["giant"] / (trials * n) if n else 0.0,
                "routability": (
                    sums["conn_pairs"] / sums["total_pairs"]
                    if sums["total_pairs"]
                    else 1.0
                ),
            }
        )
    return rows


def estimate_threshold(rows: list[dict], target: float = 0.5) -> float:
    """Estimated percolation threshold from :func:`percolation_sweep` rows.

    The smallest survival probability at which the pooled giant-component
    fraction reaches ``target`` (default one half of all nodes), linearly
    interpolated between the bracketing grid points.  ``NaN`` when the
    curve never reaches the target on the swept grid.
    """
    if not rows:
        raise ValueError("rows must be non-empty percolation_sweep output")
    prev_p, prev_g = None, None
    for row in rows:
        p, g = float(row["p"]), float(row["giant_frac"])
        if g >= target:
            if prev_p is None or g == prev_g:
                return p
            return prev_p + (target - prev_g) * (p - prev_p) / (g - prev_g)
        prev_p, prev_g = p, g
    return float("nan")


# ----------------------------------------------------------------------
# degraded traffic at the threshold
# ----------------------------------------------------------------------
def _traffic_point(ctx: dict, p: float) -> dict:
    """One degraded-traffic run at survival probability ``p`` (picklable).

    The fault pattern reuses the sweep's trial-0 coupling draws: entities
    whose uniform is ``>= p`` fail at cycle 0, so the simulated fault sets
    are nested across probe points exactly like the structural sweep.
    """
    net = ctx["net"]
    kind = ctx["kind"]
    cycles = ctx["cycles"]
    edges = _undirected_edges(net)
    rng = np.random.default_rng([ctx["seed"], 7_919, 0])
    _, _, u = _survival_masks(
        net, len(edges), np.asarray([p], dtype=np.float64), kind, rng
    )
    plan = FaultPlan()
    if kind == "node":
        for v in sorted(np.nonzero(u >= p)[0].tolist()):
            plan.fail_node(0, v)
    else:
        for e in sorted(np.nonzero(u >= p)[0].tolist()):
            plan.fail_link(0, *edges[e].tolist())
    workload_rng = np.random.default_rng([ctx["seed"], 104_729])
    injections = uniform_random_array(net, ctx["rate"], cycles, workload_rng)
    sim = PacketSimulator(net, faults=plan)
    stats = sim.run(injections, max_cycles=cycles * ctx["max_cycles_factor"])
    return {
        "network": net.name,
        "kind": kind,
        "p": p,
        "failed": len(plan),
        "delivery_ratio": stats.delivery_ratio,
        "mean_latency": stats.mean_latency if stats.delivered else float("nan"),
        "dropped": stats.dropped,
        "rerouted": stats.rerouted,
    }


def threshold_traffic_runs(
    net: Network,
    threshold: float,
    *,
    kind: str = "node",
    delta: float = 0.15,
    rate: float = 0.05,
    cycles: int = 60,
    seed: int = 0,
    max_cycles_factor: int = 50,
    jobs: int = 1,
) -> list[dict]:
    """Seeded degraded-traffic runs at and around a percolation threshold.

    Probes survival probabilities ``threshold - delta``, ``threshold``,
    and ``threshold + delta`` (clipped to ``[0, 1]``, deduplicated):
    the fault pattern at each probe fails every entity whose trial-0
    coupling draw falls above the probe, and the batched event simulator
    drives uniform traffic through the survivors.  Delivery ratio is
    non-increasing as ``p`` drops for a fixed seed, because the fault sets
    are nested.

    ``jobs`` fans the probe points out (bit-identical to serial).  Raises
    ``ValueError`` for a non-finite or out-of-range ``threshold``.
    """
    if math.isnan(threshold) or not 0.0 <= threshold <= 1.0:
        raise ValueError(
            f"threshold must be a survival probability in [0, 1], got {threshold!r}"
        )
    if kind not in ("node", "link"):
        raise ValueError(f"percolation kind must be 'node' or 'link', got {kind!r}")
    probes = sorted(
        {round(min(1.0, max(0.0, threshold + d)), 6) for d in (-delta, 0.0, delta)}
    )
    ctx = {
        "net": net,
        "kind": kind,
        "rate": rate,
        "cycles": cycles,
        "seed": seed,
        "max_cycles_factor": max_cycles_factor,
    }
    return run_tasks(_traffic_point, ctx, probes, jobs=jobs)


def percolation_comparison(
    cases: list[Network] | None = None,
    probs: list[float] | None = None,
    trials: int = 8,
    *,
    kind: str = "node",
    seed: int = 0,
    jobs: int = 1,
    traffic: bool = True,
    rate: float = 0.05,
    cycles: int = 60,
) -> list[dict]:
    """Per-family percolation thresholds over a case list — the table
    behind ``python -m repro faults percolation``.

    Runs :func:`percolation_sweep` on every case (default: the paper's
    resilience comparison set, :func:`~repro.fault.sweep.default_resilience_cases`),
    estimates each family's threshold, and (with ``traffic=True``)
    measures delivered traffic at and around it.  One row per family.
    """
    from .sweep import default_resilience_cases

    if cases is None:
        cases = default_resilience_cases()
    rows = []
    for net in cases:
        sweep_rows = percolation_sweep(
            net, probs, trials, kind=kind, seed=seed, jobs=jobs
        )
        thr = estimate_threshold(sweep_rows)
        row = {
            "network": net.name,
            "kind": kind,
            "N": net.num_nodes,
            "threshold": round(thr, 4) if math.isfinite(thr) else thr,
            "giant_frac@thr": next(
                (
                    r["giant_frac"]
                    for r in sweep_rows
                    if math.isfinite(thr) and r["p"] >= thr
                ),
                float("nan"),
            ),
            "routability@1.0": sweep_rows[-1]["routability"],
        }
        if traffic and math.isfinite(thr):
            probe = threshold_traffic_runs(
                net,
                thr,
                kind=kind,
                rate=rate,
                cycles=cycles,
                seed=seed,
                jobs=jobs,
            )
            by_p = {r["p"]: r for r in probe}
            below, at, above = min(by_p), sorted(by_p)[len(by_p) // 2], max(by_p)
            row["delivery@thr-"] = by_p[below]["delivery_ratio"]
            row["delivery@thr"] = by_p[at]["delivery_ratio"]
            row["delivery@thr+"] = by_p[above]["delivery_ratio"]
        rows.append(row)
    return rows
