"""Test oracle for the batched exhaustive fault sweep.

This is the per-pattern brute force that
:func:`repro.fault.percolation.exhaustive_fault_sweep` replaced: every
``C(·, k)`` pattern is materialized as a user-facing tuple, its survivor
graph is labeled alone (a batch of one :func:`masked_components` row) and
reduced by a per-row ``np.unique``, and the integer verdicts are summed.
It is kept verbatim in behaviour, minus the orbit-collapse bookkeeping
(``orbits``/``collapse_ratio``) and the process-pool fan-out, so the
production summary and disconnecting list can be compared exactly.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from repro.core.network import Network
from repro.fault.percolation import masked_components
from repro.fault.plan import _undirected_edges

_VERDICT_KEYS = ("alive", "components", "giant", "conn_pairs", "total_pairs")


def _pattern_array(net: Network, k: int, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """All ``C(·, k)`` fault patterns as element-index combos."""
    n = net.num_nodes
    if kind == "node":
        elements = np.arange(n, dtype=np.int64)
    else:
        edges = _undirected_edges(net)
        elements = edges[:, 0] * n + edges[:, 1]
    count = len(elements)
    if k > count:
        raise ValueError(f"cannot fault {k} {kind}s: {net.name!r} has only {count}")
    if k == 0:
        return elements, np.empty((1, 0), dtype=np.int64)
    combos = np.asarray(list(combinations(range(count), k)), dtype=np.int64).reshape(-1, k)
    return elements, combos


def _pattern_tuple(net: Network, elements: np.ndarray, idx: tuple[int, ...], kind: str):
    """Element indices -> the user-facing fault pattern (ids or pairs)."""
    if kind == "node":
        return tuple(int(elements[i]) for i in idx)
    n = net.num_nodes
    return tuple((int(elements[i]) // n, int(elements[i]) % n) for i in idx)


def _row_sums(label_row: np.ndarray, alive_row: np.ndarray) -> dict:
    """Integer connectivity primitives of one survivor graph."""
    live = label_row[alive_row]
    alive = int(len(live))
    if alive == 0:
        return dict.fromkeys(_VERDICT_KEYS, 0)
    _, counts = np.unique(live, return_counts=True)
    return {
        "alive": alive,
        "components": int(len(counts)),
        "giant": int(counts.max()),
        "conn_pairs": int((counts * (counts - 1)).sum()),
        "total_pairs": alive * (alive - 1),
    }


def _pattern_verdict(net: Network, kind: str, pattern) -> dict:
    """Survivor-graph verdict of one fault pattern."""
    n = net.num_nodes
    edges = _undirected_edges(net)
    node_alive = np.ones(n, dtype=bool)
    edge_alive = np.ones(len(edges), dtype=bool)
    if kind == "node":
        node_alive[list(pattern)] = False
    else:
        codes = edges[:, 0] * n + edges[:, 1]
        dead = np.asarray([u * n + v for u, v in pattern], dtype=np.int64)
        edge_alive &= ~np.isin(codes, dead)
    labels = masked_components(net, node_alive, edge_alive)
    sums = _row_sums(labels[0], node_alive)
    sums["connected"] = bool(sums["alive"] > 0 and sums["components"] == 1)
    return sums


def _summary(verdicts: list[dict], patterns: int) -> dict:
    sums = {k: 0 for k in _VERDICT_KEYS}
    connected = 0
    min_giant = None
    for v in verdicts:
        for k in _VERDICT_KEYS:
            sums[k] += v[k]
        if v["connected"]:
            connected += 1
        if min_giant is None or v["giant"] < min_giant:
            min_giant = v["giant"]
    return {
        "patterns": patterns,
        "connected_patterns": connected,
        "disconnected_patterns": patterns - connected,
        "all_connected": connected == patterns,
        "mean_components": sums["components"] / patterns if patterns else float("nan"),
        "min_giant": min_giant if min_giant is not None else 0,
        "routability": (
            sums["conn_pairs"] / sums["total_pairs"] if sums["total_pairs"] else 1.0
        ),
        "sums": sums,
    }


def brute_force_fault_sweep(net: Network, k: int, *, kind: str = "node") -> dict:
    """Evaluate every ``C(·, k)`` fault pattern directly, one at a time.

    Returns the production result's keys: ``summary`` and the
    ``disconnecting`` patterns in enumeration order, plus one ``patterns``
    row per pattern with its verdict.
    """
    if kind == "node" and k >= net.num_nodes:
        raise ValueError("cannot fault every node")
    elements, combos = _pattern_array(net, k, kind)
    patterns = [
        _pattern_tuple(net, elements, tuple(int(i) for i in row), kind) for row in combos
    ]
    verdicts = [_pattern_verdict(net, kind, p) for p in patterns]
    return {
        "network": net.name,
        "kind": kind,
        "k": k,
        "summary": _summary(verdicts, len(patterns)),
        "disconnecting": [p for p, v in zip(patterns, verdicts) if not v["connected"]],
        "patterns": [{"pattern": p, **v} for p, v in zip(patterns, verdicts)],
    }
