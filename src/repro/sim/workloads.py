"""Traffic workloads for the packet simulator.

The paper's comparisons assume "a random routing problem with uniformly
distributed sources and destinations" (§5.2); permutation workloads
(transpose, bit-reversal, complement) are the classic adversarial patterns
for hypercube-like networks and exercise the same code paths.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.core.network import Network

__all__ = [
    "uniform_random",
    "uniform_random_array",
    "permutation_traffic",
    "random_permutation_traffic",
    "bit_reversal_pairs",
    "transpose_pairs",
    "complement_pairs",
    "hotspot",
]


def uniform_random(
    net: Network, rate: float, cycles: int, rng: np.random.Generator
) -> list[tuple[int, int, int]]:
    """:func:`uniform_random_array` as a list of ``(t, src, dst)`` tuples:
    the same draws and the same rows, one tuple per row."""
    return list(map(tuple, uniform_random_array(net, rate, cycles, rng).tolist()))


def uniform_random_array(
    net: Network, rate: float, cycles: int, rng: np.random.Generator
) -> np.ndarray:
    """Bernoulli injection: each node injects a packet to a uniformly random
    other node with probability ``rate`` per cycle.

    Returns one ``(N, 3)`` int64 array of ``(t, src, dst)`` rows, sorted
    by ``(t, src)`` — the zero-copy input for million-packet runs.
    """
    if not 0 <= rate <= 1:
        raise ValueError("rate must be in [0, 1]")
    n = net.num_nodes
    chunks: list[np.ndarray] = []
    for t in range(cycles):
        srcs = np.nonzero(rng.random(n) < rate)[0]
        if len(srcs) == 0:
            continue
        dsts = rng.integers(0, n - 1, len(srcs))
        dsts = np.where(dsts >= srcs, dsts + 1, dsts)  # exclude self
        chunk = np.empty((len(srcs), 3), dtype=np.int64)
        chunk[:, 0] = t
        chunk[:, 1] = srcs
        chunk[:, 2] = dsts
        chunks.append(chunk)
    if not chunks:
        return np.empty((0, 3), dtype=np.int64)
    return np.concatenate(chunks, axis=0)


def permutation_traffic(
    pairs: list[tuple[int, int]], packets_per_pair: int = 1, spacing: int = 1
) -> list[tuple[int, int, int]]:
    """Every (src, dst) pair sends ``packets_per_pair`` packets, one every
    ``spacing`` cycles."""
    out = []
    for k in range(packets_per_pair):
        t = k * spacing
        out.extend((t, s, d) for s, d in pairs if s != d)
    return out


def random_permutation_traffic(
    net: Network, rng: np.random.Generator, packets_per_pair: int = 1
) -> list[tuple[int, int, int]]:
    """A uniformly random permutation: node ``i`` sends to ``perm[i]``."""
    perm = rng.permutation(net.num_nodes)
    return permutation_traffic(
        [(i, int(perm[i])) for i in range(net.num_nodes)], packets_per_pair
    )


def _bit_label_pairs(net: Network, f: Callable) -> list[tuple[int, int]]:
    node_of = net.node_of
    return [(i, node_of(f(lab))) for i, lab in enumerate(net.labels)]


def bit_reversal_pairs(net: Network) -> list[tuple[int, int]]:
    """Bit-reversal permutation on bit-tuple-labeled networks."""
    return _bit_label_pairs(net, lambda lab: tuple(reversed(lab)))


def transpose_pairs(net: Network) -> list[tuple[int, int]]:
    """Transpose permutation: swap the two halves of the label."""
    return _bit_label_pairs(
        net, lambda lab: lab[len(lab) // 2 :] + lab[: len(lab) // 2]
    )


def complement_pairs(net: Network) -> list[tuple[int, int]]:
    """Complement permutation on binary labels."""
    return _bit_label_pairs(net, lambda lab: tuple(1 - b for b in lab))


def hotspot(
    net: Network,
    rate: float,
    cycles: int,
    rng: np.random.Generator,
    hotspot_node: int = 0,
    hotspot_fraction: float = 0.2,
) -> list[tuple[int, int, int]]:
    """Uniform traffic where a fraction of packets targets one hot node."""
    base = uniform_random(net, rate, cycles, rng)
    out = []
    for t, s, d in base:
        if rng.random() < hotspot_fraction and s != hotspot_node:
            out.append((t, s, hotspot_node))
        else:
            out.append((t, s, d))
    return out
