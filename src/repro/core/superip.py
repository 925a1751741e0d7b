"""Super-IP graphs (Section 3 of the paper).

A *super-IP graph* is an IP graph whose seed consists of ``l`` identical
blocks (*super-symbols*) of ``m`` symbols, and whose generators either
permute the symbols inside the leftmost block (*nucleus generators*) or
permute whole blocks without reordering their contents (*super-generators*).

This module provides:

* :class:`NucleusSpec` — a nucleus graph given as (seed block, generators);
* :class:`SuperGeneratorSet` — a named family of block permutations, with
  constructors for the paper's three families (transpositions → HSN,
  cyclic shifts → CN, prefix flips → super-flip networks);
* :func:`build_super_ip_graph` — materialize a (possibly symmetric) super-IP
  graph through the digit-code closure :func:`_super_closure`, which
  :func:`repro.networks.hier.explicit_super_graph` shares;
* exact computation of the quantities ``t`` and ``t_S`` of Theorems 4.1/4.3
  by search over block-arrangement states, and the resulting diameter
  formulas (Corollary 4.2);
* the size formulas of Theorem 3.2 and the symmetric-variant counting of
  Section 3.5.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.cache.memory import memoize_lru

from .ipgraph import (
    NUCLEUS,
    SUPER,
    Generator,
    IPGraph,
    _arc_table,
    _fits_label_matrix,
    _report_closure,
    build_ip_graph,
)
from .permutation import (
    Permutation,
    block_permutation,
    cyclic_shift_left,
    cyclic_shift_right,
    identity,
    lift_to_block,
    prefix_reversal,
    transposition,
)

__all__ = [
    "NucleusSpec",
    "SuperGeneratorSet",
    "build_super_ip_graph",
    "super_ip_size",
    "symmetric_super_ip_size",
    "fronting_schedules",
    "min_supergen_steps",
    "min_supergen_steps_symmetric",
    "reachable_arrangements",
    "diameter_formula",
    "symmetric_diameter_formula",
]


# ----------------------------------------------------------------------
# nucleus
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NucleusSpec:
    """A nucleus graph ``G`` given as an IP-graph specification.

    Attributes
    ----------
    name:
        Display name, e.g. ``"Q3"``.
    seed:
        The seed block (``m`` symbols).  If its symbols are all distinct the
        nucleus is a Cayley graph and symmetric super-IP variants can be
        derived from it (Section 3.5).
    perms:
        The nucleus generators, as permutations of the ``m`` block positions.
    """

    name: str
    seed: tuple
    perms: tuple[Permutation, ...]

    def __post_init__(self) -> None:
        for p in self.perms:
            if p.size != len(self.seed):
                raise ValueError("nucleus generator size != seed block length")
        if not self.perms:
            raise ValueError("nucleus needs at least one generator")

    @property
    def m(self) -> int:
        """Number of symbols per block."""
        return len(self.seed)

    @property
    def num_generators(self) -> int:
        """Number of nucleus generators ``d_N``."""
        return len(self.perms)

    def has_distinct_symbols(self) -> bool:
        """True iff the seed block has no repeated symbols."""
        return len(set(self.seed)) == len(self.seed)

    def build(self, max_nodes: int = 2_000_000) -> IPGraph:
        """Materialize the nucleus graph itself."""
        gens = [
            Generator(p, name=f"g{i}", kind=NUCLEUS) for i, p in enumerate(self.perms)
        ]
        return build_ip_graph(self.seed, gens, name=self.name, max_nodes=max_nodes)

    def size(self, max_nodes: int = 2_000_000) -> int:
        """Number of nodes ``M`` of the nucleus graph."""
        return _nucleus_graph_cached(self, max_nodes).num_nodes

    def diameter(self, max_nodes: int = 2_000_000) -> int:
        """Diameter ``D_G`` of the nucleus graph (exact, by BFS)."""
        from repro.metrics.distances import diameter

        return diameter(_nucleus_graph_cached(self, max_nodes))


# Bounded + centrally clearable (repro.cache.clear_memory_caches): a plain
# module-level ``@lru_cache`` here pinned every nucleus graph ever built for
# the whole process lifetime, leaking memory across registry/contract sweeps.
@memoize_lru(maxsize=8)
def _nucleus_graph_cached(nucleus: NucleusSpec, max_nodes: int) -> IPGraph:
    return nucleus.build(max_nodes=max_nodes)


# ----------------------------------------------------------------------
# super-generator sets
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SuperGeneratorSet:
    """A named set of block permutations over ``l`` blocks.

    ``block_perms`` are permutations of the *block positions* in gather form
    (size ``l``); position 0 is the leftmost block, the one nucleus
    generators act on.
    """

    name: str
    l: int
    block_perms: tuple[tuple[str, Permutation], ...]

    def __post_init__(self) -> None:
        for _, p in self.block_perms:
            if p.size != self.l:
                raise ValueError("block permutation size != l")
        if not self.block_perms:
            raise ValueError("at least one super-generator is required")

    @property
    def num_generators(self) -> int:
        """Number of super-generators ``d_S``."""
        return len(self.block_perms)

    def perms(self) -> list[Permutation]:
        """The bare block permutations."""
        return [p for _, p in self.block_perms]

    # -- the paper's families -----------------------------------------
    @classmethod
    def transpositions(cls, l: int) -> "SuperGeneratorSet":
        """HSN super-generators ``T_2 .. T_l`` (swap block 0 with block i)."""
        if l < 2:
            raise ValueError("l must be >= 2")
        bp = tuple(
            (f"T{i + 1}", transposition(l, 0, i)) for i in range(1, l)
        )
        return cls(name="transpositions", l=l, block_perms=bp)

    @classmethod
    def ring(cls, l: int) -> "SuperGeneratorSet":
        """Ring-CN super-generators: left and right cyclic shift by one."""
        if l < 2:
            raise ValueError("l must be >= 2")
        left = cyclic_shift_left(l, 1)
        if l == 2:
            return cls(name="ring", l=l, block_perms=(("L1", left),))
        return cls(
            name="ring",
            l=l,
            block_perms=(("L1", left), ("R1", cyclic_shift_right(l, 1))),
        )

    @classmethod
    def complete_shifts(cls, l: int) -> "SuperGeneratorSet":
        """Complete-CN super-generators: all cyclic shifts ``L_1 .. L_{l-1}``."""
        if l < 2:
            raise ValueError("l must be >= 2")
        bp = tuple(
            (f"L{s}", cyclic_shift_left(l, s)) for s in range(1, l)
        )
        return cls(name="complete-shifts", l=l, block_perms=bp)

    @classmethod
    def directed_ring(cls, l: int) -> "SuperGeneratorSet":
        """Directed-CN super-generator: left cyclic shift only."""
        if l < 2:
            raise ValueError("l must be >= 2")
        return cls(name="directed-ring", l=l, block_perms=(("L1", cyclic_shift_left(l, 1)),))

    @classmethod
    def flips(cls, l: int) -> "SuperGeneratorSet":
        """Super-flip super-generators ``F_2 .. F_l`` (reverse first i blocks)."""
        if l < 2:
            raise ValueError("l must be >= 2")
        bp = tuple(
            (f"F{i}", prefix_reversal(l, i)) for i in range(2, l + 1)
        )
        return cls(name="flips", l=l, block_perms=bp)


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------
def _arrangements(perms: Sequence[Permutation], l: int) -> tuple[list[tuple], np.ndarray]:
    """The block arrangements ``perms`` reach from the identity, in BFS
    order, and the ``(|A|, len(perms))`` index table of their moves."""
    arrs = [tuple(range(l))]
    at = {arrs[0]: 0}
    moves = []
    for arr in arrs:  # grows while walked: a BFS
        row = [p(arr) for p in perms]
        for nxt in row:
            if nxt not in at:
                at[nxt] = len(arrs)
                arrs.append(nxt)
        moves.append([at[nxt] for nxt in row])
    return arrs, np.array(moves, dtype=np.int64)


def _block_keys(nucleus: NucleusSpec, nuc: IPGraph, l: int, symmetric: bool) -> list[tuple]:
    """Label symbols of block ``b = color·M + nucleus id``: the nucleus
    label or, when ``symmetric`` (Section 3.5), its symbols renumbered in
    ``repr`` order plus ``color·m``, so that no symbol repeats across
    blocks and the super-IP graph is a Cayley graph."""
    if not symmetric:
        return list(nuc.labels)
    if not nucleus.has_distinct_symbols():
        raise ValueError("symmetric variant requires a nucleus seed with distinct symbols")
    sym = {s: j for j, s in enumerate(sorted(set(nucleus.seed), key=repr))}
    return [tuple(c * nucleus.m + sym[s] for s in lab) for c in range(l) for lab in nuc.labels]


def _symbol_table(keys: Sequence[tuple]) -> np.ndarray:
    """``(len(keys), m)`` table of the ``m`` symbols of each block key:
    ``uint8`` when every symbol is an ``int`` in ``0..255``, else
    ``object`` (symbols kept as they are, tuples included)."""
    symbols = [s for key in keys for s in key]
    if _fits_label_matrix(symbols):
        table = np.array(symbols, dtype=np.uint8)
    else:
        table = np.fromiter(symbols, dtype=object, count=len(symbols))
    return table.reshape(len(keys), -1)


def _super_closure(
    succ: np.ndarray,
    keys: Sequence[tuple],
    perms: Sequence[Permutation],
    symmetric: bool,
    max_nodes: int,
    name: str,
) -> tuple[np.ndarray | list[tuple], np.ndarray]:
    """BFS closure of a super graph on digit codes ``a·M^l + Σ d_i·M^i``.

    ``d_i`` is the nucleus state at block position ``i`` (0 = front) and
    ``a`` the arrangement index (0 unless ``symmetric``).  Generator
    ``k < s`` moves ``d_0`` through column ``k`` of the ``(M, s)`` table
    ``succ`` (``-1``: no arc); generator ``s + j`` gathers the blocks by
    ``perms[j]``.  A direct-address ``id_of_code`` array dedups, and new
    codes are numbered by their first ``(node, generator)`` arc, as
    :func:`~repro.core.ipgraph.build_ip_graph` numbers nodes.  Returns
    the labels (each the concatenated ``keys`` of its blocks ``color·M +
    d_i``) and the node-major ``(E, 3)`` arcs ``(src, dst, gen)``; raises
    ``ValueError`` naming ``|A|·M^l`` when it exceeds ``max_nodes``.

    The labels are a gather of the block codes from a table of the
    ``l·M`` keys: the ``uint8`` label matrix when every key symbol is an
    ``int`` in ``0..255`` (checked, never cast), otherwise the list of
    label tuples gathered from an object table.
    """
    (M, s), l = succ.shape, perms[0].size
    if symmetric:
        arrs, arr_moves = _arrangements(perms, l)
    else:  # one arrangement, every block of color 0
        arrs, arr_moves = [(0,) * l], np.zeros((1, len(perms)), dtype=np.int64)
    base = M**l
    if len(arrs) * base > max_nodes:
        raise ValueError(
            f"super graph address space |A|·M^l = {len(arrs)}·{M}^{l} = "
            f"{len(arrs) * base} exceeds max_nodes={max_nodes}"
        )
    weight = M ** np.arange(l, dtype=np.int64)
    gathers = np.array([p.img for p in perms], dtype=np.int64)
    ngen = s + len(perms)
    with obs.span("closure.build.fast", name=name, generators=ngen) as sp:
        t0 = time.perf_counter()
        # a spare last entry maps the -1 pads to -1
        id_of_code = np.full(len(arrs) * base + 1, -1, dtype=np.int64)
        id_of_code[0] = 0
        codes, dsts, levels = [np.zeros(1, dtype=np.int64)], [], []
        total = 1
        while len(front := codes[-1]):
            a, digits = np.divmod(front, base)
            digits = digits[:, None] // weight % M
            nuc = succ[digits[:, 0]]
            nuc = np.where(nuc < 0, -1, (front - digits[:, 0])[:, None] + nuc)
            moves = np.hstack([nuc, arr_moves[a] * base + digits[:, gathers] @ weight]).ravel()
            unseen = moves[(id_of_code[moves] < 0) & (moves >= 0)]
            fresh, first = np.unique(unseen, return_index=True)
            codes.append(fresh[np.argsort(first)])
            id_of_code[codes[-1]] = np.arange(total, total + len(fresh))
            total += len(fresh)
            dsts.append(id_of_code[moves])
            levels.append((len(front), int(np.count_nonzero(moves >= 0)), len(fresh)))
        a, digits = np.divmod(np.concatenate(codes), base)
        blocks = digits[:, None] // weight % M + np.array(arrs, dtype=np.int64)[a] * M
        gathered = _symbol_table(keys)[blocks].reshape(len(blocks), -1)
        labels: np.ndarray | list[tuple] = (
            gathered if gathered.dtype == np.uint8 else list(map(tuple, gathered.tolist()))
        )
        dst = np.concatenate(dsts)
        edges = _arc_table(dst, ngen)[dst >= 0]
        _report_closure(sp, t0, levels, len(edges))
    return labels, edges


def build_super_ip_graph(
    nucleus: NucleusSpec,
    sgs: SuperGeneratorSet,
    symmetric: bool = False,
    name: str | None = None,
    max_nodes: int = 2_000_000,
    directed: bool = False,
) -> IPGraph:
    """Materialize a super-IP graph (or its symmetric variant).

    Parameters
    ----------
    nucleus:
        The nucleus specification ``G``.
    sgs:
        The super-generator set (determines the family: HSN, CN, ...); its
        ``l`` gives the number of blocks.
    symmetric:
        Build the symmetric super-IP variant of Section 3.5 (distinct-symbol
        seed → a vertex-symmetric, regular Cayley graph with
        ``|A|·M^l`` nodes, where ``A`` is the arrangement group generated by
        the super-generators).
    directed:
        Treat arcs as directed (directed cyclic-shift networks).

    Returns
    -------
    IPGraph
        Nucleus-generator arcs carry kind :data:`~repro.core.ipgraph.NUCLEUS`,
        super-generator arcs kind :data:`~repro.core.ipgraph.SUPER` — the
        inter-cluster metrics rely on this attribution.  The graph equals
        :func:`~repro.core.ipgraph.build_ip_graph` on the lifted seed and
        generators; ``ValueError`` when ``|A|·M^l`` exceeds ``max_nodes``.
    """
    l, m = sgs.l, nucleus.m
    nuc = _nucleus_graph_cached(nucleus, max_nodes)
    keys = _block_keys(nucleus, nuc, l, symmetric)
    # nucleus node 0 is the nucleus seed; seed block i has color i
    seed = sum(keys[:: nuc.num_nodes], ()) if symmetric else tuple(nucleus.seed) * l
    gens: list[Generator] = [
        Generator(lift_to_block(p, l, m, block=0), name=f"n{i}", kind=NUCLEUS)
        for i, p in enumerate(nucleus.perms)
    ]
    gens.extend(
        Generator(block_permutation(p.img, m), name=gname, kind=SUPER)
        for gname, p in sgs.block_perms
    )
    if name is None:
        prefix = "sym-" if symmetric else ""
        name = f"{prefix}{sgs.name}(l={l},{nucleus.name})"

    # the closure is a pure function of (seed, generator set, flags): consult
    # the artifact cache when one is configured (repro.cache.configure)
    from repro.cache import cache_key, get_cache

    cache = get_cache()
    key: str | None = None
    if cache is not None:
        key = cache_key(
            "superip.build",
            seed=seed,
            generators=[(g.name, g.kind, list(g.perm.img)) for g in gens],
            name=name,
            directed=directed,
            max_nodes=max_nodes,
        )
        hit = cache.load_network(key)
        if isinstance(hit, IPGraph):
            hit.cache_key = key
            return hit

    succ = nuc.edges_dst.reshape(nuc.num_nodes, -1)
    labels, edges = _super_closure(succ, keys, sgs.perms(), symmetric, max_nodes, name)
    graph = IPGraph(labels, gens, edges, name=name, seed=seed, directed=directed)
    if cache is not None and key is not None:
        cache.store_network(key, graph)
        graph.cache_key = key
    return graph


# ----------------------------------------------------------------------
# counting (Theorem 3.2 / Section 3.5)
# ----------------------------------------------------------------------
def super_ip_size(nucleus_size: int, l: int) -> int:
    """Theorem 3.2: a super-IP graph has ``N = M^l`` nodes."""
    if nucleus_size < 1 or l < 1:
        raise ValueError("nucleus_size and l must be positive")
    return nucleus_size**l


def reachable_arrangements(sgs: SuperGeneratorSet) -> set[tuple[int, ...]]:
    """All block arrangements reachable from identity (the arrangement
    group's orbit); its size is the symmetric variant's multiplicity.

    For transposition and flip super-generators this is all ``l!``
    arrangements; for cyclic shifts only the ``l`` rotations.
    """
    return set(_arrangements(sgs.perms(), sgs.l)[0])


def symmetric_super_ip_size(nucleus_size: int, sgs: SuperGeneratorSet) -> int:
    """Size of the symmetric variant: ``|A| · M^l`` (Section 3.5).

    ``|A|`` is the number of reachable block arrangements: ``l!`` for HSN
    and super-flip networks, ``l`` for cyclic-shift networks.
    """
    return len(reachable_arrangements(sgs)) * super_ip_size(nucleus_size, sgs.l)


# ----------------------------------------------------------------------
# the quantities t and t_S (Theorems 4.1 / 4.3)
# ----------------------------------------------------------------------
def fronting_schedules(
    sgs: SuperGeneratorSet,
) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """Shortest fronting schedule per reachable end arrangement, lazily.

    A schedule is a list of super-generator indices.  It *fronts* every
    block when each block occupies the leftmost position at least once
    (the initially-leftmost block counts immediately).  One BFS over
    (arrangement, fronted-blocks) states yields ``(arrangement,
    schedule)`` for the first state found that has every block fronted
    and ends in ``arrangement`` (``arrangement[pos]`` = the initial
    position of the block now at ``pos``).  BFS order makes each yielded
    schedule a shortest one for its arrangement, and the first one
    yielded a shortest one overall.  Stopping after the first yield
    leaves the rest of the state space unexplored.
    """
    perms = sgs.perms()
    full = (1 << sgs.l) - 1
    start = (tuple(range(sgs.l)), 1)
    parent: dict = {start: None}
    done: set[tuple[int, ...]] = set()

    def schedule(state: tuple[tuple[int, ...], int]) -> list[int]:
        seq: list[int] = []
        while parent[state] is not None:
            state, gi = parent[state]
            seq.append(gi)
        seq.reverse()
        return seq

    if start[1] == full:
        done.add(start[0])
        yield start[0], []
    queue = deque([start])
    while queue:
        state = queue.popleft()
        arr, vis = state
        for gi, p in enumerate(perms):
            nxt_arr = p(arr)
            key = (nxt_arr, vis | (1 << nxt_arr[0]))
            if key in parent:
                continue
            parent[key] = (state, gi)
            if key[1] == full and nxt_arr not in done:
                done.add(nxt_arr)
                yield nxt_arr, schedule(key)
            queue.append(key)


def min_supergen_steps(sgs: SuperGeneratorSet) -> int:
    """Exact ``t`` of Theorem 4.1: the minimum number of super-generator
    applications after which every block has occupied the leftmost position
    at least once (the initially-leftmost block counts immediately).

    The length of the first schedule :func:`fronting_schedules` yields;
    for all the paper's families the result is ``l - 1``.
    """
    for _, schedule in fronting_schedules(sgs):
        return len(schedule)
    raise ValueError(
        "super-generators cannot bring every block to the front "
        "(not a valid super-IP generator set)"
    )


def min_supergen_steps_symmetric(sgs: SuperGeneratorSet) -> int:
    """Exact ``t_S`` of Theorem 4.3: the worst case over reachable target
    arrangements of the minimum number of super-generator applications that
    (a) bring every block to the front at least once and (b) leave the
    blocks in the target arrangement.
    """
    done = {arr: len(seq) for arr, seq in fronting_schedules(sgs)}
    targets = reachable_arrangements(sgs)
    missing = targets - set(done)
    if missing:
        raise ValueError(f"arrangements unreachable with all blocks fronted: {missing}")
    return max(done[t] for t in targets)


# ----------------------------------------------------------------------
# diameter formulas (Theorem 4.1 / 4.3 / Corollary 4.2)
# ----------------------------------------------------------------------
def diameter_formula(nucleus_diameter: int, sgs: SuperGeneratorSet) -> int:
    """Theorem 4.1: ``diameter = l · D_G + t``.

    For the paper's families ``t = l − 1`` and therefore (Corollary 4.2)
    ``diameter = (D_G + 1) · log_M N − 1``.
    """
    return sgs.l * nucleus_diameter + min_supergen_steps(sgs)


def symmetric_diameter_formula(nucleus_diameter: int, sgs: SuperGeneratorSet) -> int:
    """Theorem 4.3: ``diameter = l · D_G + t_S`` for the symmetric variant."""
    return sgs.l * nucleus_diameter + min_supergen_steps_symmetric(sgs)
