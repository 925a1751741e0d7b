"""Randomized equivalence: the batched closure must be bit-identical to
the per-label oracle (``tests/closure_oracle.py``) on arbitrary
(seed, generator) inputs.

``build_ip_graph``'s docstring promises identical node numbering and
arc lists; ``tests/test_fastclosure.py`` pins a handful of fixed cases.
Here we fuzz ~50 seeded-random instances — mixed generator kinds
(nucleus/super/generic), repeated symbols, non-integer symbols, directed
closures — and compare every observable of the built graphs.  The
production constructors that call the closure directly (every nucleus,
the ``ip_variants`` families, the cited IP networks and the
ball-arrangement game) are compared against the oracle too.
"""

import random

import pytest

from repro.core.ballgame import BallArrangementGame
from repro.core.ipgraph import GENERIC, NUCLEUS, SUPER, Generator, build_ip_graph
from repro.core.permutation import Permutation, cyclic_shift_left, transposition
from repro.networks import cited, ip_variants, nuclei

from .closure_oracle import oracle_build_ip_graph

N_CASES = 50
KINDS = (NUCLEUS, SUPER, GENERIC)


def _random_case(rng: random.Random):
    """One random (seed, generators, directed) instance, kept small enough
    that the pure-python oracle stays fast (k <= 7)."""
    k = rng.randint(3, 7)
    # repeated symbols with probability 2/3: alphabet smaller than k
    if rng.random() < 2 / 3:
        alphabet_size = rng.randint(1, max(1, k - 1))
    else:
        alphabet_size = k
    symbol_pool = list(range(alphabet_size))
    if rng.random() < 0.25:
        # non-integer hashables exercise the symbol-encoding path
        symbol_pool = [chr(ord("a") + s) for s in symbol_pool]
    # every alphabet symbol appears at least once; the rest are random
    seed = list(symbol_pool)
    seed += [rng.choice(symbol_pool) for _ in range(k - len(seed))]
    rng.shuffle(seed)

    ngen = rng.randint(1, 4)
    gens = []
    for i in range(ngen):
        img = list(range(k))
        rng.shuffle(img)
        gens.append(Generator(Permutation(img), name=f"g{i}", kind=rng.choice(KINDS)))
    directed = rng.random() < 0.25
    return tuple(seed), gens, directed


def _case_params():
    rng = random.Random(0x1999_1CC9)
    cases = [_random_case(rng) for _ in range(N_CASES)]
    # make sure the suite actually covers the interesting regimes
    assert any(len(set(seed)) < len(seed) for seed, _, _ in cases)
    assert any(len(set(seed)) == len(seed) for seed, _, _ in cases)
    assert any(d for _, _, d in cases)
    assert any(isinstance(seed[0], str) for seed, _, _ in cases)
    kinds = {g.kind for _, gens, _ in cases for g in gens}
    assert kinds == set(KINDS)
    return cases


def _assert_matches_oracle(fast):
    ref = oracle_build_ip_graph(fast.seed, fast.generators, directed=fast.directed)
    assert ref.labels == fast.labels  # identical node order
    assert (ref.edges_src == fast.edges_src).all()
    assert (ref.edges_dst == fast.edges_dst).all()
    assert (ref.edges_gen == fast.edges_gen).all()
    assert ref.seed == fast.seed
    assert ref.directed == fast.directed
    assert ref.num_nodes == fast.num_nodes
    assert ref.num_edges() == fast.num_edges()
    # the derived adjacency agrees too (loops excluded identically)
    a, b = ref.adjacency_csr(), fast.adjacency_csr()
    assert (a.indptr == b.indptr).all()
    assert (a.indices == b.indices).all()


@pytest.mark.parametrize("seed,gens,directed", _case_params())
def test_fast_closure_matches_reference(seed, gens, directed):
    fast = build_ip_graph(seed, gens, directed=directed)
    assert fast.seed == tuple(seed)
    _assert_matches_oracle(fast)


#: small instances of every nucleus in ``repro.networks.nuclei``
NUCLEI = {
    "hypercube": lambda: nuclei.hypercube_nucleus(3),
    "folded_hypercube": lambda: nuclei.folded_hypercube_nucleus(3),
    "generalized_hypercube": lambda: nuclei.generalized_hypercube_nucleus((2, 3)),
    "complete": lambda: nuclei.complete_nucleus(4),
    "star": lambda: nuclei.star_nucleus(4),
    "pancake": lambda: nuclei.pancake_nucleus(4),
    "ring": lambda: nuclei.ring_nucleus(5),
    "shuffle_exchange": lambda: nuclei.shuffle_exchange_nucleus(3),
    "debruijn": lambda: nuclei.debruijn_nucleus(3),
}

#: the other production constructors that call the closure directly
CALLERS = {
    "hypercube_ip": lambda: ip_variants.hypercube_ip(3),
    "star_ip": lambda: ip_variants.star_ip(5),
    "pancake_ip": lambda: ip_variants.pancake_ip(4),
    "shuffle_exchange_ip": lambda: ip_variants.shuffle_exchange_ip(3),
    "debruijn_ip": lambda: ip_variants.debruijn_ip(3),
    "paper_example_36": lambda: ip_variants.paper_example_36(),
    "rotator_graph": lambda: cited.rotator_graph(4),
    "macro_star": lambda: cited.macro_star(2, 2),
    "ball_game_repeated": lambda: BallArrangementGame(
        (0, 0, 1, 1, 2), [transposition(5, 0, i) for i in range(1, 5)]
    ).state_graph(),
    "ball_game_symbols": lambda: BallArrangementGame(
        ("r", "g", "r", "b"), [transposition(4, 0, 1), cyclic_shift_left(4, 1)]
    ).state_graph(),
}


def test_nucleus_catalog_is_covered():
    assert {f"{name}_nucleus" for name in NUCLEI} == set(nuclei.__all__)


@pytest.mark.parametrize("name", sorted(NUCLEI))
def test_nucleus_build_matches_oracle(name):
    _assert_matches_oracle(NUCLEI[name]().build())


@pytest.mark.parametrize("name", sorted(CALLERS))
def test_direct_caller_matches_oracle(name):
    _assert_matches_oracle(CALLERS[name]())


def test_equivalence_holds_under_profiling(tmp_path):
    """Instrumentation must not perturb the closure's output."""
    from repro import obs

    rng = random.Random(7)
    seed, gens, directed = _random_case(rng)
    ref = oracle_build_ip_graph(seed, gens, directed=directed)
    obs.enable(trace=str(tmp_path / "t.jsonl"))
    try:
        fast_p = build_ip_graph(seed, gens, directed=directed)
    finally:
        obs.disable()
        obs.reset()
    assert ref.labels == fast_p.labels
    assert (ref.edges_src == fast_p.edges_src).all()
    assert (ref.edges_dst == fast_p.edges_dst).all()
    assert (ref.edges_gen == fast_p.edges_gen).all()
