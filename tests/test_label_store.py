"""The label store of :class:`~repro.core.network.Network`.

Closure-built graphs keep their labels as a ``uint8`` label matrix:
``.labels`` is built from it on first read and ``node_of`` answers from a
dict keyed by row bytes.  These tests hold that store to the tuple dict
it replaced (every answer, every ``KeyError``), to both closure oracles,
to the persistence format (literal hashes of the saved label JSON and
the cache keys), and check that the large-build workload path
(build, CSR, ``node_of``, percolation) never builds a label tuple list.
"""

import hashlib
import json

import numpy as np
import pytest

from repro import cache
from repro import networks as nw
from repro.check import FAMILY_SPECS
from repro.core.ipgraph import IPGraph, build_ip_graph
from repro.core.network import Network
from repro.core.permutation import cyclic_shift_left, transposition
from repro.core.superip import NucleusSpec, SuperGeneratorSet, build_super_ip_graph
from repro.fault import percolation_sweep
from repro.io import _label_matrix, load_network, save_network
from repro.metrics.distances import _pull_csr
from repro.networks.classic import petersen
from repro.networks.hier import explicit_super_graph
from repro.routing import table as table_mod
from repro.routing.table import NextHopTable

from .bfs_oracle import oracle_next_hop_table
from .closure_oracle import oracle_build_ip_graph
from .hier_oracle import oracle_explicit_super_graph

S3 = NucleusSpec("S3", ("a", "b", "c"), (transposition(3, 0, 1), transposition(3, 0, 2)))


def _small_registry_builds():
    """Every registry family at its contract-sweep parameters, plus the
    symmetric variants the sweep checks."""
    for fam, spec in sorted(FAMILY_SPECS.items()):
        yield fam, (lambda f=fam, p=spec.params: nw.build(f, **p))
        if spec.symmetric_params is not None:
            yield f"sym-{fam}", (
                lambda f=fam, p=spec.symmetric_params: nw.build(f, symmetric=True, **p)
            )


REGISTRY_BUILDS = dict(_small_registry_builds())


# ----------------------------------------------------------------------
# which builds keep a label matrix
# ----------------------------------------------------------------------
class TestStoreChoice:
    def test_int_alphabets_keep_a_matrix(self):
        for g in (
            nw.build("hsn", l=2, n=2),
            nw.build("hsn", l=2, n=2, symmetric=True),
            nw.build("cyclic_petersen", l=2),
            build_ip_graph((1, 2, 3, 1, 2, 3), [transposition(6, 0, 1), cyclic_shift_left(6, 3)]),
            build_ip_graph((255, 0), [transposition(2, 0, 1)]),
        ):
            rows = g.label_matrix
            assert rows is not None and rows.dtype == np.uint8
            assert not rows.flags.writeable
            assert rows.tolist() == [list(lab) for lab in g.labels]

    @pytest.mark.parametrize(
        "seed",
        [
            ("a", "b", "a"),
            (True, False, 2),  # bools compare equal to 1 / 0 but are other symbols
            (np.int64(0), np.int64(1), np.int64(2)),
            (0, 1, 256),  # no uint8 wrap: 256 is not 0
            (-1, 0, 1),
        ],
        ids=["str", "bool", "np-int", "256", "negative"],
    )
    def test_other_alphabets_keep_tuples(self, seed):
        g = build_ip_graph(seed, [transposition(3, 0, 1), transposition(3, 1, 2)])
        assert g.label_matrix is None
        assert g.labels == oracle_build_ip_graph(seed, g.generators).labels
        assert g.labels[0] == tuple(seed)
        assert [type(s) for s in g.labels[0]] == [type(s) for s in seed]

    def test_pair_keyed_explicit_graph_keeps_tuples(self):
        g = explicit_super_graph(petersen(), SuperGeneratorSet.ring(2), symmetric=True)
        assert g.label_matrix is None
        assert g.labels[0] == ((0, 0), (1, 0))

    def test_symbols_past_uint8_keep_tuples(self):
        # the symmetric variant renumbers block c's symbols to c·m + j:
        # with m = 200 the second block's symbols reach 399
        nuc = NucleusSpec("K2x", tuple(range(200)), (transposition(200, 0, 1),))
        g = build_super_ip_graph(nuc, SuperGeneratorSet.transpositions(2), symmetric=True)
        assert max(g.labels[0]) == 399
        assert g.label_matrix is None
        assert g.labels == oracle_build_ip_graph(g.seed, g.generators, name=g.name).labels

    def test_seed_default_reads_the_matrix(self):
        g = nw.build("hsn", l=2, n=2)
        h = IPGraph(g.label_matrix, g.generators, np.column_stack(
            [g.edges_src, g.edges_dst, g.edges_gen]))
        assert h.seed == g.seed
        assert h._label_list is None
        assert [type(s) for s in h.seed] == [int] * len(h.seed)


# ----------------------------------------------------------------------
# the registry against both closure oracles
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fam", sorted(REGISTRY_BUILDS))
def test_registry_round_trips_and_matches_oracles(fam):
    g = REGISTRY_BUILDS[fam]()
    assert [g.node_of(g.label_of(i)) for i in range(g.num_nodes)] == list(range(g.num_nodes))
    assert all(g.node_of(list(lab)) == i for i, lab in enumerate(g.labels))
    if not isinstance(g, IPGraph):
        return
    if fam == "cyclic_petersen":  # explicit nucleus: the tuple-state BFS
        want = oracle_explicit_super_graph(petersen(), SuperGeneratorSet.ring(2))
    else:
        want = oracle_build_ip_graph(g.seed, g.generators, name=g.name, directed=g.directed)
    assert g.labels == want.labels
    assert np.array_equal(g.edges_dst, want.edges_dst)
    assert np.array_equal(g.edges_gen, want.edges_gen)


def test_explicit_graphs_match_hier_oracle():
    for sym in (False, True):
        g = explicit_super_graph(petersen(), SuperGeneratorSet.ring(3), symmetric=sym)
        want = oracle_explicit_super_graph(petersen(), SuperGeneratorSet.ring(3), symmetric=sym)
        assert g.labels == want.labels
        assert np.array_equal(g.edges_gen, want.edges_gen)
        assert all(g.node_of(lab) == i for i, lab in enumerate(want.labels))


# ----------------------------------------------------------------------
# node_of: every answer of the tuple dict it replaced
# ----------------------------------------------------------------------
def _dict_answer(net, label):
    """What a dict of the label tuples answers (lists coerced)."""
    ref = {lab: i for i, lab in enumerate(net.labels)}
    key = tuple(label) if isinstance(label, list) else label
    return ref[key]


class TestNodeOf:
    @pytest.fixture(scope="class")
    def net(self):
        return nw.build("hsn", l=2, n=2)

    def test_equal_labels_find_their_node(self, net):
        lab = net.label_of(13)
        assert {0, 1} <= set(lab)
        spelled = [
            lab,
            list(lab),
            tuple(s == 1 if s in (0, 1) else s for s in lab),  # bools
            tuple(np.int64(s) for s in lab),
            tuple(np.uint8(s) for s in lab),
            tuple(float(s) for s in lab),
            tuple(np.float64(s) for s in lab),
            tuple(np.bool_(s) if s in (0, 1) else s for s in lab),
            tuple(complex(s) for s in lab),
        ]
        for x in spelled:
            assert net.node_of(x) == _dict_answer(net, x) == 13

    @pytest.mark.parametrize(
        "make",
        [
            lambda lab: lab[:-1],  # too short
            lambda lab: lab + (0,),  # too long
            lambda lab: (256,) + lab[1:],  # 256 must not wrap to 0
            lambda lab: (lab[0] + 256,) + lab[1:],
            lambda lab: (-1,) + lab[1:],
            lambda lab: (lab[0] + 0.5,) + lab[1:],
            lambda lab: (str(lab[0]),) + lab[1:],
            lambda lab: (None,) + lab[1:],
            lambda lab: (float("nan"),) + lab[1:],
            lambda lab: (float("inf"),) + lab[1:],
            lambda lab: (complex(lab[0], 1),) + lab[1:],
            lambda lab: (lab,),
            lambda lab: (),
        ],
        ids=[
            "short", "long", "256", "wrap", "negative", "half", "str", "none",
            "nan", "inf", "complex", "nested", "empty",
        ],
    )
    def test_absent_labels_raise_keyerror_naming_them(self, net, make):
        label = make(net.label_of(0))
        with pytest.raises(KeyError) as want:
            _dict_answer(net, label)
        with pytest.raises(KeyError) as got:
            net.node_of(label)
        assert got.value.args == want.value.args == (label,)
        assert str(got.value) == repr(label)

    def test_absent_list_is_named_as_a_tuple(self, net):
        label = [9] * len(net.label_of(0))
        with pytest.raises(KeyError) as got:
            net.node_of(label)
        assert got.value.args == (tuple(label),)

    @pytest.mark.parametrize("label", [0, "0", 1.0, "row bytes of node 0"])
    def test_non_tuple_labels_are_absent(self, net, label):
        if label == "row bytes of node 0":  # the index key is not a label
            label = bytes(net.label_of(0))
            assert net.label_matrix[0].tobytes() == label
        with pytest.raises(KeyError) as got:
            net.node_of(label)
        assert got.value.args == (label,)

    def test_tuple_store_answers_as_before(self):
        g = nw.petersen()
        assert g.label_matrix is None
        assert all(g.node_of(list(lab)) == i for i, lab in enumerate(g.labels))
        with pytest.raises(KeyError):
            g.node_of(("nope",))

    def test_duplicate_rows_are_rejected(self):
        rows = np.array([[0, 1], [1, 0], [0, 1]], dtype=np.uint8)
        with pytest.raises(ValueError, match="node labels must be unique"):
            Network(rows, [0], [1])

    def test_matrix_is_copied_and_read_only(self):
        rows = np.array([[0, 1], [1, 0]], dtype=np.uint8)
        g = Network(rows, [0], [1])
        rows[0] = 5
        assert rows.flags.writeable
        assert g.labels == [(0, 1), (1, 0)] and g.node_of((0, 1)) == 0
        with pytest.raises(ValueError):
            g.label_matrix[0, 0] = 7

    def test_labels_list_is_built_once(self):
        g = nw.build("hsn", l=2, n=2)
        assert g._label_list is None
        assert g.labels is g.labels
        assert g.label_of(5) is g.labels[5]

    def test_pickle_holds_the_matrix(self):
        import pickle

        g = nw.build("hsn", l=2, n=2)
        g.labels  # noqa: B018 - build the tuples; they must not travel
        state = g.__getstate__()
        assert state["_label_list"] is None and "_index" not in state
        h = pickle.loads(pickle.dumps(g))
        assert h._label_list is None
        assert np.array_equal(h.label_matrix, g.label_matrix)
        assert h.labels == g.labels
        assert all(h.node_of(lab) == i for i, lab in enumerate(g.labels))


# ----------------------------------------------------------------------
# the build_scale op path builds no tuples
# ----------------------------------------------------------------------
def test_build_scale_path_builds_no_label_tuples():
    other = nw.build("hsn", l=3, n=3)
    ids = np.random.default_rng(4).integers(0, other.num_nodes, 1000).tolist()
    queries = [other.label_of(i) for i in ids]  # tuples from another build
    net = nw.build("hsn", l=3, n=3)
    csr = net.adjacency_csr()
    got = [net.node_of(q) for q in queries]
    rows = percolation_sweep(net, probs=[0.3, 0.5, 0.7], trials=1, kind="node", seed=1, jobs=1)
    assert got == ids and csr.shape == (512, 512) and len(rows) == 3
    assert net._label_list is None


# ----------------------------------------------------------------------
# persistence: literal hashes taken before the label matrix existed
# ----------------------------------------------------------------------
#: sha256 of ``labels_json`` from ``save_network`` and the network's
#: ``cache_key`` (``None``: built without a cache).  The keys mix in the
#: package version and the repro.check rule-set revision, so bumping
#: either changes them on purpose.
PERSISTED = {
    "hsn(2,Q3)": (
        "9846e960501fa0662f4ceb4a4f3dd63bcb9a7bedeb02d0b4613c6727f42ecfa4",
        "1422c08087eeb568b47fb3b80da52d0f91699286bb6304c4d93202dcdff82626",
    ),
    "sym-hsn(2,Q2)": (
        "4cd853cf6b8069a26b2a922dceed71dba7d4ba1c681e9af8b1003993a586a52c",
        "20d8bc9c435e811c1a017bc4675118c66765f17b48eb5731a0dc251d69405c3d",
    ),
    "cyclic_petersen(2)": (
        "9a15e3203f9cf4035957b221ef0a18f9a4e25ae0cb58cb6df278692fb3cd244e",
        "19eccb05cd2ef45b1ea92d58e7954cbad872e146e5d40e187602861488093139",
    ),
    "strings-hsn(2,S3)": (
        "e8b5e78d7720dac9f36f331437d271d5185bf670ab4dc708784633892201e254",
        "7538e819aeb77969017b0b1a178b93884419eb851cd7921b68d71d3ab21015eb",
    ),
    "strings-ip": ("576e9839da0a677eafd1d6aa59562a36acf6816da02560d7b0b8002e439b9477", None),
    "sym-explicit-petersen": (
        "49b519bb9ebfcd8da299d7f68e4b844f754a33dc23499933c4a5d750acb96749",
        None,
    ),
    "bool-ip": ("c0fc5a5b5a75580e84497f994b58531bdff8713862c8211f1cf4cce482742b9a", None),
}


def _persisted_builds(cache_dir):
    cache.configure(cache_dir)
    try:
        nets = {
            "hsn(2,Q3)": nw.build("hsn", l=2, n=3),
            "sym-hsn(2,Q2)": nw.build("hsn", l=2, n=2, symmetric=True),
            "cyclic_petersen(2)": nw.build("cyclic_petersen", l=2),
            "strings-hsn(2,S3)": build_super_ip_graph(S3, SuperGeneratorSet.transpositions(2)),
        }
    finally:
        cache.set_cache(None)
    nets["strings-ip"] = build_ip_graph(
        ("a", "b", "c", "a"), [transposition(4, 0, 1), cyclic_shift_left(4, 1)]
    )
    nets["sym-explicit-petersen"] = explicit_super_graph(
        petersen(), SuperGeneratorSet.ring(2), symmetric=True
    )
    nets["bool-ip"] = build_ip_graph(
        (True, False, 2), [transposition(3, 0, 1), transposition(3, 1, 2)]
    )
    return nets


def test_persistence_format_is_pinned(tmp_path):
    for name, g in _persisted_builds(tmp_path / "cache").items():
        path = save_network(g, tmp_path / "net")
        with np.load(path) as data:
            digest = hashlib.sha256(bytes(data["labels_json"])).hexdigest()
        assert (digest, g.cache_key) == PERSISTED[name], name


def test_matrix_network_round_trips_through_io(tmp_path):
    g = nw.build("hsn", l=2, n=3)
    h = load_network(save_network(g, tmp_path / "hsn"))
    assert h.label_matrix is not None and h._label_list is None
    assert np.array_equal(h.label_matrix, g.label_matrix)
    assert h.labels == g.labels and h.seed == g.seed
    for a in ("edges_src", "edges_dst", "edges_gen"):
        assert np.array_equal(getattr(h, a), getattr(g, a))
    assert [h.node_of(lab) for lab in g.labels] == list(range(g.num_nodes))
    with pytest.raises(KeyError):
        h.node_of((256,) + g.label_of(0)[1:])
    # the bytes written from the loaded matrix are the bytes written before
    with np.load(save_network(h, tmp_path / "again")) as a, np.load(tmp_path / "hsn.npz") as b:
        assert bytes(a["labels_json"]) == bytes(b["labels_json"])


@pytest.mark.parametrize(
    "labels",
    [[(True, 0), (0, 1)], [(0, 1.0), (1, 0)], [(0, 256), (1, 0)], [(0, 1), (1,)], [("a",), ("b",)]],
    ids=["bool", "float", "256", "ragged", "str"],
)
def test_other_flat_labels_load_as_tuples(tmp_path, labels):
    g = Network(labels, [0], [1])
    h = load_network(save_network(g, tmp_path / "n"))
    assert h.label_matrix is None
    assert h.labels == g.labels
    assert [[type(s) for s in lab] for lab in h.labels] == [
        [type(s) for s in lab] for lab in g.labels
    ]


@pytest.mark.parametrize(
    "text",
    [
        b"[[0,1],[1,0]]",  # other spacing
        b"[[0, 1],[1, 0]]",
        b"[ [0, 1]]",
        b"[[0, 1]] ",
        b"[[01]]",  # a leading zero JSON does not write
        b"[[1 2]]",
        b"[[1, 2]]3",
        b"3[[1, 2]]",
        b"[[1, 2], [3, ]]4",
        b"[[0, 1]][[2, 3]]",
        b"[[[1]]]",
        b"[[], []]",
        b"[]",
        b"[[256]]",
        b"[[1000]]",
    ],
)
def test_label_parser_takes_only_canonical_json(text):
    assert _label_matrix(text) is None


def test_label_parser_reads_what_json_dumps_writes():
    rows = np.random.default_rng(0).integers(0, 256, (50, 7)).tolist()
    rows[0] = [0, 9, 10, 99, 100, 255, 0]
    text = json.dumps(rows).encode()
    assert _label_matrix(text).tolist() == rows
    assert _label_matrix(b"[[7]]").tolist() == [[7]]


# ----------------------------------------------------------------------
# directed next-hop tables pull over the network's own arrays
# ----------------------------------------------------------------------
DIRECTED = {
    "directed-cn": lambda: nw.directed_cn(3, nw.hypercube_nucleus(2)),
    "directed-ring": lambda: build_super_ip_graph(
        NucleusSpec("C3one", (0, 1, 2), (cyclic_shift_left(3, 1),)),
        SuperGeneratorSet.directed_ring(3),
        directed=True,
    ),
}


@pytest.mark.parametrize("fam", sorted(DIRECTED))
def test_directed_table_shares_the_network_arrays(fam, monkeypatch):
    g = DIRECTED[fam]()
    csr = g.adjacency_csr()
    pulled = []
    real = table_mod.multi_source_bfs

    def spy(toward, dsts):
        pulled.append(_pull_csr(toward))
        return real(toward, dsts)

    monkeypatch.setattr(table_mod, "multi_source_bfs", spy)
    t = NextHopTable(g, with_distances=True)
    assert pulled and all(np.shares_memory(p.indices, csr.indices) for p in pulled)
    table, dist = oracle_next_hop_table(g)
    assert np.array_equal(t.table, table) and np.array_equal(t.dist, dist)
