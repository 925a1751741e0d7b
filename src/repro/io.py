"""Persistence: save and load networks as portable ``.npz`` archives.

Large generated topologies (and their module assignments) can be expensive
to rebuild; this module serializes any :class:`~repro.core.network.Network`
— including :class:`~repro.core.ipgraph.IPGraph` arc attribution and
generator permutations — to a single compressed NumPy archive.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.core.ipgraph import Generator, IPGraph
from repro.core.network import Network
from repro.core.permutation import Permutation

__all__ = ["save_network", "load_network"]

_FORMAT_VERSION = 1


def save_network(net: Network, path: str | Path) -> Path:
    """Serialize ``net`` to ``path`` (``.npz`` appended if missing).

    Labels are stored as JSON (they are tuples of ints/strings); arcs and
    generator metadata as integer arrays.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    rows = net.label_matrix
    if rows is not None:
        # the same JSON text as the label tuples, without building them
        labels: list = rows.tolist()
        flat_labels = True
    else:
        labels = net.labels
        flat_labels = all(
            not any(isinstance(x, (list, tuple)) for x in lab) for lab in labels
        )
    payload: dict = {
        "version": np.int64(_FORMAT_VERSION),
        "name": np.bytes_(net.name.encode()),
        "directed": np.bool_(net.directed),
        "labels_json": np.bytes_(json.dumps(labels).encode()),
        "labels_flat": np.bool_(flat_labels),
        "edges_src": net.edges_src,
        "edges_dst": net.edges_dst,
    }
    if isinstance(net, IPGraph):
        payload["is_ipgraph"] = np.bool_(True)
        payload["edges_gen"] = net.edges_gen
        payload["seed_json"] = np.bytes_(json.dumps(list(net.seed)).encode())
        payload["gen_imgs"] = np.asarray(
            [g.perm.img for g in net.generators], dtype=np.int64
        )
        payload["gen_meta_json"] = np.bytes_(
            json.dumps([[g.name, g.kind] for g in net.generators]).encode()
        )
    else:
        payload["is_ipgraph"] = np.bool_(False)
    np.savez_compressed(path, **payload)
    return path


def _tuplify(obj):
    if isinstance(obj, list):
        # labels are overwhelmingly flat tuples of scalars; one containment
        # scan + a direct tuple() beats a recursive generator per element
        if not any(type(x) is list for x in obj):
            return tuple(obj)
        return tuple(_tuplify(x) for x in obj)
    return obj


def _label_matrix(text: bytes) -> np.ndarray | None:
    """The ``uint8`` label matrix spelled by the label JSON ``text``, or
    ``None``.

    Parsed without building a Python object per symbol, and only from
    the exact text ``json.dumps`` writes for equal-length rows of ints
    ``0..255``: ``[[0, 1], [1, 0]]``.  Any other text (bools, floats,
    strings, other spacing, ragged or empty rows, ints past 255) is
    left to the JSON decoder.
    """
    b = np.frombuffer(text, dtype=np.uint8)
    digit = (b >= ord("0")) & (b <= ord("9"))
    step = np.diff(digit.view(np.int8), prepend=0, append=0)
    starts, ends = np.flatnonzero(step == 1), np.flatnonzero(step == -1)  # digit runs
    width = int(np.searchsorted(starts, text.find(b"]")))
    if not width or len(starts) % width:
        return None
    # digits aside, the text is "[[" + rows of ", "-joined numbers joined
    # by "], [" + "]]", and each gap between two numbers is exactly its
    # separator long
    skeleton = b"[[" + b"], [".join([b", " * (width - 1)] * (len(starts) // width)) + b"]]"
    gaps = np.full(len(starts) - 1, 2)
    gaps[width - 1 :: width] = 4
    if (
        text.translate(None, b"0123456789") != skeleton
        or text[: starts[0]] != b"[["
        or text[ends[-1] :] != b"]]"
        or not np.array_equal(starts[1:] - ends[:-1], gaps)
    ):
        return None
    length = ends - starts
    if length.max() > 3 or ((length > 1) & (b[starts] == ord("0"))).any():
        return None  # past 255, or a leading zero JSON does not write
    d = b.astype(np.int16) - ord("0")
    value = d[ends - 1]
    value[length > 1] += 10 * d[ends[length > 1] - 2]
    value[length > 2] += 100 * d[ends[length > 2] - 3]
    if value.max() > 255:
        return None
    return value.astype(np.uint8).reshape(-1, width)


def load_network(path: str | Path) -> Network:
    """Load a network saved by :func:`save_network`."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    with np.load(path, allow_pickle=False) as data:
        version = int(data["version"])
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported archive version {version}")
        name = bytes(data["name"]).decode()
        directed = bool(data["directed"])
        text = bytes(data["labels_json"])
        flat = "labels_flat" in data.files and bool(data["labels_flat"])
        labels: list | np.ndarray | None = _label_matrix(text) if flat else None
        if labels is None:
            decoded = json.loads(text.decode())
            # no nested tuples anywhere (checked at save time): convert at
            # C speed instead of recursing per element
            labels = list(map(tuple, decoded)) if flat else [_tuplify(lab) for lab in decoded]
        src = data["edges_src"]
        dst = data["edges_dst"]
        if bool(data["is_ipgraph"]):
            gen_imgs = data["gen_imgs"]
            meta = json.loads(bytes(data["gen_meta_json"]).decode())
            gens = [
                Generator(Permutation(img), name=nm, kind=kind)
                for img, (nm, kind) in zip(gen_imgs, meta)
            ]
            seed = _tuplify(json.loads(bytes(data["seed_json"]).decode()))
            edges = np.column_stack([src, dst, data["edges_gen"]])
            return IPGraph(labels, gens, edges, name=name, seed=seed, directed=directed)
        return Network(labels, src, dst, name=name, directed=directed)
