"""The four ``perfbench`` workloads.

Each is a closed loop with one caller, because every caller of these APIs
waits for the result.  Inputs are generated from the run's seed; the
program receives only the generated arrays.  Every call into a ``repro``
layer is public and wrapped, from the outside, in a span named after the
module it comes from.  Instance sizes are constructor arguments so the
smoke test can run the same code on tiny instances.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import networkx  # noqa: F401  (the fault layer imports it lazily; counted in set-up)
import numpy as np

from repro import cache, networks
from repro.analysis.formulas import hsn_point
from repro.cache import cached_next_hop_table
from repro.fault import fault_sweep, percolation_sweep
from repro.routing.table import NextHopTable
from repro.serve import RouteService, seeded_queries, verify_against_scalar
from repro.sim.simulator import PacketSimulator
from repro.sim.workloads import uniform_random_array

from harness import Tracer


#: never activated: warm-up calls record no spans
_UNTRACED = Tracer()


class SetupError(RuntimeError):
    """A set-up invariant (instance size, mmap backing) does not hold."""


def _build_hsn(l: int, n: int, tr) -> "networks.Network":
    with tr.span("networks.build"):
        net = networks.build("hsn", l=l, n=n)
    want = (2**n) ** l  # N = M^l with M = 2^n nodes in the Q_n nucleus
    if net.num_nodes != want:
        raise SetupError(f"HSN({l},Q{n}) has {net.num_nodes} nodes, expected {want}")
    return net


def _gathered_bytes_per_query(batch) -> float:
    """Table bytes a resolve gathers per query, computed from its output:
    an int32 next hop and an int32 distance, plus one int32 per hop when
    paths are materialized."""
    hops = int(batch.distance.sum()) if batch.paths is not None else 0
    return (8.0 * len(batch) + 4.0 * hops) / len(batch)


class _Workload:
    round_len = 1
    collect_after_op = True

    def work(self, payload) -> float:
        return 1.0

    def layer_metrics(self, payload, self_ms: dict) -> dict:
        return {}

    def close(self) -> None:
        pass


class PipelineCold(_Workload):
    """build → NextHopTable → RouteService.from_table → resolve → sim, cold.

    No artifact cache, so every op pays the whole pipeline; the O(N²)
    table is built twice (once by the caller, once inside the simulator).
    """

    name = "pipeline_cold"
    rate = 0.1  # uniform traffic, packets per node per cycle

    def __init__(self, l=2, n=5, queries=1_000_000, cycles=400, verify=2000):
        self.l, self.n = l, n
        self.queries, self.cycles = queries, cycles
        self.verify = verify
        self.diameter = hsn_point(l, 2**n, n, n, include_i=False).diameter

    def setup(self, seed, tr) -> None:
        self.seed = seed
        net = _build_hsn(self.l, self.n, tr)
        self.src, self.dst = seeded_queries(net.num_nodes, self.queries, seed)
        self.traffic = uniform_random_array(
            net, self.rate, self.cycles, np.random.default_rng([seed, 1])
        )
        self.op(-1, _UNTRACED)  # discarded warm-up op

    def op(self, i, tr):
        net = _build_hsn(self.l, self.n, tr)
        with tr.span("routing.table"):
            table = NextHopTable(net, with_distances=True)
        with tr.span("serve.from_table"):
            svc = RouteService.from_table(table)
        with tr.span("serve.resolve"):
            batch = svc.resolve(self.src, self.dst)
        with tr.span("sim.init"):
            sim = PacketSimulator(net)
        with tr.span("sim.run"):
            stats = sim.run(self.traffic)
        return net, table, svc, batch, stats

    def check(self, i, payload) -> bool:
        net, table, svc, batch, stats = payload
        checked, mismatches = verify_against_scalar(
            svc, table, self.src, self.dst, self.verify, seed=self.seed + i
        )
        return (
            net.num_nodes == (2**self.n) ** self.l
            and int(table.dist.max()) == self.diameter
            and checked == min(self.verify, self.queries)
            and mismatches == 0
            and np.array_equal(batch.next_hop, table.table[self.dst, self.src])
            and np.array_equal(batch.distance, table.dist[self.dst, self.src])
            and stats.injected == len(self.traffic)
            and stats.delivered == stats.injected
        )

    def layer_metrics(self, payload, self_ms):
        stats = payload[4]
        return {
            "sim.pkts_per_s": stats.delivered / (self_ms["sim.run"] / 1e3),
            "serve.bytes_computed": _gathered_bytes_per_query(payload[3]),
        }


class ServeReplay(_Workload):
    """Replay of seeded query batches through an mmap-backed, sharded
    RouteService opened from a fresh artifact cache."""

    name = "serve_replay"
    round_len = 8  # every 8th op materializes paths
    collect_after_op = False
    sample = 4  # queries per batch checked against the scalar walk

    def __init__(self, work_dir, l=2, n=5, shards=4, batch=16_384, batches=64):
        self.work_dir = Path(work_dir)
        self.l, self.n, self.shards = l, n, shards
        self.batch, self.batches = batch, batches
        self._dir: str | None = None

    def setup(self, seed, tr) -> None:
        self.close()
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self._dir = tempfile.mkdtemp(prefix="serve-", dir=self.work_dir)
        cache.configure(self._dir, min_nodes=1)
        net = _build_hsn(self.l, self.n, tr)
        with tr.span("cache.table_miss"):
            cached_next_hop_table(net, with_distances=True)
        with tr.span("cache.table_hit"):
            self.oracle = cached_next_hop_table(net, with_distances=True)
        with tr.span("serve.open"):
            self.svc = RouteService.open(net, shards=self.shards)
        if not self.svc.mmap_backed:
            raise SetupError(f"{self.svc!r} is not mmap-backed")
        src, dst = seeded_queries(net.num_nodes, self.batch * self.batches, seed)
        self.src = src.reshape(self.batches, self.batch)
        self.dst = dst.reshape(self.batches, self.batch)
        self.rng = np.random.default_rng([seed, 2])
        # page-in: one gather pass over every batch touches every table
        # page; the paths batch is the discarded warm-up of that code path
        for b in range(self.batches):
            self.svc.resolve(self.src[b], self.dst[b])
        self.svc.resolve(self.src[0], self.dst[0], paths=True)

    def op(self, i, tr):
        b = i % self.batches
        paths = i % self.round_len == self.round_len - 1
        with tr.span("serve.resolve_paths" if paths else "serve.resolve"):
            return self.svc.resolve(self.src[b], self.dst[b], paths=paths)

    def check(self, i, out) -> bool:
        """A seeded sample of the batch against the scalar table walk."""
        for k in self.rng.integers(0, len(out), self.sample).tolist():
            want = self.oracle.path(int(out.src[k]), int(out.dst[k]))
            first = want[1] if len(want) > 1 else want[0]
            if int(out.next_hop[k]) != first or int(out.distance[k]) != len(want) - 1:
                return False
            if out.paths is not None and out.path_list(k) != want:
                return False
        return True

    def work(self, out) -> float:
        return float(len(out))

    def layer_metrics(self, out, self_ms):
        return {"serve.bytes_computed": _gathered_bytes_per_query(out)}

    def close(self) -> None:
        self.svc = self.oracle = None
        cache.set_cache(None)
        if self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)
            self._dir = None


#: delivery_ratio, dropped, retransmitted, rerouted per (op seed, faults)
#: for the full-size instance; fault_sweep is deterministic per seed
FAULT_ROWS = {
    0: {0: (1.0, 0.0, 0.0, 0.0), 4: (1.0, 0.0, 0.0, 18.0), 16: (1.0, 0.0, 0.0, 40.0)},
    1: {0: (1.0, 0.0, 0.0, 0.0), 4: (1.0, 0.0, 0.0, 14.0), 16: (1.0, 0.0, 0.0, 72.0)},
    2: {0: (1.0, 0.0, 0.0, 0.0), 4: (1.0, 0.0, 0.0, 11.0), 16: (1.0, 1.0, 1.0, 54.0)},
}


class FaultSweep(_Workload):
    """Three single-trial link-fault sweeps (f = 0, 4, 16) per op.

    The op seeds come from a fixed catalog indexed by the op number, so
    every run replays the same ops and the same work whatever the run's
    seed; the seed sets the order in which the catalog is replayed.
    """

    name = "fault_sweep"
    counts = (0, 4, 16)
    rate = 0.05  # uniform traffic, packets per node per cycle

    def __init__(self, l=3, n=3, op_seeds=(0, 1, 2), cycles=60, expected=FAULT_ROWS):
        self.l, self.n = l, n
        self.op_seeds = op_seeds
        self.round_len = len(op_seeds)
        self.cycles = cycles
        self.expected = expected

    def _sweep(self, f, s):
        return fault_sweep(
            self.net, [f], trials=1, kind="link", rate=self.rate,
            cycles=self.cycles, seed=s, jobs=1,
        )[0]

    def setup(self, seed, tr) -> None:
        self.net = _build_hsn(self.l, self.n, tr)
        order = np.random.default_rng([seed, 3]).permutation(len(self.op_seeds))
        self.schedule = [self.op_seeds[k] for k in order]
        self.first_rows: dict[int, str] = {}
        # discarded warm-up: one faulted trial, on a seed outside the
        # catalog and the same in every run so set-up costs the same
        self._sweep(4, len(self.op_seeds))

    def op(self, i, tr):
        s = self.schedule[i % len(self.schedule)]
        rows = []
        for f in self.counts:
            with tr.span(f"fault.sweep.f{f}"):
                rows.append(self._sweep(f, s))
        return s, rows

    def check(self, i, payload) -> bool:
        s, rows = payload
        if rows[0]["faults"] != 0 or rows[0]["delivery_ratio"] != 1.0:
            return False
        key = json.dumps(rows, sort_keys=True)  # NaN-safe equality
        if self.first_rows.setdefault(s, key) != key:
            return False
        want = (self.expected or {}).get(s)
        if want is None:
            return True
        return all(
            (r["delivery_ratio"], r["dropped"], r["retransmitted"], r["rerouted"])
            == want[r["faults"]]
            for r in rows
        )

    def work(self, payload) -> float:
        return float(len(self.counts))

    def layer_metrics(self, payload, self_ms):
        rows = payload[1]
        return {
            f"fault.{k}": float(sum(r[k] for r in rows))
            for k in ("rerouted", "dropped", "retransmitted")
        }


class BuildScale(_Workload):
    """Large build: closure + labels, CSR, label lookups, percolation."""

    name = "build_scale"
    probs = [0.3, 0.5, 0.7]  # node survival probabilities of the percolation sweep

    def __init__(self, l=4, n=4, lookups=100_000):
        self.l, self.n = l, n
        self.lookups = lookups

    def setup(self, seed, tr) -> None:
        self.seed = seed
        net = _build_hsn(self.l, self.n, tr)
        self.ids = np.random.default_rng([seed, 4]).integers(
            0, net.num_nodes, self.lookups
        ).tolist()
        self.labels = [net.label_of(k) for k in self.ids]
        self.degrees = np.diff(net.adjacency_csr().indptr)
        # discarded warm-up: the rest of one op on the set-up build
        self._after_build(net, -1, _UNTRACED)

    def _after_build(self, net, i, tr):
        with tr.span("core.csr"):
            csr = net.adjacency_csr()
        with tr.span("core.node_of"):
            ids = [net.node_of(lab) for lab in self.labels]
        with tr.span("fault.percolation"):
            rows = percolation_sweep(
                net, probs=self.probs, trials=1, kind="node",
                seed=self.seed * 1_000_003 + i + 1, jobs=1,
            )
        return net, csr, ids, rows

    def op(self, i, tr):
        return self._after_build(_build_hsn(self.l, self.n, tr), i, tr)

    def check(self, i, payload) -> bool:
        net, csr, ids, rows = payload
        deg = np.diff(csr.indptr)
        giant = [r["giant_frac"] for r in rows]
        return (
            net.num_nodes == (2**self.n) ** self.l
            and (csr != csr.T).nnz == 0
            # HSN is not regular: degree d_G + (l - 1) at generic nodes
            # (Theorem 3.1), less where a transposition fixes the node
            and np.array_equal(deg, self.degrees)
            and int(deg.max()) == self.n + self.l - 1
            and ids == self.ids
            and all(a <= b for a, b in zip(giant, giant[1:]))
        )

    def work(self, payload) -> float:
        return float(payload[0].num_nodes)


def make(name: str, work_dir: Path):
    """The full-size workload called ``name``."""
    if name == "serve_replay":
        return ServeReplay(work_dir)
    return {"pipeline_cold": PipelineCold, "fault_sweep": FaultSweep,
            "build_scale": BuildScale}[name]()
