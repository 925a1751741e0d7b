"""Timing loop, benchmark-side spans and metric assembly for ``perfbench``.

A workload object provides:

* ``setup(seed, tracer)`` — one complete set-up (instance, tables, spills,
  page-in, one discarded warm-up op); run ``SETUP_REPS`` times, the last
  one's state is kept;
* ``op(i, tracer)`` — op number ``i`` of the closed loop; returns the
  payload its check needs;
* ``check(i, payload) -> bool`` — output check, run outside the timed
  section;
* ``work(payload) -> float`` — work units the op completed;
* ``layer_metrics(payload, self_ms) -> dict`` — derived per-op layer
  values (rates, counts) for traced ops;
* ``round_len`` — ops per round; the loop only stops between rounds, so
  every run executes the same op mix;
* ``collect_after_op`` — collect garbage (untimed) after every op, for
  ops that leave cyclic garbage behind.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict

import numpy as np

from repro import obs

SETUP_REPS = 3

#: seconds the host probe takes on the reference host; reported times are
#: scaled to it (see HostClock)
PROBE_REF_S = 5e-3

#: longest stretch of ops between two host probes, seconds
PROBE_EVERY_S = 0.25

#: a p99 needs at least ten ops beyond it; with fewer ops no percentile
#: above the median is supported and op_p99_ms reports the median
MIN_TAIL_OPS = 1000

#: span name -> per-layer metric (self time, ms)
LAYER_SPANS = {
    "networks.build": "networks.build_ms",
    "core.csr": "core.csr_ms",
    "core.node_of": "core.node_of_ms",
    "routing.table": "routing.table_ms",
    "cache.table_miss": "cache.table_miss_ms",
    "cache.table_hit": "cache.table_hit_ms",
    "serve.open": "serve.open_ms",
    "serve.from_table": "serve.from_table_ms",
    "serve.resolve": "serve.resolve_ms",
    "serve.resolve_paths": "serve.resolve_paths_ms",
    "sim.init": "sim.init_ms",
    "sim.run": "sim.run_ms",
    "fault.percolation": "fault.percolation_ms",
    "fault.sweep.f0": "fault.sweep_ms.f0",
    "fault.sweep.f4": "fault.sweep_ms.f4",
    "fault.sweep.f16": "fault.sweep_ms.f16",
}

#: repro.obs counter -> per-layer metric (delta per traced op)
LAYER_COUNTERS = {
    "routing.table.builds": "routing.table_builds",
    "serve.queries": "serve.queries",
}

#: per-layer metrics the workloads derive from op outputs
DERIVED = {
    "sim.pkts_per_s": "1/s",
    "serve.bytes_computed": "B/query",
    "fault.rerouted": "count",
    "fault.dropped": "count",
    "fault.retransmitted": "count",
}

PER_LAYER_UNITS = {
    **{m: "ms" for m in LAYER_SPANS.values()},
    **{m: "count" for m in LAYER_COUNTERS.values()},
    **DERIVED,
    "other_ms": "ms",
    "obs.trace_overhead_pct": "%",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "work_per_s": "1/s",
    "peak_rss_mb": "MiB",
}


_NO_SPAN = contextlib.nullcontext()


class _Span:
    __slots__ = ("tracer", "name", "sid", "parent", "t0")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        tr = self.tracer
        self.sid = tr._next_id
        tr._next_id += 1
        self.parent = tr._stack[-1] if tr._stack else None
        tr._stack.append(self.sid)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        t1 = time.perf_counter()
        tr = self.tracer
        tr._stack.pop()
        tr.spans.append(
            {"op": tr.op, "id": self.sid, "parent": self.parent,
             "name": self.name, "start": self.t0, "end": t1}
        )


class Tracer:
    """Spans around public calls, kept in memory until the run ends.

    Each span records name, start, end, its parent span and the id of the
    op (or set-up repetition) it belongs to.  While inactive, ``span``
    returns a shared no-op, so untraced ops pay one attribute test.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.active = False
        self.op: str | None = None
        self._stack: list[int] = []
        self._next_id = 0

    def span(self, name: str) -> "_Span | contextlib.nullcontext":
        return _Span(self, name) if self.active else _NO_SPAN


class HostClock:
    """Host-speed probe, so that reported times follow the code, not the host.

    The host's cores and caches are shared with other tenants, and its speed
    drifts by up to ±25% over seconds to minutes; interpreter-bound and
    memory-bound code slow down together.  A fixed probe, independent of
    ``repro`` (a Python loop plus a random gather from a 16 MiB array), is
    timed between ops, at least every ``PROBE_EVERY_S``.  A span of host
    time is scaled by ``PROBE_REF_S`` over the mean of the probes just
    before and just after it, so it reads as seconds on a host where the
    probe takes ``PROBE_REF_S``.  A change to ``repro`` moves the scaled
    times in full, because the probe runs none of its code.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._data = rng.integers(0, 1 << 30, 4 << 20, dtype=np.int32)
        self._index = rng.integers(0, self._data.size, 200_000)
        self._ends: list[float] = []
        self._secs: list[float] = []

    def _once(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for k in range(40_000):
            acc += k * k
        int(self._data[self._index].sum())
        return time.perf_counter() - t0

    def probe(self) -> None:
        """Time the probe (median of three) and record when it ended."""
        self._secs.append(statistics.median(self._once() for _ in range(3)))
        self._ends.append(time.perf_counter())

    def since_probe(self) -> float:
        return time.perf_counter() - self._ends[-1]

    def scale(self, t0: float, t1: float) -> float:
        """Factor from host seconds spent in ``[t0, t1]`` to reference
        seconds, from the last probe before ``t0`` and the first after ``t1``."""
        before = bisect.bisect_right(self._ends, t0) - 1
        after = bisect.bisect_left(self._ends, t1)
        near = [self._secs[k] for k in (before, after) if 0 <= k < len(self._secs)]
        return PROBE_REF_S / statistics.fmean(near)

    def median_s(self) -> float:
        return statistics.median(self._secs)


def self_times_ms(spans: list[dict], root: str) -> tuple[float, dict[str, float]]:
    """``(wall_ms, {name: self_ms})`` of the spans of one op.

    A span's self time is its duration minus that of its direct children;
    the root's self time is returned under ``"other"``, so the values sum
    to the root's wall time.
    """
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    wall = 0.0
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        own = (s["end"] - s["start"] - covered[s["id"]]) * 1e3
        if s["name"] == root:
            wall = (s["end"] - s["start"]) * 1e3
            out["other"] += own
        else:
            out[s["name"]] += own
    return wall, dict(out)


def _counters() -> dict[str, float]:
    return dict(obs.registry().counters)


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(wl, seed: int, seconds: float, trace: bool, started: float):
    """Set up ``wl``, run its closed loop for ``seconds``, return
    ``(result, spans)`` where ``result`` is the benchmark's JSON record.

    ``started`` is the ``perf_counter`` reading at process start, so set-up
    time includes the imports.  Untraced runs report the end-to-end
    metrics, in host-probe-scaled time (see ``HostClock``).  Traced runs
    alternate untraced and traced rounds (at least one of each): the traced
    rounds give per-layer self times and ``repro.obs`` counter deltas, and
    the two halves give the tracing overhead.
    """
    imported = time.perf_counter()
    clock = HostClock()
    clock.probe()
    import_s = (imported - started) * clock.scale(started, imported)
    tracer = Tracer()
    setup_s = []
    for rep in range(SETUP_REPS):
        gc.collect()
        tracer.active, tracer.op = trace, f"setup{rep}"
        t0 = time.perf_counter()
        with tracer.span("setup"):
            wl.setup(seed, tracer)
        t1 = time.perf_counter()
        tracer.active = False
        clock.probe()
        setup_s.append((t1 - t0) * clock.scale(t0, t1))

    timed: list[tuple[float, float, bool]] = []  # (start, end, traced) per good op
    work = 0.0
    attempted = failed = 0
    op_records: list[dict] = []
    gc.collect()
    gc.disable()
    try:
        deadline = time.perf_counter() + seconds
        rnd = 0
        while True:
            traced = trace and rnd % 2 == 1
            if traced:
                obs.enable()
            for j in range(wl.round_len):
                i = rnd * wl.round_len + j
                if clock.since_probe() >= PROBE_EVERY_S:
                    clock.probe()
                tracer.active, tracer.op = traced, f"op{i}"
                before = _counters() if traced else None
                first_span = len(tracer.spans)
                payload = None
                t0 = time.perf_counter()
                try:
                    with tracer.span("op"):
                        payload = wl.op(i, tracer)
                    t1 = time.perf_counter()
                    tracer.active = False
                    after = _counters() if traced else None  # before the check's calls
                    ok = bool(wl.check(i, payload))
                except Exception:  # a raising op counts as failed, run goes on
                    tracer.active = False
                    traceback.print_exc()
                    ok = False
                attempted += 1
                if ok:
                    timed.append((t0, t1, traced))
                    work += wl.work(payload)
                    if traced:
                        op_records.append(
                            _op_record(wl, tracer.spans[first_span:], payload, before, after)
                        )
                else:
                    failed += 1
                del payload
                if wl.collect_after_op:
                    gc.collect()
            if traced:
                obs.disable()
            rnd += 1
            if time.perf_counter() >= deadline and rnd >= (2 if trace else 1):
                break
    finally:
        gc.enable()
        obs.disable()
        wl.close()
    clock.probe()

    lat = {False: [], True: []}  # traced? -> scaled op seconds
    for t0, t1, traced in timed:
        lat[traced].append((t1 - t0) * clock.scale(t0, t1))
    raw = sorted(t1 - t0 for t0, t1, _ in timed)
    print(
        f"{wl.name}: {attempted} ops ({failed} failed); host probe median "
        f"{clock.median_s() * 1e3:.2f} ms (reference {PROBE_REF_S * 1e3:.2f}); "
        f"scaled set-up reps {', '.join(f'{t:.3f}' for t in setup_s)} s; "
        f"unscaled op min/median/max "
        f"{raw[0] * 1e3:.1f}/{statistics.median(raw) * 1e3:.1f}/{raw[-1] * 1e3:.1f} ms"
        if raw else f"{wl.name}: {attempted} ops, all failed",
        file=sys.stderr,
    )
    if trace:
        metrics = _per_layer(tracer.spans, op_records, lat)
    else:
        # with no successful op the latencies read 0; the record says
        # correct: false either way
        ok_lat = np.asarray(lat[False] or [0.0]) * 1e3
        values = {
            "setup_s": import_s + statistics.median(setup_s),
            "op_p50_ms": float(np.percentile(ok_lat, 50)),
            "op_p99_ms": float(
                np.percentile(ok_lat, 99 if ok_lat.size >= MIN_TAIL_OPS else 50)
            ),
            "work_per_s": work / (ok_lat.sum() / 1e3) if work else 0.0,
            "peak_rss_mb": _peak_rss_mib(),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, tracer.spans


def _op_record(wl, spans: list[dict], payload, before: dict, after: dict) -> dict:
    _, self_ms = self_times_ms(spans, "op")
    return {
        "self_ms": self_ms,
        "derived": wl.layer_metrics(payload, self_ms),
        "counters": {
            metric: after.get(name, 0) - before.get(name, 0)
            for name, metric in LAYER_COUNTERS.items()
        },
    }


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def _mean(xs: list[float]) -> float:
    return statistics.fmean(xs) if xs else 0.0


def _per_layer(spans: list[dict], ops: list[dict], lat: dict) -> dict:
    """Per-layer metrics: span self times are medians over the traced ops
    that called the layer (over the set-up repetitions for layers only set
    up, such as the cache and the service open); counts and derived rates
    are means over traced ops; layers a workload never calls read 0."""
    setup_self: dict[str, list[float]] = defaultdict(list)
    for op in sorted({s["op"] for s in spans if s["op"].startswith("setup")}):
        _, self_ms = self_times_ms([s for s in spans if s["op"] == op], "setup")
        for name, ms in self_ms.items():
            setup_self[name].append(ms)
    values: dict[str, float] = {}
    for name, metric in LAYER_SPANS.items():
        in_ops = [r["self_ms"][name] for r in ops if name in r["self_ms"]]
        samples = in_ops or setup_self.get(name, [])
        values[metric] = _median(samples)
    for metric in LAYER_COUNTERS.values():
        values[metric] = _mean([r["counters"][metric] for r in ops])
    for metric in DERIVED:
        values[metric] = _mean([r["derived"].get(metric, 0.0) for r in ops])
    values["other_ms"] = _median([r["self_ms"]["other"] for r in ops])
    untraced = _median(lat[False])
    values["obs.trace_overhead_pct"] = (
        100.0 * (_median(lat[True]) / untraced - 1.0) if untraced else 0.0
    )
    return {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in values.items()}
