"""Process-wide metrics registry: counters, gauges, and timer/value
summaries, each backed by one exact histogram.

The registry is deliberately simple — plain dicts of scalars and
summaries — so a snapshot (:meth:`MetricsRegistry.report`) is always
JSON-serializable and a no-op twin (:class:`NoopRegistry`) can mirror the
full API with zero state.

Design rule for hot paths: *accumulate locally, record once*.  Instrumented
kernels keep per-iteration tallies in local variables and make a handful of
registry calls per invocation, so the disabled path costs nothing and the
enabled path stays off the per-node/per-arc critical loop.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .histogram import LatencyHistogram

__all__ = ["Summary", "TimerSummary", "MetricsRegistry", "NoopRegistry", "NOOP_REGISTRY"]


class Summary:
    """Distribution of one observed metric (hop counts, frontier sizes).

    Count / total / min / max are exact, and percentiles come from an
    exact :class:`~repro.obs.histogram.LatencyHistogram` over every
    observation, so they equal ``np.percentile`` of the whole stream.
    Values must be non-negative ints; anything else raises
    :class:`ValueError` naming the value.
    """

    __slots__ = ("total", "min", "max", "hist")

    #: histogram units per reported unit
    per_unit = 1

    def __init__(self) -> None:
        self.total = 0
        self.min = math.inf
        self.max = -math.inf
        self.hist = LatencyHistogram()

    @property
    def count(self) -> int:
        return self.hist.count

    def observe(self, value: int) -> None:
        """Record one non-negative int."""
        self.hist.add(value)
        value = int(value)
        self._extend(value, value, value)

    def observe_array(self, values: np.ndarray) -> None:
        """Record an array of non-negative ints (vectorized, no per-element
        Python)."""
        values = np.asarray(values)
        self.hist.add_array(values)
        if values.size:
            self._extend(int(values.sum()), int(values.min()), int(values.max()))

    def _extend(self, total, lo, hi) -> None:
        self.total += total
        if lo < self.min:
            self.min = lo
        if hi > self.max:
            self.max = hi

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def percentile(self, q: float) -> float:
        """``np.percentile`` of every observation (linear interpolation)."""
        return self.hist.percentile(q) / self.per_unit

    def as_dict(self) -> dict:
        return {
            "count": int(self.count),
            "total": float(self.total),
            "mean": float(self.mean) if self.count else None,
            "min": float(self.min) if self.count else None,
            "max": float(self.max) if self.count else None,
            "p50": float(self.percentile(50)) if self.count else None,
            "p99": float(self.percentile(99)) if self.count else None,
        }


class TimerSummary(Summary):
    """Summary of durations in seconds.

    Count / total / min / max are exact; the histogram holds whole
    microseconds, so percentiles are exact to 1 µs.
    """

    __slots__ = ()

    per_unit = 1_000_000

    def observe(self, seconds: float) -> None:
        """Record one duration (seconds)."""
        seconds = float(seconds)
        self.hist.add(round(seconds * self.per_unit))
        self._extend(seconds, seconds, seconds)


class _TimerContext:
    """``with registry.timer("name"):`` — records a wall-clock duration."""

    __slots__ = ("_registry", "_name", "_t0", "elapsed")

    def __init__(self, registry: "MetricsRegistry", name: str):
        self._registry = registry
        self._name = name
        self._t0 = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "_TimerContext":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = time.perf_counter() - self._t0
        self._registry.observe_timer(self._name, self.elapsed)


class MetricsRegistry:
    """Counters + gauges + timer/value summaries behind string names.

    Not thread-safe by design (the kernels it instruments are
    single-threaded); wrap access in a lock if you share one across threads.
    """

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.timers: dict[str, TimerSummary] = {}
        self.values: dict[str, Summary] = {}

    # -- recording ------------------------------------------------------
    def incr(self, name: str, n: float = 1) -> None:
        """Add ``n`` to counter ``name`` (created at 0)."""
        self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        self.gauges[name] = value

    def gauge_max(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``max(current, value)``."""
        cur = self.gauges.get(name)
        if cur is None or value > cur:
            self.gauges[name] = value

    def observe(self, name: str, value: int) -> None:
        """Record the non-negative int ``value`` into summary ``name``."""
        _feed(self.values, Summary, name, Summary.observe, value)

    def observe_array(self, name: str, values: np.ndarray) -> None:
        """Record an array of non-negative ints into summary ``name``."""
        _feed(self.values, Summary, name, Summary.observe_array, values)

    def observe_timer(self, name: str, seconds: float) -> None:
        """Record a duration (seconds) into timer summary ``name``."""
        _feed(self.timers, TimerSummary, name, TimerSummary.observe, seconds)

    def timer(self, name: str) -> _TimerContext:
        """Context manager timing its body into timer ``name``."""
        return _TimerContext(self, name)

    # -- snapshot -------------------------------------------------------
    def report(self) -> dict:
        """JSON-serializable snapshot of everything recorded so far."""
        return {
            "counters": {k: (int(v) if float(v).is_integer() else float(v))
                         for k, v in sorted(self.counters.items())},
            "gauges": {k: float(v) for k, v in sorted(self.gauges.items())},
            "timers": {k: s.as_dict() for k, s in sorted(self.timers.items())},
            "values": {k: s.as_dict() for k, s in sorted(self.values.items())},
        }

    def reset(self) -> None:
        """Drop all recorded metrics."""
        self.counters.clear()
        self.gauges.clear()
        self.timers.clear()
        self.values.clear()


def _feed(table: dict, cls: type, name: str, record, value) -> None:
    """``record(summary, value)`` into ``table[name]`` (a new ``cls`` if
    absent); a rejected value's ``ValueError`` names the metric."""
    s = table.get(name)
    if s is None:
        s = table[name] = cls()
    try:
        record(s, value)
    except ValueError as err:
        raise ValueError(f"metric {name!r}: {err}") from None


class _NoopTimerContext:
    """Shared, stateless ``with`` block — the disabled-path timer."""

    __slots__ = ()
    elapsed = 0.0

    def __enter__(self) -> "_NoopTimerContext":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NOOP_TIMER = _NoopTimerContext()


class NoopRegistry(MetricsRegistry):
    """Registry twin whose every method does nothing.

    A single module-level instance (:data:`NOOP_REGISTRY`) is handed out
    whenever observability is disabled, so instrumented code never branches
    — it always talks to *a* registry — and the disabled path allocates
    nothing (``timer`` returns one shared context manager).
    """

    def incr(self, name: str, n: float = 1) -> None:
        return None

    def gauge(self, name: str, value: float) -> None:
        return None

    def gauge_max(self, name: str, value: float) -> None:
        return None

    def observe(self, name: str, value: int) -> None:
        return None

    def observe_array(self, name: str, values: np.ndarray) -> None:
        return None

    def observe_timer(self, name: str, seconds: float) -> None:
        return None

    def timer(self, name: str) -> _NoopTimerContext:
        return _NOOP_TIMER

    def report(self) -> dict:
        return {"counters": {}, "gauges": {}, "timers": {}, "values": {}}


NOOP_REGISTRY = NoopRegistry()
