"""The one histogram behind every reported distribution: simulator
latencies (:class:`repro.sim.StreamingStats`), registry summaries
(:class:`repro.obs.Summary`; timers in whole microseconds) and the serving
harness's batch times."""

from __future__ import annotations

import math
import operator

import numpy as np

__all__ = ["LatencyHistogram", "LATENCY_BINS"]

#: dense unit-width bins kept as a flat array; rarer larger values spill
#: into a dict keyed by exact value
LATENCY_BINS = 4096


def _reject(what) -> ValueError:
    return ValueError(f"histogram values must be ints >= 0, got {what}")


class LatencyHistogram:
    """Exact histogram of non-negative integer values.

    Values below :data:`LATENCY_BINS` land in a dense count array, larger
    ones in a sparse value → count dict, so memory is bounded by the number
    of *distinct* values.  Every value keeps its exact count, so any order
    statistic is recoverable exactly — :meth:`percentile` reproduces
    ``np.percentile(values, q)`` (linear interpolation) bit for bit
    without retaining the values.  Anything but a non-negative int (a
    float, a negative, a float array) raises :class:`ValueError` naming
    the value; nothing is truncated.
    """

    __slots__ = ("count", "_dense", "_sparse")

    def __init__(self) -> None:
        self.count = 0
        self._dense = np.zeros(LATENCY_BINS, dtype=np.int64)
        self._sparse: dict[int, int] = {}

    def add(self, value: int) -> None:
        """Record one observation."""
        try:
            v = operator.index(value)
        except TypeError:
            raise _reject(repr(value)) from None
        if v < 0:
            raise _reject(v)
        if v < LATENCY_BINS:
            self._dense[v] += 1
        else:
            self._sparse[v] = self._sparse.get(v, 0) + 1
        self.count += 1

    def add_array(self, values: np.ndarray) -> None:
        """Record a batch of observations (int array, all >= 0)."""
        values = np.asarray(values)
        if values.size == 0:
            return
        if values.dtype.kind not in "iu":
            raise _reject(f"a {values.dtype} array")
        if values.min() < 0:
            raise _reject(int(values.min()))
        small = values < LATENCY_BINS
        dense = values[small] if not small.all() else values
        if dense.size:
            self._dense += np.bincount(dense.ravel(), minlength=LATENCY_BINS)
        if dense.size != values.size:
            big, cnt = np.unique(values[~small], return_counts=True)
            for v, c in zip(big.tolist(), cnt.tolist()):
                self._sparse[v] = self._sparse.get(v, 0) + c
        self.count += int(values.size)

    # ------------------------------------------------------------------
    def value_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """``(values, counts)`` over observed values, ascending, counts > 0."""
        vals = np.flatnonzero(self._dense)
        cnts = self._dense[vals]
        if self._sparse:
            sv = np.array(sorted(self._sparse), dtype=np.int64)
            sc = np.array([self._sparse[v] for v in sv.tolist()], dtype=np.int64)
            vals = np.concatenate([vals.astype(np.int64), sv])
            cnts = np.concatenate([cnts, sc])
        return vals.astype(np.int64), cnts.astype(np.int64)

    def kth(self, k: int) -> int:
        """The ``k``-th smallest observation (0-based)."""
        if not 0 <= k < self.count:
            raise IndexError(f"order statistic {k} of {self.count} observations")
        vals, cnts = self.value_counts()
        cum = np.cumsum(cnts)
        return int(vals[np.searchsorted(cum, k, side="right")])

    def percentile(self, q: float) -> float:
        """``np.percentile(values, q)`` (linear interpolation), exactly.

        Mirrors NumPy's arithmetic — virtual index ``(q/100)·(n−1)``, then
        ``a + (b−a)·γ`` below γ=0.5 and ``b − (b−a)·(1−γ)`` above — so the
        streaming result is bit-identical to the retained-array one.
        """
        if self.count == 0:
            return float("nan")
        n = self.count
        virtual = (float(q) / 100.0) * (n - 1)
        lo = int(math.floor(virtual))
        lo = min(max(lo, 0), n - 1)
        gamma = virtual - lo
        a = self.kth(lo)
        b = self.kth(min(lo + 1, n - 1))
        diff = b - a
        if gamma >= 0.5:
            return float(b - diff * (1.0 - gamma))
        return float(a + diff * gamma)

    def __repr__(self) -> str:
        return (
            f"LatencyHistogram(count={self.count}, "
            f"overflow={len(self._sparse)})"
        )
