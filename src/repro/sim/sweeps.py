"""Offered-load sweeps and saturation analysis.

"The maximum possible throughput of a network is inversely proportional to
these parameters for any switching technique" (§5.1) — to see that, one
sweeps the injection rate and finds where latency blows up.  These helpers
run that experiment reproducibly.

Each rate point is an independent task seeded from ``seed`` alone, so the
sweep fans out over a process pool (``jobs``) with bit-identical results
to the serial run (see :mod:`repro.parallel`).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.network import Network
from repro.parallel import run_tasks

from .simulator import PacketSimulator
from .workloads import uniform_random_array

__all__ = ["offered_load_sweep", "saturation_rate"]


def _validated_rates(rates) -> list[float]:
    """A non-empty, strictly increasing list of non-negative rates.

    Raises a descriptive ``ValueError`` otherwise — saturation detection
    scans rows in rate order, so an empty or unsorted input would silently
    produce a meaningless answer.
    """
    out = [float(r) for r in rates]
    if not out:
        raise ValueError("rates must be a non-empty list of injection rates")
    for r in out:
        if not 0.0 <= r <= 1.0 or math.isnan(r):
            raise ValueError(f"injection rates must lie in [0, 1], got {r!r}")
    if any(b <= a for a, b in zip(out, out[1:])):
        raise ValueError(
            f"rates must be strictly increasing (saturation detection scans "
            f"them in order), got {out!r}"
        )
    return out


def _rate_point(ctx: dict, rate: float) -> dict:
    """One offered-load measurement (module-level for process-pool pickling)."""
    net = ctx["net"]
    cycles = ctx["cycles"]
    rng = np.random.default_rng(ctx["seed"])
    sim = PacketSimulator(net, delays=ctx["delays"], module_of=ctx["module_of"])
    stats = sim.run(
        uniform_random_array(net, rate, cycles, rng),
        max_cycles=cycles * ctx["max_cycles_factor"],
    )
    return {
        "rate": rate,
        "mean_latency": stats.mean_latency,
        "p99_latency": stats.p99_latency,
        "throughput": stats.throughput,
        "delivered": stats.delivered,
        "undelivered": stats.undelivered,
    }


def offered_load_sweep(
    net: Network,
    delays,
    rates: list[float],
    cycles: int = 200,
    seed: int = 0,
    module_of=None,
    max_cycles_factor: int = 50,
    jobs: int = 1,
) -> list[dict]:
    """Mean latency and delivered throughput at each injection rate.

    Each run injects for ``cycles`` cycles and then drains (up to
    ``max_cycles_factor × cycles``); undelivered packets at the cutoff are
    counted so saturation shows both as latency growth and as loss.

    ``rates`` must be non-empty and strictly increasing (``ValueError``
    otherwise).  ``jobs`` fans the rate points out over a process pool
    (``0`` = all cores) with results bit-identical to the serial sweep;
    with ``jobs != 1`` any ``module_of`` must be picklable (an array or a
    module-level function, not a lambda).
    """
    checked = _validated_rates(rates)
    ctx = {
        "net": net,
        "delays": delays,
        "cycles": cycles,
        "seed": seed,
        "module_of": module_of,
        "max_cycles_factor": max_cycles_factor,
    }
    return run_tasks(_rate_point, ctx, checked, jobs=jobs)


def saturation_rate(
    net: Network,
    delays,
    rates: list[float],
    latency_blowup: float = 4.0,
    **kw,
) -> float:
    """First injection rate that saturates the network (∞ if none does).

    Saturation shows either as **loss** (undelivered packets at the drain
    cutoff) or as **latency blow-up**: mean latency exceeding
    ``latency_blowup`` times the baseline latency.  The baseline is the
    first swept rate that actually delivered packets with a positive finite
    mean latency — *not* blindly ``rates[0]``, whose latency is NaN when a
    near-zero rate delivers nothing (the old behavior silently disabled
    the blow-up test in that case).  Degenerate sweeps where no rate
    delivers anything (and nothing is lost) return ∞.

    A simple, deterministic stand-in for the saturation point; relative
    comparisons between networks are what the paper's claims need.
    Keyword arguments (``cycles``, ``seed``, ``jobs``, ...) pass through to
    :func:`offered_load_sweep`.
    """
    rows = offered_load_sweep(net, delays, rates, **kw)
    baseline = float("nan")
    for r in rows:
        if r["delivered"] > 0 and r["mean_latency"] > 0 and math.isfinite(r["mean_latency"]):
            baseline = r["mean_latency"]
            break
    for r in rows:
        if r["undelivered"] > 0:
            return r["rate"]
        if r["mean_latency"] > latency_blowup * baseline:  # False while baseline is NaN
            return r["rate"]
    return float("inf")
