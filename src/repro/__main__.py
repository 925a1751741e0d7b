"""Command-line interface: inspect networks and regenerate paper figures.

Usage::

    python -m repro list
    python -m repro info hsn --param l=2 --param n=3 [--modules nucleus]
    python -m repro figure 2|3|4|5|53
    python -m repro summary --size 256
    python -m repro faults --faults 0,1,2,4 --trials 3 --jobs 4
    python -m repro faults --network hypercube --param n=4 --kind node
    python -m repro faults percolation --kind node --trials 8 --jobs 4
    python -m repro faults percolation --smoke
    python -m repro faults exhaustive --network hypercube --param n=4 --k 3
    python -m repro serve bench --queries 1000000 --cache-dir ~/.cache/repro
    python -m repro serve bench --shards 4 --cache-dir ~/.cache/repro
    python -m repro serve query --src 0,1 --dst 60,33
    python -m repro cache info
    python -m repro cache clear --cache-dir ~/.cache/repro
    python -m repro check lint src
    python -m repro check contracts --jobs 0
    python -m repro check perf src
    python -m repro check perf --measure --smoke

``info``, ``figure``, ``summary``, ``faults`` and ``serve`` accept
``--profile`` (print a timing/counter table after the command),
``--trace FILE`` (write the JSONL span trace of the run; see
:mod:`repro.obs`) and ``--cache-dir DIR`` (persistent graph/table
artifact cache; see :mod:`repro.cache`).  All but ``serve`` also accept
``--jobs N`` (process-pool fan-out, ``0`` = all cores, bit-identical to
serial); ``serve`` answers in one process, and processes share a table
by opening the same ``--cache-dir``.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable


def _parse_params(items: list[str]) -> dict:
    out: dict = {}
    for item in items:
        if "=" not in item:
            raise SystemExit(f"--param expects key=value, got {item!r}")
        k, v = item.split("=", 1)
        try:
            out[k] = int(v)
        except ValueError:
            if v.lower() in ("true", "false"):
                out[k] = v.lower() == "true"
            else:
                out[k] = v
    return out


def cmd_list(_args) -> int:
    from repro.networks import available

    for name in available():
        print(name)
    return 0


def cmd_info(args) -> int:
    from repro import metrics
    from repro.analysis.report import render_table
    from repro.networks import build

    g = build(args.network, **_parse_params(args.param))
    row = {
        "network": g.name,
        "N": g.num_nodes,
        "edges": g.num_edges(),
        "degree(max)": g.max_degree,
        "degree(min)": g.min_degree,
        "regular": g.is_regular(),
    }
    if g.num_nodes <= args.max_metric_nodes:
        s = metrics.distance_summary(g)
        row["diameter"] = s.diameter
        row["avg distance"] = round(s.average, 3)
        if args.modules == "nucleus":
            try:
                ma = metrics.nucleus_modules(g)
                ic = metrics.intercluster_summary(ma)
                row["I-degree"] = round(ic.i_degree, 3)
                row["I-diameter"] = ic.i_diameter
                row["avg I-dist"] = round(ic.avg_i_distance, 3)
            except (ValueError, AttributeError):
                pass
    print(render_table([row]))
    return 0


def cmd_summary(args) -> int:
    from repro.analysis import grand_comparison, render_table

    rows = grand_comparison(args.size, module_cap=args.module_cap, jobs=args.jobs)
    print(render_table(rows))
    return 0


def _faults_sweep_mode(args) -> int:
    from repro.analysis.report import render_table
    from repro.fault import fault_comparison, fault_sweep
    from repro.networks import build

    try:
        fault_counts = [int(f) for f in args.faults.split(",") if f != ""]
    except ValueError:
        raise SystemExit(f"--faults expects comma-separated ints, got {args.faults!r}")
    kw = dict(
        trials=args.trials,
        kind=args.kind,
        rate=args.rate,
        cycles=args.cycles,
        seed=args.seed,
        jobs=args.jobs,
    )
    if args.network is not None:
        g = build(args.network, **_parse_params(args.param))
        rows = fault_sweep(g, fault_counts, **kw)
    else:
        rows = fault_comparison(fault_counts=fault_counts, **kw)
    print(render_table(rows))
    return 0


def _parse_probs(spec: str | None) -> list[float] | None:
    if spec is None:
        return None
    try:
        return [float(p) for p in spec.split(",") if p != ""]
    except ValueError:
        raise SystemExit(f"--probs expects comma-separated floats, got {spec!r}")


def _faults_percolation_mode(args) -> int:
    from repro.analysis.report import render_table
    from repro.fault import (
        estimate_threshold,
        percolation_comparison,
        percolation_sweep,
    )
    from repro.networks import build

    probs = _parse_probs(args.probs)
    trials = args.trials
    traffic = not args.no_traffic
    if args.smoke:
        # CI-sized run: one small symmetric family, coarse grid, no traffic
        probs = probs or [0.2, 0.4, 0.6, 0.8, 1.0]
        trials = min(trials, 3)
        traffic = False
        if args.network is None:
            args.network = "hypercube"
            args.param = args.param or ["n=4"]
    if args.network is not None:
        g = build(args.network, **_parse_params(args.param))
        rows = percolation_sweep(
            g, probs, trials, kind=args.kind, seed=args.seed, jobs=args.jobs
        )
        print(render_table(rows))
        thr = estimate_threshold(rows)
        print(f"estimated threshold (giant_frac=0.5): {thr:.4g}")
        return 0
    rows = percolation_comparison(
        None,
        probs,
        trials,
        kind=args.kind,
        seed=args.seed,
        jobs=args.jobs,
        traffic=traffic,
        rate=args.rate,
        cycles=args.cycles,
    )
    print(render_table(rows))
    return 0


def _faults_exhaustive_mode(args) -> int:
    from repro.analysis.report import render_table
    from repro.fault import exhaustive_fault_sweep
    from repro.networks import build

    if args.network is None:
        raise SystemExit("faults exhaustive requires --network")
    g = build(args.network, **_parse_params(args.param))
    result = exhaustive_fault_sweep(g, args.k, kind=args.kind)
    s = result["summary"]
    print(
        f"{g.name}: {s['patterns']} {args.kind}-fault patterns (k={args.k}); "
        f"{s['disconnected_patterns']} disconnect"
    )
    print(
        f"connected: {s['connected_patterns']}/{s['patterns']}"
        f"{' (ALL)' if s['all_connected'] else ''}; "
        f"routability {s['routability']:.4f}; "
        f"mean components {s['mean_components']:.3f}"
    )
    if result["disconnecting"]:
        print(render_table([{"disconnecting pattern": str(p)} for p in result["disconnecting"]]))
    return 0


def cmd_faults(args) -> int:
    mode = {
        "sweep": _faults_sweep_mode,
        "percolation": _faults_percolation_mode,
        "exhaustive": _faults_exhaustive_mode,
    }[args.mode]
    return mode(args)


def cmd_figure(args) -> int:
    from repro.analysis import (
        fig2_dd_cost,
        fig3_intercluster,
        fig4_id_cost,
        fig5_ii_cost,
        render_table,
        sec53_offmodule_table,
    )

    fig = args.id
    if fig == "2":
        rows = fig2_dd_cost(args.max_log2)
    elif fig == "3":
        rows = fig3_intercluster()
    elif fig == "4":
        rows = fig4_id_cost(args.max_log2)
    elif fig == "5":
        rows = fig5_ii_cost(args.max_log2)
    elif fig == "53":
        # the only figure that builds graphs — the closed-form figures
        # (2–5) have nothing to fan out
        rows = sec53_offmodule_table(jobs=args.jobs)
    else:
        raise SystemExit(f"unknown figure {fig!r}; choose 2, 3, 4, 5 or 53")
    print(render_table(rows))
    return 0


def cmd_serve(args) -> int:
    from repro import obs
    from repro.cache import cached_next_hop_table
    from repro.networks import build
    from repro.serve import RouteService, run_load_test

    params = _parse_params(args.param)
    network = args.network
    if network is None:
        network = "hsn"
        params = params or {"l": 2, "n": 3}
    net = build(network, **params)
    svc = RouteService.open(net, shards=args.shards)
    if args.mode == "query":
        if args.src is None or args.dst is None:
            raise SystemExit("serve query requires --src and --dst (comma-separated ids)")
        try:
            src = [int(s) for s in args.src.split(",") if s != ""]
            dst = [int(s) for s in args.dst.split(",") if s != ""]
        except ValueError:
            raise SystemExit(
                f"--src/--dst expect comma-separated ints, got {args.src!r} / {args.dst!r}"
            )
        out = svc.resolve(src, dst, paths=True)
        for i in range(len(out)):
            print(
                f"{int(out.src[i])} -> {int(out.dst[i])}: "
                f"dist={int(out.distance[i])} path={out.path_list(i)}"
            )
        return 0
    table = None
    if not args.no_verify:
        table = cached_next_hop_table(net, with_distances=True)
    report = run_load_test(
        svc,
        table,
        queries=args.queries,
        batch=args.batch,
        seed=args.seed,
        verify_sample=args.verify_sample,
    )
    obs.emit_record(report)
    if report["mismatches"]:
        print(
            f"FAIL: {report['mismatches']} answers diverged from the scalar "
            f"NextHopTable.path walk",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_cache(args) -> int:
    from repro import cache

    store = cache.configure(args.cache_dir)
    if args.action == "clear":
        removed = store.clear()
        print(f"removed {removed} cached artifact(s) from {store.root}")
        return 0
    entries = store.entries()
    print(f"cache dir: {store.root}")
    print(f"entries:   {len(entries)}")
    print(f"bytes:     {store.size_bytes()}")
    if entries:
        print(f"{'key':<16} {'type':<4} {'kind':<24} {'schema':>6} {'ruleset':>7} engine")
        for p in entries:
            key = p.name.split(".")[0]
            prov = store.provenance(key) or {}
            print(
                f"{key[:16]:<16} {p.suffix[1:]:<4} {prov.get('kind', '?'):<24} "
                f"{prov.get('schema', '?'):>6} {prov.get('ruleset', '?'):>7} "
                f"{prov.get('engine', '?')}"
            )
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["check"]:
        # static-analysis layer has its own parser (repro.check.__main__)
        from repro.check.__main__ import main as check_main

        return check_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="repro", description="Index-permutation graph model toolkit"
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    profiled = argparse.ArgumentParser(add_help=False)
    profiled.add_argument(
        "--profile",
        action="store_true",
        help="print a timing/counter table after the command",
    )
    profiled.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write a JSONL trace of spans/events to FILE",
    )

    cached = argparse.ArgumentParser(add_help=False)
    cached.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="enable the persistent graph/table artifact cache rooted at DIR "
        "(see repro.cache; $REPRO_CACHE_DIR also works)",
    )
    tuned = argparse.ArgumentParser(add_help=False, parents=[cached])
    tuned.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for sweeps (0 = all cores; results are "
        "bit-identical to --jobs 1)",
    )

    sub.add_parser("list", help="list registered network families")

    p_info = sub.add_parser(
        "info",
        help="build a network and print its metrics",
        parents=[profiled, tuned],
    )
    p_info.add_argument("network", help="registry name (see `repro list`)")
    p_info.add_argument("--param", action="append", default=[], metavar="K=V")
    p_info.add_argument("--modules", choices=["none", "nucleus"], default="nucleus")
    p_info.add_argument("--max-metric-nodes", type=int, default=20000)

    p_fig = sub.add_parser(
        "figure",
        help="regenerate a paper figure/table",
        parents=[profiled, tuned],
    )
    p_fig.add_argument("id", help="2, 3, 4, 5 or 53 (Section 5.3 table)")
    p_fig.add_argument("--max-log2", type=int, default=20)

    p_sum = sub.add_parser(
        "summary",
        help="grand comparison of every family",
        parents=[profiled, tuned],
    )
    p_sum.add_argument("--size", type=int, default=256)
    p_sum.add_argument("--module-cap", type=int, default=16)

    p_flt = sub.add_parser(
        "faults",
        help="resilience: Monte-Carlo sweeps, percolation, exhaustive certification",
        parents=[profiled, tuned],
    )
    p_flt.add_argument(
        "mode",
        nargs="?",
        choices=["sweep", "percolation", "exhaustive"],
        default="sweep",
        help="sweep: Monte-Carlo delivery vs fault count (default); "
        "percolation: giant-component/routability vs survival probability "
        "with threshold estimates; exhaustive: certify every k-fault "
        "pattern and list the ones that disconnect the network",
    )
    p_flt.add_argument(
        "--network",
        default=None,
        help="registry name (default: the HSN/CN/baseline comparison set)",
    )
    p_flt.add_argument("--param", action="append", default=[], metavar="K=V")
    p_flt.add_argument(
        "--faults", default="0,1,2,4", help="comma-separated fault counts"
    )
    p_flt.add_argument("--trials", type=int, default=3)
    p_flt.add_argument("--kind", choices=["link", "node"], default="link")
    p_flt.add_argument("--rate", type=float, default=0.05)
    p_flt.add_argument("--cycles", type=int, default=60)
    p_flt.add_argument("--seed", type=int, default=0)
    p_flt.add_argument(
        "--probs",
        default=None,
        metavar="P1,P2,...",
        help="percolation mode: survival-probability grid "
        "(default: 0.05..1.0 in steps of 0.05)",
    )
    p_flt.add_argument(
        "--k",
        type=int,
        default=2,
        help="exhaustive mode: number of simultaneous faults to certify",
    )
    p_flt.add_argument(
        "--no-traffic",
        action="store_true",
        help="percolation comparison: skip degraded-traffic probes around "
        "the threshold",
    )
    p_flt.add_argument(
        "--smoke",
        action="store_true",
        help="percolation mode: CI-sized run (coarse grid, few trials, "
        "no traffic; defaults to hypercube n=4)",
    )

    p_srv = sub.add_parser(
        "serve",
        help="routing-as-a-service: batched route resolution over "
        "mmap-shared next-hop tables",
        parents=[profiled, cached],
    )
    p_srv.add_argument(
        "mode",
        nargs="?",
        choices=["bench", "query"],
        default="bench",
        help="bench: replay a seeded query stream and report qps/latency "
        "(default); query: resolve explicit --src/--dst pairs",
    )
    p_srv.add_argument(
        "--network", default=None, help="registry name (default: hsn l=2 n=3)"
    )
    p_srv.add_argument("--param", action="append", default=[], metavar="K=V")
    p_srv.add_argument(
        "--queries", type=int, default=200_000, help="replayed query count"
    )
    p_srv.add_argument(
        "--batch", type=int, default=50_000, help="queries per resolve batch"
    )
    p_srv.add_argument(
        "--shards",
        type=int,
        default=1,
        help="split the table into N dst-row shards (row views of one mmap spill)",
    )
    p_srv.add_argument("--seed", type=int, default=0)
    p_srv.add_argument(
        "--verify-sample",
        type=int,
        default=2000,
        help="seeded sample size checked bit-for-bit against the scalar "
        "NextHopTable.path walk",
    )
    p_srv.add_argument(
        "--no-verify", action="store_true", help="skip the scalar cross-check"
    )
    p_srv.add_argument("--src", default=None, metavar="I,J,...")
    p_srv.add_argument("--dst", default=None, metavar="I,J,...")

    p_cache = sub.add_parser(
        "cache", help="inspect or clear the persistent artifact cache"
    )
    p_cache.add_argument("action", choices=["info", "clear"])
    p_cache.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="cache root (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )

    # listed for --help only; real dispatch happens before parsing above
    sub.add_parser(
        "check",
        help="static analysis + sanitizers: lint, contracts, dataflow, "
        "sanitize, perf (see `repro check --help`)",
    )

    args = parser.parse_args(argv)
    cmd = {
        "list": cmd_list,
        "info": cmd_info,
        "figure": cmd_figure,
        "summary": cmd_summary,
        "faults": cmd_faults,
        "serve": cmd_serve,
        "cache": cmd_cache,
    }[args.cmd]

    if args.cmd != "cache" and getattr(args, "cache_dir", None) is not None:
        from repro import cache

        cache.configure(args.cache_dir)

    profile = getattr(args, "profile", False)
    trace = getattr(args, "trace", None)
    if not (profile or trace):
        return cmd(args)

    from repro import obs

    obs.reset()
    obs.enable(trace=trace)
    try:
        rc = cmd(args)
        if profile:
            print()
            print(obs.format_report())
        if trace:
            print(f"trace written to {trace}")
    finally:
        obs.disable()
    return rc


def exit_with(entry: Callable[[], int]) -> None:
    """Exit with ``entry()``'s status; when the reader of stdout has gone
    (``... | head``), exit quietly with status 1 instead of a traceback."""
    try:
        rc = entry()
        sys.stdout.flush()  # a closed pipe surfaces here, not at shutdown
    except BrokenPipeError:
        # the recipe of the Python docs (signal module, "Note on SIGPIPE"):
        # point stdout at devnull so the flush at shutdown cannot fail too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        rc = 1
    sys.exit(rc)


if __name__ == "__main__":
    exit_with(main)
