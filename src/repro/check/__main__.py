"""CLI for the static-analysis subsystem.

Usage::

    python -m repro.check lint [PATH ...]        # default: src
    python -m repro.check contracts [--family NAME ...]
    python -m repro.check dataflow [PATH ...]    # default: src
    python -m repro.check sanitize [--smoke]
    python -m repro.check perf [PATH ...]        # static hot-path lint
    python -m repro.check perf --measure [--smoke] [--update-budgets] [--budgets PATH]
                                         [--update-contracts] [--contracts PATH]

Exit status is 0 when clean, 1 when any finding is reported — suitable
for CI gates (see ``scripts/ci.sh``) — and 2 on a usage error, including
a ``--measure`` run whose budget or contract file does not exist.  Every subcommand accepts
``--profile`` to print the obs counter/timer table afterwards.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def build_parser() -> argparse.ArgumentParser:
    """The ``repro.check`` argument parser (reused by ``repro check``)."""
    parser = argparse.ArgumentParser(
        prog="repro.check",
        description=(
            "static analysis + runtime sanitizers, one tier per subcommand: "
            "lint (source hygiene), contracts (paper invariants), dataflow "
            "(determinism/cache keys), sanitize (runtime determinism), perf "
            "(hot-path vectorization + profile-guided budgets and recorded "
            "shape contracts). "
            "Exit status is 0 when clean, 1 when any finding is reported."
        ),
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_lint = sub.add_parser(
        "lint", help="static source-hygiene linter (RPR001+ custom rules)"
    )
    p_lint.add_argument(
        "paths", nargs="*", default=["src"], help="files/directories to lint (default: src)"
    )
    p_lint.add_argument("--profile", action="store_true", help="print obs counters after")

    p_con = sub.add_parser(
        "contracts", help="paper-invariant contract sweep over the network registry"
    )
    p_con.add_argument(
        "--family",
        action="append",
        default=[],
        metavar="NAME",
        help="restrict to the named registry family (repeatable; default: all)",
    )
    p_con.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the family fan-out (0 = all cores)",
    )
    p_con.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persistent graph-artifact cache directory (see repro.cache)",
    )
    p_con.add_argument("--profile", action="store_true", help="print obs counters after")

    p_df = sub.add_parser(
        "dataflow", help="whole-program determinism/cache-key dataflow analyzer"
    )
    p_df.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files/directories to analyze (default: src)",
    )
    p_df.add_argument("--profile", action="store_true", help="print obs counters after")

    p_san = sub.add_parser(
        "sanitize", help="runtime determinism sanitizer (serial/parallel/cache diffing)"
    )
    p_san.add_argument(
        "--family", default="hsn", metavar="NAME", help="registry family (default: hsn)"
    )
    p_san.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="K=V",
        help="family parameter (repeatable; int-valued; default: l=2 n=3)",
    )
    p_san.add_argument(
        "--faults",
        type=int,
        nargs="+",
        default=[0, 2],
        metavar="N",
        help="fault counts to sweep (default: 0 2)",
    )
    p_san.add_argument(
        "--trials", type=int, default=2, metavar="N", help="trials per fault count"
    )
    p_san.add_argument(
        "--cycles", type=int, default=40, metavar="N", help="injection cycles per trial"
    )
    p_san.add_argument(
        "--jobs",
        type=int,
        default=2,
        metavar="N",
        help="workers for the parallel pass (0 = all cores)",
    )
    p_san.add_argument("--seed", type=int, default=0, metavar="N", help="sweep seed")
    p_san.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="cache to sanitize (default: throwaway temp dir)",
    )
    p_san.add_argument(
        "--smoke",
        action="store_true",
        help="fastest meaningful configuration (tiny HSN sweep); overrides sizes",
    )
    p_san.add_argument("--profile", action="store_true", help="print obs counters after")

    p_perf = sub.add_parser(
        "perf",
        help="kernel-perf analyzer: hot-path vectorization/contract lint "
        "(static), or --measure for the profile-guided perf sanitizer",
    )
    p_perf.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files/directories to analyze (default: src)",
    )
    p_perf.add_argument(
        "--measure",
        action="store_true",
        help="run the seeded micro-workloads instead of the static pass "
        "(SAN004 perimeter escapes, SAN005 budget regressions, SAN006 "
        "shape-contract drift)",
    )
    p_perf.add_argument(
        "--smoke",
        action="store_true",
        help="with --measure: smallest workload sizes and the 'smoke' "
        "budget and contract profiles",
    )
    for kind, default_file, update_how in (
        ("budget", "benchmarks/perf_budgets.json", " (measured cost x margin)"),
        ("contract", "benchmarks/shape_contracts.json", "'s recorded shapes"),
    ):
        p_perf.add_argument(
            f"--update-{kind}s",
            action="store_true",
            help=f"with --measure: rewrite the {kind} profile from this run"
            f"{update_how} instead of comparing",
        )
        p_perf.add_argument(
            f"--{kind}s",
            default=None,
            metavar="PATH",
            help=f"{kind} file (default: {default_file})",
        )
    p_perf.add_argument("--profile", action="store_true", help="print obs counters after")
    return parser


def run(args: argparse.Namespace) -> int:
    """Execute a parsed ``lint``/``contracts`` invocation."""
    from repro import obs

    if args.profile:
        obs.reset()
        obs.enable()
    try:
        if args.cmd == "lint":
            from .lint import lint_paths

            report = lint_paths(args.paths)
        elif args.cmd == "dataflow":
            from .determinism import dataflow_paths

            report = dataflow_paths(args.paths)
        elif args.cmd == "perf":
            if _measured(args):
                from .perfsanitize import (
                    DEFAULT_BUDGETS_PATH,
                    DEFAULT_CONTRACTS_PATH,
                    perf_sanitize,
                )

                budgets = args.budgets or DEFAULT_BUDGETS_PATH
                contracts = args.contracts or DEFAULT_CONTRACTS_PATH
                if not args.update_budgets and _missing("budget", budgets):
                    return 2
                if not args.update_contracts and _missing("contract", contracts):
                    return 2
                report = perf_sanitize(
                    paths=args.paths,
                    smoke=args.smoke,
                    budgets_path=budgets,
                    update=args.update_budgets,
                    contracts_path=contracts,
                    update_contracts=args.update_contracts,
                )
            else:
                from .perf import perf_paths

                report = perf_paths(args.paths)
        elif args.cmd == "sanitize":
            from .sanitize import sanitize_sweep

            params = {"l": 2, "n": 3} if args.family == "hsn" else {}
            for item in args.param:
                k, _, v = item.partition("=")
                params[k] = int(v)
            if args.smoke:
                args.faults, args.trials, args.cycles = [0, 2], 2, 30
            report = sanitize_sweep(
                family=args.family,
                params=params,
                fault_counts=args.faults,
                trials=args.trials,
                cycles=args.cycles,
                seed=args.seed,
                jobs=args.jobs,
                cache_dir=args.cache_dir,
            )
        else:
            from .invariants import run_contracts

            if args.cache_dir is not None:
                from repro import cache

                cache.configure(args.cache_dir)
            report = run_contracts(args.family or None, jobs=args.jobs)
        print(report.render())
        if args.profile:
            print()
            print(obs.format_report())
    finally:
        if args.profile:
            obs.disable()
    return 0 if report.ok else 1


def _measured(args: argparse.Namespace) -> bool:
    """Does this ``perf`` invocation run the workloads (SAN004–SAN006)?"""
    return args.measure or args.update_budgets or args.update_contracts


def _missing(kind: str, path: str) -> bool:
    """A measured run against an absent file would compare nothing and
    pass vacuously; report it (naming the path) instead."""
    if Path(path).exists():
        return False
    print(
        f"repro.check: {kind} file {path} not found (run from the repo root, "
        f"pass its path, or record it with --update-{kind}s)",
        file=sys.stderr,
    )
    return True


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro.check``."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.cmd == "perf" and not _measured(args):
        # measure-only flags must not be silently ignored by a static run
        stray = [f"--{name}" for name in ("smoke", "budgets", "contracts") if getattr(args, name)]
        if stray:
            parser.error(f"perf: {' and '.join(stray)} require(s) --measure")
    return run(args)


if __name__ == "__main__":
    from repro.__main__ import exit_with

    exit_with(main)
