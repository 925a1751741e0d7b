"""Benchmark of the build → route → serve → simulate → fault pipeline.

Run from the repository root::

    python3 perfbench/run.py --workload pipeline_cold --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` the per-layer
ones, and writes that run's spans to ``.perfbench_work/``.  The last line
of standard output is one JSON record; see ``perfbench/README.md``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# one single-threaded process per workload: pin the BLAS/OpenMP pools
# before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"
NAMES = ("pipeline_cold", "serve_replay", "fault_sweep", "build_scale")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error(f"--seed must be >= 0 and --seconds >= 1, got {args.seed}, {args.seconds}")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import harness
    import workloads

    wl = workloads.make(args.workload, WORK_DIR)
    result, spans = harness.run(wl, args.seed, args.seconds, bool(args.trace), T_START)
    if args.trace:
        WORK_DIR.mkdir(exist_ok=True)
        out = WORK_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(out, "w", encoding="utf-8") as fh:
            for s in spans:
                fh.write(json.dumps(s) + "\n")
        print(f"spans: {out}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
