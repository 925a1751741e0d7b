"""Static analysis for the repro codebase: lint, contracts, dataflow,
perf, shapes, and runtime sanitizers — six tiers over one findings/report
model:

* :mod:`repro.check.lint` — repo-specific AST linter (rules RPR001–
  RPR005, ``# repro: noqa[CODE]`` suppression);
* :mod:`repro.check.invariants` — paper-invariant contract checker
  (CTR001–CTR008) sweeping every registry family at small parameters;
* :mod:`repro.check.determinism` — whole-program determinism and
  cache-soundness analyzer (RPR010–RPR012) over the import-aware call
  graph of :mod:`repro.check.callgraph`, with cache-key dataflow in
  :mod:`repro.check.cachekeys`;
* :mod:`repro.check.sanitize` — runtime sanitizer (SAN001–SAN003)
  proving serial/parallel and cold/warm-cache hash-stream identity on a
  real sweep;
* :mod:`repro.check.perf` — kernel-perf analyzer (RPR020–RPR024) over
  the declared hot-path perimeter: vectorization lint, array dtype
  contracts, loop-invariant hoisting; with its runtime cross-check
  :mod:`repro.check.perfsanitize` (SAN004–SAN005) profiling the seeded
  workload catalog (``WORKLOADS``) against recorded per-unit budgets;
* :mod:`repro.check.shapes` — shape & broadcast analyzer (RPR030–
  RPR034) evaluating the same perimeter (broadcast blow-ups, bad axes,
  reshape mismatches, aliasing/read-only writes, declared shape-contract
  drift); with its runtime cross-check :mod:`repro.check.shapesanitize`
  (SAN006) recording the same catalog's concrete shapes/dtypes against
  committed contracts.

The kernel tiers share one analysis core: one array-fact interpreter
(:class:`repro.check.shapeinfer.ShapeInterp` — kinds, dtypes, shapes),
and with the dataflow tier one scan loop
(:func:`repro.check.callgraph.scan_tier`) over the one call-graph
closure (``CallGraph.close``); every source tier emits through the one
noqa-aware :class:`repro.check.findings.Emitter`.

Run from the command line::

    python -m repro.check lint src
    python -m repro.check contracts
    python -m repro.check dataflow src
    python -m repro.check sanitize --smoke
    python -m repro.check perf src
    python -m repro.check perf --measure --smoke
    python -m repro.check shapes src
    python -m repro.check shapes --measure --smoke

or as ``python -m repro check ...``.  See DESIGN.md for the rule catalog.
"""

from repro.cache.artifacts import RULESET_VERSION

from .callgraph import CallGraph, FunctionNode, build_callgraph
from .determinism import DATAFLOW_RULES, dataflow_paths, find_perimeters
from .findings import Finding, Report
from .invariants import FAMILY_SPECS, FamilySpec, check_family, check_network, run_contracts
from .lint import RULES, lint_paths, lint_source
from .perf import HOT_PERIMETER, PERF_RULES, HotKernel, hot_path_perimeter, perf_paths
from .perfsanitize import PERF_SANITIZE_RULES, perf_sanitize
from .sanitize import SANITIZE_RULES, sanitize_sweep, sanitize_tasks
from .shapes import SERVE_SHAPE_ROOTS, SHAPE_RULES, shape_paths
from .shapesanitize import SHAPE_SANITIZE_RULES, shape_sanitize

__all__ = [
    "Finding",
    "Report",
    "RULES",
    "lint_paths",
    "lint_source",
    "FamilySpec",
    "FAMILY_SPECS",
    "check_family",
    "check_network",
    "run_contracts",
    "CallGraph",
    "FunctionNode",
    "build_callgraph",
    "DATAFLOW_RULES",
    "dataflow_paths",
    "find_perimeters",
    "RULESET_VERSION",
    "SANITIZE_RULES",
    "sanitize_sweep",
    "sanitize_tasks",
    "PERF_RULES",
    "HotKernel",
    "HOT_PERIMETER",
    "hot_path_perimeter",
    "perf_paths",
    "PERF_SANITIZE_RULES",
    "perf_sanitize",
    "SHAPE_RULES",
    "SERVE_SHAPE_ROOTS",
    "shape_paths",
    "SHAPE_SANITIZE_RULES",
    "shape_sanitize",
]
