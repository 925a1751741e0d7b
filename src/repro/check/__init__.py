"""Static analysis for the repro codebase: lint, contracts, dataflow,
perf, and runtime sanitizers — five tiers over one findings/report model:

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
  contracts, loop-invariant hoisting, read from the kind and dtype facts
  of :class:`repro.check.arrayfacts.ArrayFacts`; with its runtime
  cross-check :mod:`repro.check.perfsanitize` profiling the seeded
  workload catalog (``WORKLOADS``) against recorded per-unit budgets
  (SAN004–SAN005) and recording the same runs' concrete shapes/dtypes
  against committed contracts (SAN006).

The perf and dataflow tiers share one scan loop
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

or as ``python -m repro check ...``.  See DESIGN.md for the rule catalog.
"""

from repro.cache.artifacts import RULESET_VERSION

from .callgraph import CallGraph, FunctionNode, build_callgraph
from .determinism import DATAFLOW_RULES, dataflow_paths, find_perimeters
from .findings import Finding, Report
from .invariants import FAMILY_SPECS, FamilySpec, check_family, check_network, run_contracts
from .lint import RULES, lint_paths, lint_source
from .perf import HOT_PERIMETER, PERF_RULES, HotKernel, hot_path_perimeter, perf_paths
from .perfsanitize import PERF_SANITIZE_RULES, SHAPE_SANITIZE_RULES, perf_sanitize
from .sanitize import SANITIZE_RULES, sanitize_sweep, sanitize_tasks

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
    "SHAPE_SANITIZE_RULES",
]
