"""Continuous benchmarking: one runner over every benchmark, versioned
JSON results, and a perf-regression gate.

The harness turns performance into a tracked artifact:

* a :class:`Scenario` registry wrapping every paper experiment plus the
  raw-engine and serving-path workloads (``python -m repro.bench
  list``);
* a statistics core (pinned seeds, warmup + repeats,
  median/IQR/min, environment fingerprint with a calibration
  measurement) emitting schema-versioned ``BENCH_<scenario>.json``
  files at the repo root, so the trajectory accumulates across PRs;
* ``python -m repro.bench run | compare | report`` -- ``compare`` is
  the CI gate: it normalises medians by each machine's calibration
  time and fails on per-scenario threshold breaches, strict-metric
  (result determinism) changes, or metric-bound violations.
"""

from repro.bench.compare import (
    Finding,
    compare_results,
    has_failures,
    render_findings,
)
from repro.bench.registry import (
    all_scenarios,
    get_scenario,
    register,
    run_scenario,
    scenario_names,
)
from repro.bench.report import render_markdown
from repro.bench.results import (
    SCHEMA_VERSION,
    load_result,
    load_results,
    result_filename,
    validate_result,
    write_result,
)
from repro.bench.scenario import (
    GROUPS,
    BenchError,
    Prepared,
    Scale,
    Scenario,
    get_scale,
)

__all__ = [
    "SCHEMA_VERSION",
    "GROUPS",
    "BenchError",
    "Finding",
    "Prepared",
    "Scale",
    "Scenario",
    "all_scenarios",
    "compare_results",
    "get_scale",
    "get_scenario",
    "has_failures",
    "load_result",
    "load_results",
    "register",
    "render_findings",
    "render_markdown",
    "result_filename",
    "run_scenario",
    "scenario_names",
    "validate_result",
    "write_result",
]
