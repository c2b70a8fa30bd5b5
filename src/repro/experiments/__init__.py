"""The evaluation harness: one module per paper table/figure.

Run individual experiments with ``python -m repro.experiments fig12``
or all of them with ``python -m repro.experiments all``.
"""

from repro.experiments.common import (
    ExperimentConfig,
    ExperimentResult,
    clear_cache,
    exact_counts,
    mean_relative_error,
    nyc_base,
    osm_base,
    run_workload,
    run_workload_counts,
    total_relative_error,
    tweets_base,
)
from repro.experiments.registry import EXPERIMENTS, run_experiment

__all__ = [
    "EXPERIMENTS",
    "ExperimentConfig",
    "ExperimentResult",
    "clear_cache",
    "exact_counts",
    "mean_relative_error",
    "nyc_base",
    "osm_base",
    "run_experiment",
    "run_workload",
    "run_workload_counts",
    "total_relative_error",
    "tweets_base",
]
