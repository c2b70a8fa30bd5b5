"""The unified query engine: plan, then execute.

Every query in this library -- plain GeoBlocks, the query-cache
accelerated BlockQC, the evaluation baselines, and the batched workload
runners -- flows through this package's two-stage pipeline:

1. the **planner** (:mod:`repro.engine.planner`) turns a polygon or
   pre-computed covering into a :class:`~repro.engine.planner.QueryPlan`
   -- a header-pruned covering served from the process-wide covering
   tier of :mod:`repro.cache` (content-addressed, shared by every
   block, view, and baseline) plus the per-cell AggregateTrie probe
   decisions of Figure 8;
2. the **executor** (:mod:`repro.engine.executor`) carries the plan out
   under the columnar ``kernel`` model of :mod:`repro.engine.kernels`
   -- or, on a block the experiment harness switched over, the paper's
   ``scalar`` loop -- answers whole batches in one shared pass
   (``run_batch``), and defines the probe / cache-hit counters once
   for every path.

:mod:`repro.engine.shards` adds sharded blocks: plain blocks plus
fixed split points into equi-depth ranges of the space-filling curve
key (:mod:`repro.cells.sfc`), picked by the cost model
(:mod:`repro.engine.cost`), with per-query shard pruning reported by
the :class:`~repro.engine.router.PartitionRouter`
(:mod:`repro.engine.router`).  The engine is the seam later scaling
work (async serving, multi-backend storage, distributed sharding)
plugs into.

``ShardedGeoBlock`` and friends are re-exported lazily: the shards
module subclasses ``GeoBlock``, which itself imports the planner and
executor, so an eager import here would be circular.
"""

from repro.engine.executor import (
    EXECUTION_MODES,
    Executor,
    QueryResult,
    aggregate_rows,
    aggregate_rows_scalar,
    batch_items,
    union_ranges,
)
from repro.engine.planner import (
    Planner,
    QueryPlan,
    QueryTarget,
)

__all__ = [
    "EXECUTION_MODES",
    "Executor",
    "Planner",
    "QueryPlan",
    "QueryResult",
    "QueryTarget",
    "CostConfig",
    "CostModel",
    "PartitionPlan",
    "PartitionRouter",
    "RoutingDecision",
    "Shard",
    "ShardedExecutor",
    "ShardedGeoBlock",
    "aggregate_rows",
    "aggregate_rows_scalar",
    "batch_items",
    "union_ranges",
]

_LAZY = {
    "Shard": "repro.engine.shards",
    "ShardedExecutor": "repro.engine.shards",
    "ShardedGeoBlock": "repro.engine.shards",
    "CostConfig": "repro.engine.cost",
    "CostModel": "repro.engine.cost",
    "PartitionPlan": "repro.engine.cost",
    "PartitionRouter": "repro.engine.router",
    "RoutingDecision": "repro.engine.router",
}


def __getattr__(name: str):  # noqa: ANN201 - PEP 562 lazy re-export
    module = _LAZY.get(name)
    if module is not None:
        import importlib

        return getattr(importlib.import_module(module), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
