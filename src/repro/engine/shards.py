"""Sharded GeoBlocks: curve-key partitioning of the aggregate array.

A :class:`ShardedGeoBlock` behaves exactly like a plain
:class:`~repro.core.geoblock.GeoBlock` -- same construction, query, and
serialisation API, and the same answers bit for bit, because it runs
the plain executor over the same arrays -- plus a fixed set of
**curve-key split points** and the routing telemetry derived from them.
The aggregate array is sorted by cell id, and cell-id order *is* curve
order (:mod:`repro.cells.cellid`), so any key interval is a contiguous row
range; the split points adapt to the data: the cost model
(:mod:`repro.engine.cost`) places them at tuple-weighted quantiles of
the key distribution, so skewed data still yields balanced shards.
Explicit ``shard_count=`` / ``splits=`` overrides keep layouts
reproducible.

Split points are fixed at construction -- a block built empty gets the
single range ``[0, KEY_SPACE]`` -- and never move.  A shard's row range
``[lo, hi)`` is never stored: :attr:`ShardedGeoBlock.shards` derives it
on access from the split points with one ``searchsorted`` over the
sorted key array, so appends that splice new cells
(``core/updates.py``) cannot leave row bounds stale.

What sharding buys:

* **partition pruning telemetry**: the
  :class:`~repro.engine.router.PartitionRouter` intersects a query's
  covering cells with the split points (int64 interval arithmetic
  alone) and every :class:`~repro.engine.executor.QueryResult` reports
  ``shards_total`` / ``shards_pruned`` -- how many curve ranges the
  query could touch;
* **stable routing boundaries**: split points survive appends,
  save/load (they are persisted), coarsening and filtered views, so
  parent and view route along identical boundaries.

Execution is inline and single-threaded, like the paper's GeoBlocks: a
measured per-shard thread-pool fan-out of the segment reductions never
beat reducing the routed ranges inline under the GIL, so there is none.
``from_block`` and ``coarsened`` keep the source block's cache binding,
so a service-configured private cache survives re-wrapping.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from repro.core.aggregates import AggSpec, CellAggregates
from repro.core.geoblock import GeoBlock
from repro.engine.cost import CostModel
from repro.engine.executor import Executor, QueryResult
from repro.engine.router import PartitionRouter
from repro.errors import BuildError
from repro.storage.etl import PHASE_BUILDING, BaseData
from repro.storage.expr import ALWAYS_TRUE, Predicate
from repro.util.timing import Stopwatch


@dataclass(frozen=True)
class Shard:
    """One contiguous row range ``[lo, hi)`` of the block's aggregate
    arrays, owning one half-open curve-key range ``[key_lo, key_hi)``."""

    lo: int
    hi: int
    key_lo: int  #: first leaf curve key owned (inclusive)
    key_hi: int  #: one past the last leaf curve key owned

    def __len__(self) -> int:
        return self.hi - self.lo


class ShardedExecutor(Executor):
    """The plain executor, with routing telemetry attached to every
    result."""

    def select(
        self,
        plan,  # noqa: ANN001 - QueryPlan
        aggs: Sequence[AggSpec] | None = None,
    ) -> QueryResult:
        return self._with_routing(plan, super().select(plan, aggs))

    def run_batch(
        self,
        items,  # noqa: ANN001 - Sequence[tuple[QueryPlan, aggs]]
    ) -> list[QueryResult]:
        results = super().run_batch(items)
        return [
            self._with_routing(plan, result)
            for (plan, _), result in zip(items, results)
        ]

    def _with_routing(self, plan, result: QueryResult) -> QueryResult:  # noqa: ANN001
        """Attach the router's pruning decision to a result (pure int64
        interval arithmetic over the split points; no aggregate data is
        touched)."""
        decision = self._block.router.route(plan.union)
        return replace(
            result, shards_total=decision.total, shards_pruned=decision.pruned
        )


class ShardedGeoBlock(GeoBlock):
    """A GeoBlock partitioned into contiguous shards by curve key.

    Drop-in replacement: every inherited query path works unchanged
    (shards are ranges over the same sorted arrays); only the routing
    telemetry on each result differs.
    """

    def __init__(
        self,
        space,  # noqa: ANN001 - CellSpace
        level: int,
        aggregates: CellAggregates,
        predicate: Predicate = ALWAYS_TRUE,
        shard_count: int | None = None,
        splits: Sequence[int] | np.ndarray | None = None,
        cost: CostModel | None = None,
    ) -> None:
        if shard_count is not None and splits is not None:
            raise BuildError("pass shard_count or explicit splits, not both")
        if shard_count is not None and shard_count <= 0:
            raise BuildError(f"shard_count must be positive, got {shard_count}")
        if splits is None:
            splits = (cost or CostModel()).plan(
                aggregates.keys, aggregates.counts, shard_count=shard_count
            ).bounds
        self._splits = np.asarray(splits, dtype=np.int64)
        self._router = PartitionRouter(self)
        super().__init__(space, level, aggregates, predicate)

    # -- construction ----------------------------------------------------

    @classmethod
    def build(
        cls,
        base: BaseData,
        level: int,
        predicate: Predicate = ALWAYS_TRUE,
        stopwatch: Stopwatch | None = None,
        shard_count: int | None = None,
        splits: Sequence[int] | np.ndarray | None = None,
        cost: CostModel | None = None,
    ) -> "ShardedGeoBlock":
        """Build from sorted base data, then partition by curve key."""
        watch = stopwatch or Stopwatch()
        with watch.phase(PHASE_BUILDING):
            filtered = base if isinstance(predicate, type(ALWAYS_TRUE)) else base.filtered(predicate)
            aggregates = CellAggregates.build(filtered, level)
        return cls(
            base.space,
            level,
            aggregates,
            predicate,
            shard_count=shard_count,
            splits=splits,
            cost=cost,
        )

    @classmethod
    def from_block(
        cls,
        block: GeoBlock,
        shard_count: int | None = None,
        splits: Sequence[int] | np.ndarray | None = None,
        cost: CostModel | None = None,
    ) -> "ShardedGeoBlock":
        """Re-wrap an existing block's aggregates (zero-copy)."""
        wrapped = cls(
            block.space,
            block.level,
            block.aggregates,
            block.predicate,
            shard_count=shard_count,
            splits=splits,
            cost=cost,
        )
        wrapped.planner.use_cache(block.planner.cache)
        return wrapped

    def coarsened(self, level: int) -> "ShardedGeoBlock":
        """A coarser *sharded* block (drop-in contract: coarsening must
        not silently lose the routing telemetry).

        Curve splits are ranges of the level-independent leaf key
        space, so the coarse block reuses the parent's split points --
        same routing boundaries, re-derived row bounds.
        """
        return ShardedGeoBlock.from_block(super().coarsened(level), splits=self._splits)

    def _make_executor(self) -> Executor:
        return ShardedExecutor(self)

    # -- accessors -------------------------------------------------------

    @property
    def kind(self) -> str:
        """Block-kind discriminator ("sharded"); see :class:`GeoBlock`."""
        return "sharded"

    @property
    def splits(self) -> np.ndarray:
        """Split bounds: the full ``[0, ..., KEY_SPACE]`` array.

        Fixed at construction, so appends, save/load, coarsening and
        filtered views keep the same boundaries.
        """
        return self._splits

    @property
    def router(self) -> PartitionRouter:
        """The block's partition router."""
        return self._router

    @property
    def shards(self) -> list[Shard]:
        """The partition, derived on every access from the split points
        and one ``searchsorted`` over the sorted key array (empty while
        the block holds no keys)."""
        bounds = self._splits
        keys = self._aggregates.keys
        if keys.size == 0:
            return []
        rows = np.searchsorted(keys, (bounds[1:-1] << 1) | 1, side="left")
        row_bounds = [0, *rows.tolist(), int(keys.size)]
        key_bounds = bounds.tolist()
        return [
            Shard(row_bounds[i], row_bounds[i + 1], key_bounds[i], key_bounds[i + 1])
            for i in range(len(key_bounds) - 1)
        ]

    @property
    def num_shards(self) -> int:
        if self._aggregates.keys.size == 0:
            return 0
        return int(self._splits.size) - 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ShardedGeoBlock(level={self._level}, "
            f"shards={self.num_shards}, cells={self.num_cells})"
        )
