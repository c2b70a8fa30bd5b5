"""The GeoBlock data structure (Section 3 of the paper).

A GeoBlock is a materialised view over geospatial point data: cell
aggregates at a fixed *block level* sorted by spatial key, plus a global
header.  It answers two query variants:

* ``select`` -- arbitrary aggregates over a query polygon, following
  Listing 1 (covering, pruning, binary search + contiguous scan),
* ``count``  -- the specialised COUNT of Listing 2 that touches only the
  first and last aggregate of each covering cell, computing the result
  in a range-sum manner from offsets.

Both accept either a polygon (covered on the fly, as in the paper) or a
pre-computed :class:`~repro.cells.union.CellUnion`.

The canonical query path lives in :mod:`repro.engine`: every query is
planned by :class:`~repro.engine.planner.Planner` (LRU-cached covering +
header pruning) and carried out by
:class:`~repro.engine.executor.Executor` (kernel or scalar
execution, batched workloads via :meth:`GeoBlock.run_batch`).  The
methods below are thin façades over that engine; extend the engine, not
this class, when adding query capabilities.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.cells import cellid
from repro.cells.space import CellSpace
from repro.cells.union import CellUnion
from repro.core.aggregates import AggSpec, CellAggregates
from repro.core.header import GlobalHeader
from repro.engine.executor import EXECUTION_MODES, Executor, QueryResult, batch_items
from repro.engine.planner import Planner, QueryTarget
from repro.errors import BuildError, QueryError
from repro.geometry.relate import Region
from repro.storage.etl import PHASE_BUILDING, BaseData
from repro.storage.expr import ALWAYS_TRUE, Predicate
from repro.util.timing import Stopwatch

__all__ = [
    "GeoBlock",
    "QueryResult",
    "QueryTarget",
    "common_ancestor",
]


class GeoBlock:
    """Pre-aggregated, error-bounded spatial aggregation index."""

    def __init__(
        self,
        space: CellSpace,
        level: int,
        aggregates: CellAggregates,
        predicate: Predicate = ALWAYS_TRUE,
    ) -> None:
        self._space = space
        self._level = level
        self._aggregates = aggregates
        self._predicate = predicate
        self._header = GlobalHeader.from_aggregates(aggregates, level)
        self._planner = Planner(space, level)
        self._executor = self._make_executor()
        self._query_mode = "kernel"

    def _make_executor(self) -> Executor:
        """Factory hook so sharded blocks can substitute their executor."""
        return Executor(self)

    @property
    def query_mode(self) -> str:
        """Execution model for SELECT: "kernel" reduces whole queries
        (and batches) through columnar numpy kernels and answers every
        request; "scalar" combines cell aggregates one by one, exactly
        like Listing 1.  Only the experiment harness sets it
        (``experiments/common.make_scalar``): it runs every competitor
        in the scalar model so per-item costs are comparable, as in the
        paper's C++."""
        return self._query_mode

    @query_mode.setter
    def query_mode(self, model: str) -> None:
        if model not in EXECUTION_MODES:
            raise QueryError(
                f"unknown execution model {model!r}; use one of {EXECUTION_MODES}"
            )
        self._query_mode = model

    # -- construction ----------------------------------------------------

    @classmethod
    def build(
        cls,
        base: BaseData,
        level: int,
        predicate: Predicate = ALWAYS_TRUE,
        stopwatch: Stopwatch | None = None,
    ) -> "GeoBlock":
        """Build from sorted base data in a single pass (Figure 5's
        build phase): filter, re-key to the block level, aggregate."""
        watch = stopwatch or Stopwatch()
        with watch.phase(PHASE_BUILDING):
            filtered = base if isinstance(predicate, type(ALWAYS_TRUE)) else base.filtered(predicate)
            aggregates = CellAggregates.build(filtered, level)
        return cls(base.space, level, aggregates, predicate)

    def coarsened(self, level: int) -> "GeoBlock":
        """A coarser GeoBlock derived from this one without re-scanning
        the base data (Section 3.4, aggregate granularity)."""
        if level > self._level:
            raise BuildError(
                f"cannot refine level {self._level} block to level {level}; "
                "finer blocks require re-scanning the base data"
            )
        coarse = GeoBlock(self._space, level, self._aggregates.coarsen(level), self._predicate)
        coarse.planner.use_cache(self._planner.cache)
        return coarse

    # -- accessors ----------------------------------------------------------

    @property
    def kind(self) -> str:
        """Block-kind discriminator shared with the on-disk format and
        the service API ("geoblock"; subclasses override)."""
        return "geoblock"

    @property
    def space(self) -> CellSpace:
        return self._space

    @property
    def level(self) -> int:
        return self._level

    @property
    def aggregates(self) -> CellAggregates:
        return self._aggregates

    @property
    def header(self) -> GlobalHeader:
        return self._header

    @property
    def predicate(self) -> Predicate:
        return self._predicate

    @property
    def planner(self) -> Planner:
        """The engine planner owning this block's covering cache."""
        return self._planner

    @property
    def executor(self) -> Executor:
        """The engine executor bound to this block's aggregates."""
        return self._executor

    @property
    def num_cells(self) -> int:
        return len(self._aggregates)

    def memory_bytes(self) -> int:
        """Bytes of the aggregate storage (the block's size overhead)."""
        return self._aggregates.memory_bytes()

    def root_cell(self) -> int:
        """Smallest cell enclosing all indexed data; the AggregateTrie
        is rooted here (Section 3.6)."""
        if self._header.is_empty:
            return cellid.make_id(0, 0)
        return common_ancestor(self._header.min_leaf, self._header.max_leaf)

    # -- coverings -------------------------------------------------------------

    def covering(self, region: Region) -> CellUnion:
        """Error-bounded covering of ``region`` at the block level."""
        return self._planner.covering(region)

    def warm(self, region: Region) -> None:
        """Populate the covering cache for ``region`` without querying.

        The experiment harness warms all competitors before timing so
        that the measured runtimes isolate index probing + aggregation
        (polygon covering is shared work, negligible in the paper's
        C++/S2 stack).
        """
        self._planner.warm(region)

    def plan(self, target: QueryTarget):  # noqa: ANN201 - QueryPlan
        """Plan one query against this block (cover + prune)."""
        return self._planner.plan(target, header=self._header)

    # -- COUNT queries (Listing 2) -----------------------------------------------

    def count(self, target: QueryTarget) -> int:
        """Number of tuples in the covering of the query region."""
        return self._executor.count(self.plan(target))

    # -- SELECT queries (Listing 1) -------------------------------------------------

    def select(
        self,
        target: QueryTarget,
        aggs: Sequence[AggSpec] | None = None,
    ) -> QueryResult:
        """Aggregate every attribute requested in ``aggs`` over the
        covering of the query region."""
        return self._executor.select(self.plan(target), aggs)

    def select_scalar(
        self,
        target: QueryTarget,
        aggs: Sequence[AggSpec] | None = None,
    ) -> QueryResult:
        """Scalar execution model: aggregates are combined one at a
        time (Listing 1's inner loop), while the per-cell range location
        is planned with the same batched binary searches every
        competitor uses.  ``select_listing1`` keeps the fully literal
        per-cell variant with the ``lastAgg`` successor hint."""
        return self._executor.select_scalar(self.plan(target), aggs)

    def select_listing1(
        self,
        target: QueryTarget,
        aggs: Sequence[AggSpec] | None = None,
    ) -> QueryResult:
        """Literal Listing 1 (per-cell upper-bound binary search with
        the ``lastAgg`` successor hint); see the engine executor."""
        return self._executor.select_listing1(self.plan(target), aggs)

    # -- batched execution ---------------------------------------------------------

    def run_batch(
        self,
        queries: Sequence,  # noqa: ANN401 - Query objects or raw targets
        aggs: Sequence[AggSpec] | None = None,
    ) -> list[QueryResult]:
        """Answer a whole workload in one engine pass.

        ``queries`` may be :class:`~repro.workloads.workload.Query`
        objects (each carrying its own aggregates) or raw targets
        (regions / cell unions) combined with the shared ``aggs``.
        Results are returned in input order and are identical to
        issuing the queries sequentially; overlapping coverings reduce
        their shared ranges only once, which is where batching wins on
        skewed workloads.  Sharded blocks run the same reduction over
        the same arrays, so they are bit-identical too
        (:mod:`repro.engine.shards`).
        """
        items = [
            (self.plan(target), query_aggs)
            for target, query_aggs in batch_items(queries, aggs)
        ]
        return self._executor.run_batch(items)

    def run_grouped(
        self,
        targets: Sequence,  # noqa: ANN401 - regions / cell unions
        aggs: Sequence[AggSpec] | None = None,
    ) -> tuple[list[QueryResult], QueryResult]:
        """Answer ``targets`` as one grouped batch plus a rollup.

        The multi-region group-by of the service API: every target
        shares the ``aggs`` list, planning reuses the planner's covering
        cache, execution is one batched engine pass, and the combined
        rollup is folded from the per-target results
        (:func:`~repro.engine.executor.merge_results`).
        """
        items = [(self.plan(target), aggs) for target in targets]
        return self._executor.run_grouped(items)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"GeoBlock(level={self._level}, cells={self.num_cells}, "
            f"tuples={self._header.total_count}, filter={self._predicate!r})"
        )


def common_ancestor(first_leaf: int, last_leaf: int) -> int:
    """Deepest cell containing both leaf ids."""
    from repro.cells.curves import MAX_LEVEL

    for level in range(MAX_LEVEL, -1, -1):
        candidate = cellid.parent(first_leaf, level)
        if cellid.range_max(candidate) >= last_leaf:
            return candidate
    return cellid.make_id(0, 0)
