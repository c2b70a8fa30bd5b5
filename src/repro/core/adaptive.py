"""The query-cache accelerated GeoBlock (BlockQC, Sections 3.6 / 4).

``AdaptiveGeoBlock`` wraps a plain :class:`~repro.core.geoblock.GeoBlock`
with query statistics and an :class:`~repro.core.trie.AggregateTrie`.
SELECT queries follow Figure 8: probe the cache per query cell, answer
from the cache when the cell (or some of its direct children) is
cached, and fall back to the base algorithm otherwise.  COUNT queries
bypass the cache entirely -- their runtime is mostly independent of
the cell level, so the paper leaves them unadapted.

Like the plain block, the adaptive variant answers through the unified
query engine (:mod:`repro.engine`): the wrapped block's planner
attaches the per-cell cache-probe decisions to every
:class:`~repro.engine.planner.QueryPlan`, and the shared executor
consumes them -- including in :meth:`AdaptiveGeoBlock.run_batch`.  This
class only owns the adaptation loop: statistics, policy, and trie
rebuilds.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.cells import cellid
from repro.cells.union import CellUnion
from repro.core.aggregates import AggSpec
from repro.core.geoblock import GeoBlock, QueryResult, QueryTarget
from repro.engine.executor import batch_items
from repro.core.policy import CachePolicy
from repro.core.statistics import QueryStatistics
from repro.core.trie import AggregateTrie, TrieBuilder


class AdaptiveGeoBlock:
    """GeoBlock + AggregateTrie query cache (the paper's BlockQC)."""

    def __init__(self, block: GeoBlock, policy: CachePolicy | None = None) -> None:
        self._block = block
        self._policy = policy or CachePolicy()
        self._statistics = QueryStatistics()
        self._trie: AggregateTrie | None = None
        self._selects_since_rebuild = 0
        # Cache-effectiveness counters (Figure 18's hit rate).
        self._cells_probed = 0
        self._cells_hit = 0

    @property
    def query_mode(self) -> str:
        """Execution model shared with the wrapped block ("kernel" or
        "scalar"); see :class:`~repro.core.geoblock.GeoBlock`."""
        return self._block.query_mode

    @query_mode.setter
    def query_mode(self, model: str) -> None:
        self._block.query_mode = model

    # -- delegation ------------------------------------------------------

    @property
    def block(self) -> GeoBlock:
        return self._block

    @property
    def level(self) -> int:
        return self._block.level

    @property
    def space(self):  # noqa: ANN201 - convenience passthrough
        return self._block.space

    @property
    def statistics(self) -> QueryStatistics:
        return self._statistics

    @property
    def trie(self) -> AggregateTrie | None:
        return self._trie

    @property
    def policy(self) -> CachePolicy:
        return self._policy

    def covering(self, region) -> CellUnion:  # noqa: ANN001
        return self._block.covering(region)

    def warm(self, region) -> None:  # noqa: ANN001
        """Populate the shared covering cache (no statistics impact)."""
        self._block.warm(region)

    def memory_bytes(self) -> int:
        """Aggregates plus the cache region."""
        total = self._block.memory_bytes()
        if self._trie is not None:
            total += self._trie.memory_bytes()
        return total

    # -- cache-effectiveness counters ---------------------------------------

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of query cells answered entirely from the cache
        since the last counter reset."""
        if self._cells_probed == 0:
            return 0.0
        return self._cells_hit / self._cells_probed

    def reset_cache_counters(self) -> None:
        self._cells_probed = 0
        self._cells_hit = 0

    # -- queries -----------------------------------------------------------------

    def count(self, target: QueryTarget) -> int:
        """COUNT queries use the base algorithm unchanged."""
        return self._block.count(target)

    def plan(self, target: QueryTarget):  # noqa: ANN201 - QueryPlan
        """Plan one query with cache-probe decisions attached."""
        return self._block.planner.plan(
            target, header=self._block.header, trie=self._trie
        )

    def select(
        self,
        target: QueryTarget,
        aggs: Sequence[AggSpec] | None = None,
    ) -> QueryResult:
        """Figure 8's adapted SELECT, through the shared engine."""
        # Validate before recording: rejected queries must not feed the
        # adaptation statistics (they were never answered).
        if aggs is not None:
            self._block.executor.validate_aggs(list(aggs))
        plan = self.plan(target)
        self._statistics.record_covering(plan.union)
        result = self._block.executor.select(plan, aggs)
        self._fold_counters(result)
        self._maybe_adapt(1)
        return result

    def run_batch(
        self,
        queries: Sequence,  # noqa: ANN401 - Query objects or raw targets
        aggs: Sequence[AggSpec] | None = None,
    ) -> list[QueryResult]:
        """Batched Figure 8 execution (see :meth:`GeoBlock.run_batch`).

        Statistics are recorded per query; the adaptation cadence is
        checked once after the whole batch (a rebuild mid-batch would
        invalidate the batch's probe decisions).
        """
        pairs = batch_items(queries, aggs)
        for _, query_aggs in pairs:
            if query_aggs is not None:
                self._block.executor.validate_aggs(list(query_aggs))
        items = []
        for target, query_aggs in pairs:
            plan = self.plan(target)
            self._statistics.record_covering(plan.union)
            items.append((plan, query_aggs))
        results = self._block.executor.run_batch(items)
        for result in results:
            self._fold_counters(result)
        self._maybe_adapt(len(results))
        return results

    def run_grouped(
        self,
        targets: Sequence,  # noqa: ANN401 - regions / cell unions
        aggs: Sequence[AggSpec] | None = None,
    ) -> tuple[list[QueryResult], QueryResult]:
        """Grouped Figure 8 execution (see :meth:`GeoBlock.run_grouped`).

        Each feature is planned with cache-probe decisions and recorded
        in the adaptation statistics individually -- a grouped request
        trains the cache exactly like the equivalent sequential
        requests; the rollup itself records nothing (it answers from the
        per-feature results, not the block).
        """
        if aggs is not None:
            self._block.executor.validate_aggs(list(aggs))
        items = []
        for target in targets:
            plan = self.plan(target)
            self._statistics.record_covering(plan.union)
            items.append((plan, aggs))
        results, rollup = self._block.executor.run_grouped(items)
        for result in results:
            self._fold_counters(result)
        self._maybe_adapt(len(results))
        return results, rollup

    def _fold_counters(self, result: QueryResult) -> None:
        """Fold one result into the cache-effectiveness counters."""
        self._cells_probed += result.cells_probed
        self._cells_hit += result.cache_hits

    def _maybe_adapt(self, new_queries: int) -> None:
        """Advance the rebuild cadence and adapt when it is due."""
        if not new_queries:
            return
        self._selects_since_rebuild += new_queries
        if (
            self._policy.rebuild_every is not None
            and self._selects_since_rebuild >= self._policy.rebuild_every
        ):
            self.adapt()

    # -- adaptation ------------------------------------------------------------------

    def adapt(self) -> AggregateTrie:
        """Rebuild the AggregateTrie from the accumulated statistics.

        Ranked candidate cells are materialised (by aggregating their
        range in the block) and inserted until the byte budget -- the
        aggregate threshold times the aggregate-storage size -- fills.
        """
        root = self._block.root_cell()
        root_level = cellid.level_of(root)
        builder = TrieBuilder(
            root_cell=root,
            record_width=self._block.aggregates.record_width(),
            budget_bytes=self._policy.budget_bytes(self._block.memory_bytes()),
        )
        for candidate in self._statistics.ranked_candidates(
            min_level=root_level, max_level=self._block.level
        ):
            if candidate.cell == root and root_level == 0:
                continue
            if not builder.would_fit(candidate.cell):
                break
            builder.insert(candidate.cell, self._block.executor.cell_record(candidate.cell))
        self._trie = builder.finish()
        self._selects_since_rebuild = 0
        return self._trie

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        cached = self._trie.num_cached if self._trie is not None else 0
        return f"AdaptiveGeoBlock({self._block!r}, cached={cached})"


#: The paper's name for the adaptive variant.
BlockQC = AdaptiveGeoBlock
