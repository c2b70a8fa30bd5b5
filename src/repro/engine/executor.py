"""Query execution: carrying out a :class:`~repro.engine.planner.QueryPlan`.

One :class:`Executor` is bound to one block and carries every
probe-and-aggregate loop of the system:

* the **kernel** model answers every request: ``select`` and
  ``run_batch`` locate all covering cells with two shared binary-search
  passes, lay Figure 8's per-cell cache decisions out as a contribution
  sequence, and reduce it through a handful of columnar kernel calls
  (:mod:`repro.engine.kernels`).  Sharded blocks run the same inline
  reduction and only attach routing telemetry
  (:mod:`repro.engine.shards`);
* the **scalar** model (``block.query_mode = "scalar"``, set only by
  the experiment harness) replays the paper aggregate-at-a-time: the
  Figure 8 walk of :meth:`Executor.select_scalar` and the literal
  Listing 1 of :meth:`Executor.select_listing1`;
* :meth:`Executor.select_reference` is the kernel's test reference --
  the per-cell ``Accumulator`` fold whose float operation sequence the
  kernels reproduce bit for bit (see the exactness contract in
  :mod:`repro.engine.kernels`).  Nothing serves through it.

Counter semantics are defined here once: ``cells_probed`` is the number
of covering cells after header pruning and ``cache_hits`` the number of
those answered entirely from the AggregateTrie -- identical across the
models by construction.

The row-level fold helpers used by the on-the-fly baselines
(``aggregate_rows`` and friends) also live here, so every competitor
answers through this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.cells import cellid
from repro.cells.union import CellUnion
from repro.core.aggregates import Accumulator, AggSpec, record_offsets
from repro.engine import kernels
from repro.engine.kernels import SegmentPartials
from repro.errors import QueryError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.planner import QueryPlan
    from repro.storage.etl import BaseData
    from repro.storage.schema import Schema

#: The values of a block's ``query_mode``: "kernel" (columnar batch
#: reductions; answers every request) and "scalar" (aggregate-at-a-time,
#: the experiment harness's comparable-per-item-cost model).
EXECUTION_MODES = ("kernel", "scalar")


@dataclass(frozen=True)
class QueryResult:
    """Outcome of a SELECT query."""

    #: Requested aggregate values keyed by ``AggSpec.key``.
    values: dict[str, float]
    #: Number of tuples covered by the query (always computed).
    count: int
    #: Number of covering cells probed against the block.
    cells_probed: int = 0
    #: Covering cells answered entirely from the query cache.
    cache_hits: int = 0
    #: Whether the covering was served by the shared covering tier
    #: (reuse across repeated regions, grouped features, and wire
    #: requests; serving stats).
    covering_cached: bool = False
    #: Shards in the executing block's partition (0 for unsharded
    #: blocks); set by the sharded executor's routing pass.
    shards_total: int = 0
    #: Shards the partition router proved disjoint from the covering.
    shards_pruned: int = 0

    def __getitem__(self, key: str) -> float:
        return self.values[key]


def default_aggs(aggs: Sequence[AggSpec] | None) -> list[AggSpec]:
    """Normalise a SELECT's aggregate list (default: COUNT(*))."""
    return list(aggs) if aggs is not None else [AggSpec("count")]


def batch_items(
    queries: Sequence, aggs: Sequence[AggSpec] | None = None  # noqa: ANN401
) -> list[tuple[object, Sequence[AggSpec] | None]]:
    """Normalise a batch input into (target, aggs) pairs.

    ``queries`` may be :class:`~repro.workloads.workload.Query` objects
    (each carrying its own aggregates) or raw targets (regions / cell
    unions); ``aggs`` is the shared fallback.  This is the one place
    that defines the batch item protocol -- every ``run_batch``
    implementation unpacks through it.
    """
    items: list[tuple[object, Sequence[AggSpec] | None]] = []
    for query in queries:
        target = getattr(query, "region", query)
        query_aggs = getattr(query, "aggs", None)
        # An explicitly empty aggs tuple is a real request (count only,
        # no output values) and must not fall back to the shared aggs.
        items.append((target, list(query_aggs) if query_aggs is not None else aggs))
    return items


class Executor:
    """Executes plans against one block's cell aggregates.

    The executor reads the block's ``aggregates`` and ``query_mode``
    lazily on every call, so in-place updates (``core/updates.py``) and
    the experiment harness's switch to scalar take effect immediately.
    """

    def __init__(self, block) -> None:  # noqa: ANN001 - GeoBlock (circular)
        self._block = block

    # -- shared plumbing -------------------------------------------------

    @property
    def aggregates(self):  # noqa: ANN201 - CellAggregates
        return self._block.aggregates

    def validate_aggs(self, aggs: Sequence[AggSpec]) -> None:
        schema = self.aggregates.schema
        for spec in aggs:
            if spec.column is not None and spec.column not in schema:
                raise QueryError(
                    f"column {spec.column!r} not in block schema {schema.names}"
                )

    def ranges(self, union: CellUnion) -> tuple[np.ndarray, np.ndarray]:
        """Aggregate-row ranges [lo, hi) per covering cell.

        A block cell belongs to covering cell ``c`` iff its key falls in
        ``[range_min(c), range_max(c)]``; on the sorted key array both
        ends are binary searches (the upper-bound search of Listing 1).
        """
        keys = self.aggregates.keys
        lo = np.searchsorted(keys, union.range_mins, side="left")
        hi = np.searchsorted(keys, union.range_maxs, side="right")
        return lo.astype(np.int64), hi.astype(np.int64)

    def cell_range(self, cell: int) -> tuple[int, int]:
        """Aggregate-row range of one cell's key interval."""
        keys = self.aggregates.keys
        lo = int(np.searchsorted(keys, cellid.range_min(cell), side="left"))
        hi = int(np.searchsorted(keys, cellid.range_max(cell), side="right"))
        return lo, hi

    def cell_ranges(self, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Aggregate-row ranges of many cells located with one
        two-sided ``searchsorted`` pass (the batched counterpart of
        :meth:`cell_range`, used for trie-child lookups)."""
        keys = self.aggregates.keys
        cells = np.asarray(cells, dtype=np.int64)
        lo = np.searchsorted(keys, cellid.range_min(cells), side="left")
        hi = np.searchsorted(keys, cellid.range_max(cells), side="right")
        return lo.astype(np.int64), hi.astype(np.int64)

    def cell_record(self, cell: int) -> np.ndarray:
        """Full-schema aggregate record of one cell (used to materialise
        AggregateTrie entries and to answer uncached trie children)."""
        lo, hi = self.cell_range(cell)
        return self.aggregates.slice_record(lo, hi)

    def _fold_slice(self, accumulator: Accumulator, lo: int, hi: int, scalar: bool) -> None:
        """Combine aggregate rows [lo, hi): aggregate-at-a-time under the
        scalar model, one ``add_slice`` for the reference fold."""
        if scalar:
            aggregates = self.aggregates
            add_row = accumulator.add_row
            for row in range(lo, hi):
                add_row(aggregates, row)
        else:
            accumulator.add_slice(self.aggregates, lo, hi)

    # -- single-query execution ------------------------------------------

    def select(
        self, plan: "QueryPlan", aggs: Sequence[AggSpec] | None = None
    ) -> QueryResult:
        """Execute one SELECT plan (Listing 1 / Figure 8) under the
        bound block's ``query_mode``.

        Plans carrying cache-probe decisions follow Figure 8 per
        covering cell: hits fold the cached record, partial hits fold
        the cached children and fall back per uncached child, misses run
        the base range fold.
        """
        if self._block.query_mode == "scalar":
            return self.select_scalar(plan, aggs)
        aggs = default_aggs(aggs)
        self.validate_aggs(aggs)
        union = plan.union
        if len(union):
            lo, hi = self.ranges(union)
        else:
            lo = hi = np.empty(0, dtype=np.int64)
        return self._run_kernel([plan], [aggs], lo, hi, [0, len(union)])[0]

    def select_scalar(
        self, plan: "QueryPlan", aggs: Sequence[AggSpec] | None = None
    ) -> QueryResult:
        """The paper-replay model: every contained cell aggregate is
        folded individually (see ``experiments/common.make_scalar``)."""
        return self._select_walk(plan, aggs, scalar=True)

    def select_reference(
        self, plan: "QueryPlan", aggs: Sequence[AggSpec] | None = None
    ) -> QueryResult:
        """The kernel model's bit-exact test reference.

        One ``Accumulator.add_slice`` per covering cell and one
        ``add_record`` per trie hit, in covering order -- the float
        operation sequence the kernels restructure but must reproduce
        bit for bit.  Single query, no batching; tests
        and the ``engine_batch_parity`` gate compare against it and no
        request is served through it.
        """
        return self._select_walk(plan, aggs, scalar=False)

    def _select_walk(
        self, plan: "QueryPlan", aggs: Sequence[AggSpec] | None, scalar: bool
    ) -> QueryResult:
        """Figure 8's per-cell walk over one plan's covering."""
        aggs = default_aggs(aggs)
        self.validate_aggs(aggs)
        union = plan.union
        aggregates = self.aggregates
        accumulator = Accumulator.for_aggs(aggregates.schema, aggs)
        cache_hits = 0
        if len(union):
            lo, hi = self.ranges(union)
            if plan.probes is not None:
                cache_hits = self._fold_with_probes(plan, accumulator, lo, hi, scalar)
            elif scalar:
                # The paper replay's hot loop, inlined: a method call per
                # covering cell would dominate on sparse coverings.
                add_row = accumulator.add_row
                for first, last in zip(lo.tolist(), hi.tolist()):
                    for row in range(first, last):
                        add_row(aggregates, row)
            else:
                for first, last in zip(lo.tolist(), hi.tolist()):
                    accumulator.add_slice(aggregates, first, last)
        return QueryResult(
            values={spec.key: accumulator.extract(spec) for spec in aggs},
            count=int(accumulator.count),
            cells_probed=len(union),
            cache_hits=cache_hits,
            covering_cached=plan.from_cache,
        )

    def _fold_with_probes(
        self,
        plan: "QueryPlan",
        accumulator: Accumulator,
        lo: np.ndarray,
        hi: np.ndarray,
        scalar: bool,
    ) -> int:
        """Figure 8's per-cell cache walk; returns the cache-hit count."""
        assert plan.probes is not None
        # All uncached trie children of the walk resolve their
        # aggregate ranges through one batched two-sided searchsorted
        # up front (two scalar searches per child would dominate on
        # partial-heavy plans); the walk consumes them in order.
        child_cells = [
            child
            for probe in plan.probes
            if probe.status == "partial" and probe.child_records
            for child in probe.uncached_children
        ]
        if child_cells:
            child_lo, child_hi = self.cell_ranges(np.asarray(child_cells, dtype=np.int64))
            child_ranges = iter(zip(child_lo.tolist(), child_hi.tolist()))
        else:
            child_ranges = iter(())
        cache_hits = 0
        for index, probe in enumerate(plan.probes):
            if probe.status == "hit":
                accumulator.add_record(probe.record)
                cache_hits += 1
                continue
            if probe.status == "partial" and probe.child_records:
                for record in probe.child_records:
                    accumulator.add_record(record)
                for _ in probe.uncached_children:
                    child_pair = next(child_ranges)
                    self._fold_slice(accumulator, child_pair[0], child_pair[1], scalar)
                continue
            self._fold_slice(accumulator, int(lo[index]), int(hi[index]), scalar)
        return cache_hits

    def count(self, plan: "QueryPlan") -> int:
        """COUNT execution (Listing 2): per covering cell only the first
        and last contained aggregate are touched, computing the result
        in a range-sum manner from offsets.  The per-cell arithmetic is
        one masked offset kernel over all covering cells
        (:func:`repro.engine.kernels.count_segments`) -- pure int64,
        independent of the execution model."""
        union = plan.union
        if not len(union):
            return 0
        lo, hi = self.ranges(union)
        aggregates = self.aggregates
        return kernels.count_segments(aggregates.offsets, aggregates.counts, lo, hi)

    # -- literal Listing 1 reference path --------------------------------

    def select_listing1(
        self, plan: "QueryPlan", aggs: Sequence[AggSpec] | None = None
    ) -> QueryResult:
        """Literal Listing 1: per query cell, an upper-bound binary
        search locates the first grid cell (checking the last result's
        successor first), then contiguous aggregates are combined until
        the key leaves the query cell."""
        aggs = default_aggs(aggs)
        self.validate_aggs(aggs)
        union = plan.union
        accumulator = Accumulator.for_aggs(self.aggregates.schema, aggs)
        last_agg = -1  # index of the last combined aggregate, -1 = none
        for qmin, qmax in zip(union.range_mins.tolist(), union.range_maxs.tolist()):
            last_agg = self.scan_range_scalar(qmin, qmax, accumulator, last_agg)
        return QueryResult(
            values={spec.key: accumulator.extract(spec) for spec in aggs},
            count=int(accumulator.count),
            cells_probed=len(union),
            covering_cached=plan.from_cache,
        )

    def scan_range_scalar(
        self, qmin: int, qmax: int, accumulator: Accumulator, last_agg: int = -1
    ) -> int:
        """Listing 1's inner loop over one query cell's key range.

        Checks the previous result's successor before falling back to
        the upper-bound binary search (lines 19-28 of the paper), then
        combines contiguous aggregates one at a time.  Returns the index
        of the last combined aggregate for the next cell's hint.
        """
        aggregates = self.aggregates
        keys = aggregates.keys
        if last_agg >= 0 and last_agg + 1 < keys.size and qmin <= keys[last_agg + 1] <= qmax:
            cursor = last_agg + 1
        else:
            cursor = int(np.searchsorted(keys, qmin, side="left"))
        while cursor < keys.size and keys[cursor] <= qmax:
            accumulator.add_row(aggregates, cursor)
            last_agg = cursor
            cursor += 1
        return last_agg

    # -- batched execution -----------------------------------------------

    def run_batch(
        self, items: Sequence[tuple["QueryPlan", Sequence[AggSpec] | None]]
    ) -> list[QueryResult]:
        """Answer many plans in one shared pass.

        All covering-cell key ranges of the whole batch are located with
        two shared ``searchsorted`` calls, then the entire batch reduces
        through the columnar kernels: duplicate [lo, hi) aggregate
        ranges -- queries overlap heavily under the paper's skewed
        workloads -- collapse to unique segments when profitable, and
        one kernel invocation per (column, statistic) answers every
        query at once.  Answers are bit-identical to issuing the same
        queries one by one.

        The scalar model charges every aggregate and shares nothing
        across a batch, so there the batch *is* the sequential selects.
        """
        if self._block.query_mode == "scalar":
            return [self.select_scalar(plan, aggs) for plan, aggs in items]
        plans = [plan for plan, _ in items]
        agg_lists = [default_aggs(aggs) for _, aggs in items]
        for aggs in agg_lists:
            self.validate_aggs(aggs)
        # One batched range location for every covering cell of the batch.
        sizes = [len(plan.union) for plan in plans]
        if sum(sizes):
            all_mins = np.concatenate([p.union.range_mins for p in plans if len(p.union)])
            all_maxs = np.concatenate([p.union.range_maxs for p in plans if len(p.union)])
            keys = self.aggregates.keys
            lo_all = np.searchsorted(keys, all_mins, side="left").astype(np.int64)
            hi_all = np.searchsorted(keys, all_maxs, side="right").astype(np.int64)
        else:
            lo_all = hi_all = np.empty(0, dtype=np.int64)
        return self._run_kernel(plans, agg_lists, lo_all, hi_all, np.cumsum([0] + sizes))

    # -- kernel-model execution ------------------------------------------

    #: Below this many segments the unique-range dedup pass costs more
    #: than reducing duplicates directly.
    MIN_SEGMENTS_FOR_DEDUP = 64

    def _run_kernel(
        self,
        plans: Sequence["QueryPlan"],
        agg_lists: Sequence[list[AggSpec]],
        lo_all: np.ndarray,
        hi_all: np.ndarray,
        offsets: Sequence[int],
    ) -> list[QueryResult]:
        """Answer plans through the columnar kernels.

        The fold is restructured, not reformulated: per query an ordered
        *contribution sequence* is laid out -- exactly the sequence of
        ``add_slice`` / ``add_record`` calls :meth:`select_reference`
        makes (range partials for plain cells and uncached trie
        children, cached records for trie hits) -- then stage 1 computes
        all range partials at once
        (:func:`~repro.engine.kernels.segment_partials`, deduplicating
        repeated ranges when profitable) and stage 2 folds
        each query's sequence with the batched reductions of
        :mod:`repro.engine.kernels`.  Both stages reproduce the
        reference fold's float semantics bit for bit (see the kernels
        module).
        """
        offsets = np.asarray(offsets, dtype=np.int64)
        nq = len(plans)
        columns: list[str] = []
        seen: set[str] = set()
        for aggs in agg_lists:
            for spec in aggs:
                if spec.column is not None and spec.column not in seen:
                    seen.add(spec.column)
                    columns.append(spec.column)
        hits = [0] * nq
        record_matrix: np.ndarray | None = None
        record_dst: np.ndarray | None = None
        range_dst: np.ndarray | None = None
        if all(plan.probes is None for plan in plans):
            # Fast path: the located ranges are the contributions.
            seg_lo, seg_hi = lo_all, hi_all
            starts = offsets
        else:
            # Figure 8 walk: lay the per-cell cache decisions out as an
            # ordered mix of range and record contributions.
            range_lo: list[int] = []
            range_hi: list[int] = []
            range_dst_list: list[int] = []
            record_rows: list = []
            record_dst_list: list[int] = []
            child_cells: list[int] = []
            child_slots: list[int] = []
            starts_list = [0]
            cursor = 0
            for qindex, plan in enumerate(plans):
                base = int(offsets[qindex])
                if plan.probes is None:
                    for cell_index in range(int(offsets[qindex + 1]) - base):
                        range_lo.append(int(lo_all[base + cell_index]))
                        range_hi.append(int(hi_all[base + cell_index]))
                        range_dst_list.append(cursor)
                        cursor += 1
                    starts_list.append(cursor)
                    continue
                for cell_index, probe in enumerate(plan.probes):
                    if probe.status == "hit":
                        record_rows.append(probe.record)
                        record_dst_list.append(cursor)
                        cursor += 1
                        hits[qindex] += 1
                    elif probe.status == "partial" and probe.child_records:
                        for record in probe.child_records:
                            record_rows.append(record)
                            record_dst_list.append(cursor)
                            cursor += 1
                        for child_cell in probe.uncached_children:
                            child_slots.append(len(range_lo))
                            child_cells.append(child_cell)
                            range_lo.append(0)
                            range_hi.append(0)
                            range_dst_list.append(cursor)
                            cursor += 1
                    else:
                        range_lo.append(int(lo_all[base + cell_index]))
                        range_hi.append(int(hi_all[base + cell_index]))
                        range_dst_list.append(cursor)
                        cursor += 1
                starts_list.append(cursor)
            if child_cells:
                child_lo, child_hi = self.cell_ranges(
                    np.asarray(child_cells, dtype=np.int64)
                )
                for slot, child_l, child_h in zip(
                    child_slots, child_lo.tolist(), child_hi.tolist()
                ):
                    range_lo[slot] = child_l
                    range_hi[slot] = child_h
            seg_lo = np.asarray(range_lo, dtype=np.int64)
            seg_hi = np.asarray(range_hi, dtype=np.int64)
            starts = np.asarray(starts_list, dtype=np.int64)
            range_dst = np.asarray(range_dst_list, dtype=np.int64)
            if record_rows:
                record_matrix = np.asarray(record_rows, dtype=np.float64)
                record_dst = np.asarray(record_dst_list, dtype=np.int64)
        # Stage 1: every range partial in one pass, over unique ranges
        # when the batch repeats them (skewed workloads).
        partials = self._range_partials(seg_lo, seg_hi, columns)
        # Scatter partials and cached records into the contribution
        # layout (the fast path needs no scatter: partials align).
        if range_dst is None:
            contrib_counts = partials.counts
            contrib_sums = partials.sums
            contrib_mins = partials.mins
            contrib_maxs = partials.maxs
        else:
            total = int(starts[-1])
            contrib_counts = np.zeros(total, dtype=np.float64)
            contrib_counts[range_dst] = partials.counts
            contrib_sums = {}
            contrib_mins = {}
            contrib_maxs = {}
            for name, base_offset in record_offsets(self.aggregates.schema, columns):
                sums = np.zeros(total, dtype=np.float64)
                mins = np.full(total, np.inf, dtype=np.float64)
                maxs = np.full(total, -np.inf, dtype=np.float64)
                sums[range_dst] = partials.sums[name]
                mins[range_dst] = partials.mins[name]
                maxs[range_dst] = partials.maxs[name]
                if record_matrix is not None:
                    sums[record_dst] = record_matrix[:, base_offset]
                    mins[record_dst] = record_matrix[:, base_offset + 1]
                    maxs[record_dst] = record_matrix[:, base_offset + 2]
                contrib_sums[name] = sums
                contrib_mins[name] = mins
                contrib_maxs[name] = maxs
            if record_matrix is not None:
                contrib_counts[record_dst] = record_matrix[:, 0]
        # Stage 2: per-query folds over the contribution sequences.  A
        # lone query (the sequential SELECT path) reduces its single
        # sequence directly -- same folds, none of the batched ranged
        # machinery -- so per-call overhead stays low.
        if nq == 1:
            return [
                self._reduce_single(
                    plans[0],
                    agg_lists[0],
                    contrib_counts,
                    contrib_sums,
                    contrib_mins,
                    contrib_maxs,
                    hits[0],
                )
            ]
        query_lo, query_hi = starts[:-1], starts[1:]
        count_totals = kernels.ranged_reduce(
            np.add, contrib_counts, query_lo, query_hi, 0.0
        )
        min_totals = {
            name: kernels.ranged_reduce(np.minimum, contrib_mins[name], query_lo, query_hi, np.inf)
            for name in columns
        }
        max_totals = {
            name: kernels.ranged_reduce(np.maximum, contrib_maxs[name], query_lo, query_hi, -np.inf)
            for name in columns
        }
        sum_totals = dict(
            zip(
                columns,
                kernels.sequential_ranged_sums(
                    [contrib_sums[name] for name in columns], starts
                ),
            )
        )
        results: list[QueryResult] = []
        for qindex, (plan, aggs) in enumerate(zip(plans, agg_lists)):
            count = float(count_totals[qindex])
            values: dict[str, float] = {}
            for spec in aggs:
                if spec.function == "count":
                    values[spec.key] = count
                elif spec.function == "sum":
                    values[spec.key] = float(sum_totals[spec.column][qindex])
                elif spec.function == "min":
                    values[spec.key] = float(min_totals[spec.column][qindex]) if count else np.nan
                elif spec.function == "max":
                    values[spec.key] = float(max_totals[spec.column][qindex]) if count else np.nan
                elif spec.function == "avg":
                    values[spec.key] = (
                        float(sum_totals[spec.column][qindex]) / count if count else np.nan
                    )
            results.append(
                QueryResult(
                    values=values,
                    count=int(count),
                    cells_probed=len(plan.union),
                    cache_hits=hits[qindex],
                    covering_cached=plan.from_cache,
                )
            )
        return results

    def _reduce_single(
        self,
        plan: "QueryPlan",
        aggs: Sequence[AggSpec],
        contrib_counts: np.ndarray,
        contrib_sums,  # noqa: ANN001 - mapping of column -> contribution array
        contrib_mins,  # noqa: ANN001
        contrib_maxs,  # noqa: ANN001
        cache_hits: int,
    ) -> QueryResult:
        """Fold one query's contribution sequence without the batched
        stage-2 scaffolding.

        Count is a sum of integer-valued floats (exact under any
        order), min/max reductions are order-independent, and sums go
        through :func:`~repro.engine.kernels.sequential_sum` -- so every
        value matches the batched reductions (and the reference fold)
        bit for bit.
        """
        count = float(contrib_counts.sum())
        sums: dict[str, float] = {}
        values: dict[str, float] = {}
        for spec in aggs:
            if spec.function == "count":
                values[spec.key] = count
                continue
            if not count and spec.function != "sum":
                values[spec.key] = np.nan
                continue
            if spec.function in ("sum", "avg"):
                if spec.column not in sums:
                    sums[spec.column] = kernels.sequential_sum(contrib_sums[spec.column])
                total = sums[spec.column]
                values[spec.key] = total if spec.function == "sum" else total / count
            elif spec.function == "min":
                values[spec.key] = float(np.minimum.reduce(contrib_mins[spec.column]))
            elif spec.function == "max":
                values[spec.key] = float(np.maximum.reduce(contrib_maxs[spec.column]))
        return QueryResult(
            values=values,
            count=int(count),
            cells_probed=len(plan.union),
            cache_hits=cache_hits,
            covering_cached=plan.from_cache,
        )

    def _range_partials(
        self, seg_lo: np.ndarray, seg_hi: np.ndarray, columns: Sequence[str]
    ) -> SegmentPartials:
        """Stage-1 partials, deduplicating repeated ranges when the
        segment set is large enough for the unique pass to pay off."""
        if seg_lo.size >= self.MIN_SEGMENTS_FOR_DEDUP:
            width = np.int64(self.aggregates.keys.size + 1)
            unique_pairs, inverse = np.unique(seg_lo * width + seg_hi, return_inverse=True)
            if unique_pairs.size < seg_lo.size:
                unique = kernels.segment_partials(
                    self.aggregates,
                    (unique_pairs // width).astype(np.int64),
                    (unique_pairs % width).astype(np.int64),
                    columns,
                )
                return unique.take(inverse)
        return kernels.segment_partials(self.aggregates, seg_lo, seg_hi, columns)

    # -- grouped execution (multi-region group-by) -----------------------

    def run_grouped(
        self, items: Sequence[tuple["QueryPlan", Sequence[AggSpec] | None]]
    ) -> tuple[list[QueryResult], QueryResult]:
        """Answer a group of plans sharing one aggregate list, plus a
        combined rollup.

        This is the engine entry point of the API's multi-region
        group-by: per-feature answers come from :meth:`run_batch` (one
        shared binary-search pass; range dedup across overlapping
        features), and the rollup folds the per-feature results via
        :func:`merge_results`.  Per-feature results are bit-identical to
        answering each feature alone.
        """
        results = self.run_batch(items)
        aggs = default_aggs(items[0][1] if items else None)
        return results, merge_results(results, aggs)


def merge_results(results: Sequence[QueryResult], aggs: Sequence[AggSpec]) -> QueryResult:
    """Fold per-feature query results into one combined rollup.

    Counts and sums add (sums via :func:`math.fsum`, so the rollup is
    exact over the per-feature partials and independent of the fold
    order a naive ``+=`` would impose); mins/maxs fold, skipping empty
    features (their extremes are NaN); ``avg`` is re-derived as the
    count-weighted fold of the per-feature averages -- equal to total
    sum over total count up to the rounding already present in each
    feature's average (a derived summary, not a bit-exact engine
    value).  Overlapping features contribute to the rollup once per
    feature, exactly like summing a dashboard's per-region rows.
    """
    total = sum(result.count for result in results)
    values: dict[str, float] = {}
    for spec in aggs:
        parts = [result.values[spec.key] for result in results]
        if spec.function == "count":
            values[spec.key] = math.fsum(parts)
        elif spec.function == "sum":
            values[spec.key] = math.fsum(parts)
        elif spec.function == "min":
            finite = [part for part in parts if part == part]
            values[spec.key] = min(finite) if finite else np.nan
        elif spec.function == "max":
            finite = [part for part in parts if part == part]
            values[spec.key] = max(finite) if finite else np.nan
        elif spec.function == "avg":
            weighted = [
                part * result.count
                for part, result in zip(parts, results)
                if result.count and part == part
            ]
            values[spec.key] = math.fsum(weighted) / total if total else np.nan
    return QueryResult(
        values=values,
        count=total,
        cells_probed=sum(result.cells_probed for result in results),
        cache_hits=sum(result.cache_hits for result in results),
        covering_cached=any(result.covering_cached for result in results),
        shards_total=sum(result.shards_total for result in results),
        shards_pruned=sum(result.shards_pruned for result in results),
    )


# -- row-level folds for the on-the-fly baselines ------------------------


def aggregate_rows(
    base: "BaseData",
    slices: list[tuple[int, int]],
    aggs: Sequence[AggSpec],
    extra_indices: np.ndarray | None = None,
    cells_probed: int | None = None,
) -> QueryResult:
    """On-the-fly aggregation over row ranges of the base data.

    This is the shared "scan the qualifying raw tuples and fold them"
    step of the non-pre-aggregating baselines.  ``slices`` are [lo, hi)
    ranges in base order; ``extra_indices`` adds individually selected
    rows (used by the PH-tree's partial leaves).  ``cells_probed``
    overrides the probe counter when the caller probed more cells than
    produced slices (empty covering cells still cost a probe).

    Vectorisation note: the count (pure integer range arithmetic) and
    the min/max folds (order-independent) are batched through the
    columnar kernels -- bit-preserving rewrites of the original
    slice-at-a-time loop.  The float *sums* keep the original loop on
    purpose: they feed reported experiment numbers, and any regrouping
    of the per-slice fold would change the rounding sequence.  The
    tuple-at-a-time :func:`aggregate_rows_scalar` stays entirely
    scalar for the same reason -- it *is* the experiment harness's
    comparable-cost model, not an optimisation target.
    """
    schema: "Schema" = base.table.schema
    needed = {spec.column for spec in aggs if spec.column is not None}
    columns = {name: base.table.column(name) for name in needed}
    slice_lo = np.fromiter((pair[0] for pair in slices), dtype=np.int64, count=len(slices))
    slice_hi = np.fromiter((pair[1] for pair in slices), dtype=np.int64, count=len(slices))
    count = int(np.maximum(slice_hi - slice_lo, 0).sum()) if slices else 0
    sums = {name: 0.0 for name in needed}
    mins = {}
    maxs = {}
    for name in needed:
        per_slice_min = kernels.ranged_reduce(np.minimum, columns[name], slice_lo, slice_hi, np.inf)
        per_slice_max = kernels.ranged_reduce(np.maximum, columns[name], slice_lo, slice_hi, -np.inf)
        mins[name] = float(per_slice_min.min()) if per_slice_min.size else np.inf
        maxs[name] = float(per_slice_max.max()) if per_slice_max.size else -np.inf
    for lo, hi in slices:
        if hi <= lo:
            continue
        for name in needed:
            sums[name] += float(columns[name][lo:hi].sum())
    if extra_indices is not None and extra_indices.size:
        count += int(extra_indices.size)
        for name in needed:
            values = columns[name][extra_indices]
            sums[name] += float(values.sum())
            mins[name] = min(mins[name], float(values.min()))
            maxs[name] = max(maxs[name], float(values.max()))
    values_out: dict[str, float] = {}
    for spec in aggs:
        if spec.function == "count":
            values_out[spec.key] = float(count)
        elif spec.function == "sum":
            values_out[spec.key] = sums[spec.column]  # type: ignore[index]
        elif spec.function == "min":
            values_out[spec.key] = mins[spec.column] if count else np.nan  # type: ignore[index]
        elif spec.function == "max":
            values_out[spec.key] = maxs[spec.column] if count else np.nan  # type: ignore[index]
        elif spec.function == "avg":
            values_out[spec.key] = (sums[spec.column] / count) if count else np.nan  # type: ignore[index]
    return QueryResult(
        values=values_out,
        count=count,
        cells_probed=len(slices) if cells_probed is None else cells_probed,
    )


def aggregate_rows_scalar(
    base: "BaseData",
    slices: list[tuple[int, int]],
    aggs: Sequence[AggSpec],
    extra_indices: np.ndarray | None = None,
    cells_probed: int | None = None,
) -> QueryResult:
    """Scalar (tuple-at-a-time) variant of :func:`aggregate_rows`.

    Folds every qualifying raw tuple individually, the way the paper's
    single-threaded C++ baselines do.  The experiment harness uses this
    execution model for all competitors so that per-item costs stay
    comparable; the vectorised :func:`aggregate_rows` is the production
    path.  Counter semantics are identical to the vectorised fold.
    """
    count = 0
    needed = [spec.column for spec in aggs if spec.column is not None]
    needed = list(dict.fromkeys(needed))
    columns = {name: base.table.column(name) for name in needed}
    sums = {name: 0.0 for name in needed}
    mins = {name: np.inf for name in needed}
    maxs = {name: -np.inf for name in needed}
    for lo, hi in slices:
        if hi <= lo:
            continue
        count += hi - lo
        for name in needed:
            column = columns[name]
            total = sums[name]
            low = mins[name]
            high = maxs[name]
            for row in range(lo, hi):
                value = column[row]
                total += value
                if value < low:
                    low = value
                if value > high:
                    high = value
            sums[name] = total
            mins[name] = low
            maxs[name] = high
    if extra_indices is not None and extra_indices.size:
        count += int(extra_indices.size)
        for name in needed:
            column = columns[name]
            total = sums[name]
            low = mins[name]
            high = maxs[name]
            for row in extra_indices.tolist():
                value = column[row]
                total += value
                if value < low:
                    low = value
                if value > high:
                    high = value
            sums[name] = total
            mins[name] = low
            maxs[name] = high
    values_out: dict[str, float] = {}
    for spec in aggs:
        if spec.function == "count":
            values_out[spec.key] = float(count)
        elif spec.function == "sum":
            values_out[spec.key] = float(sums[spec.column])  # type: ignore[index]
        elif spec.function == "min":
            values_out[spec.key] = float(mins[spec.column]) if count else np.nan  # type: ignore[index]
        elif spec.function == "max":
            values_out[spec.key] = float(maxs[spec.column]) if count else np.nan  # type: ignore[index]
        elif spec.function == "avg":
            values_out[spec.key] = float(sums[spec.column]) / count if count else np.nan  # type: ignore[index]
    return QueryResult(
        values=values_out,
        count=count,
        cells_probed=len(slices) if cells_probed is None else cells_probed,
    )


def union_ranges(base: "BaseData", union: CellUnion) -> list[tuple[int, int]]:
    """Row ranges of base data covered by each cell of a union."""
    lo = np.searchsorted(base.keys, union.range_mins, side="left")
    hi = np.searchsorted(base.keys, union.range_maxs, side="right")
    return list(zip(lo.tolist(), hi.tolist()))
