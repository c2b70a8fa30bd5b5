"""One materialized view: a pinned query with per-covering-cell state.

A :class:`MaterializedView` persists a hot single-region query as a
first-class read model: the query's identity (region, aggregates,
execution hints), its current exact answer, and -- the part that makes
incremental refresh possible -- the *unpruned* covering union together
with one full-schema aggregate record per covering cell.

The refresh contract is bit-identity with a cold rebuild, and it holds
by construction rather than by tolerance:

* the stored records are one :meth:`CellAggregates.slice_record` per
  covering cell (over the cell's aggregate-row range), and re-folding
  the non-empty ones in covering order through
  :meth:`Accumulator.add_record` performs the identical float operation
  sequence as the per-cell ``Accumulator`` fold
  (:meth:`Executor.select_reference`) -- which the kernel model is in
  turn gated bit-identical to;
* an append only changes the records of covering cells that received a
  row (membership via :meth:`CellUnion.contains_leaves` on the appended
  leaf ids; the covering is stored *unpruned*, so membership is
  append-invariant), while a splice merely shifts the row *indices* of
  the other cells -- their slice contents, and therefore their record
  bytes, are unchanged.  Refresh recomputes exactly the touched
  records and re-folds;
* ``count_only`` views refresh through the same pure-integer
  :func:`kernels.count_segments` reduction the Listing 2 path runs;
* views pinned with the trie hint on an adaptive handle whose trie has
  been trained re-execute in full through the statistics-free
  ``handle.plan`` + ``executor.select`` pair (trie partial hits fold
  cached trie records, a different -- equally exact -- grouping that a
  record re-fold cannot reproduce).  Before the trie exists the
  record re-fold applies as on every other kind.

A block switched to the scalar model is deliberately not
materializable: unlike the kernel model, scalar carries no bit-identity
gate against the per-cell fold, so a re-fold could drift from a scalar
cold rebuild by rounding.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.cells import cellid
from repro.cells.union import CellUnion
from repro.core.adaptive import AdaptiveGeoBlock
from repro.core.aggregates import Accumulator, AggSpec
from repro.core.geoblock import GeoBlock
from repro.engine import kernels
from repro.engine.executor import QueryResult

#: MV key layout: (region fingerprint, aggregate key, trie hint,
#: count_only).  The result tier's token / predicate-key
#: components are implicit (one store per dataset or view) and its
#: version component is deliberately absent: materialized views refresh
#: on append instead of invalidating.
MVKey = tuple


def mv_key(
    target,  # noqa: ANN001 - region geometry
    aggs: Sequence[AggSpec],
    trie: bool,
    count_only: bool,
) -> MVKey:
    """The store key of a single-region query; raises TypeError for
    targets with no geometry to fingerprint (pre-computed cell unions),
    mirroring the result tier's key discipline."""
    from repro.cache.results import aggregate_key
    from repro.cells.fingerprint import region_fingerprint

    if count_only:
        return (region_fingerprint(target), "count_only", False, True)
    return (region_fingerprint(target), aggregate_key(list(aggs)), trie, False)


def base_block(handle) -> GeoBlock:  # noqa: ANN001 - Handle union
    """The flat-array block under any handle kind (adaptive unwrapped;
    sharded blocks share the plain block's arrays zero-copy)."""
    if isinstance(handle, AdaptiveGeoBlock):
        return handle.block
    return handle


def build_records(block: GeoBlock, covering: CellUnion) -> np.ndarray:
    """One full-schema aggregate record per covering cell, in covering
    order (what :meth:`MaterializedView.refresh` recomputes for the
    cells an append touched)."""
    lo, hi = block.executor.ranges(covering)
    aggregates = block.aggregates
    records = np.empty((len(covering), aggregates.record_width()), dtype=np.float64)
    for index, (start, stop) in enumerate(zip(lo.tolist(), hi.tolist())):
        records[index] = aggregates.slice_record(start, stop)
    return records


class MaterializedView:
    """A pinned query answer refreshed incrementally on append."""

    __slots__ = (
        "name",
        "region",
        "aggs",
        "trie_hint",
        "count_only",
        "key",
        "covering",
        "records",
        "result",
        "hits",
        "refreshed_version",
        "incremental_refreshes",
        "full_refreshes",
        "delta_rows",
    )

    def __init__(
        self,
        name: str,
        region,  # noqa: ANN001 - Polygon | MultiPolygon | BoundingBox
        aggs: Sequence[AggSpec],
        trie_hint: bool,
        count_only: bool,
        key: MVKey,
        covering: CellUnion,
        records: np.ndarray | None,
        result: QueryResult,
        version: int,
        hits: int = 0,
    ) -> None:
        self.name = name
        self.region = region
        self.aggs = tuple(aggs)
        self.trie_hint = trie_hint
        self.count_only = count_only
        self.key = key
        self.covering = covering
        self.records = records
        self.result = result
        self.hits = hits
        self.refreshed_version = version
        self.incremental_refreshes = 0
        self.full_refreshes = 0
        self.delta_rows = 0

    # -- refresh ---------------------------------------------------------

    def refresh(self, handle, leaves: np.ndarray, version: int) -> int:  # noqa: ANN001
        """Delta-apply an append's rows and restamp; returns the number
        of appended rows that landed inside this view's covering.

        Must run inside the dataset's exclusive write section, after
        the block's arrays and header are refreshed.
        """
        block = base_block(handle)
        delta = 0
        if leaves.size:
            inside = self.covering.contains_leaves(leaves)
            delta = int(inside.sum())
        if delta == 0 and self.result is not None:
            # No appended row can change any covering-cell slice: the
            # stored records and answer are still exact.
            self.refreshed_version = version
            return 0
        lo, hi = block.executor.ranges(self.covering)
        if self.records is not None:
            touched = np.unique(
                np.searchsorted(
                    self.covering.range_mins, leaves[inside], side="right"
                )
                - 1
            )
            for index in touched.tolist():
                self.records[index] = block.aggregates.slice_record(
                    int(lo[index]), int(hi[index])
                )
        self.delta_rows += delta
        probed = self._pruned_cells(block)
        if self.count_only:
            aggregates = block.aggregates
            count = kernels.count_segments(aggregates.offsets, aggregates.counts, lo, hi)
            self.result = QueryResult(
                values={}, count=count, cells_probed=probed, covering_cached=True
            )
            self.incremental_refreshes += 1
        elif (
            self.trie_hint
            and isinstance(handle, AdaptiveGeoBlock)
            and handle.trie is not None
        ):
            # A trained trie folds cached ancestor records -- a grouping
            # a record re-fold cannot reproduce bit for bit.  Re-execute
            # through the statistics-free plan/select pair (identical
            # arithmetic to the adaptive cold path, no training side
            # effects inside the write section).
            plan = handle.plan(self.region)
            self.result = block.executor.select(plan, list(self.aggs))
            self.full_refreshes += 1
        else:
            self.result = self._refold(block, lo, hi, probed)
            self.incremental_refreshes += 1
        self.refreshed_version = version
        return delta

    def _refold(
        self, block: GeoBlock, lo: np.ndarray, hi: np.ndarray, probed: int
    ) -> QueryResult:
        """Fold the stored records exactly as the per-cell
        ``Accumulator`` fold walks covering-cell slices: non-empty cells
        only, covering order."""
        accumulator = Accumulator.for_aggs(block.aggregates.schema, list(self.aggs))
        for index in np.flatnonzero(hi > lo).tolist():
            accumulator.add_record(self.records[index])
        values = {spec.key: accumulator.extract(spec) for spec in self.aggs}
        return QueryResult(
            values=values,
            count=int(accumulator.count),
            cells_probed=probed,
            covering_cached=True,
        )

    def _pruned_cells(self, block: GeoBlock) -> int:
        """``cells_probed`` of a cold plan at the current header (the
        stored covering is unpruned; the stat mirrors the planner)."""
        header = block.header
        if header.is_empty:
            return 0
        pruned = self.covering.prune_outside(
            cellid.range_min(header.min_cell), cellid.range_max(header.max_cell)
        )
        return len(pruned)

    # -- introspection ---------------------------------------------------

    def info(self, current_version: int) -> dict:
        """JSON-compatible summary (the ``views`` wire op's row)."""
        return {
            "name": self.name,
            "kind": "materialized",
            "aggregates": [spec.key for spec in self.aggs],
            "trie": self.trie_hint,
            "count_only": self.count_only,
            "hits": self.hits,
            "version": self.refreshed_version,
            "stale": self.refreshed_version < current_version,
            "cells": len(self.covering),
            "incremental_refreshes": self.incremental_refreshes,
            "full_refreshes": self.full_refreshes,
            "delta_rows": self.delta_rows,
        }

    def nbytes(self) -> int:
        """Approximate in-memory footprint (store accounting)."""
        records = 0 if self.records is None else int(self.records.nbytes)
        return 256 + int(self.covering.ids.nbytes) + records

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"MaterializedView({self.name!r}, cells={len(self.covering)}, "
            f"hits={self.hits}, refreshes={self.incremental_refreshes}"
            f"+{self.full_refreshes}full)"
        )
