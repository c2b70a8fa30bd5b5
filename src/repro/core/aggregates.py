"""Cell aggregates: the storage layout of a GeoBlock (Section 3.4).

For every non-empty grid cell, a GeoBlock keeps a *cell aggregate*: the
cell's spatial key, the base-data offset of its first tuple, the tuple
count, the min/max leaf keys of the spatial column, and min/max/sum for
every attribute column.  Aggregates are stored in ascending key order
as a struct of numpy arrays, which is both the paper's contiguous
layout and the form the vectorised query path needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cells import cellid
from repro.cells.curves import MAX_LEVEL
from repro.errors import BuildError, QueryError
from repro.storage.etl import BaseData
from repro.storage.schema import Schema

#: Aggregate functions supported on attribute columns.
AGG_FUNCTIONS = ("count", "sum", "min", "max", "avg")


def record_offsets(schema: Schema, columns) -> list[tuple[str, int]]:  # noqa: ANN001
    """(name, base offset into a full-schema record) per column.

    A cached aggregate record is laid out ``[count, sum_0, min_0,
    max_0, sum_1, ...]`` in schema order; this is the one place that
    arithmetic lives, shared by the scalar :class:`Accumulator` and the
    columnar kernels' record-matrix scatter.
    """
    return [(name, 1 + 3 * schema.position(name)) for name in columns]


def sort_and_group(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group equal keys in an already *sorted* key array.

    Returns ``(unique_keys, group_starts, group_counts)`` where
    ``group_starts`` are offsets into the sorted array -- exactly the
    (cell key, base-data offset, tuple count) triple of a cell aggregate.
    """
    keys = np.asarray(keys, dtype=np.int64)
    if keys.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    boundaries = np.flatnonzero(keys[1:] != keys[:-1]) + 1
    starts = np.concatenate([[0], boundaries]).astype(np.int64)
    counts = np.diff(np.concatenate([starts, [keys.size]])).astype(np.int64)
    return keys[starts], starts, counts


@dataclass(frozen=True, slots=True)
class AggSpec:
    """One requested output aggregate: ``AGG(column)``.

    ``count`` ignores the column (pass ``None``); ``avg`` is derived as
    sum/count, exactly as the paper's cell aggregates support it.
    """

    function: str
    column: str | None = None

    def __post_init__(self) -> None:
        if self.function not in AGG_FUNCTIONS:
            raise QueryError(f"unknown aggregate {self.function!r}; use one of {AGG_FUNCTIONS}")
        if self.function != "count" and self.column is None:
            raise QueryError(f"aggregate {self.function!r} needs a column")

    @property
    def key(self) -> str:
        return f"{self.function}({self.column or '*'})"


class CellAggregates:
    """Struct-of-arrays cell aggregates sorted by spatial key."""

    __slots__ = (
        "schema",
        "keys",
        "offsets",
        "counts",
        "key_mins",
        "key_maxs",
        "sums",
        "mins",
        "maxs",
        "data_version",
    )

    def __init__(
        self,
        schema: Schema,
        keys: np.ndarray,
        offsets: np.ndarray,
        counts: np.ndarray,
        key_mins: np.ndarray,
        key_maxs: np.ndarray,
        sums: dict[str, np.ndarray],
        mins: dict[str, np.ndarray],
        maxs: dict[str, np.ndarray],
    ) -> None:
        self.schema = schema
        self.keys = keys
        self.offsets = offsets
        self.counts = counts
        self.key_mins = key_mins
        self.key_maxs = key_maxs
        self.sums = sums
        self.mins = mins
        self.maxs = maxs
        #: Monotonic mutation counter, bumped by every in-place write
        #: (:mod:`repro.core.updates`).  It lives on the aggregates --
        #: the object writes actually mutate, shared by every zero-copy
        #: wrapper -- so version-keyed caches over *any* facade of this
        #: data (:mod:`repro.cache`) invalidate when any facade writes.
        #: Transient: not serialized; a freshly loaded block starts at 0.
        self.data_version = 0

    # -- construction --------------------------------------------------

    @classmethod
    def build(cls, base: BaseData, level: int) -> "CellAggregates":
        """Single-pass aggregation of sorted base data at ``level``.

        Empty cells are omitted (they would needlessly consume space,
        Section 3.4); groups are found on the already-sorted keys, so
        the build is O(n) -- the paper's incremental build.
        """
        if not 0 <= level <= MAX_LEVEL:
            raise BuildError(f"block level must be in [0, {MAX_LEVEL}], got {level}")
        leaf_keys = base.keys
        block_keys = cellid.parent(leaf_keys, level)
        unique_keys, starts, counts = sort_and_group(block_keys)
        ends = starts + counts
        sums: dict[str, np.ndarray] = {}
        mins: dict[str, np.ndarray] = {}
        maxs: dict[str, np.ndarray] = {}
        if unique_keys.size:
            for spec in base.table.schema:
                values = base.table.column(spec.name).astype(np.float64, copy=False)
                sums[spec.name] = np.add.reduceat(values, starts)
                mins[spec.name] = np.minimum.reduceat(values, starts)
                maxs[spec.name] = np.maximum.reduceat(values, starts)
            key_mins = leaf_keys[starts]
            key_maxs = leaf_keys[ends - 1]
        else:
            empty = np.empty(0, dtype=np.float64)
            for spec in base.table.schema:
                sums[spec.name] = empty.copy()
                mins[spec.name] = empty.copy()
                maxs[spec.name] = empty.copy()
            key_mins = np.empty(0, dtype=np.int64)
            key_maxs = np.empty(0, dtype=np.int64)
        return cls(
            schema=base.table.schema,
            keys=unique_keys,
            offsets=starts,
            counts=counts,
            key_mins=key_mins,
            key_maxs=key_maxs,
            sums=sums,
            mins=mins,
            maxs=maxs,
        )

    def coarsen(self, level: int) -> "CellAggregates":
        """Re-aggregate to a coarser level in one pass over the
        aggregates, without touching the base data (Section 3.4)."""
        current_levels = cellid.level_of(self.keys) if self.keys.size else np.empty(0)
        if self.keys.size and int(current_levels.min()) < level:
            raise BuildError("cannot coarsen: aggregates contain cells above the target level")
        parent_keys = cellid.parent(self.keys, level)
        unique_keys, starts, group_sizes = sort_and_group(parent_keys)
        if unique_keys.size == 0:
            return CellAggregates(
                self.schema,
                unique_keys,
                starts,
                group_sizes,
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                {s.name: np.empty(0) for s in self.schema},
                {s.name: np.empty(0) for s in self.schema},
                {s.name: np.empty(0) for s in self.schema},
            )
        ends = starts + group_sizes
        counts = np.add.reduceat(self.counts, starts)
        offsets = self.offsets[starts]
        key_mins = self.key_mins[starts]
        key_maxs = self.key_maxs[ends - 1]
        sums = {name: np.add.reduceat(arr, starts) for name, arr in self.sums.items()}
        mins = {name: np.minimum.reduceat(arr, starts) for name, arr in self.mins.items()}
        maxs = {name: np.maximum.reduceat(arr, starts) for name, arr in self.maxs.items()}
        return CellAggregates(
            self.schema, unique_keys, offsets, counts, key_mins, key_maxs, sums, mins, maxs
        )

    # -- size accounting ------------------------------------------------

    def __len__(self) -> int:
        return int(self.keys.size)

    @property
    def record_bytes(self) -> int:
        """Bytes per cell aggregate under this schema."""
        # key + offset + count + two spatial min/max keys, then
        # sum/min/max per column.
        return 8 * 5 + 24 * len(self.schema)

    def memory_bytes(self) -> int:
        return self.record_bytes * len(self)

    # -- columnar access (for the kernel execution model) ---------------

    def stat_arrays(self, name: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(sums, mins, maxs) arrays of one attribute column -- the
        reduceat-friendly view the columnar kernels gather from."""
        return self.sums[name], self.mins[name], self.maxs[name]

    # -- record extraction (for the AggregateTrie) --------------------------

    def record_width(self) -> int:
        """Floats per cached aggregate record: count + 3 per column."""
        return 1 + 3 * len(self.schema)

    def slice_record(self, lo: int, hi: int) -> np.ndarray:
        """Combined aggregate record over aggregate rows [lo, hi).

        Layout: ``[count, sum_0, min_0, max_0, sum_1, ...]`` following
        schema order.  Empty slices yield a zero-count record with
        +/-inf extremes, the identity of the combine operation.
        """
        record = np.empty(self.record_width(), dtype=np.float64)
        if hi <= lo:
            record[0] = 0.0
            for position in range(len(self.schema)):
                record[1 + 3 * position] = 0.0
                record[2 + 3 * position] = np.inf
                record[3 + 3 * position] = -np.inf
            return record
        record[0] = float(self.counts[lo:hi].sum())
        for position, spec in enumerate(self.schema):
            record[1 + 3 * position] = float(self.sums[spec.name][lo:hi].sum())
            record[2 + 3 * position] = float(self.mins[spec.name][lo:hi].min())
            record[3 + 3 * position] = float(self.maxs[spec.name][lo:hi].max())
        return record


class Accumulator:
    """Mutable combiner of aggregate records and aggregate slices.

    Implements ``combineAggregates`` from Listing 1: count adds, sums
    add, mins/maxs fold.  ``columns`` restricts accumulation to the
    attribute columns a query actually requests -- the others are
    skipped, both in the vectorised slice path and in the scalar
    per-row path.
    """

    __slots__ = ("schema", "tracked", "count", "sums", "mins", "maxs", "_record_offsets")

    def __init__(self, schema: Schema, columns: list[str] | None = None) -> None:
        self.schema = schema
        if columns is None:
            self.tracked = list(schema.names)
        else:
            self.tracked = [name for name in schema.names if name in set(columns)]
        self.count = 0.0
        self.sums = {name: 0.0 for name in self.tracked}
        self.mins = {name: np.inf for name in self.tracked}
        self.maxs = {name: -np.inf for name in self.tracked}
        # (name, base offset into a full-schema record) per tracked
        # column, so add_record touches only the requested columns.
        self._record_offsets = record_offsets(schema, self.tracked)

    @classmethod
    def for_aggs(cls, schema: Schema, aggs: "list[AggSpec]") -> "Accumulator":
        """Accumulator tracking exactly the columns the specs need."""
        return cls(schema, [spec.column for spec in aggs if spec.column is not None])

    def add_slice(self, aggregates: CellAggregates, lo: int, hi: int) -> None:
        if hi <= lo:
            return
        self.count += float(aggregates.counts[lo:hi].sum())
        for name in self.tracked:
            self.sums[name] += float(aggregates.sums[name][lo:hi].sum())
            self.mins[name] = min(self.mins[name], float(aggregates.mins[name][lo:hi].min()))
            self.maxs[name] = max(self.maxs[name], float(aggregates.maxs[name][lo:hi].max()))

    def add_row(self, aggregates: CellAggregates, row: int) -> None:
        """Scalar per-aggregate combine (the Listing 1 inner loop)."""
        self.count += aggregates.counts[row]
        for name in self.tracked:
            self.sums[name] += aggregates.sums[name][row]
            low = aggregates.mins[name][row]
            if low < self.mins[name]:
                self.mins[name] = low
            high = aggregates.maxs[name][row]
            if high > self.maxs[name]:
                self.maxs[name] = high

    def add_record(self, record) -> None:  # noqa: ANN001 - ndarray or list
        """Combine a full-schema aggregate record (trie cache entry)."""
        self.count += record[0]
        for name, offset in self._record_offsets:
            self.sums[name] += record[offset]
            low = record[offset + 1]
            if low < self.mins[name]:
                self.mins[name] = low
            high = record[offset + 2]
            if high > self.maxs[name]:
                self.maxs[name] = high

    def to_record(self) -> np.ndarray:
        """Full-schema record; requires all columns to be tracked."""
        record = np.empty(1 + 3 * len(self.schema), dtype=np.float64)
        record[0] = self.count
        for position, spec in enumerate(self.schema):
            record[1 + 3 * position] = self.sums[spec.name]
            record[2 + 3 * position] = self.mins[spec.name]
            record[3 + 3 * position] = self.maxs[spec.name]
        return record

    def extract(self, spec: AggSpec) -> float:
        """Final value of one requested aggregate."""
        if spec.function == "count":
            return self.count
        name = spec.column
        assert name is not None
        if name not in self.sums:
            raise QueryError(f"column {name!r} was not tracked by this accumulator")
        if spec.function == "sum":
            return self.sums[name]
        if spec.function == "min":
            return self.mins[name] if self.count else np.nan
        if spec.function == "max":
            return self.maxs[name] if self.count else np.nan
        if spec.function == "avg":
            return self.sums[name] / self.count if self.count else np.nan
        raise QueryError(f"unknown aggregate function {spec.function!r}")
