"""Tests for cell aggregates and the accumulator."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cells import EARTH, cellid
from repro.core.aggregates import Accumulator, AggSpec, CellAggregates, sort_and_group
from repro.errors import BuildError, QueryError
from repro.storage.etl import extract
from repro.storage.schema import Schema
from repro.storage.table import PointTable


@pytest.fixture(scope="module")
def base():
    rng = np.random.default_rng(31)
    count = 5000
    table = PointTable(
        Schema(["v", "w"]),
        rng.normal(-73.95, 0.05, count),
        rng.normal(40.75, 0.04, count),
        {"v": rng.gamma(2.0, 3.0, count), "w": rng.normal(0, 10, count)},
    )
    return extract(table, EARTH)


class TestBuild:
    def test_matches_brute_force_groups(self, base):
        level = 12
        aggregates = CellAggregates.build(base, level)
        block_keys = cellid.parent(base.keys, level)
        values = base.table.column("v")
        for row in range(0, len(aggregates), max(1, len(aggregates) // 25)):
            key = aggregates.keys[row]
            mask = block_keys == key
            assert aggregates.counts[row] == int(mask.sum())
            assert aggregates.sums["v"][row] == pytest.approx(float(values[mask].sum()))
            assert aggregates.mins["v"][row] == pytest.approx(float(values[mask].min()))
            assert aggregates.maxs["v"][row] == pytest.approx(float(values[mask].max()))

    def test_offsets_are_prefix_sums(self, base):
        aggregates = CellAggregates.build(base, 13)
        rebuilt = np.concatenate([[0], np.cumsum(aggregates.counts[:-1])])
        assert bool((aggregates.offsets == rebuilt).all())

    def test_keys_sorted_and_unique(self, base):
        aggregates = CellAggregates.build(base, 13)
        keys = aggregates.keys
        assert bool((keys[1:] > keys[:-1]).all())

    def test_spatial_key_extremes(self, base):
        aggregates = CellAggregates.build(base, 13)
        assert int(aggregates.key_mins[0]) == int(base.keys[0])
        assert int(aggregates.key_maxs[-1]) == int(base.keys[-1])

    def test_counts_total(self, base):
        aggregates = CellAggregates.build(base, 10)
        assert int(aggregates.counts.sum()) == len(base)

    def test_empty_base(self, base):
        empty = base.subset(0)
        aggregates = CellAggregates.build(empty, 12)
        assert len(aggregates) == 0

    def test_invalid_level(self, base):
        with pytest.raises(BuildError):
            CellAggregates.build(base, 99)


class TestCoarsen:
    def test_coarsen_matches_direct_build(self, base):
        fine = CellAggregates.build(base, 14)
        coarse = fine.coarsen(10)
        direct = CellAggregates.build(base, 10)
        assert bool((coarse.keys == direct.keys).all())
        assert bool((coarse.counts == direct.counts).all())
        assert bool((coarse.offsets == direct.offsets).all())
        assert np.allclose(coarse.sums["v"], direct.sums["v"])
        assert np.allclose(coarse.mins["w"], direct.mins["w"])
        assert np.allclose(coarse.maxs["w"], direct.maxs["w"])
        assert bool((coarse.key_mins == direct.key_mins).all())
        assert bool((coarse.key_maxs == direct.key_maxs).all())

    def test_refine_rejected(self, base):
        coarse = CellAggregates.build(base, 10)
        with pytest.raises(BuildError):
            coarse.coarsen(14)


class TestRecords:
    def test_record_width(self, base):
        aggregates = CellAggregates.build(base, 12)
        assert aggregates.record_width() == 1 + 3 * 2

    def test_slice_record_roundtrip(self, base):
        aggregates = CellAggregates.build(base, 12)
        record = aggregates.slice_record(0, len(aggregates))
        assert record[0] == len(base)
        assert record[1] == pytest.approx(float(base.table.column("v").sum()))

    def test_empty_slice_record_is_identity(self, base):
        aggregates = CellAggregates.build(base, 12)
        empty = aggregates.slice_record(5, 5)
        accumulator = Accumulator(aggregates.schema)
        accumulator.add_record(empty)
        assert accumulator.count == 0
        accumulator.add_slice(aggregates, 0, 3)
        reference = Accumulator(aggregates.schema)
        reference.add_slice(aggregates, 0, 3)
        assert accumulator.sums == reference.sums

    def test_memory_accounting(self, base):
        aggregates = CellAggregates.build(base, 12)
        assert aggregates.record_bytes == 40 + 24 * 2
        assert aggregates.memory_bytes() == aggregates.record_bytes * len(aggregates)


class TestAccumulator:
    def test_add_row_matches_add_slice(self, base):
        aggregates = CellAggregates.build(base, 12)
        by_slice = Accumulator(aggregates.schema)
        by_slice.add_slice(aggregates, 2, 9)
        by_rows = Accumulator(aggregates.schema)
        for row in range(2, 9):
            by_rows.add_row(aggregates, row)
        assert by_rows.count == by_slice.count
        for name in ("v", "w"):
            assert by_rows.sums[name] == pytest.approx(by_slice.sums[name])
            assert by_rows.mins[name] == by_slice.mins[name]
            assert by_rows.maxs[name] == by_slice.maxs[name]

    def test_tracked_columns_only(self, base):
        aggregates = CellAggregates.build(base, 12)
        accumulator = Accumulator(aggregates.schema, columns=["v"])
        accumulator.add_slice(aggregates, 0, 5)
        assert "w" not in accumulator.sums
        with pytest.raises(QueryError):
            accumulator.extract(AggSpec("sum", "w"))

    def test_extract_each_function(self, base):
        aggregates = CellAggregates.build(base, 12)
        accumulator = Accumulator(aggregates.schema)
        accumulator.add_slice(aggregates, 0, len(aggregates))
        values = base.table.column("v")
        assert accumulator.extract(AggSpec("count")) == len(base)
        assert accumulator.extract(AggSpec("sum", "v")) == pytest.approx(float(values.sum()))
        assert accumulator.extract(AggSpec("min", "v")) == pytest.approx(float(values.min()))
        assert accumulator.extract(AggSpec("max", "v")) == pytest.approx(float(values.max()))
        assert accumulator.extract(AggSpec("avg", "v")) == pytest.approx(float(values.mean()))

    def test_empty_accumulator_extracts(self, base):
        aggregates = CellAggregates.build(base, 12)
        accumulator = Accumulator(aggregates.schema)
        assert accumulator.extract(AggSpec("count")) == 0
        assert np.isnan(accumulator.extract(AggSpec("min", "v")))
        assert np.isnan(accumulator.extract(AggSpec("avg", "v")))

    def test_to_record_and_back(self, base):
        aggregates = CellAggregates.build(base, 12)
        accumulator = Accumulator(aggregates.schema)
        accumulator.add_slice(aggregates, 0, 7)
        record = accumulator.to_record()
        replay = Accumulator(aggregates.schema)
        replay.add_record(record)
        assert replay.count == accumulator.count
        assert replay.sums == pytest.approx(accumulator.sums)


class TestAggSpec:
    def test_key_format(self):
        assert AggSpec("count").key == "count(*)"
        assert AggSpec("sum", "v").key == "sum(v)"

    def test_validation(self):
        with pytest.raises(QueryError):
            AggSpec("median", "v")
        with pytest.raises(QueryError):
            AggSpec("sum")


class TestGrouping:
    def test_sort_and_group_basics(self):
        keys = np.array([3, 3, 3, 7, 9, 9], dtype=np.int64)
        unique, starts, counts = sort_and_group(keys)
        assert unique.tolist() == [3, 7, 9]
        assert starts.tolist() == [0, 3, 4]
        assert counts.tolist() == [3, 1, 2]

    def test_sort_and_group_empty(self):
        unique, starts, counts = sort_and_group(np.empty(0, dtype=np.int64))
        assert unique.size == starts.size == counts.size == 0

    def test_sort_and_group_single_group(self):
        keys = np.full(17, 42, dtype=np.int64)
        unique, starts, counts = sort_and_group(keys)
        assert unique.tolist() == [42]
        assert counts.tolist() == [17]

    @given(st.lists(st.integers(min_value=0, max_value=30), min_size=0, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_counts_sum_to_input(self, values):
        keys = np.sort(np.asarray(values, dtype=np.int64))
        unique, starts, counts = sort_and_group(keys)
        assert counts.sum() == keys.size
        # offsets + counts reconstruct the boundaries
        rebuilt = []
        for u, s, c in zip(unique.tolist(), starts.tolist(), counts.tolist()):
            rebuilt.extend([u] * c)
            assert (keys[s : s + c] == u).all()
        assert rebuilt == keys.tolist()
