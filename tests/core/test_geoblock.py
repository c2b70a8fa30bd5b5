"""Tests for the GeoBlock: build, queries, equivalences, invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cells import EARTH, cellid
from repro.core import AggSpec, GeoBlock, common_ancestor
from repro.core.geoblock import QueryResult
from repro.errors import BuildError, QueryError
from repro.geometry import Polygon
from repro.storage import col

AGGS = [
    AggSpec("count"),
    AggSpec("sum", "fare"),
    AggSpec("min", "fare"),
    AggSpec("max", "distance"),
    AggSpec("avg", "distance"),
]


@st.composite
def query_polygons(draw):
    cx = draw(st.floats(min_value=-74.15, max_value=-73.72))
    cy = draw(st.floats(min_value=40.55, max_value=40.9))
    radius = draw(st.floats(min_value=0.005, max_value=0.07))
    sides = draw(st.integers(min_value=3, max_value=9))
    return Polygon.regular(cx, cy, radius, sides)


class TestBuild:
    def test_num_cells_and_total(self, small_base, small_block):
        assert small_block.num_cells > 0
        assert small_block.header.total_count == len(small_base)

    def test_header_bounds(self, small_base, small_block):
        assert small_block.header.min_cell == int(small_block.aggregates.keys[0])
        assert small_block.header.max_cell == int(small_block.aggregates.keys[-1])
        assert small_block.header.min_leaf == int(small_base.keys[0])
        assert small_block.header.max_leaf == int(small_base.keys[-1])

    def test_predicate_build(self, small_base):
        block = GeoBlock.build(small_base, 13, col("fare") >= 10.0)
        expected = int((small_base.table.column("fare") >= 10.0).sum())
        assert block.header.total_count == expected

    def test_empty_predicate_build(self, small_base):
        block = GeoBlock.build(small_base, 13, col("fare") > 1e12)
        assert block.num_cells == 0
        assert block.header.is_empty


class TestQueriesAgainstGroundTruth:
    @given(query_polygons())
    @settings(max_examples=25, deadline=None)
    def test_select_equals_covering_truth(self, polygon):
        block = _shared_block()
        base = _shared_base()
        union = block.covering(polygon)
        member = union.contains_leaves(base.keys)
        result = block.select(polygon, AGGS)
        assert result.count == int(member.sum())
        if result.count:
            fares = base.table.column("fare")[member]
            distances = base.table.column("distance")[member]
            assert result["sum(fare)"] == pytest.approx(float(fares.sum()))
            assert result["min(fare)"] == pytest.approx(float(fares.min()))
            assert result["max(distance)"] == pytest.approx(float(distances.max()))
            assert result["avg(distance)"] == pytest.approx(float(distances.mean()))

    @given(query_polygons())
    @settings(max_examples=25, deadline=None)
    def test_count_equals_select_count(self, polygon):
        block = _shared_block()
        assert block.count(polygon) == block.select(polygon).count

    @given(query_polygons())
    @settings(max_examples=25, deadline=None)
    def test_covering_is_superset_of_polygon(self, polygon):
        """Covering errors are false positives only (Section 4.3)."""
        block = _shared_block()
        base = _shared_base()
        exact = polygon.count_contained(base.table.xs, base.table.ys)
        assert block.count(polygon) >= exact


class TestExecutionModes:
    @given(query_polygons())
    @settings(max_examples=20, deadline=None)
    def test_scalar_reference_listing1_agree(self, polygon):
        block = _shared_block()
        reference = block.executor.select_reference(block.plan(polygon), AGGS)
        scalar = block.select_scalar(polygon, AGGS)
        listing = block.select_listing1(polygon, AGGS)
        for other in (scalar, listing):
            assert other.count == reference.count
            for key, value in reference.values.items():
                if np.isnan(value):
                    assert np.isnan(other.values[key])
                else:
                    assert other.values[key] == pytest.approx(value)

    def test_query_mode_dispatch(self, small_base, quad_polygon):
        block = GeoBlock.build(small_base, 13)
        kernel_result = block.select(quad_polygon, AGGS)
        block.query_mode = "scalar"
        scalar_result = block.select(quad_polygon, AGGS)
        assert scalar_result == block.select_scalar(quad_polygon, AGGS)
        assert scalar_result.count == kernel_result.count
        assert block.run_batch([quad_polygon] * 2, aggs=AGGS) == [scalar_result] * 2


class TestCellUnionTargets:
    def test_precomputed_union_equals_polygon(self, small_block, quad_polygon):
        union = small_block.covering(quad_polygon)
        assert small_block.select(union).count == small_block.select(quad_polygon).count
        assert small_block.count(union) == small_block.count(quad_polygon)


class TestCoarsened:
    def test_coarsened_counts_match_direct(self, small_base, small_block, quad_polygon):
        coarse = small_block.coarsened(11)
        direct = GeoBlock.build(small_base, 11)
        assert coarse.count(quad_polygon) == direct.count(quad_polygon)
        assert coarse.num_cells == direct.num_cells

    def test_refine_rejected(self, small_block):
        with pytest.raises(BuildError):
            small_block.coarsened(small_block.level + 1)

    def test_coarser_block_overcounts_more(self, small_base, quad_polygon):
        fine = GeoBlock.build(small_base, 16)
        coarse = GeoBlock.build(small_base, 9)
        assert coarse.count(quad_polygon) >= fine.count(quad_polygon)


class TestValidation:
    def test_unknown_column_rejected(self, small_block, quad_polygon):
        with pytest.raises(QueryError):
            small_block.select(quad_polygon, [AggSpec("sum", "nope")])

    def test_memory_bytes_positive(self, small_block):
        assert small_block.memory_bytes() == small_block.aggregates.memory_bytes()
        assert small_block.memory_bytes() > 0

    def test_empty_block_queries(self, small_base, quad_polygon):
        block = GeoBlock.build(small_base, 13, col("fare") > 1e12)
        assert block.count(quad_polygon) == 0
        result = block.select(quad_polygon, AGGS)
        assert result.count == 0


class TestCommonAncestor:
    def test_equal_leaves(self):
        leaf = cellid.make_id(30, 12345)
        assert common_ancestor(leaf, leaf) == leaf

    def test_known_parent(self):
        parent = cellid.make_id(10, 77)
        first = cellid.range_min(parent)
        last = cellid.range_max(parent)
        assert common_ancestor(first, last) == parent

    def test_far_apart(self):
        a = cellid.make_id(30, 0)
        b = cellid.make_id(30, 4**30 - 1)
        assert cellid.level_of(common_ancestor(a, b)) == 0

    def test_root_cell_of_block(self, small_base, small_block):
        root = small_block.root_cell()
        assert cellid.contains(root, int(small_base.keys[0]))
        assert cellid.contains(root, int(small_base.keys[-1]))


class TestQueryResult:
    def test_getitem(self):
        result = QueryResult(values={"count(*)": 5.0}, count=5)
        assert result["count(*)"] == 5.0


# Shared module-level state for hypothesis tests (fixtures are not
# directly usable inside @given).
_CACHE: dict[str, object] = {}


def _shared_base():
    if "base" not in _CACHE:
        from repro.storage import PointTable, Schema, extract

        rng = np.random.default_rng(99)
        count = 20_000
        xs = np.concatenate(
            [rng.normal(-73.98, 0.03, count // 2), rng.normal(-73.80, 0.06, count // 2)]
        )
        ys = np.concatenate(
            [rng.normal(40.75, 0.03, count // 2), rng.normal(40.68, 0.05, count // 2)]
        )
        table = PointTable(
            Schema(["fare", "distance"]),
            xs,
            ys,
            {"fare": rng.gamma(3.0, 4.0, count), "distance": rng.gamma(2.0, 2.0, count)},
        )
        _CACHE["base"] = extract(table, EARTH)
    return _CACHE["base"]


def _shared_block():
    if "block" not in _CACHE:
        _CACHE["block"] = GeoBlock.build(_shared_base(), 15)
    return _CACHE["block"]
