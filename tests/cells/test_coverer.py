"""Tests for the region coverer: soundness, error bounds, equivalence."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cells.coverer import CovererOptions, RegionCoverer, covering_error_bound_meters
from repro.cells.space import EARTH
from repro.cells.stats import level_stats
from repro.errors import CellError
from repro.geometry.polygon import MultiPolygon, Polygon


@pytest.fixture(scope="module")
def coverer() -> RegionCoverer:
    return RegionCoverer(EARTH)


@pytest.fixture(scope="module")
def quad() -> Polygon:
    return Polygon([(-74.02, 40.70), (-73.90, 40.71), (-73.88, 40.80), (-74.00, 40.82)])


@st.composite
def regular_polygons(draw):
    cx = draw(st.floats(min_value=-74.2, max_value=-73.7))
    cy = draw(st.floats(min_value=40.5, max_value=40.9))
    radius = draw(st.floats(min_value=0.003, max_value=0.08))
    sides = draw(st.integers(min_value=3, max_value=10))
    phase = draw(st.floats(min_value=0.0, max_value=3.0))
    return Polygon.regular(cx, cy, radius, sides, phase)


class TestSoundness:
    @given(regular_polygons(), st.integers(min_value=8, max_value=15))
    @settings(max_examples=40, deadline=None)
    def test_covering_contains_all_interior_points(self, polygon, level):
        """Every point inside the polygon falls in some covering cell."""
        coverer = RegionCoverer(EARTH)
        union = coverer.covering(polygon, level)
        rng = np.random.default_rng(42)
        box = polygon.bounding_box
        xs = rng.uniform(box.min_x, box.max_x, 400)
        ys = rng.uniform(box.min_y, box.max_y, 400)
        inside = polygon.contains_points(xs, ys)
        member = union.contains_leaves(EARTH.leaf_ids(xs, ys))
        assert bool((member | ~inside).all())

    @given(regular_polygons(), st.integers(min_value=8, max_value=15))
    @settings(max_examples=40, deadline=None)
    def test_interior_covering_within_polygon(self, polygon, level):
        """Interior covering cells contain only polygon points."""
        coverer = RegionCoverer(EARTH)
        union = coverer.interior_covering(polygon, level)
        rng = np.random.default_rng(43)
        box = polygon.bounding_box
        xs = rng.uniform(box.min_x, box.max_x, 400)
        ys = rng.uniform(box.min_y, box.max_y, 400)
        member = union.contains_leaves(EARTH.leaf_ids(xs, ys))
        inside = polygon.contains_points(xs, ys)
        assert bool((inside | ~member).all())

    def test_interior_subset_of_exterior(self, coverer, quad):
        exterior = coverer.covering(quad, 13)
        interior = coverer.interior_covering(quad, 13)
        leaves = interior.range_mins
        assert bool(exterior.contains_leaves(leaves).all())


class TestStructure:
    @given(regular_polygons())
    @settings(max_examples=30, deadline=None)
    def test_no_cells_finer_than_level(self, polygon):
        union = RegionCoverer(EARTH).covering(polygon, 12)
        assert union.max_level() <= 12

    def test_boundary_cells_at_exact_level(self, coverer, quad):
        union = coverer.covering(quad, 14)
        assert union.max_level() == 14

    def test_interior_cells_can_be_coarser(self, coverer, quad):
        union = coverer.covering(quad, 15)
        assert int(union.levels().min()) < 15

    def test_tiny_polygon_clamped_to_level(self, coverer):
        tiny = Polygon.regular(-73.9, 40.7, 1e-7, 4)
        union = coverer.covering(tiny, 10)
        assert len(union) >= 1
        assert bool((union.levels() <= 10).all())

    def test_invalid_level_rejected(self, coverer, quad):
        with pytest.raises(CellError):
            coverer.covering(quad, 31)


class TestScalarEquivalence:
    @given(regular_polygons(), st.integers(min_value=6, max_value=13))
    @settings(max_examples=30, deadline=None)
    def test_vectorised_matches_scalar(self, polygon, level):
        coverer = RegionCoverer(EARTH)
        assert coverer.covering(polygon, level) == coverer.covering_scalar(polygon, level)

    def test_interior_matches_scalar(self, coverer, quad):
        for level in (9, 12, 14):
            fast = coverer.interior_covering(quad, level)
            slow = coverer.covering_scalar(quad, level, interior=True)
            assert fast == slow


class TestMultiPolygon:
    def test_multipolygon_covering_covers_both_parts(self, coverer):
        left = Polygon.regular(-74.1, 40.6, 0.02, 5)
        right = Polygon.regular(-73.8, 40.85, 0.02, 6)
        union = coverer.covering(MultiPolygon([left, right]), 12)
        for part in (left, right):
            cx, cy = part.centroid()
            leaf = EARTH.leaf_ids(np.array([cx]), np.array([cy]))
            assert union.contains_leaves(leaf).tolist() == [True]


class TestErrorBound:
    @given(regular_polygons())
    @settings(max_examples=20, deadline=None)
    def test_covering_points_within_error_bound(self, polygon):
        """Any covered point is within sqrt(e1^2+e2^2) of the polygon:
        verified via the degree-space analogue (cell diagonal)."""
        level = 12
        coverer = RegionCoverer(EARTH)
        union = coverer.covering(polygon, level)
        width, height = EARTH.cell_size(level)
        slack = float(np.hypot(width, height))
        for cell in list(union)[:50]:
            bounds = EARTH.cell_bounds(cell)
            cx, cy = bounds.center
            if polygon.contains_point(cx, cy):
                continue
            # Centre outside: it must still be within one cell diagonal
            # of the polygon (its cell touches the boundary).
            distance = _distance_to_polygon(cx, cy, polygon)
            assert distance <= slack * 1.01

    def test_error_bound_helper_matches_stats(self):
        bound = covering_error_bound_meters(EARTH, 14, latitude=40.0)
        assert bound == pytest.approx(level_stats(EARTH, 14, 40.0).diagonal_meters)


class TestBudget:
    def test_max_cells_limits_output(self, quad):
        unlimited = RegionCoverer(EARTH).covering(quad, 15)
        limited = RegionCoverer(EARTH, CovererOptions(max_cells=40)).covering(quad, 15)
        assert len(limited) <= max(40, 8)
        assert len(limited) < len(unlimited)

    def test_limited_covering_still_sound(self, quad):
        union = RegionCoverer(EARTH, CovererOptions(max_cells=30)).covering(quad, 15)
        rng = np.random.default_rng(9)
        box = quad.bounding_box
        xs = rng.uniform(box.min_x, box.max_x, 300)
        ys = rng.uniform(box.min_y, box.max_y, 300)
        inside = quad.contains_points(xs, ys)
        member = union.contains_leaves(EARTH.leaf_ids(xs, ys))
        assert bool((member | ~inside).all())


class TestCovererIsPure:
    def test_coverer_holds_no_state(self, quad):
        """The coverer's old per-instance memo was unbounded and
        identity-keyed; memoisation now lives in the bounded covering
        tier of :mod:`repro.cache`.  The coverer itself is a pure
        computation: repeat calls recompute and agree."""
        coverer = RegionCoverer(EARTH)
        first = coverer.covering(quad, 12)
        second = coverer.covering(quad, 12)
        assert second == first and second is not first
        assert not hasattr(coverer, "_cache")


def _distance_to_polygon(x: float, y: float, polygon: Polygon) -> float:
    best = np.inf
    for ax, ay, bx, by in polygon.edges():
        best = min(best, _point_segment_distance(x, y, ax, ay, bx, by))
    return best


def _point_segment_distance(px, py, ax, ay, bx, by):  # noqa: ANN001
    dx = bx - ax
    dy = by - ay
    length_sq = dx * dx + dy * dy
    if length_sq == 0:
        return float(np.hypot(px - ax, py - ay))
    t = max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / length_sq))
    return float(np.hypot(px - (ax + t * dx), py - (ay + t * dy)))
