"""Tests for Polygon / MultiPolygon."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry.bbox import BoundingBox
from repro.geometry.polygon import MultiPolygon, Polygon

UNIT_SQUARE = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])


@st.composite
def regular_polygons(draw):
    cx = draw(st.floats(min_value=-10, max_value=10))
    cy = draw(st.floats(min_value=-10, max_value=10))
    radius = draw(st.floats(min_value=0.1, max_value=5.0))
    sides = draw(st.integers(min_value=3, max_value=12))
    return Polygon.regular(cx, cy, radius, sides)


class TestConstruction:
    def test_too_few_vertices(self):
        with pytest.raises(GeometryError):
            Polygon([(0, 0), (1, 1)])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_vertex_rejected_with_its_position(self, bad):
        with pytest.raises(GeometryError) as excinfo:
            Polygon([(0, 0), (1, 0), (1, bad), (0, 1)])
        assert excinfo.value.position == 2

    def test_closing_vertex_dropped(self):
        explicit = Polygon([(0, 0), (1, 0), (1, 1), (0, 0)])
        assert explicit.num_vertices == 3

    def test_orientation_normalised(self):
        clockwise = Polygon([(0, 0), (0, 1), (1, 1), (1, 0)])
        assert clockwise.area() == pytest.approx(1.0)
        # Normalised to CCW: shoelace of stored vertices is positive.
        xs, ys = clockwise.xs, clockwise.ys
        shoelace = float(
            (xs * np.roll(ys, -1) - np.roll(xs, -1) * ys).sum() / 2.0
        )
        assert shoelace > 0

    def test_vertices_read_only(self):
        with pytest.raises(ValueError):
            UNIT_SQUARE.xs[0] = 99.0


class TestMetrics:
    def test_unit_square(self):
        assert UNIT_SQUARE.area() == pytest.approx(1.0)
        assert UNIT_SQUARE.perimeter() == pytest.approx(4.0)
        assert UNIT_SQUARE.centroid() == (pytest.approx(0.5), pytest.approx(0.5))

    @given(regular_polygons())
    @settings(max_examples=60, deadline=None)
    def test_regular_polygon_area_formula(self, polygon):
        sides = polygon.num_vertices
        # Recover the circumradius from the bbox... use vertex distance.
        cx, cy = polygon.centroid()
        radius = float(np.hypot(polygon.xs[0] - cx, polygon.ys[0] - cy))
        expected = 0.5 * sides * radius**2 * np.sin(2 * np.pi / sides)
        assert polygon.area() == pytest.approx(expected, rel=1e-6)

    def test_from_box(self):
        box = BoundingBox(1.0, 2.0, 4.0, 6.0)
        polygon = Polygon.from_box(box)
        assert polygon.area() == pytest.approx(box.area())
        assert polygon.bounding_box == box


class TestContainment:
    def test_boundary_counts_inside_scalar(self):
        assert UNIT_SQUARE.contains_point(0.0, 0.5)
        assert UNIT_SQUARE.contains_point(0.5, 0.0)
        assert UNIT_SQUARE.contains_point(0.0, 0.0)

    def test_outside(self):
        assert not UNIT_SQUARE.contains_point(1.5, 0.5)
        assert not UNIT_SQUARE.contains_point(0.5, -0.1)

    def test_concave_polygon(self):
        # A "U" shape: the notch is outside.
        u_shape = Polygon([(0, 0), (3, 0), (3, 3), (2, 3), (2, 1), (1, 1), (1, 3), (0, 3)])
        assert u_shape.contains_point(0.5, 2.0)
        assert u_shape.contains_point(2.5, 2.0)
        assert not u_shape.contains_point(1.5, 2.0)
        assert u_shape.contains_point(1.5, 0.5)

    @given(regular_polygons())
    @settings(max_examples=40, deadline=None)
    def test_vectorised_matches_scalar(self, polygon):
        rng = np.random.default_rng(17)
        box = polygon.bounding_box.expanded(0.5)
        xs = rng.uniform(box.min_x, box.max_x, 200)
        ys = rng.uniform(box.min_y, box.max_y, 200)
        vectorised = polygon.contains_points(xs, ys)
        for index in range(0, 200, 11):
            scalar = polygon.contains_point(float(xs[index]), float(ys[index]))
            # The vectorised path uses the half-open rule without
            # boundary special-casing; random points are a.s. interior.
            assert vectorised[index] == scalar

    @given(regular_polygons())
    @settings(max_examples=40, deadline=None)
    def test_centroid_inside_convex(self, polygon):
        cx, cy = polygon.centroid()
        assert polygon.contains_point(cx, cy)

    def test_count_contained(self):
        xs = np.array([0.5, 2.0, 0.1])
        ys = np.array([0.5, 0.5, 0.9])
        assert UNIT_SQUARE.count_contained(xs, ys) == 2


class TestTransforms:
    def test_translated(self):
        moved = UNIT_SQUARE.translated(10.0, -5.0)
        assert moved.contains_point(10.5, -4.5)
        assert not moved.contains_point(0.5, 0.5)

    def test_scaled(self):
        doubled = UNIT_SQUARE.scaled(2.0)
        assert doubled.area() == pytest.approx(4.0)
        assert doubled.centroid() == (pytest.approx(0.5), pytest.approx(0.5))

    def test_scaled_rejects_non_positive(self):
        with pytest.raises(GeometryError):
            UNIT_SQUARE.scaled(0.0)


class TestMultiPolygon:
    def test_empty_rejected(self):
        with pytest.raises(GeometryError):
            MultiPolygon([])

    def test_union_semantics(self):
        left = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        right = Polygon([(2, 0), (3, 0), (3, 1), (2, 1)])
        multi = MultiPolygon([left, right])
        assert multi.contains_point(0.5, 0.5)
        assert multi.contains_point(2.5, 0.5)
        assert not multi.contains_point(1.5, 0.5)
        assert multi.area() == pytest.approx(2.0)
        assert multi.bounding_box == BoundingBox(0.0, 0.0, 3.0, 1.0)

    def test_vectorised_counts(self):
        left = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        right = Polygon([(2, 0), (3, 0), (3, 1), (2, 1)])
        multi = MultiPolygon([left, right])
        xs = np.array([0.5, 1.5, 2.5])
        ys = np.array([0.5, 0.5, 0.5])
        assert multi.count_contained(xs, ys) == 2
