"""Tests for the CellSpace coordinate <-> id mapping."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cells import cellid
from repro.cells.curves import MAX_LEVEL, MORTON
from repro.cells.space import EARTH, EARTH_BOUNDS, CellSpace
from repro.errors import CellError
from repro.geometry.bbox import BoundingBox

lon = st.floats(min_value=-180.0, max_value=180.0, allow_nan=False)
lat = st.floats(min_value=-90.0, max_value=90.0, allow_nan=False)

#: Spaces under test: EARTH's cell bounds are exact floats; the others round.
SPACES = [
    pytest.param(EARTH, id="earth"),
    pytest.param(CellSpace(BoundingBox(-74.3, 40.4, -73.6, 41.0)), id="nyc"),
    pytest.param(CellSpace(BoundingBox(0.0, 0.0, 100.0, 50.0)), id="100x50"),
    pytest.param(CellSpace(BoundingBox(1e6, 1e6, 1e6 + 3.7, 1e6 + 0.01)), id="far"),
]


def enclosing_by_loop(space: CellSpace, box: BoundingBox) -> int:
    """The level-by-level scan smallest_enclosing_cell used to run."""
    clamped = box.intersection(space.domain)
    for level in range(MAX_LEVEL, -1, -1):
        cell = space.cell_at(clamped.min_x, clamped.min_y, level)
        if space.cell_bounds(cell).contains_box(clamped):
            return cell
    return cellid.make_id(0, 0)


@st.composite
def axis_coordinate(draw, low: float, high: float) -> float:
    """A free coordinate (possibly outside the domain, to be clamped),
    a domain edge, or a grid line of some level nudged by a few ulps."""
    extent = high - low
    kind = draw(st.sampled_from(["free", "edge", "grid"]))
    if kind == "free":
        return draw(st.floats(low - 0.05 * extent, high + 0.05 * extent))
    if kind == "edge":
        return draw(st.sampled_from([low, high]))
    level = draw(st.integers(0, MAX_LEVEL))
    x = low + draw(st.integers(0, 1 << level)) * (extent / (1 << level))
    nudge = draw(st.integers(-2, 2))
    for _ in range(abs(nudge)):
        x = math.nextafter(x, math.copysign(math.inf, nudge))
    return x


@st.composite
def axis_span(draw, low: float, high: float) -> tuple[float, float]:
    """(min, max) along one axis: zero-width, two independent
    coordinates, or a coordinate plus a width spanning 1e-9..1 extents."""
    a = draw(axis_coordinate(low, high))
    kind = draw(st.sampled_from(["point", "pair", "width"]))
    if kind == "point":
        return a, a
    if kind == "pair":
        b = draw(axis_coordinate(low, high))
    else:
        b = a + (high - low) * 10.0 ** -draw(st.integers(0, 9))
    return min(a, b), max(a, b)


class TestKeying:
    @given(lon, lat)
    @settings(max_examples=200, deadline=None)
    def test_leaf_contains_point(self, x, y):
        leaf = EARTH.leaf_id(x, y)
        bounds = EARTH.cell_bounds(leaf)
        # The owning cell's bounds contain the point (allowing for the
        # half-open split convention at the exact upper domain edge).
        assert bounds.expanded(1e-12).contains_point(min(x, bounds.max_x), min(y, bounds.max_y))

    @given(lon, lat, st.integers(min_value=0, max_value=MAX_LEVEL))
    @settings(max_examples=200, deadline=None)
    def test_cell_at_is_ancestor_of_leaf(self, x, y, level):
        leaf = EARTH.leaf_id(x, y)
        coarse = EARTH.cell_at(x, y, level)
        assert cellid.level_of(coarse) == level
        assert cellid.contains(coarse, leaf)

    def test_vectorised_matches_scalar(self):
        rng = np.random.default_rng(3)
        xs = rng.uniform(-180, 180, 300)
        ys = rng.uniform(-90, 90, 300)
        leaves = EARTH.leaf_ids(xs, ys)
        for index in range(0, 300, 17):
            assert int(leaves[index]) == EARTH.leaf_id(float(xs[index]), float(ys[index]))

    @pytest.mark.parametrize("space", SPACES)
    def test_batch_keys_match_row_keys(self, space):
        """Appends key a batch with leaf_ids; it must equal leaf_id per
        row on domain corners, clamped far-out points and cell edges."""
        domain = space.domain
        rng = np.random.default_rng(11)
        corners_x = [domain.min_x, domain.max_x, domain.min_x, domain.max_x]
        corners_y = [domain.min_y, domain.min_y, domain.max_y, domain.max_y]
        far_x = [domain.min_x - 1.0, domain.max_x + 1.0, -1e30, 1e30, 0.5, 0.5]
        far_y = [0.5, 0.5, 0.5, 0.5, -1e200, domain.max_y + 1e-9]
        edge_x, edge_y = [], []
        for level in rng.integers(0, MAX_LEVEL + 1, 200).tolist():
            side = 1 << level
            i, j = rng.integers(0, side + 1, 2).tolist()
            edge_x.append(domain.min_x + i * (domain.width / side))
            edge_y.append(domain.min_y + j * (domain.height / side))
        xs = np.array(corners_x + far_x + edge_x)
        ys = np.array(corners_y + far_y + edge_y)
        leaves = space.leaf_ids(xs, ys)
        for k in range(xs.size):
            assert int(leaves[k]) == space.leaf_id(float(xs[k]), float(ys[k]))

    def test_out_of_domain_points_clamp(self):
        inside = EARTH.leaf_id(180.0, 90.0)
        outside = EARTH.leaf_id(200.0, 95.0)
        assert inside == outside


class TestCellGeometry:
    def test_cell_bounds_nest(self):
        cell = EARTH.cell_at(-73.98, 40.75, 10)
        child_bounds = [EARTH.cell_bounds(kid) for kid in cellid.children(cell)]
        parent_bounds = EARTH.cell_bounds(cell)
        for bounds in child_bounds:
            assert parent_bounds.contains_box(bounds)
        total_area = sum(bounds.area() for bounds in child_bounds)
        assert total_area == pytest.approx(parent_bounds.area())

    def test_cell_size_halves_per_level(self):
        for level in range(0, MAX_LEVEL):
            w0, h0 = EARTH.cell_size(level)
            w1, h1 = EARTH.cell_size(level + 1)
            assert w1 == pytest.approx(w0 / 2)
            assert h1 == pytest.approx(h0 / 2)

    def test_cell_center_inside_bounds(self):
        cell = EARTH.cell_at(10.0, 20.0, 8)
        cx, cy = EARTH.cell_center(cell)
        assert EARTH.cell_bounds(cell).contains_point(cx, cy)


class TestEnclosingCell:
    def test_small_box_gets_deep_cell(self):
        box = BoundingBox(-73.99, 40.74, -73.98, 40.75)
        cell = EARTH.smallest_enclosing_cell(box)
        assert cellid.level_of(cell) >= 8
        assert EARTH.cell_bounds(cell).contains_box(box)

    def test_whole_domain_gets_root(self):
        cell = EARTH.smallest_enclosing_cell(EARTH_BOUNDS)
        assert cellid.level_of(cell) == 0

    def test_box_outside_domain_raises(self):
        space = CellSpace(BoundingBox(0.0, 0.0, 10.0, 10.0))
        with pytest.raises(CellError):
            space.smallest_enclosing_cell(BoundingBox(20.0, 20.0, 30.0, 30.0))

    @pytest.mark.parametrize("space", SPACES)
    def test_cell_bounds_at_every_level(self, space):
        """A cell's own bounds put all four edges on grid lines.  Where
        the bounds are exact floats (EARTH) that encloses to the cell
        itself: upper-closed edges keep the level."""
        rng = np.random.default_rng(7)
        for level in range(MAX_LEVEL + 1):
            side = 1 << level
            i, j = (int(v) for v in rng.integers(0, side, 2))
            cell = cellid.make_id(level, space.curve.encode(i, j, level))
            bounds = space.cell_bounds(cell)
            found = space.smallest_enclosing_cell(bounds)
            assert found == enclosing_by_loop(space, bounds)
            assert found == cell or space is not EARTH

    @pytest.mark.parametrize("space", SPACES)
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_level_by_level_loop(self, space, data):
        domain = space.domain
        x0, x1 = data.draw(axis_span(domain.min_x, domain.max_x))
        y0, y1 = data.draw(axis_span(domain.min_y, domain.max_y))
        box = BoundingBox(x0, y0, x1, y1)
        if box.intersection(domain) is None:
            with pytest.raises(CellError):
                space.smallest_enclosing_cell(box)
        else:
            assert space.smallest_enclosing_cell(box) == enclosing_by_loop(space, box)


class TestCustomSpaces:
    def test_custom_domain(self):
        space = CellSpace(BoundingBox(0.0, 0.0, 100.0, 50.0))
        leaf = space.leaf_id(50.0, 25.0)
        bounds = space.cell_bounds(leaf)
        assert bounds.contains_point(50.0, 25.0)

    def test_morton_space_differs_from_hilbert(self):
        morton_space = CellSpace(EARTH_BOUNDS, curve=MORTON)
        assert morton_space.leaf_id(-73.9, 40.7) != EARTH.leaf_id(-73.9, 40.7)

    def test_degenerate_domain_rejected(self):
        with pytest.raises(CellError):
            CellSpace(BoundingBox(0.0, 0.0, 0.0, 10.0))
