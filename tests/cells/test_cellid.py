"""Tests for the 64-bit S2-style cell-id arithmetic."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cells import cellid
from repro.cells.curves import MAX_LEVEL
from repro.cells.space import EARTH
from repro.errors import CellError

valid_levels = st.integers(min_value=0, max_value=MAX_LEVEL)


@st.composite
def cells(draw, min_level: int = 0, max_level: int = MAX_LEVEL):
    level = draw(st.integers(min_value=min_level, max_value=max_level))
    pos = draw(st.integers(min_value=0, max_value=4**level - 1))
    return cellid.make_id(level, pos)


def random_cells(level: int, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-180.0, 180.0, count)
    ys = rng.uniform(-90.0, 90.0, count)
    return cellid.parent(EARTH.leaf_ids(xs, ys), level)


class TestEncoding:
    @given(cells())
    @settings(max_examples=300, deadline=None)
    def test_level_pos_roundtrip(self, raw):
        level = cellid.level_of(raw)
        pos = cellid.pos_of(raw)
        assert cellid.make_id(level, pos) == raw

    def test_root_cell(self):
        root = cellid.make_id(0, 0)
        assert cellid.level_of(root) == 0
        assert cellid.range_min(root) == cellid.MIN_ID
        assert cellid.range_max(root) == cellid.MAX_ID

    def test_leaf_ids_are_odd(self):
        for pos in (0, 1, 12345, 4**MAX_LEVEL - 1):
            raw = cellid.make_id(MAX_LEVEL, pos)
            assert raw % 2 == 1
            assert cellid.level_of(raw) == MAX_LEVEL

    def test_is_valid_rejects_garbage(self):
        assert not cellid.is_valid(0)
        assert not cellid.is_valid(-4)
        assert not cellid.is_valid(cellid.MAX_ID + 1)
        # Sentinel on an odd bit offset -> invalid.
        assert not cellid.is_valid(0b10)
        assert cellid.is_valid(0b100)

    def test_make_id_validation(self):
        with pytest.raises(CellError):
            cellid.make_id(31, 0)
        with pytest.raises(CellError):
            cellid.make_id(2, 16)


class TestHierarchy:
    @given(cells(max_level=MAX_LEVEL - 1))
    @settings(max_examples=200, deadline=None)
    def test_children_partition_parent_range(self, raw):
        kids = cellid.children(raw)
        assert len(kids) == 4
        assert cellid.range_min(kids[0]) == cellid.range_min(raw)
        assert cellid.range_max(kids[3]) == cellid.range_max(raw)
        for left, right in zip(kids, kids[1:]):
            assert cellid.range_max(left) + 2 == cellid.range_min(right)

    @given(cells(min_level=1))
    @settings(max_examples=200, deadline=None)
    def test_parent_contains_cell(self, raw):
        parent = cellid.parent(raw)
        assert cellid.level_of(parent) == cellid.level_of(raw) - 1
        assert cellid.contains(parent, raw)
        assert not cellid.contains(raw, parent)

    @given(cells(max_level=MAX_LEVEL - 1))
    @settings(max_examples=200, deadline=None)
    def test_parent_of_child_is_identity(self, raw):
        for index, kid in enumerate(cellid.children(raw)):
            assert cellid.parent(kid) == raw
            assert cellid.child(raw, index) == kid

    @given(cells(), valid_levels)
    @settings(max_examples=200, deadline=None)
    def test_ancestor_at_level(self, raw, level):
        own = cellid.level_of(raw)
        if level > own:
            with pytest.raises(CellError):
                cellid.parent(raw, level)
            return
        ancestor = cellid.parent(raw, level)
        assert cellid.level_of(ancestor) == level
        assert cellid.contains(ancestor, raw)

    def test_first_last_child_at(self):
        cell = cellid.make_id(10, 999)
        first = cellid.parent(cellid.range_min(cell), 14)
        last = cellid.parent(cellid.range_max(cell), 14)
        assert cellid.level_of(first) == 14
        assert cellid.level_of(last) == 14
        assert cellid.range_min(first) == cellid.range_min(cell)
        assert cellid.range_max(last) == cellid.range_max(cell)

    def test_children_at_enumerates_in_order(self):
        cell = cellid.make_id(5, 123)
        grandchildren = cellid.children(cellid.children(np.array([cell]))).tolist()
        assert len(grandchildren) == 16
        assert grandchildren == sorted(grandchildren)
        for gc in grandchildren:
            assert cellid.level_of(gc) == 7
            assert cellid.contains(cell, gc)

    def test_next_sibling(self):
        """Consecutive cells of a level tile the leaf range: the next
        sibling starts one leaf id step (2) after this cell ends."""
        cell = cellid.make_id(4, 7)
        sibling = cellid.make_id(4, 8)
        assert cellid.range_min(sibling) == cellid.range_max(cell) + 2
        assert cellid.cell_key_spans(sibling)[0] == cellid.cell_key_spans(cell)[1]

    def test_child_index_validation(self):
        with pytest.raises(CellError):
            cellid.child(cellid.make_id(3, 0), 4)
        with pytest.raises(CellError):
            cellid.child(cellid.make_id(MAX_LEVEL, 1), 0)


class TestContainment:
    @given(cells(), cells())
    @settings(max_examples=300, deadline=None)
    def test_containment_matches_range_inclusion(self, a, b):
        expected = cellid.range_min(a) <= cellid.range_min(b) and cellid.range_max(
            b
        ) <= cellid.range_max(a)
        assert cellid.contains(a, b) == expected

    @given(cells())
    @settings(max_examples=200, deadline=None)
    def test_cell_id_within_own_range(self, raw):
        assert cellid.range_min(raw) <= raw <= cellid.range_max(raw)

    def test_sibling_disjointness(self):
        parent = cellid.make_id(8, 77)
        kids = cellid.children(parent)
        for a in kids:
            for b in kids:
                if a != b:
                    assert not cellid.contains(a, b)


class TestKeySpans:
    def test_leaf_span_width_one(self):
        ids = random_cells(MAX_LEVEL, 64, seed=5)
        lo, hi = cellid.cell_key_spans(ids)
        assert np.array_equal(hi - lo, np.ones(64, dtype=np.int64))
        assert np.array_equal(lo, ids >> 1)

    @pytest.mark.parametrize("level", [0, 3, 12, 29])
    def test_span_width_matches_level(self, level):
        ids = random_cells(level, 32, seed=level + 7)
        lo, hi = cellid.cell_key_spans(ids)
        assert bool((hi - lo == 4 ** (MAX_LEVEL - level)).all())
        assert bool((lo >= 0).all()) and bool((hi <= cellid.KEY_SPACE).all())

    def test_parent_span_contains_child_span(self):
        child = random_cells(15, 50, seed=8)
        parent = np.array(
            [cellid.parent(int(c), 9) for c in child], dtype=np.int64
        )
        clo, chi = cellid.cell_key_spans(child)
        plo, phi = cellid.cell_key_spans(parent)
        assert bool((plo <= clo).all()) and bool((chi <= phi).all())

    def test_root_cells_tile_key_space(self):
        quadrant_centres = EARTH.leaf_ids(
            np.array([-90.0, -90.0, 90.0, 90.0]), np.array([-45.0, 45.0, -45.0, 45.0])
        )
        ids = np.unique(cellid.parent(quadrant_centres, 1))
        assert ids.size == 4
        lo, hi = cellid.cell_key_spans(np.sort(ids))
        assert lo[0] == 0
        assert hi[-1] == cellid.KEY_SPACE
        assert np.array_equal(lo[1:], hi[:-1])

