"""The int and array forms of every cell-id rule must agree."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cells import cellid
from repro.cells.curves import MAX_LEVEL
from repro.cells.space import EARTH, CellSpace
from repro.errors import CellError
from repro.geometry.bbox import BoundingBox
from tests.cells.test_cellid import cells


def id_arrays(min_level: int = 0, max_level: int = MAX_LEVEL):
    return st.lists(cells(min_level, max_level), min_size=1, max_size=40).map(
        lambda raw: np.asarray(raw, dtype=np.int64)
    )


class TestIntArrayAgreement:
    @pytest.mark.parametrize(
        "rule", [cellid.level_of, cellid.pos_of, cellid.range_min, cellid.range_max]
    )
    @given(ids=id_arrays())
    @settings(max_examples=100, deadline=None)
    def test_elementwise_rules(self, rule, ids):
        out = rule(ids)
        assert out.dtype == np.int64
        for k in range(ids.size):
            assert out[k] == rule(int(ids[k]))

    @given(ids=id_arrays())
    @settings(max_examples=100, deadline=None)
    def test_key_spans(self, ids):
        lo, hi = cellid.cell_key_spans(ids)
        for k in range(ids.size):
            assert (lo[k], hi[k]) == cellid.cell_key_spans(int(ids[k]))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_parent_at_level(self, data):
        level = data.draw(st.integers(min_value=0, max_value=MAX_LEVEL))
        ids = data.draw(id_arrays(min_level=level))
        out = cellid.parent(ids, level)
        for k in range(ids.size):
            assert out[k] == cellid.parent(int(ids[k]), level)

    @given(ids=id_arrays(max_level=MAX_LEVEL - 1))
    @settings(max_examples=150, deadline=None)
    def test_children_concatenate_in_curve_order(self, ids):
        kids = cellid.children(ids)
        assert kids.shape == (4 * ids.size,)
        expected = [kid for raw in ids.tolist() for kid in cellid.children(raw)]
        assert kids.tolist() == expected
        for k in range(ids.size):
            assert kids[4 * k : 4 * k + 4].tolist() == cellid.children(int(ids[k]))


def _random_ids(rng: np.random.Generator, count: int) -> np.ndarray:
    levels = rng.integers(0, MAX_LEVEL + 1, count)
    out = np.empty(count, dtype=np.int64)
    for index in range(count):
        level = int(levels[index])
        pos = int(rng.integers(0, 4**level)) if level else 0
        out[index] = cellid.make_id(level, pos)
    return out


@pytest.fixture(scope="module")
def ids() -> np.ndarray:
    return _random_ids(np.random.default_rng(11), 500)


class TestAgainstScalar:
    """Fixed-seed regression companions to the properties above."""

    def test_level_array(self, ids):
        expected = [cellid.level_of(int(raw)) for raw in ids]
        assert cellid.level_of(ids).tolist() == expected

    def test_range_arrays(self, ids):
        assert cellid.range_min(ids).tolist() == [cellid.range_min(int(raw)) for raw in ids]
        assert cellid.range_max(ids).tolist() == [cellid.range_max(int(raw)) for raw in ids]

    @pytest.mark.parametrize("level", [0, 5, 14, MAX_LEVEL])
    def test_first_last_child_arrays(self, level):
        """The first and last descendant at a finer ``level`` are the
        level-``level`` ancestors of the cell's extreme leaves."""
        rng = np.random.default_rng(4)
        coarse = np.array(
            [cellid.make_id(level_i, int(rng.integers(0, 4**level_i)))
             for level_i in rng.integers(0, level + 1, 100)],
            dtype=np.int64,
        )
        firsts = cellid.parent(cellid.range_min(coarse), level)
        lasts = cellid.parent(cellid.range_max(coarse), level)
        for raw, first, last in zip(coarse.tolist(), firsts.tolist(), lasts.tolist()):
            shift = 2 * (level - cellid.level_of(raw))
            pos = cellid.pos_of(raw)
            assert first == cellid.make_id(level, pos << shift)
            assert last == cellid.make_id(level, ((pos + 1) << shift) - 1)
            assert first == cellid.parent(cellid.range_min(raw), level)
            assert last == cellid.parent(cellid.range_max(raw), level)

    @pytest.mark.parametrize("level", [0, 3, 17, 29])
    def test_ancestors_at_level(self, level):
        rng = np.random.default_rng(21)
        leaves = (rng.integers(0, 4**MAX_LEVEL, 200) << 1) | 1
        ancestors = cellid.parent(leaves, level)
        for leaf, anc in zip(leaves.tolist(), ancestors.tolist()):
            assert anc == cellid.parent(leaf, level)

    def test_leaf_pos_roundtrip(self):
        pos = np.arange(1000, dtype=np.int64) * 7919
        leaves = (pos << 1) | 1
        assert (leaves >> 1 == pos).all()
        assert (cellid.pos_of(leaves) == pos).all()
        assert (cellid.level_of(leaves) == MAX_LEVEL).all()
        assert leaves.tolist() == [cellid.make_id(MAX_LEVEL, int(p)) for p in pos]


class TestArrayValidation:
    def test_parent_level_bounds(self):
        ids = np.array([cellid.make_id(5, 1)], dtype=np.int64)
        with pytest.raises(CellError):
            cellid.parent(ids, MAX_LEVEL + 1)
        with pytest.raises(CellError):
            cellid.parent(ids, -1)
        with pytest.raises(CellError):
            cellid.parent(ids)

    def test_int_inputs_are_validated(self):
        with pytest.raises(CellError):
            cellid.level_of(0b10)
        with pytest.raises(CellError):
            cellid.range_min(0)


class TestToIjBranches:
    @pytest.mark.parametrize(
        "space", [EARTH, CellSpace(BoundingBox(-74.3, 40.4, -73.6, 41.0))]
    )
    @given(
        points=st.lists(
            st.tuples(
                st.floats(min_value=-400.0, max_value=400.0),
                st.floats(min_value=-200.0, max_value=200.0),
            ),
            min_size=1,
            max_size=30,
        ),
        level=st.integers(min_value=0, max_value=MAX_LEVEL),
    )
    @settings(max_examples=100, deadline=None)
    def test_array_branch_matches_float_branch(self, space, points, level):
        """Points outside the domain (most draws here) clamp alike."""
        xs = np.array([p[0] for p in points])
        ys = np.array([p[1] for p in points])
        i, j = space.to_ij(xs, ys, level)
        assert i.dtype == j.dtype == np.int64
        for k in range(xs.size):
            assert (i[k], j[k]) == space.to_ij(float(xs[k]), float(ys[k]), level)
