"""Tests for CellUnion containers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cells import cellid
from repro.cells.union import CellUnion
from repro.errors import CellError


def _union_of(*cells: int) -> CellUnion:
    return CellUnion(np.asarray(cells, dtype=np.int64))


class TestConstruction:
    def test_sorts_input(self):
        a = cellid.make_id(5, 10)
        b = cellid.make_id(5, 3)
        union = _union_of(a, b)
        assert union.ids.tolist() == sorted([a, b])

    def test_rejects_overlapping_cells(self):
        parent = cellid.make_id(4, 7)
        child = cellid.child(parent, 2)
        with pytest.raises(CellError):
            _union_of(parent, child)

    def test_empty_union(self):
        union = CellUnion(np.empty(0, dtype=np.int64))
        assert len(union) == 0
        assert not union
        leaf = np.array([cellid.make_id(30, 5)], dtype=np.int64)
        assert union.contains_leaves(leaf).tolist() == [False]


class TestMembership:
    def test_contains_leaf(self):
        cell = cellid.make_id(10, 99)
        union = _union_of(cell)
        leaves = np.asarray(
            [cellid.range_min(cell), cellid.range_max(cell), cellid.range_max(cell) + 2],
            dtype=np.int64,
        )
        assert union.contains_leaves(leaves).tolist() == [True, True, False]

    def test_contains_leaves_vectorised(self):
        cells = [cellid.make_id(8, pos) for pos in (3, 9, 12)]
        union = _union_of(*cells)
        leaves = np.asarray(
            [cellid.range_min(cells[0]), cellid.range_max(cells[1]) + 2, cellid.range_max(cells[2])],
            dtype=np.int64,
        )
        assert union.contains_leaves(leaves).tolist() == [True, False, True]

    def test_num_leaves(self):
        cell = cellid.make_id(29, 7)  # one level above leaves: 4 leaves
        union = _union_of(cell)
        lo, hi = cellid.cell_key_spans(union.ids)
        assert int((hi - lo).sum()) == 4
        leaves = cellid.range_min(cell) + 2 * np.arange(-1, 5, dtype=np.int64)
        assert union.contains_leaves(leaves).tolist() == [False, True, True, True, True, False]


class TestPruning:
    def test_prune_outside(self):
        cells = [cellid.make_id(6, pos) for pos in (1, 5, 9)]
        union = _union_of(*cells)
        keep_range = (cellid.range_min(cells[1]), cellid.range_max(cells[1]))
        pruned = union.prune_outside(*keep_range)
        assert pruned.ids.tolist() == [cells[1]]

    def test_prune_keeps_partial_overlap(self):
        cell = cellid.make_id(6, 5)
        union = _union_of(cell)
        pruned = union.prune_outside(cellid.range_max(cell) - 10, cellid.range_max(cell) + 100)
        assert len(pruned) == 1


class TestEquality:
    def test_eq_and_hash(self):
        a = _union_of(cellid.make_id(5, 1), cellid.make_id(5, 9))
        b = _union_of(cellid.make_id(5, 9), cellid.make_id(5, 1))
        assert a == b
        assert hash(a) == hash(b)
        assert a != _union_of(cellid.make_id(5, 1))
