"""Space-filling-curve keying: round-trips, re-keying, key spans."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cells import EARTH, MAX_LEVEL, MORTON, CellSpace, cellid, cellops
from repro.cells import sfc
from repro.errors import CellError

MORTON_EARTH = CellSpace(EARTH.domain, curve=MORTON)


def random_cells(level: int, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    side = 1 << level
    i = rng.integers(0, side, count, dtype=np.int64)
    j = rng.integers(0, side, count, dtype=np.int64)
    return sfc.cells_from_grid(i, j, level, EARTH)


class TestGridRoundTrip:
    @pytest.mark.parametrize("level", [0, 1, 2, 5, 11, 18, 25, MAX_LEVEL])
    def test_encode_decode_round_trip(self, level):
        ids = random_cells(level, 500, seed=level + 1)
        i, j = sfc.grid_coords(ids, level, EARTH)
        back = sfc.cells_from_grid(i, j, level, EARTH)
        assert np.array_equal(back, ids)
        assert bool((cellops.level_array(back) == level).all())

    @pytest.mark.parametrize("space", [EARTH, MORTON_EARTH])
    def test_exhaustive_small_level(self, space):
        level = 4
        side = 1 << level
        i, j = np.meshgrid(
            np.arange(side, dtype=np.int64), np.arange(side, dtype=np.int64)
        )
        ids = sfc.cells_from_grid(i.ravel(), j.ravel(), level, space)
        assert np.unique(ids).size == side * side  # bijection over the grid
        ri, rj = sfc.grid_coords(ids, level, space)
        assert np.array_equal(ri, i.ravel())
        assert np.array_equal(rj, j.ravel())

    def test_level_mismatch_raises(self):
        ids = random_cells(10, 8, seed=3)
        with pytest.raises(CellError):
            sfc.grid_coords(ids, 11, EARTH)

    def test_level_out_of_range_raises(self):
        with pytest.raises(CellError):
            sfc.grid_coords(np.empty(0, dtype=np.int64), MAX_LEVEL + 1, EARTH)

    def test_empty_input(self):
        i, j = sfc.grid_coords(np.empty(0, dtype=np.int64), 7, EARTH)
        assert i.size == 0 and j.size == 0


class TestRekey:
    @pytest.mark.parametrize("level", [1, 6, 13, 20, MAX_LEVEL])
    def test_rekey_is_exact_inverse(self, level):
        ids = random_cells(level, 400, seed=level)
        there = sfc.rekey(ids, level, EARTH, MORTON_EARTH)
        back = sfc.rekey(there, level, MORTON_EARTH, EARTH)
        assert np.array_equal(back, ids)

    def test_rekey_same_curve_is_identity(self):
        ids = random_cells(9, 100, seed=42)
        assert np.array_equal(sfc.rekey(ids, 9, EARTH, EARTH), ids)

    def test_rekey_changes_keys_across_curves(self):
        ids = random_cells(9, 100, seed=43)
        assert not np.array_equal(sfc.rekey(ids, 9, EARTH, MORTON_EARTH), ids)


class TestKeySpans:
    def test_leaf_span_width_one(self):
        ids = random_cells(MAX_LEVEL, 64, seed=5)
        lo, hi = sfc.cell_key_spans(ids)
        assert np.array_equal(hi - lo, np.ones(64, dtype=np.int64))
        assert np.array_equal(lo, cellops.pos_from_leaf_ids(ids))

    @pytest.mark.parametrize("level", [0, 3, 12, 29])
    def test_span_width_matches_level(self, level):
        ids = random_cells(level, 32, seed=level + 7)
        lo, hi = sfc.cell_key_spans(ids)
        assert bool((hi - lo == 4 ** (MAX_LEVEL - level)).all())
        assert bool((lo >= 0).all()) and bool((hi <= sfc.KEY_SPACE).all())

    def test_parent_span_contains_child_span(self):
        child = random_cells(15, 50, seed=8)
        parent = np.array(
            [cellid.parent(int(c), 9) for c in child], dtype=np.int64
        )
        clo, chi = sfc.cell_key_spans(child)
        plo, phi = sfc.cell_key_spans(parent)
        assert bool((plo <= clo).all()) and bool((chi <= phi).all())

    def test_root_cells_tile_key_space(self):
        ids = np.unique(
            sfc.cells_from_grid(
                np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]), 1, EARTH
            )
        )
        lo, hi = sfc.cell_key_spans(np.sort(ids))
        assert lo[0] == 0
        assert hi[-1] == sfc.KEY_SPACE
        assert np.array_equal(lo[1:], hi[:-1])

