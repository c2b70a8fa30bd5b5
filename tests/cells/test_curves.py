"""Tests for the Hilbert / Morton space-filling curves."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cells.curves import HILBERT, MAX_LEVEL, MORTON, curve_by_name
from repro.errors import CellError
from tests.cells.curve_oracles import AUTOMATON, BIT_MORTON

CURVES = [HILBERT, MORTON]
#: Each table-driven curve with the bit-at-a-time loop it replaced.
KERNEL_ORACLES = [(HILBERT, AUTOMATON), (MORTON, BIT_MORTON)]


def _assert_kernel_matches_oracle(curve, oracle, i: np.ndarray, j: np.ndarray, level: int) -> None:
    """Table kernel == bit-at-a-time loop: array and scalar forms,
    encode and decode, Python ints out of the scalar forms."""
    expected = oracle.encode_array(i, j, level)
    pos = curve.encode_array(i, j, level)
    assert pos.dtype == np.int64 and np.array_equal(pos, expected)
    di, dj = curve.decode_array(expected, level)
    ei, ej = oracle.decode_array(expected, level)
    assert np.array_equal(di, ei) and np.array_equal(dj, ej)
    assert np.array_equal(di, i) and np.array_equal(dj, j)
    for a, b, p in zip(i.tolist(), j.tolist(), expected.tolist()):
        got = curve.encode(a, b, level)
        assert type(got) is int and got == p
        assert curve.decode(p, level) == (a, b)


@pytest.mark.parametrize("curve, oracle", KERNEL_ORACLES, ids=lambda c: c.name)
class TestTableKernelOracle:
    """Cell ids are pinned to the loops the chunk tables replaced."""

    @pytest.mark.parametrize("level", range(7))  # every level % 4 head width
    def test_exhaustive_small_levels(self, curve, oracle, level):
        side = 1 << level
        i, j = np.meshgrid(np.arange(side, dtype=np.int64), np.arange(side, dtype=np.int64))
        _assert_kernel_matches_oracle(curve, oracle, i.ravel(), j.ravel(), level)
        for a in range(side):  # the oracle's own scalar form, too
            for b in range(side):
                assert curve.encode(a, b, level) == oracle.encode(a, b, level)

    @pytest.mark.parametrize("level", range(7, MAX_LEVEL + 1))
    def test_random_coordinates(self, curve, oracle, level):
        rng = np.random.default_rng(level)
        side = 1 << level
        edges = np.array([0, 0, side - 1, side - 1], dtype=np.int64)
        i = np.concatenate((edges, rng.integers(0, side, 10_000, dtype=np.int64)))
        j = np.concatenate((edges[[0, 2, 1, 3]], rng.integers(0, side, 10_000, dtype=np.int64)))
        _assert_kernel_matches_oracle(curve, oracle, i, j, level)

    def test_numpy_scalars_give_python_ints(self, curve, oracle):
        pos = curve.encode(np.int64(5), np.int64(9), 4)
        assert type(pos) is int and pos == oracle.encode(5, 9, 4)
        i, j = curve.decode(np.int64(pos), 4)
        assert type(i) is int and type(j) is int and (i, j) == (5, 9)

    @pytest.mark.parametrize("level", [MAX_LEVEL + 1, -1])
    def test_bad_level_errors_unchanged(self, curve, oracle, level):
        message = rf"level must be in \[0, {MAX_LEVEL}\], got {level}"
        one = np.zeros(1, dtype=np.int64)
        for call in (
            lambda: curve.encode(0, 0, level),
            lambda: curve.decode(0, level),
            lambda: curve.encode_array(one, one, level),
            lambda: curve.decode_array(one, level),
        ):
            with pytest.raises(CellError, match=message):
                call()

    @pytest.mark.parametrize("level", [0, 3, MAX_LEVEL])
    def test_out_of_range_errors_unchanged(self, curve, oracle, level):
        side = 1 << level
        for i, j in ((side, 0), (0, side), (-1, 0), (0, -1)):
            with pytest.raises(CellError, match=rf"coordinates \({i}, {j}\) out of range"):
                curve.encode(i, j, level)
        for pos in (4**level, -1):
            with pytest.raises(CellError, match=rf"position {pos} out of range for level"):
                curve.decode(pos, level)


@pytest.mark.parametrize("curve", CURVES, ids=lambda c: c.name)
class TestRoundTrips:
    def test_exhaustive_small_levels(self, curve):
        for level in (0, 1, 2, 3):
            seen = set()
            for pos in range(4**level):
                i, j = curve.decode(pos, level)
                assert curve.encode(i, j, level) == pos
                seen.add((i, j))
            assert len(seen) == 4**level

    def test_scalar_matches_array(self, curve):
        rng = np.random.default_rng(5)
        for level in (1, 7, 16, 30):
            side = 1 << level
            i = rng.integers(0, side, 50)
            j = rng.integers(0, side, 50)
            pos = curve.encode_array(i, j, level)
            for index in range(50):
                assert curve.encode(int(i[index]), int(j[index]), level) == int(pos[index])
            di, dj = curve.decode_array(pos, level)
            assert (di == i).all() and (dj == j).all()

    @given(
        st.integers(min_value=0, max_value=2**30 - 1),
        st.integers(min_value=0, max_value=2**30 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_level30(self, curve, i, j):
        pos = curve.encode(i, j, MAX_LEVEL)
        assert curve.decode(pos, MAX_LEVEL) == (i, j)
        assert 0 <= pos < 4**MAX_LEVEL


@pytest.mark.parametrize("curve", CURVES, ids=lambda c: c.name)
class TestHierarchy:
    @given(
        st.integers(min_value=0, max_value=2**30 - 1),
        st.integers(min_value=0, max_value=2**30 - 1),
        st.integers(min_value=0, max_value=29),
    )
    @settings(max_examples=150, deadline=None)
    def test_ancestor_position_is_prefix(self, curve, i, j, level):
        """The level-l position is the top 2l bits of the leaf position,
        the property that makes prefix containment possible."""
        leaf_pos = curve.encode(i, j, MAX_LEVEL)
        ancestor_pos = curve.encode(i >> (MAX_LEVEL - level), j >> (MAX_LEVEL - level), level)
        assert leaf_pos >> (2 * (MAX_LEVEL - level)) == ancestor_pos

    def test_children_are_contiguous(self, curve):
        for pos in range(16):
            i, j = curve.decode(pos, 2)
            child_positions = sorted(
                curve.encode((i << 1) | ci, (j << 1) | cj, 3)
                for ci in (0, 1)
                for cj in (0, 1)
            )
            assert child_positions == list(range(4 * pos, 4 * pos + 4))


class TestHilbertLocality:
    def test_adjacent_positions_are_adjacent_cells(self):
        """The Hilbert curve moves one grid step per position step."""
        level = 6
        previous = HILBERT.decode(0, level)
        for pos in range(1, 4**level):
            current = HILBERT.decode(pos, level)
            manhattan = abs(current[0] - previous[0]) + abs(current[1] - previous[1])
            assert manhattan == 1, f"jump at position {pos}"
            previous = current

    def test_morton_has_jumps(self):
        """Morton order jumps: locality is what distinguishes Hilbert."""
        level = 4
        jumps = 0
        previous = MORTON.decode(0, level)
        for pos in range(1, 4**level):
            current = MORTON.decode(pos, level)
            if abs(current[0] - previous[0]) + abs(current[1] - previous[1]) > 1:
                jumps += 1
            previous = current
        assert jumps > 0


class TestValidation:
    def test_rejects_bad_level(self):
        with pytest.raises(CellError):
            HILBERT.encode(0, 0, MAX_LEVEL + 1)
        with pytest.raises(CellError):
            HILBERT.decode(0, -1)

    def test_rejects_out_of_range_coordinates(self):
        with pytest.raises(CellError):
            HILBERT.encode(4, 0, 2)
        with pytest.raises(CellError):
            MORTON.encode(0, -1, 2)

    def test_rejects_out_of_range_position(self):
        with pytest.raises(CellError):
            HILBERT.decode(16, 2)

    def test_curve_by_name(self):
        assert curve_by_name("hilbert") is HILBERT
        assert curve_by_name("morton") is MORTON
        with pytest.raises(CellError):
            curve_by_name("peano")
