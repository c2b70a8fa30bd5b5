"""Bit-at-a-time curves: the test oracles of the table kernel.

These are the Hilbert automaton and Morton interleave that
:mod:`repro.cells.curves` walked one level per step before it moved to
chunked lookup tables.  Cell ids are pinned to them: the kernel must
agree with them bit for bit at every level
(``tests/cells/test_curves.py::TestTableKernelOracle``).  The oracle
carries its own copy of the 4x4 automaton tables so a bad edit there
cannot hide.
"""

from __future__ import annotations

import numpy as np

from repro.cells.curves import Curve, _check_coords, _check_level, _check_pos

# Hilbert automaton tables (S2's per-face curve).  The orientation is a
# 2-bit state: bit 0 = axes swapped, bit 1 = both axes inverted.  ``ij``
# packs the two coordinate bits as (i << 1) | j.
_POS_TO_IJ = np.array(
    [
        [0, 1, 3, 2],  # canonical order
        [0, 2, 3, 1],  # axes swapped
        [3, 2, 0, 1],  # axes inverted
        [3, 1, 0, 2],  # swapped + inverted
    ],
    dtype=np.int64,
)
_IJ_TO_POS = np.zeros((4, 4), dtype=np.int64)
for _orientation in range(4):
    for _pos in range(4):
        _IJ_TO_POS[_orientation, _POS_TO_IJ[_orientation, _pos]] = _pos
_POS_TO_ORIENTATION = np.array([1, 0, 0, 3], dtype=np.int64)


class AutomatonHilbert(Curve):
    """The four-state Hilbert curve automaton used by S2."""

    name = "hilbert-automaton"

    def encode(self, i: int, j: int, level: int) -> int:
        _check_level(level)
        _check_coords(i, j, level)
        pos = 0
        orientation = 0
        for bit in range(level - 1, -1, -1):
            ij = (((i >> bit) & 1) << 1) | ((j >> bit) & 1)
            pos_bits = int(_IJ_TO_POS[orientation, ij])
            pos = (pos << 2) | pos_bits
            orientation ^= int(_POS_TO_ORIENTATION[pos_bits])
        return pos

    def decode(self, pos: int, level: int) -> tuple[int, int]:
        _check_level(level)
        _check_pos(pos, level)
        i = 0
        j = 0
        orientation = 0
        for bit in range(level - 1, -1, -1):
            pos_bits = (pos >> (2 * bit)) & 3
            ij = int(_POS_TO_IJ[orientation, pos_bits])
            i = (i << 1) | (ij >> 1)
            j = (j << 1) | (ij & 1)
            orientation ^= int(_POS_TO_ORIENTATION[pos_bits])
        return i, j

    def encode_array(self, i: np.ndarray, j: np.ndarray, level: int) -> np.ndarray:
        _check_level(level)
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        pos = np.zeros(i.shape, dtype=np.int64)
        orientation = np.zeros(i.shape, dtype=np.int64)
        for bit in range(level - 1, -1, -1):
            ij = (((i >> bit) & 1) << 1) | ((j >> bit) & 1)
            pos_bits = _IJ_TO_POS[orientation, ij]
            pos = (pos << 2) | pos_bits
            orientation ^= _POS_TO_ORIENTATION[pos_bits]
        return pos

    def decode_array(self, pos: np.ndarray, level: int) -> tuple[np.ndarray, np.ndarray]:
        _check_level(level)
        pos = np.asarray(pos, dtype=np.int64)
        i = np.zeros(pos.shape, dtype=np.int64)
        j = np.zeros(pos.shape, dtype=np.int64)
        orientation = np.zeros(pos.shape, dtype=np.int64)
        for bit in range(level - 1, -1, -1):
            pos_bits = (pos >> (2 * bit)) & 3
            ij = _POS_TO_IJ[orientation, pos_bits]
            i = (i << 1) | (ij >> 1)
            j = (j << 1) | (ij & 1)
            orientation ^= _POS_TO_ORIENTATION[pos_bits]
        return i, j


class BitMorton(Curve):
    """Z-order (bit interleaving) curve; simpler but with larger jumps."""

    name = "morton-bits"

    def encode(self, i: int, j: int, level: int) -> int:
        _check_level(level)
        _check_coords(i, j, level)
        pos = 0
        for bit in range(level - 1, -1, -1):
            pos = (pos << 2) | ((((i >> bit) & 1) << 1) | ((j >> bit) & 1))
        return pos

    def decode(self, pos: int, level: int) -> tuple[int, int]:
        _check_level(level)
        _check_pos(pos, level)
        i = 0
        j = 0
        for bit in range(level - 1, -1, -1):
            chunk = (pos >> (2 * bit)) & 3
            i = (i << 1) | (chunk >> 1)
            j = (j << 1) | (chunk & 1)
        return i, j

    def encode_array(self, i: np.ndarray, j: np.ndarray, level: int) -> np.ndarray:
        _check_level(level)
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        pos = np.zeros(i.shape, dtype=np.int64)
        for bit in range(level - 1, -1, -1):
            pos = (pos << 2) | ((((i >> bit) & 1) << 1) | ((j >> bit) & 1))
        return pos

    def decode_array(self, pos: np.ndarray, level: int) -> tuple[np.ndarray, np.ndarray]:
        _check_level(level)
        pos = np.asarray(pos, dtype=np.int64)
        i = np.zeros(pos.shape, dtype=np.int64)
        j = np.zeros(pos.shape, dtype=np.int64)
        for bit in range(level - 1, -1, -1):
            chunk = (pos >> (2 * bit)) & 3
            i = (i << 1) | (chunk >> 1)
            j = (j << 1) | (chunk & 1)
        return i, j


AUTOMATON = AutomatonHilbert()
BIT_MORTON = BitMorton()
