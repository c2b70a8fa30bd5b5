"""Order-preserving space-filling curves.

GeoBlocks enumerate grid cells with an order-preserving space-filling
curve (Section 3.1; the paper uses S2's Hilbert curve).  This module
implements that curve from scratch on the classic four-state Hilbert
automaton -- the same construction S2 uses per face -- plus the simpler
Morton (Z-order) curve as an alternative.  Both curves are *hierarchical*:
the first ``2*level`` bits of a deeper position are the position of the
enclosing cell at ``level``, which is what makes prefix-based containment
and single-pass re-keying possible.

Keys are computed the way S2 computes them: with lookup tables that
advance the automaton four levels per step, so a level-30 key takes 8
table steps instead of 30.  The encode table maps (orientation, 4 bits
of i, 4 bits of j) to (next orientation, 8 position bits) and the decode
table is its inverse; both are built at import by running the automaton
over every 4-level chunk.  Morton is the automaton whose orientation
never changes.  A level that is not a multiple of four is walked as if
padded with leading zero bits; on the Hilbert curve each zero bit
toggles the axes-swapped bit, so the walk starts in orientation
``level & 1`` and reaches orientation 0 exactly where the real bits
begin.  Scalar and numpy-vectorised encoders and decoders run the same
walk over the same tables (the vectorised forms drive the bulk
point-to-key transformation of the ETL pipeline).  The bit-at-a-time
loops live on as the test oracles in ``tests/cells/curve_oracles.py``.
"""

from __future__ import annotations

from collections.abc import Callable
from operator import index

import numpy as np

from repro.errors import CellError

#: Deepest supported subdivision level; 2*30 position bits + 1 sentinel
#: bit fit comfortably in a signed 64-bit integer.
MAX_LEVEL = 30

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

#: Orientation bits of a chunk-table index or entry (see _chunk_tables).
_STATE = 0x300

_Ints = int | np.ndarray


def _chunk_tables(
    ij_to_pos: np.ndarray, pos_to_orientation: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Run an automaton over every (orientation, i nibble, j nibble).

    Entries keep the orientation pre-shifted by 8 bits, so an entry's
    ``& _STATE`` is directly the orientation part of the next index:
    ``encode[(o << 8) | (i4 << 4) | j4] == (o' << 8) | pos8`` and
    ``decode[(o << 8) | pos8] == (o' << 8) | (i4 << 4) | j4``.
    """
    slot = np.arange(1024, dtype=np.int64)
    orientation = slot >> 8
    pos8 = np.zeros_like(slot)
    for bit in (3, 2, 1, 0):
        ij = (((slot >> (4 + bit)) & 1) << 1) | ((slot >> bit) & 1)
        pos_bits = ij_to_pos[orientation, ij]
        pos8 = (pos8 << 2) | pos_bits
        orientation = orientation ^ pos_to_orientation[pos_bits]
    encode = (orientation << 8) | pos8
    decode = np.empty_like(encode)
    decode[(slot & _STATE) | pos8] = (orientation << 8) | (slot & 0xFF)
    return encode, decode


def _walk_encode(i: _Ints, j: _Ints, level: int, lookup: Callable) -> _Ints:
    """Curve position of (i, j) at ``level``, 4 levels per table step.

    The same walk serves Python ints (``lookup`` = list indexing) and
    int64 arrays (``lookup`` = ``ndarray.take``); ``i & 0`` is a zero of
    the caller's kind and shape.
    """
    pos = i & 0
    state = (level & 1) << 8
    for shift in range(4 * ((level + 3) // 4) - 4, -1, -4):
        entry = lookup(state | (((i >> shift) & 0xF) << 4) | ((j >> shift) & 0xF))
        pos = (pos << 8) | (entry & 0xFF)
        state = entry & _STATE
    return pos


def _walk_decode(pos: _Ints, level: int, lookup: Callable) -> tuple[_Ints, _Ints]:
    """Inverse of :func:`_walk_encode`: 8 position bits per table step."""
    i = j = pos & 0
    state = (level & 1) << 8
    for shift in range(8 * ((level + 3) // 4) - 8, -1, -8):
        entry = lookup(state | ((pos >> shift) & 0xFF))
        i = (i << 4) | ((entry >> 4) & 0xF)
        j = (j << 4) | (entry & 0xF)
        state = entry & _STATE
    return i, j


def _check_level(level: int) -> None:
    if not 0 <= level <= MAX_LEVEL:
        raise CellError(f"level must be in [0, {MAX_LEVEL}], got {level}")


class Curve:
    """Interface of an order-preserving, hierarchical space-filling curve."""

    name: str = "abstract"

    def encode(self, i: int, j: int, level: int) -> int:
        """Map cell coordinates (i, j) at ``level`` to a curve position."""
        raise NotImplementedError

    def decode(self, pos: int, level: int) -> tuple[int, int]:
        """Inverse of :meth:`encode`."""
        raise NotImplementedError

    def encode_array(self, i: np.ndarray, j: np.ndarray, level: int) -> np.ndarray:
        """Vectorised :meth:`encode` over int64 arrays."""
        raise NotImplementedError

    def decode_array(self, pos: np.ndarray, level: int) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`decode` over int64 arrays."""
        raise NotImplementedError


class _TableCurve(Curve):
    """A curve keyed through the chunk tables of its automaton."""

    def __init__(self, ij_to_pos: np.ndarray, pos_to_orientation: np.ndarray) -> None:
        self._encode, self._decode = _chunk_tables(ij_to_pos, pos_to_orientation)
        # Python-int copies for the scalar path, where numpy scalar
        # arithmetic would cost more than the walk itself.
        self._encode_list = self._encode.tolist()
        self._decode_list = self._decode.tolist()

    def encode(self, i: int, j: int, level: int) -> int:
        _check_level(level)
        _check_coords(i, j, level)
        # index(): numpy ints in, Python ints out, as for every scalar caller.
        return _walk_encode(index(i), index(j), level, self._encode_list.__getitem__)

    def decode(self, pos: int, level: int) -> tuple[int, int]:
        _check_level(level)
        _check_pos(pos, level)
        return _walk_decode(index(pos), level, self._decode_list.__getitem__)

    def encode_array(self, i: np.ndarray, j: np.ndarray, level: int) -> np.ndarray:
        _check_level(level)
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        return _walk_encode(i, j, level, self._encode.take)

    def decode_array(self, pos: np.ndarray, level: int) -> tuple[np.ndarray, np.ndarray]:
        _check_level(level)
        pos = np.asarray(pos, dtype=np.int64)
        return _walk_decode(pos, level, self._decode.take)


class HilbertCurve(_TableCurve):
    """The four-state Hilbert curve automaton used by S2."""

    name = "hilbert"

    def __init__(self) -> None:
        super().__init__(_IJ_TO_POS, _POS_TO_ORIENTATION)


class MortonCurve(_TableCurve):
    """Z-order (bit interleaving) curve; simpler but with larger jumps."""

    name = "morton"

    def __init__(self) -> None:
        super().__init__(np.tile(np.arange(4), (4, 1)), np.zeros(4, dtype=np.int64))


def _check_coords(i: int, j: int, level: int) -> None:
    side = 1 << level
    if not (0 <= i < side and 0 <= j < side):
        raise CellError(f"coordinates ({i}, {j}) out of range for level {level}")


def _check_pos(pos: int, level: int) -> None:
    if not 0 <= pos < (1 << (2 * level)):
        raise CellError(f"position {pos} out of range for level {level}")


#: Shared curve instances (both are stateless).
HILBERT = HilbertCurve()
MORTON = MortonCurve()

_CURVES = {curve.name: curve for curve in (HILBERT, MORTON)}


def curve_by_name(name: str) -> Curve:
    """Look up a curve by its registered name ("hilbert" or "morton")."""
    try:
        return _CURVES[name]
    except KeyError:
        raise CellError(f"unknown curve {name!r}; available: {sorted(_CURVES)}") from None
