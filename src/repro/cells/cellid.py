"""S2-style 64-bit cell identifiers and their arithmetic.

A cell id encodes (level, curve position) in a single integer the way
the S2 library does on one face: the position's ``2 * level`` bits are
followed by a sentinel ``1`` bit and then zeros.  This yields the O(1)
primitives GeoBlocks build on (Section 3.1 of the paper):

* ``level_of`` / ``pos_of`` -- from the position of the lowest set bit,
* ``range_min`` / ``range_max`` -- the contiguous id range of all
  descendants, enabling containment checks as range inclusion,
* ``parent`` / ``children`` -- lsb shifts.

Every rule is written once and takes either a Python int or an int64
numpy array of ids (ids use at most 61 bits, so the signed type is
safe and plays well with ``searchsorted``).  An int is validated and
raises :class:`~repro.errors.CellError` when malformed; an array is
trusted element-wise, since the ETL pipeline keys millions of points at
a time.  The type is branched on only where the two forms differ.

Key space
---------

A *curve key* is a cell's position along the space-filling curve at
:data:`~repro.cells.curves.MAX_LEVEL` (the leaf grid).  Every cell at
any level owns a contiguous half-open span ``[key_lo, key_hi)`` of that
space (:func:`cell_key_spans`), and because aggregate arrays are sorted
by cell id -- which orders cells by curve key -- *any* key interval maps
to one contiguous row range.  That is the property equi-depth curve
sharding (:mod:`repro.engine.shards`) and partition routing
(:mod:`repro.engine.router`) rely on.
"""

from __future__ import annotations

import numpy as np

from repro.cells.curves import MAX_LEVEL
from repro.errors import CellError

#: Total bits used by an id: 2 bits per level plus the sentinel bit.
ID_BITS = 2 * MAX_LEVEL + 1

#: Smallest and largest valid ids (the two extreme leaf cells).
MIN_ID = 1
MAX_ID = (1 << ID_BITS) - 1

#: Size of the leaf curve-key space: one key per level-30 grid cell.
KEY_SPACE = 1 << (2 * MAX_LEVEL)

_Ids = int | np.ndarray


def make_id(level: int, pos: int) -> int:
    """Build the id of the cell at ``level`` with curve position ``pos``."""
    if not 0 <= level <= MAX_LEVEL:
        raise CellError(f"level must be in [0, {MAX_LEVEL}], got {level}")
    if not 0 <= pos < (1 << (2 * level)):
        raise CellError(f"position {pos} out of range for level {level}")
    shift = 2 * (MAX_LEVEL - level)
    return (pos << (shift + 1)) | (1 << shift)


def is_valid(cell_id: int) -> bool:
    """True when ``cell_id`` is a well-formed id.

    A valid id is in range and has its lowest set bit at an even offset
    (the sentinel bit always lands on an even position).
    """
    if not MIN_ID <= cell_id <= MAX_ID:
        return False
    return ((cell_id & -cell_id).bit_length() - 1) % 2 == 0


def _checked(ids: _Ids) -> _Ids:
    """``ids`` ready for arithmetic: an int validated, an array as int64."""
    if isinstance(ids, np.ndarray):
        return ids.astype(np.int64, copy=False)
    if not is_valid(ids):
        raise CellError(f"invalid cell id: {ids:#x}")
    return ids


def lsb(ids: _Ids) -> _Ids:
    """Lowest set bit of the id (the sentinel)."""
    return ids & -ids


def _sentinel_offset(ids: _Ids) -> _Ids:
    """Bit offset of the sentinel: ``bit_length`` of the lowest set bit
    for an int, its exact ``log2`` for an array (a power of two below
    2^62 is exactly representable as a double)."""
    ids = _checked(ids)
    if isinstance(ids, np.ndarray):
        return np.log2(lsb(ids).astype(np.float64)).astype(np.int64)
    return lsb(ids).bit_length() - 1


def level_of(ids: _Ids) -> _Ids:
    """Subdivision level encoded in the id."""
    return MAX_LEVEL - _sentinel_offset(ids) // 2


def pos_of(ids: _Ids) -> _Ids:
    """Curve position encoded in the id."""
    return ids >> (_sentinel_offset(ids) + 1)


def range_min(ids: _Ids) -> _Ids:
    """Smallest leaf id contained in the cell."""
    ids = _checked(ids)
    return ids - (lsb(ids) - 1)


def range_max(ids: _Ids) -> _Ids:
    """Largest leaf id contained in the cell."""
    ids = _checked(ids)
    return ids + (lsb(ids) - 1)


def cell_key_spans(ids: _Ids) -> tuple[_Ids, _Ids]:
    """Half-open leaf-key span ``[lo, hi)`` of every cell.

    A level-``l`` cell owns exactly ``4**(MAX_LEVEL - l)`` leaf keys;
    the span bounds come straight from the id's descendant range, so
    mixed-level inputs -- a query covering -- are fine.
    """
    return range_min(ids) >> 1, (range_max(ids) >> 1) + 1


def contains(ancestor: int, descendant: int) -> bool:
    """True when ``descendant`` (any valid id) lies within ``ancestor``.

    Thanks to the prefix encoding this is a constant-time range check,
    the property Listing 1 of the paper exploits for pruning.
    """
    return range_min(ancestor) <= _checked(descendant) <= range_max(ancestor)


def parent(ids: _Ids, level: int | None = None) -> _Ids:
    """Ancestor at ``level`` (default for an int: one level up).

    On an array this is the single-pass "re-keying" step of GeoBlock
    builds: leaf keys produced once during extract are mapped to
    block-level keys by one vectorised mask-and-or.  An array needs an
    explicit ``level``; its ids are assumed no coarser than it.
    """
    if isinstance(ids, np.ndarray):
        if level is None or not 0 <= level <= MAX_LEVEL:
            raise CellError(f"level must be in [0, {MAX_LEVEL}], got {level}")
        ids = ids.astype(np.int64, copy=False)
    else:
        own_level = level_of(ids)
        if level is None:
            level = own_level - 1
        if not 0 <= level <= own_level:
            raise CellError(f"cannot take level-{level} parent of a level-{own_level} cell")
    new_lsb = 1 << (2 * (MAX_LEVEL - level))
    return (ids & ~(new_lsb - 1)) | new_lsb


#: ``2 * index + 1`` for child indices 0..3, in curve order.
_CHILD_ODDS = (1, 3, 5, 7)


def _child(ids: _Ids, odd: _Ids) -> _Ids:
    """Child ``index`` is ``id - lsb + (lsb >> 2) * (2 * index + 1)``;
    an ``(n, 1)`` column of ids against all odds gives ``(n, 4)``."""
    low = lsb(ids)
    return ids - low + (low >> 2) * odd


def children(ids: _Ids) -> list[int] | np.ndarray:
    """All four children in curve order.

    A list of four for an int; for an array, a flat ``(4n,)`` array
    holding each parent's four children in curve order, so a sorted
    same-level input gives a sorted output.
    """
    if isinstance(ids, np.ndarray):
        column = ids.astype(np.int64, copy=False)[:, None]
        return _child(column, _CHILD_ODDS).reshape(-1)
    if level_of(ids) >= MAX_LEVEL:
        raise CellError("leaf cells have no children")
    return [_child(ids, odd) for odd in _CHILD_ODDS]


def child(cell_id: int, index: int) -> int:
    """The ``index``-th (0..3, curve order) child of the cell."""
    if not 0 <= index <= 3:
        raise CellError(f"child index must be in [0, 3], got {index}")
    return children(cell_id)[index]
