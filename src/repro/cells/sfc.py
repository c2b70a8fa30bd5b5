"""Space-filling-curve keying over the cell grid.

The curves themselves (the table-driven Hilbert curve and Morton bit
interleaving) live in :mod:`repro.cells.curves`; this module provides
the *grid-level* keying layer the sharding subsystem builds on: bulk
conversions between cell ids and (i, j) grid coordinates, leaf-key
spans of arbitrary-level cells, and exact cross-curve re-keying.

Everything here is vectorised numpy -- no per-row Python -- because
these transforms sit on build and routing paths that touch every cell
of a block.

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

from repro.cells import cellops
from repro.cells.curves import MAX_LEVEL, _check_level
from repro.errors import CellError

#: Size of the leaf curve-key space: one key per level-30 grid cell.
KEY_SPACE = 1 << (2 * MAX_LEVEL)


def cell_key_spans(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Half-open leaf-key span ``[lo, hi)`` of every cell.

    A level-``l`` cell owns exactly ``4**(MAX_LEVEL - l)`` leaf keys;
    the span bounds come straight from the id's descendant range
    (``range_min`` / ``range_max``), so mixed-level inputs -- a query
    covering -- are fine.
    """
    ids = np.asarray(ids, dtype=np.int64)
    lo = cellops.range_min_array(ids) >> 1
    hi = (cellops.range_max_array(ids) >> 1) + 1
    return lo, hi


def grid_coords(
    ids: np.ndarray, level: int, space  # noqa: ANN001 - CellSpace (circular)
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised (i, j) grid coordinates of same-level cell ids.

    The level is explicit (and checked) rather than derived per id so
    the position extraction stays one shift over the whole array.
    """
    _check_level(level)
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and not bool((cellops.level_array(ids) == level).all()):
        raise CellError(f"grid_coords needs all ids at level {level}")
    pos = ids >> np.int64(2 * (MAX_LEVEL - level) + 1)
    return space.curve.decode_array(pos, level)


def cells_from_grid(
    i: np.ndarray, j: np.ndarray, level: int, space  # noqa: ANN001 - CellSpace
) -> np.ndarray:
    """Vectorised inverse of :func:`grid_coords`: encode (i, j) grid
    coordinates at ``level`` into cell ids under ``space``'s curve."""
    _check_level(level)
    pos = space.curve.encode_array(np.asarray(i, dtype=np.int64), np.asarray(j, dtype=np.int64), level)
    shift = np.int64(2 * (MAX_LEVEL - level))
    return (pos << (shift + np.int64(1))) | (np.int64(1) << shift)


def rekey(
    ids: np.ndarray, level: int, source, target  # noqa: ANN001 - CellSpace
) -> np.ndarray:
    """Re-key same-level cell ids from ``source``'s curve to ``target``'s.

    Decode-then-encode through the shared (i, j) grid, so the transform
    is exactly invertible: ``rekey(rekey(ids, l, a, b), l, b, a) == ids``
    bit for bit.  This is how a Hilbert-keyed block's cells map onto a
    Morton-keyed comparison layout (and back) without touching raw
    coordinates.
    """
    i, j = grid_coords(ids, level, source)
    return cells_from_grid(i, j, level, target)
