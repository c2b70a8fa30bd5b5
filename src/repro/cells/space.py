"""Mapping between lon/lat coordinates and the cell-id space.

A :class:`CellSpace` fixes the level-0 cell (the spatial domain, by
default the whole lon/lat rectangle, mirroring S2's Earth-wide domain)
and the space-filling curve, and converts between coordinates, discrete
(i, j) grid coordinates, and 64-bit cell ids.  Everything downstream --
ETL keying, coverings, GeoBlocks, baselines -- works through one shared
space so that keys are mutually comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.cells import cellid
from repro.cells.curves import HILBERT, MAX_LEVEL, Curve
from repro.errors import CellError
from repro.geometry.bbox import BoundingBox

#: The Earth-wide lon/lat rectangle used as the default domain.
EARTH_BOUNDS = BoundingBox(-180.0, -90.0, 180.0, 90.0)


@dataclass(frozen=True)
class CellSpace:
    """A hierarchical cell decomposition of a rectangular domain.

    Parameters
    ----------
    domain:
        The level-0 cell.  Points outside are clamped onto the border,
        matching S2's behaviour of snapping to the nearest cell.
    curve:
        The space-filling curve enumerating cells within each level.
    """

    domain: BoundingBox = EARTH_BOUNDS
    curve: Curve = field(default=HILBERT)

    def __post_init__(self) -> None:
        if self.domain.width <= 0 or self.domain.height <= 0:
            raise CellError("cell space domain must have positive extent")

    # -- coordinate quantisation ------------------------------------------

    def to_ij(self, x: float, y: float, level: int = MAX_LEVEL) -> tuple[int, int]:
        """Quantise a point to discrete (i, j) cell coordinates."""
        side = 1 << level
        i = int((x - self.domain.min_x) / self.domain.width * side)
        j = int((y - self.domain.min_y) / self.domain.height * side)
        return min(max(i, 0), side - 1), min(max(j, 0), side - 1)

    def to_ij_arrays(
        self, xs: np.ndarray, ys: np.ndarray, level: int = MAX_LEVEL
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`to_ij`, equal to it for every finite point
        (clamping before the cast keeps far-out points from wrapping)."""
        side = 1 << level
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        i = (xs - self.domain.min_x) / self.domain.width * side
        j = (ys - self.domain.min_y) / self.domain.height * side
        np.clip(i, 0, side - 1, out=i)
        np.clip(j, 0, side - 1, out=j)
        return i.astype(np.int64), j.astype(np.int64)

    # -- point -> cell ------------------------------------------------------

    def cell_at(self, x: float, y: float, level: int = MAX_LEVEL) -> int:
        """Id of the level-``level`` cell containing the point."""
        i, j = self.to_ij(x, y, level)
        return cellid.make_id(level, self.curve.encode(i, j, level))

    def leaf_id(self, x: float, y: float) -> int:
        """Id of the finest-level cell containing the point (the paper's
        point approximation, Section 3.1)."""
        return self.cell_at(x, y, MAX_LEVEL)

    def leaf_ids(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`leaf_id` -- the bulk keying step of extract."""
        i, j = self.to_ij_arrays(xs, ys, MAX_LEVEL)
        pos = self.curve.encode_array(i, j, MAX_LEVEL)
        return (pos << 1) | 1

    # -- cell -> geometry -----------------------------------------------------

    def cell_bounds(self, cell: int) -> BoundingBox:
        """Lon/lat rectangle covered by the cell."""
        level = cellid.level_of(cell)
        i, j = self.curve.decode(cellid.pos_of(cell), level)
        side = 1 << level
        width = self.domain.width / side
        height = self.domain.height / side
        min_x = self.domain.min_x + i * width
        min_y = self.domain.min_y + j * height
        return BoundingBox(min_x, min_y, min_x + width, min_y + height)

    def cell_center(self, cell: int) -> tuple[float, float]:
        return self.cell_bounds(cell).center

    def cell_size(self, level: int) -> tuple[float, float]:
        """(width, height) in degrees of a cell at ``level``."""
        if not 0 <= level <= MAX_LEVEL:
            raise CellError(f"level must be in [0, {MAX_LEVEL}], got {level}")
        side = 1 << level
        return self.domain.width / side, self.domain.height / side

    # -- containment helpers ---------------------------------------------------

    def smallest_enclosing_cell(self, box: BoundingBox) -> int:
        """The deepest single cell whose bounds contain ``box``.

        Used to seed coverings (Section 3.6).  Candidates are the cells
        at the box's min corner, scanned coarser from
        :meth:`_enclosing_level_bound` -- usually a single check.
        """
        clamped = box.intersection(self.domain)
        if clamped is None:
            raise CellError("box lies outside the cell space domain")
        for level in range(self._enclosing_level_bound(clamped), -1, -1):
            cell = self.cell_at(clamped.min_x, clamped.min_y, level)
            if self.cell_bounds(cell).contains_box(clamped):
                return cell
        return cellid.make_id(0, 0)

    def _enclosing_level_bound(self, box: BoundingBox) -> int:
        """A level no shallower than the one :meth:`smallest_enclosing_cell`
        returns, from the common leading bits of the corners' leaf (i, j).

        The min corner is quantised exactly as :meth:`cell_at` does, so its
        level-``l`` cell is ``(i >> (30 - l), j >> (30 - l))``.  The max
        corner is quantised upper-closed (an edge on a grid line belongs to
        the cell below it) and pulled down by a bound on the float rounding
        of quantisation and of :meth:`cell_bounds`, so a box the float
        ``contains_box`` check accepts at some level is accepted here too.
        """
        low_i, low_j = self.to_ij(box.min_x, box.min_y)
        high_i = _upper_closed(box.max_x, self.domain.min_x, self.domain.max_x, low_i)
        high_j = _upper_closed(box.max_y, self.domain.min_y, self.domain.max_y, low_j)
        return MAX_LEVEL - max((low_i ^ high_i).bit_length(), (low_j ^ high_j).bit_length())


def _upper_closed(value: float, low: float, high: float, floor_index: int) -> int:
    """Leaf grid index of a box's max edge with the cell's upper edge
    closed, never below the min edge's index ``floor_index``.

    Quantisation and cell bounds each round by a few ulps of the
    domain's largest coordinate; ``slack`` (in leaf cells) covers that
    twice over, so an edge within rounding of a grid line counts as on it.
    """
    side = 1 << MAX_LEVEL
    extent = high - low
    slack = (max(abs(low), abs(high)) / extent + 1.0) * 2.0**-19
    index = math.floor((value - low) / extent * side - slack)
    return max(floor_index, min(side - 1, index))


#: The default Earth-wide space shared by examples and experiments.
EARTH = CellSpace()
