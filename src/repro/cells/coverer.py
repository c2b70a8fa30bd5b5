"""Region coverer: approximate polygons with error-bounded cell unions.

This is the from-scratch replacement for S2's ``RegionCoverer`` used by
the paper (`s2.coverPolygon` in Listings 1 and 2).  A covering consists
of cells at mixed levels: cells fully inside the region are kept as
coarse as possible, while cells crossing the region boundary are
subdivided down to the requested level.  The boundary cells determine
the spatial error, which is therefore bounded by the cell diagonal at
that level (Section 3.2).

Two implementations are provided:

* a vectorised level-synchronous BFS (the default): each frontier of
  same-level cells is classified against all region edges at once with
  an exact separating-axis segment/rectangle test, keeping the per-cell
  Python overhead negligible;
* a scalar recursive version (``covering_scalar``) used by the test
  suite to cross-validate the vectorised path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cells import cellid
from repro.cells.curves import MAX_LEVEL
from repro.cells.space import CellSpace
from repro.cells.union import CellUnion
from repro.errors import CellError
from repro.geometry.bbox import BoundingBox
from repro.geometry.polygon import MultiPolygon
from repro.geometry.relate import Region
from repro.geometry.segment import segment_intersects_box


@dataclass(frozen=True)
class CovererOptions:
    """Tuning knobs for the coverer.

    ``max_cells`` is a safety valve only: when set, the BFS stops
    subdividing once the output would exceed it, trading error for size
    (S2 behaves the same way).  The paper's experiments rely on the
    unlimited, error-bounded behaviour, so the default is no limit.
    """

    max_cells: int | None = None


class RegionCoverer:
    """Computes exterior and interior cell coverings of polygonal regions.

    The coverer is a pure computation: memoisation lives in the bounded,
    content-addressed covering tier of :mod:`repro.cache` (which the
    engine planner consults before calling in here).  The coverer's own
    per-instance memo of earlier revisions was unbounded and identity-
    keyed -- a leak in long-running servers and a guaranteed miss for
    wire-parsed regions -- so it was removed rather than bounded.
    """

    def __init__(
        self,
        space: CellSpace,
        options: CovererOptions | None = None,
    ) -> None:
        self._space = space
        self._options = options or CovererOptions()

    @property
    def space(self) -> CellSpace:
        return self._space

    # -- public API -------------------------------------------------------

    def covering(self, region: Region, level: int) -> CellUnion:
        """Exterior covering: every region point lies in some cell.

        Boundary-crossing cells are emitted at exactly ``level``;
        interior cells may be coarser.  The result never contains cells
        finer than ``level`` (coverings must not be finer than the
        GeoBlock's grid, Section 3.5).
        """
        return self._cover_vectorised(region, level, interior=False)

    def interior_covering(self, region: Region, level: int) -> CellUnion:
        """Interior covering: every cell lies fully inside the region."""
        return self._cover_vectorised(region, level, interior=True)

    def covering_scalar(self, region: Region, level: int, interior: bool = False) -> CellUnion:
        """Reference implementation: per-cell recursive classification."""
        return self._cover_scalar(region, level, interior)

    # -- vectorised BFS ------------------------------------------------------

    def _cover_vectorised(self, region: Region, level: int, interior: bool) -> CellUnion:
        if not 0 <= level <= MAX_LEVEL:
            raise CellError(f"level must be in [0, {MAX_LEVEL}], got {level}")
        edges = _EdgeSet.from_region(region)
        start = self._start_cell(region, level)
        output: list[np.ndarray] = []
        frontier = np.asarray([start], dtype=np.int64)
        current_level = cellid.level_of(start)
        budget = self._options.max_cells
        emitted = 0
        while frontier.size:
            boundary = self._classify_frontier(region, edges, frontier, current_level, output)
            emitted = sum(arr.size for arr in output)
            if boundary.size == 0:
                break
            if current_level >= level or (
                budget is not None and emitted + len(boundary) * 4 > budget
            ):
                if not interior:
                    output.append(boundary)
                break
            frontier = cellid.children(boundary)
            current_level += 1
        if not output:
            return CellUnion(np.empty(0, dtype=np.int64))
        merged = np.concatenate(output)
        merged.sort()
        return CellUnion(merged, assume_sorted=True)

    def _classify_frontier(
        self,
        region: Region,
        edges: "_EdgeSet",
        frontier: np.ndarray,
        level: int,
        output: list[np.ndarray],
    ) -> np.ndarray:
        """Split ``frontier`` into emitted-interior cells (appended to
        ``output``) and boundary cells (returned for subdivision)."""
        bounds = self._frontier_bounds(frontier, level)
        min_x, min_y, max_x, max_y = bounds
        touches = edges.touch_matrix(min_x, min_y, max_x, max_y)
        boundary_mask = touches.any(axis=1)
        calm = ~boundary_mask
        if calm.any():
            # No boundary inside: cell is fully inside or fully outside;
            # decide via the centre point.
            cx = (min_x[calm] + max_x[calm]) / 2.0
            cy = (min_y[calm] + max_y[calm]) / 2.0
            inside = region.contains_points(cx, cy)
            interior_cells = frontier[calm][inside]
            if interior_cells.size:
                output.append(interior_cells)
        return frontier[boundary_mask]

    def _frontier_bounds(
        self, frontier: np.ndarray, level: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Vectorised cell bounds for a same-level frontier."""
        domain = self._space.domain
        i, j = self._space.curve.decode_array(cellid.pos_of(frontier), level)
        side = 1 << level
        width = domain.width / side
        height = domain.height / side
        min_x = domain.min_x + i * width
        min_y = domain.min_y + j * height
        return min_x, min_y, min_x + width, min_y + height


    def _start_cell(self, region: Region, level: int) -> int:
        start = self._space.smallest_enclosing_cell(region.bounding_box)
        start_level = cellid.level_of(start)
        if start_level > level:
            # Tiny region: never start below the requested level, as
            # coverings must not contain cells finer than the grid.
            start = cellid.parent(start, level)
        return start

    # -- scalar reference implementation ----------------------------------------

    def _cover_scalar(self, region: Region, level: int, interior: bool) -> CellUnion:
        if not 0 <= level <= MAX_LEVEL:
            raise CellError(f"level must be in [0, {MAX_LEVEL}], got {level}")
        edges = _EdgeSet.from_region(region)
        start = self._start_cell(region, level)
        output: list[int] = []
        stack: list[tuple[int, np.ndarray]] = [(start, np.arange(edges.count, dtype=np.int64))]
        while stack:
            cell, active = stack.pop()
            bounds = self._space.cell_bounds(cell)
            active = edges.overlapping(active, bounds)
            if active.size == 0 or not edges.touches(active, bounds):
                cx, cy = bounds.center
                if region.contains_point(cx, cy):
                    output.append(cell)
                continue
            cell_level = cellid.level_of(cell)
            if cell_level >= level:
                if not interior:
                    output.append(cell)
                continue
            for index in range(3, -1, -1):  # reversed: stack pops in curve order
                stack.append((cellid.child(cell, index), active))
        output.sort()
        return CellUnion(np.asarray(output, dtype=np.int64), assume_sorted=True)


class _EdgeSet:
    """Region edges as flat arrays with vectorised cell interaction tests."""

    __slots__ = ("ax", "ay", "bx", "by", "min_x", "min_y", "max_x", "max_y", "count")

    def __init__(self, ax, ay, bx, by) -> None:  # type: ignore[no-untyped-def]
        self.ax = ax
        self.ay = ay
        self.bx = bx
        self.by = by
        self.min_x = np.minimum(ax, bx)
        self.max_x = np.maximum(ax, bx)
        self.min_y = np.minimum(ay, by)
        self.max_y = np.maximum(ay, by)
        self.count = int(ax.size)

    @classmethod
    def from_region(cls, region: Region) -> "_EdgeSet":
        parts = region.parts if isinstance(region, MultiPolygon) else [region]
        ax_parts = []
        ay_parts = []
        bx_parts = []
        by_parts = []
        for part in parts:
            xs = np.asarray(part.xs)
            ys = np.asarray(part.ys)
            ax_parts.append(xs)
            ay_parts.append(ys)
            bx_parts.append(np.roll(xs, -1))
            by_parts.append(np.roll(ys, -1))
        return cls(
            np.concatenate(ax_parts),
            np.concatenate(ay_parts),
            np.concatenate(bx_parts),
            np.concatenate(by_parts),
        )

    # -- vectorised (cells x edges) ------------------------------------------

    def touch_matrix(
        self,
        min_x: np.ndarray,
        min_y: np.ndarray,
        max_x: np.ndarray,
        max_y: np.ndarray,
    ) -> np.ndarray:
        """Boolean (num_cells, num_edges) matrix: edge touches cell.

        Exact separating-axis test for a segment against an axis-
        aligned rectangle: they intersect iff their bounding boxes
        overlap on both axes *and* the four rectangle corners do not lie
        strictly on one side of the segment's supporting line.
        """
        cmin_x = min_x[:, None]
        cmax_x = max_x[:, None]
        cmin_y = min_y[:, None]
        cmax_y = max_y[:, None]
        bbox_overlap = (
            (self.min_x[None, :] <= cmax_x)
            & (self.max_x[None, :] >= cmin_x)
            & (self.min_y[None, :] <= cmax_y)
            & (self.max_y[None, :] >= cmin_y)
        )
        dx = (self.bx - self.ax)[None, :]
        dy = (self.by - self.ay)[None, :]
        rel_ax = self.ax[None, :]
        rel_ay = self.ay[None, :]
        # Cross products of the four corners with the segment line.
        c1 = dx * (cmin_y - rel_ay) - dy * (cmin_x - rel_ax)
        c2 = dx * (cmin_y - rel_ay) - dy * (cmax_x - rel_ax)
        c3 = dx * (cmax_y - rel_ay) - dy * (cmin_x - rel_ax)
        c4 = dx * (cmax_y - rel_ay) - dy * (cmax_x - rel_ax)
        all_positive = (c1 > 0) & (c2 > 0) & (c3 > 0) & (c4 > 0)
        all_negative = (c1 < 0) & (c2 < 0) & (c3 < 0) & (c4 < 0)
        return bbox_overlap & ~(all_positive | all_negative)

    # -- scalar path (reference implementation) --------------------------------

    def overlapping(self, active: np.ndarray, box: BoundingBox) -> np.ndarray:
        """Subset of ``active`` whose edge bounding boxes meet ``box``."""
        keep = (
            (self.min_x[active] <= box.max_x)
            & (self.max_x[active] >= box.min_x)
            & (self.min_y[active] <= box.max_y)
            & (self.max_y[active] >= box.min_y)
        )
        return active[keep]

    def touches(self, active: np.ndarray, box: BoundingBox) -> bool:
        """True when any active edge actually touches the closed box."""
        inside = (
            (self.ax[active] >= box.min_x)
            & (self.ax[active] <= box.max_x)
            & (self.ay[active] >= box.min_y)
            & (self.ay[active] <= box.max_y)
        )
        if bool(inside.any()):
            return True
        for index in active.tolist():
            if segment_intersects_box(
                float(self.ax[index]),
                float(self.ay[index]),
                float(self.bx[index]),
                float(self.by[index]),
                box.min_x,
                box.min_y,
                box.max_x,
                box.max_y,
            ):
                return True
        return False


def covering_error_bound_meters(
    space: CellSpace, level: int, latitude: float = 0.0
) -> float:
    """The paper's error bound sqrt(e1^2 + e2^2) for boundary cells at
    ``level`` -- the maximum distance from any covering point to the
    polygon outline."""
    from repro.cells.stats import level_stats

    return level_stats(space, level, latitude).diagonal_meters
