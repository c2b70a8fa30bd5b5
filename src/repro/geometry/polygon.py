"""Simple polygons and multipolygons with vectorised containment tests.

The query regions of the paper (NYC neighbourhoods, US states, generated
rectangles) are simple polygons without holes, so this module implements
that model: a closed ring of vertices, point-in-polygon via the even-odd
(ray casting) rule, signed area, and a numpy-vectorised bulk containment
test used for exact ground-truth counts in the experiments.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

import numpy as np

from repro.errors import GeometryError
from repro.geometry.bbox import BoundingBox
from repro.geometry.segment import on_segment, orientation


class Polygon:
    """A simple polygon defined by its exterior ring.

    The ring is stored without a repeated closing vertex; closure is
    implicit.  Both clockwise and counter-clockwise input rings are
    accepted and normalised to counter-clockwise.
    """

    __slots__ = ("_xs", "_ys", "_bbox")

    def __init__(self, vertices: Sequence[tuple[float, float]] | np.ndarray) -> None:
        coords = np.asarray(vertices, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise GeometryError("polygon vertices must be an (n, 2) sequence")
        if not np.isfinite(coords).all():
            position = int(np.isfinite(coords).all(axis=1).argmin())
            raise GeometryError(f"vertex {position} is not finite", position=position)
        if len(coords) >= 2 and bool(np.all(coords[0] == coords[-1])):
            coords = coords[:-1]  # drop explicit closing vertex
        if len(coords) < 3:
            raise GeometryError("a polygon needs at least three distinct vertices")
        xs = coords[:, 0].copy()
        ys = coords[:, 1].copy()
        if _signed_area(xs, ys) < 0:
            xs = xs[::-1].copy()
            ys = ys[::-1].copy()
        self._xs = xs
        self._ys = ys
        self._bbox = BoundingBox.from_points(xs, ys)

    # -- accessors -------------------------------------------------------

    @property
    def xs(self) -> np.ndarray:
        """Vertex x coordinates (read-only view)."""
        view = self._xs.view()
        view.flags.writeable = False
        return view

    @property
    def ys(self) -> np.ndarray:
        """Vertex y coordinates (read-only view)."""
        view = self._ys.view()
        view.flags.writeable = False
        return view

    @property
    def num_vertices(self) -> int:
        return len(self._xs)

    @property
    def bounding_box(self) -> BoundingBox:
        return self._bbox

    def vertices(self) -> list[tuple[float, float]]:
        return list(zip(self._xs.tolist(), self._ys.tolist()))

    def edges(self) -> Iterable[tuple[float, float, float, float]]:
        """Yield edges as (ax, ay, bx, by), including the closing edge."""
        n = len(self._xs)
        for i in range(n):
            j = (i + 1) % n
            yield self._xs[i], self._ys[i], self._xs[j], self._ys[j]

    # -- metrics ----------------------------------------------------------

    def area(self) -> float:
        """Unsigned polygon area (in squared coordinate units)."""
        return abs(_signed_area(self._xs, self._ys))

    def perimeter(self) -> float:
        total = 0.0
        for ax, ay, bx, by in self.edges():
            total += math.hypot(bx - ax, by - ay)
        return total

    def centroid(self) -> tuple[float, float]:
        """Area centroid of the polygon."""
        xs, ys = self._xs, self._ys
        shifted_x = np.roll(xs, -1)
        shifted_y = np.roll(ys, -1)
        cross = xs * shifted_y - shifted_x * ys
        area6 = cross.sum() * 3.0  # six times the signed area
        if area6 == 0.0:
            return float(xs.mean()), float(ys.mean())
        cx = float(((xs + shifted_x) * cross).sum() / area6)
        cy = float(((ys + shifted_y) * cross).sum() / area6)
        return cx, cy

    # -- containment -------------------------------------------------------

    def contains_point(self, x: float, y: float) -> bool:
        """Even-odd containment; boundary points count as inside."""
        if not self._bbox.contains_point(x, y):
            return False
        xs, ys = self._xs, self._ys
        n = len(xs)
        inside = False
        j = n - 1
        for i in range(n):
            xi, yi = xs[i], ys[i]
            xj, yj = xs[j], ys[j]
            if orientation(xi, yi, xj, yj, x, y) == 0 and on_segment(xi, yi, xj, yj, x, y):
                return True  # boundary
            if (yi > y) != (yj > y):
                x_cross = (xj - xi) * (y - yi) / (yj - yi) + xi
                if x < x_cross:
                    inside = not inside
            j = i
        return inside

    def contains_points(self, px: np.ndarray, py: np.ndarray) -> np.ndarray:
        """Vectorised even-odd test over point arrays.

        Boundary handling follows the half-open crossing rule, which is
        consistent for tessellations (each point claimed by exactly one
        polygon of a partition, up to ties on shared edges).
        """
        px = np.asarray(px, dtype=np.float64)
        py = np.asarray(py, dtype=np.float64)
        inside = np.zeros(px.shape, dtype=bool)
        candidate = self._bbox.contains_points(px, py)
        if not candidate.any():
            return inside
        cx = px[candidate]
        cy = py[candidate]
        acc = np.zeros(cx.shape, dtype=bool)
        xs, ys = self._xs, self._ys
        n = len(xs)
        j = n - 1
        for i in range(n):
            xi, yi = xs[i], ys[i]
            xj, yj = xs[j], ys[j]
            crosses = (yi > cy) != (yj > cy)
            if crosses.any():
                with np.errstate(divide="ignore", invalid="ignore"):
                    x_cross = (xj - xi) * (cy - yi) / (yj - yi) + xi
                acc ^= crosses & (cx < x_cross)
            j = i
        inside[candidate] = acc
        return inside

    def count_contained(self, px: np.ndarray, py: np.ndarray) -> int:
        """Exact number of points inside the polygon (ground truth)."""
        return int(self.contains_points(px, py).sum())

    # -- transforms ---------------------------------------------------------

    def translated(self, dx: float, dy: float) -> "Polygon":
        return Polygon(np.column_stack([self._xs + dx, self._ys + dy]))

    def scaled(self, factor: float) -> "Polygon":
        """Polygon scaled about its centroid."""
        if factor <= 0:
            raise GeometryError("scale factor must be positive")
        cx, cy = self.centroid()
        return Polygon(
            np.column_stack(
                [(self._xs - cx) * factor + cx, (self._ys - cy) * factor + cy]
            )
        )

    # -- factories -----------------------------------------------------------

    @classmethod
    def from_box(cls, box: BoundingBox) -> "Polygon":
        """Rectangle polygon covering ``box`` (rectangles are just
        constrained polygons, as the paper notes in Section 4.2)."""
        return cls(list(box.corners()))

    @classmethod
    def regular(cls, cx: float, cy: float, radius: float, sides: int, phase: float = 0.0) -> "Polygon":
        """Regular ``sides``-gon centred at (cx, cy)."""
        if sides < 3:
            raise GeometryError("a regular polygon needs at least 3 sides")
        angles = phase + np.linspace(0.0, 2.0 * math.pi, sides, endpoint=False)
        return cls(np.column_stack([cx + radius * np.cos(angles), cy + radius * np.sin(angles)]))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Polygon(n={self.num_vertices}, bbox={self._bbox})"


class MultiPolygon:
    """A union of disjoint simple polygons.

    Used for query regions assembled from several parts (e.g. a state
    with islands in the synthetic tessellations).
    """

    __slots__ = ("_parts", "_bbox")

    def __init__(self, parts: Sequence[Polygon]) -> None:
        if not parts:
            raise GeometryError("a multipolygon needs at least one part")
        self._parts = list(parts)
        bbox = parts[0].bounding_box
        for part in parts[1:]:
            bbox = bbox.union(part.bounding_box)
        self._bbox = bbox

    @property
    def parts(self) -> list[Polygon]:
        return list(self._parts)

    @property
    def bounding_box(self) -> BoundingBox:
        return self._bbox

    def area(self) -> float:
        return sum(part.area() for part in self._parts)

    def contains_point(self, x: float, y: float) -> bool:
        return any(part.contains_point(x, y) for part in self._parts)

    def contains_points(self, px: np.ndarray, py: np.ndarray) -> np.ndarray:
        mask = np.zeros(np.asarray(px).shape, dtype=bool)
        for part in self._parts:
            mask |= part.contains_points(px, py)
        return mask

    def count_contained(self, px: np.ndarray, py: np.ndarray) -> int:
        return int(self.contains_points(px, py).sum())


def _signed_area(xs: np.ndarray, ys: np.ndarray) -> float:
    """Shoelace signed area; positive for counter-clockwise rings."""
    shifted_x = np.roll(xs, -1)
    shifted_y = np.roll(ys, -1)
    return float((xs * shifted_y - shifted_x * ys).sum() / 2.0)
