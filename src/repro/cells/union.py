"""Cell unions: sorted, disjoint collections of cells of mixed levels.

A cell covering (Section 3.1/3.2 of the paper) is represented as a
:class:`CellUnion`.  The union keeps its cells sorted by id -- the same
order as GeoBlock aggregates -- and offers the pruning and range
operations Listing 1 and Listing 2 rely on.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from repro.cells import cellid
from repro.errors import CellError


class CellUnion:
    """An immutable, sorted set of disjoint cells."""

    __slots__ = ("_ids", "_range_min", "_range_max")

    def __init__(self, ids: Iterable[int] | np.ndarray, *, assume_sorted: bool = False) -> None:
        arr = np.asarray(list(ids) if not isinstance(ids, np.ndarray) else ids, dtype=np.int64)
        if not assume_sorted:
            arr = np.sort(arr)
        self._ids = arr
        self._range_min = cellid.range_min(arr)
        self._range_max = cellid.range_max(arr)
        if arr.size > 1 and bool((self._range_min[1:] <= self._range_max[:-1]).any()):
            raise CellError("cell union cells must be disjoint")

    # -- basic container protocol ------------------------------------------

    def __len__(self) -> int:
        return int(self._ids.size)

    def __iter__(self) -> Iterator[int]:
        return iter(self._ids.tolist())

    def __bool__(self) -> bool:
        return self._ids.size > 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CellUnion):
            return NotImplemented
        return self._ids.shape == other._ids.shape and bool((self._ids == other._ids).all())

    def __hash__(self) -> int:
        return hash(self._ids.tobytes())

    @property
    def ids(self) -> np.ndarray:
        """Sorted raw ids (read-only view)."""
        view = self._ids.view()
        view.flags.writeable = False
        return view

    @property
    def range_mins(self) -> np.ndarray:
        view = self._range_min.view()
        view.flags.writeable = False
        return view

    @property
    def range_maxs(self) -> np.ndarray:
        view = self._range_max.view()
        view.flags.writeable = False
        return view

    # -- structure -----------------------------------------------------------

    def levels(self) -> np.ndarray:
        """Level of every cell in the union."""
        return cellid.level_of(self._ids)

    def max_level(self) -> int:
        """Finest level present (drives the error bound of a covering)."""
        if not len(self):
            raise CellError("empty cell union has no levels")
        return int(self.levels().max())

    # -- pruning (Listing 1, lines 5-6) ----------------------------------------

    def prune_outside(self, min_id: int, max_id: int) -> "CellUnion":
        """Drop cells that cannot overlap the leaf-id range [min_id, max_id].

        This is the query algorithm's initial pruning against the
        GeoBlock's global header (minimum / maximum cell id).
        """
        keep = (self._range_max >= min_id) & (self._range_min <= max_id)
        return CellUnion(self._ids[keep], assume_sorted=True)

    # -- membership ---------------------------------------------------------------

    def contains_leaves(self, leaf_ids: np.ndarray) -> np.ndarray:
        """Vectorised leaf membership (used for ground-truth accounting)."""
        leaf_ids = np.asarray(leaf_ids, dtype=np.int64)
        if self._ids.size == 0:
            return np.zeros(leaf_ids.shape, dtype=bool)
        index = np.searchsorted(self._range_min, leaf_ids, side="right") - 1
        valid = index >= 0
        result = np.zeros(leaf_ids.shape, dtype=bool)
        clipped = np.where(valid, index, 0)
        result[valid] = leaf_ids[valid] <= self._range_max[clipped][valid]
        return result

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if not len(self):
            return "CellUnion(empty)"
        return f"CellUnion(n={len(self)}, levels={sorted(set(self.levels().tolist()))})"

