"""Hierarchical cell decomposition: curves, ids, spaces, and coverings.

The from-scratch replacement for the Google S2 services that GeoBlocks
depends on: an order-preserving Hilbert enumeration of a quadtree
decomposition, 64-bit prefix-encoded cell ids, vectorised keying, and a
region coverer producing error-bounded polygon approximations.

:mod:`repro.cells.cellid` is the one cell-arithmetic module: each id
rule (level, position, descendant range, parent, children, key span)
is written once and takes a Python int or an int64 array of ids.
"""

from repro.cells.coverer import CovererOptions, RegionCoverer, covering_error_bound_meters
from repro.cells.fingerprint import region_fingerprint
from repro.cells.curves import HILBERT, MAX_LEVEL, MORTON, Curve, HilbertCurve, MortonCurve, curve_by_name
from repro.cells.space import EARTH, EARTH_BOUNDS, CellSpace
from repro.cells.stats import LevelStats, level_for_max_diagonal, level_stats, stats_table
from repro.cells.union import CellUnion

__all__ = [
    "EARTH",
    "EARTH_BOUNDS",
    "HILBERT",
    "MAX_LEVEL",
    "MORTON",
    "CellSpace",
    "CellUnion",
    "CovererOptions",
    "Curve",
    "HilbertCurve",
    "LevelStats",
    "MortonCurve",
    "RegionCoverer",
    "covering_error_bound_meters",
    "curve_by_name",
    "level_for_max_diagonal",
    "level_stats",
    "region_fingerprint",
    "stats_table",
]
