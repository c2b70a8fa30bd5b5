"""Query planning: from a region (or pre-computed union) to a QueryPlan.

The planner owns everything that happens *before* an index structure is
probed: polygon covering, pruning against a block's global header
(Listing 1, lines 5-6), and -- for query-cache accelerated blocks --
the per-cell AggregateTrie probe decisions of Figure 8.  The resulting
:class:`QueryPlan` is a pure description of the work; the
:mod:`repro.engine.executor` carries it out.

Coverings (and the interior rectangles of the aR-tree / PH-tree
approximation) are served from the process-wide covering tier of
:mod:`repro.cache`: entries are keyed by ``(cell space, region
fingerprint, level)``, so every planner in the process -- one per
block, view, shard partition, or baseline -- shares one bounded LRU,
and a polygon parsed fresh from a wire payload hits the covering a
previous request computed.  The tier is thread-safe, so planners may be
driven from a threaded serving adapter without coordination.

Separating the covering/planning step from the probe step follows the
adaptive-join design of Kipf et al.: each side can be specialised (the
planner caches and batches, the executor vectorises) without
the other noticing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.tiers import MISSING, TieredCache, get_cache
from repro.cells import cellid
from repro.cells.coverer import RegionCoverer
from repro.cells.fingerprint import region_fingerprint
from repro.cells.space import CellSpace
from repro.cells.union import CellUnion
from repro.core.header import GlobalHeader
from repro.core.trie import AggregateTrie, TrieProbe
from repro.geometry.bbox import BoundingBox
from repro.geometry.interior import interior_box
from repro.geometry.relate import Region

#: Anything a query can be issued against: a polygonal region or a
#: pre-computed covering.
QueryTarget = Region | CellUnion

#: Tag distinguishing interior-rectangle entries from coverings in the
#: shared covering tier (levels are non-negative, so -1 cannot collide).
_RECT_TAG = -1


@dataclass(slots=True)
class QueryPlan:
    """Everything the executor needs to answer one query.

    ``union`` is the covering *after* pruning against the block header.
    ``probes`` carries the per-covering-cell cache decisions (aligned
    with ``union.ids``) when the plan targets a query-cache accelerated
    block, and is ``None`` for plain blocks.  ``from_cache`` records
    whether the covering was served by the shared covering tier (the
    covering-cache hit rate reported by the serving stats).

    Plans are treated as immutable descriptions; the class is not
    frozen only because plans sit on the per-query hot path and
    frozen-dataclass construction costs a ``__setattr__`` round-trip
    per field.
    """

    union: CellUnion
    probes: tuple[TrieProbe, ...] | None = None
    from_cache: bool = False

    @property
    def num_cells(self) -> int:
        return len(self.union)


class Planner:
    """Turns query targets into :class:`QueryPlan` objects.

    One planner serves one spatial structure: it knows the structure's
    cell space and covering level and holds a handle on the (by default
    process-wide) tiered cache.  Rectangle-based structures (aR-tree,
    PH-tree) use the same planner for their interior-rectangle
    approximation, which shares the covering tier and the warm-up
    contract of the covering path.
    """

    def __init__(
        self,
        space: CellSpace,
        level: int | None = None,
        cache: TieredCache | None = None,
    ) -> None:
        self._space = space
        self._level = level
        self._coverer = RegionCoverer(space)
        self._cache = cache if cache is not None else get_cache()

    # -- accessors -------------------------------------------------------

    @property
    def space(self) -> CellSpace:
        return self._space

    @property
    def level(self) -> int | None:
        return self._level

    @property
    def cache(self) -> TieredCache:
        """The tiered cache this planner resolves coverings through."""
        return self._cache

    def use_cache(self, cache: TieredCache) -> None:
        """Re-point this planner at another tiered cache (per-service
        configuration hook); previously cached coverings stay behind."""
        self._cache = cache

    # -- coverings -------------------------------------------------------

    def covering(self, region: Region, level: int | None = None) -> CellUnion:
        """Error-bounded covering of ``region``, served from the shared
        covering tier."""
        union, _ = self._covering_with_origin(region, level)
        return union

    def _covering_with_origin(
        self, region: Region, level: int | None = None
    ) -> tuple[CellUnion, bool]:
        """Covering plus whether it was served from the covering tier."""
        resolved = self._level if level is None else level
        if resolved is None:
            raise ValueError("planner has no covering level configured")
        key = (self._space, region_fingerprint(region), resolved)
        tier = self._cache.coverings
        cached = tier.get(key)
        if cached is not None:
            return cached, True
        union = self._coverer.covering(region, resolved)
        tier.put(key, union, nbytes=union.ids.nbytes)
        return union, False

    def warm(self, region: Region) -> None:
        """Populate the covering cache without planning a query.

        The experiment harness warms all competitors before timing so
        that the measured runtimes isolate probing + aggregation
        (polygon covering is shared work, negligible in the paper's
        C++/S2 stack).
        """
        if self._level is not None:
            self.covering(region)
        else:
            self.interior_rect(region)

    # -- interior rectangles (aR-tree / PH-tree approximation) -----------

    def interior_rect(self, region: Region) -> BoundingBox | None:
        """Largest-known interior rectangle of ``region``, cached in the
        covering tier under the rectangle tag.

        A degenerate region may legitimately derive ``None``, so misses
        are distinguished with a sentinel rather than ``None``.
        """
        if isinstance(region, BoundingBox):
            return region
        key = (self._space, region_fingerprint(region), _RECT_TAG)
        tier = self._cache.coverings
        cached = tier.get(key, default=MISSING)
        if cached is not MISSING:
            return cached  # type: ignore[return-value]
        rect = interior_box(region)
        tier.put(key, rect, nbytes=48)
        return rect

    # -- planning --------------------------------------------------------

    def plan(
        self,
        target: QueryTarget,
        header: GlobalHeader | None = None,
        trie: AggregateTrie | None = None,
    ) -> QueryPlan:
        """Plan one query: cover, prune, decide cache probes.

        ``header`` enables the global-header pruning of Listing 1 (an
        empty block short-circuits to an empty plan).  ``trie`` attaches
        Figure 8's per-cell cache-probe decisions for the adaptive
        query path.
        """
        from_cache = False
        if isinstance(target, CellUnion):
            union = target
        else:
            union, from_cache = self._covering_with_origin(target)
        if header is not None:
            if header.is_empty:
                union = CellUnion(np.empty(0, dtype=np.int64))
            else:
                union = union.prune_outside(
                    cellid.range_min(header.min_cell),
                    cellid.range_max(header.max_cell),
                )
        probes: tuple[TrieProbe, ...] | None = None
        if trie is not None:
            probes = tuple(trie.probe(cell) for cell in union.ids.tolist())
        return QueryPlan(union=union, probes=probes, from_cache=from_cache)
