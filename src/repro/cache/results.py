"""The result tier's key discipline: versioned, per-dataset scopes.

A :class:`ResultCacheScope` is the handle a serving component (one
:class:`~repro.api.dataset.Dataset`, including each filtered view)
holds on the shared result tier.  It owns the key layout so every
serving path builds identical keys::

    (dataset token, predicate key, version,
     region fingerprint, aggregate key, trie hint, count_only)

* the **dataset token** is a process-unique integer allocated per root
  dataset (views share their root's token); re-registering a name or
  rebuilding a dataset allocates a fresh token, so stale handles can
  never serve the new data;
* the **predicate key** is the filter's stable render string
  (:attr:`repro.storage.expr.Predicate.key`) -- a view evicted from the
  view LRU and rebuilt later therefore *resumes* its result-cache
  entries (the rebuilt block is bit-identical by the write-path
  replay contract);
* the **version** is the mutation counter of the block's aggregates
  (:attr:`repro.core.aggregates.CellAggregates.data_version`) -- every
  in-place write bumps it, which lazily invalidates every earlier
  entry (the keys become unreachable and age out of the LRU).  It
  lives on the aggregates rather than the serving facade so that a
  write through *any* wrapper of the same block invalidates them all;
* **trie hint / count_only** pin how the answer was folded, because
  the trie-probing walk, the plain walk and the Listing 2 count path
  are distinct float-rounding sequences: a cached answer is only
  byte-identical to re-execution along the *same* path.

The cached value is the exact :class:`~repro.engine.executor.QueryResult`
the executor produced, so served answers are bit-identical to cold
execution by construction -- the cache stores outcomes, it never
recomputes them.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.cache.tiers import TieredCache, get_cache
from repro.cells.fingerprint import region_fingerprint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.aggregates import AggSpec
    from repro.engine.executor import QueryResult

#: Process-unique dataset tokens (never reused, so a replaced dataset's
#: old entries can only ever miss).
_tokens = itertools.count(1)


def new_dataset_token() -> int:
    return next(_tokens)


def aggregate_key(aggs: Sequence["AggSpec"]) -> str:
    """The aggregate list as a stable key component (order preserved:
    it is the response's value ordering, part of the exact answer)."""
    return "|".join(spec.key for spec in aggs)


class ResultCacheScope:
    """One dataset's (or view's) handle on the shared result tier."""

    __slots__ = ("_cache", "token", "predicate_key", "enabled")

    def __init__(
        self,
        cache: TieredCache | None = None,
        token: int | None = None,
        predicate_key: str = "TRUE",
        enabled: bool = True,
    ) -> None:
        self._cache = cache if cache is not None else get_cache()
        self.token = token if token is not None else new_dataset_token()
        self.predicate_key = predicate_key
        self.enabled = enabled

    @property
    def cache(self) -> TieredCache:
        return self._cache

    def rebind(self, cache: TieredCache) -> None:
        """Point this scope at another tiered cache (per-service
        configuration); existing entries stay in the old cache."""
        self._cache = cache

    def derive(self, predicate_key: str) -> "ResultCacheScope":
        """The scope of a filtered view: same token and cache, the
        view's predicate key."""
        return ResultCacheScope(
            self._cache, token=self.token, predicate_key=predicate_key, enabled=self.enabled
        )

    def key(
        self,
        target: object,
        version: int,
        agg_key: str,
        trie: bool,
        count_only: bool,
    ) -> tuple | None:
        """The full result-tier key, or ``None`` when caching cannot
        apply: the scope is disabled (don't pay the fingerprint hash on
        cache-off serving paths) or the target is a pre-computed cell
        union with no geometry to fingerprint."""
        if not self.enabled:
            return None
        try:
            fingerprint = region_fingerprint(target)
        except TypeError:
            return None
        return (
            self.token,
            self.predicate_key,
            version,
            fingerprint,
            agg_key,
            trie,
            count_only,
        )

    def probe(self, key: tuple | None) -> "QueryResult | None":
        """The cached exact result for ``key``, or ``None`` on a miss.

        A disabled scope neither probes nor records a miss, so the
        telemetry of a cache-off dataset stays silent.
        """
        if key is None or not self.enabled:
            return None
        result = self._cache.results.get(key)
        return result  # type: ignore[return-value]

    def fill(self, key: tuple | None, result: "QueryResult") -> None:
        if key is None or not self.enabled:
            return
        # Rough value footprint: the frozen dataclass, its stats, and
        # one dict slot per aggregate value.
        nbytes = 200 + 64 * len(result.values)
        self._cache.results.put(key, result, nbytes=nbytes)

    def invalidate(self) -> int:
        """Eagerly drop this dataset's entries (all versions and views
        -- the token is shared).  The version keys already invalidate
        lazily; this is the explicit memory-reclaim hook."""
        return self._cache.invalidate_dataset(self.token)
