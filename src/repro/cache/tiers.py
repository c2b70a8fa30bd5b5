"""The tiered, process-wide query cache.

Two bounded, thread-safe LRU tiers:

* the **covering tier** holds region-derived planner artifacts -- one
  covering per ``(cell space, region fingerprint, level)`` and one
  interior rectangle per ``(cell space, region fingerprint)`` -- shared
  by every planner in the process, so datasets, filtered views, shards,
  and baselines covering the same polygon at the same level share one
  entry;
* the **result tier** holds exact :class:`~repro.engine.executor.QueryResult`
  objects keyed by ``(dataset token, version, region fingerprint,
  aggregate spec, predicate key, execution hints)``, short-circuiting
  covering *and* execution on repeat queries.

Invalidation is version-based and lazy: the dataset version is part of
every result key, so an append (which bumps the version) makes all
prior entries unreachable; the LRU bound reclaims them.  Nothing is
eagerly swept on the write path.

All tier operations take one lock per call (plain dict/OrderedDict
mutation underneath), so handles are safe to share across the threads
of any threaded serving adapter.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

#: Default entry bounds per tier.  Serving workloads in the paper query
#: a few hundred distinct polygons; the defaults keep every covering
#: and hot result of several concurrent workloads resident.
DEFAULT_COVERING_ENTRIES = 4096
DEFAULT_RESULT_ENTRIES = 8192

#: Sentinel distinguishing "not cached" from a cached ``None`` value
#: (degenerate regions legitimately derive a ``None`` interior rect).
MISSING = object()


@dataclass(frozen=True)
class CacheConfig:
    """Sizing knobs of one :class:`TieredCache`.

    ``result_entries=0`` disables the result tier outright (probes
    always miss, fills are dropped); the covering tier cannot be
    disabled, only bounded -- covering reuse is value-preserving by
    construction and never needs an off switch.
    """

    covering_entries: int = DEFAULT_COVERING_ENTRIES
    result_entries: int = DEFAULT_RESULT_ENTRIES

    def __post_init__(self) -> None:
        if self.covering_entries < 1:
            raise ValueError("covering tier needs at least one entry")
        if self.result_entries < 0:
            raise ValueError("result tier entries must be >= 0 (0 disables it)")


class CacheTier:
    """One bounded, thread-safe LRU tier with hit/miss/eviction/bytes
    telemetry.

    ``max_entries=0`` makes the tier inert: every ``get`` misses and
    every ``put`` is dropped (the disabled result tier).
    """

    __slots__ = ("name", "_entries", "_max_entries", "_lock", "hits", "misses", "evictions", "_bytes")

    def __init__(self, name: str, max_entries: int) -> None:
        if max_entries < 0:
            raise ValueError("cache tier capacity must be >= 0")
        self.name = name
        self._entries: OrderedDict[object, tuple[object, int]] = OrderedDict()
        self._max_entries = max_entries
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def max_entries(self) -> int:
        return self._max_entries

    @property
    def nbytes(self) -> int:
        """Approximate bytes held by cached values."""
        with self._lock:
            return self._bytes

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def get(self, key: object, default: object = None) -> object:
        with self._lock:
            if self._max_entries == 0:
                # Disabled tier: stay silent, like a disabled scope --
                # an ever-growing miss count would read as cache thrash
                # on dashboards rather than "tier off".
                return default
            entry = self._entries.get(key, MISSING)
            if entry is MISSING:
                self.misses += 1
                return default
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[0]

    def put(self, key: object, value: object, nbytes: int = 0) -> None:
        with self._lock:
            if self._max_entries == 0:
                return
            old = self._entries.get(key)
            if old is not None:
                self._bytes -= old[1]
            self._entries[key] = (value, nbytes)
            self._entries.move_to_end(key)
            self._bytes += nbytes
            while len(self._entries) > self._max_entries:
                _, (_, dropped) = self._entries.popitem(last=False)
                self._bytes -= dropped
                self.evictions += 1

    def drop(self, predicate) -> int:  # noqa: ANN001 - key -> bool
        """Eagerly remove every entry whose key satisfies ``predicate``;
        returns how many were dropped (counted as evictions)."""
        with self._lock:
            doomed = [key for key in self._entries if predicate(key)]
            for key in doomed:
                _, nbytes = self._entries.pop(key)
                self._bytes -= nbytes
                self.evictions += 1
            return len(doomed)

    def clear(self) -> None:
        """Drop all entries and reset the telemetry counters."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def stats(self) -> dict:
        """JSON-compatible telemetry snapshot."""
        with self._lock:
            entries = len(self._entries)
            nbytes = self._bytes
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": entries,
            "bytes": nbytes,
            "hit_rate": self.hits / total if total else 0.0,
        }


class TieredCache:
    """The covering + result tier pair one process (or one service,
    when configured privately) shares."""

    __slots__ = ("config", "coverings", "results")

    def __init__(self, config: CacheConfig | None = None) -> None:
        self.config = config or CacheConfig()
        self.coverings = CacheTier("covering", self.config.covering_entries)
        self.results = CacheTier("result", self.config.result_entries)

    def invalidate_dataset(self, token: int) -> int:
        """Eagerly drop every result-tier entry of dataset ``token``
        (all versions, all views).  The lazy version-key invalidation
        makes this optional; it exists as the explicit hook for
        operators reclaiming memory after bulk writes."""
        return self.results.drop(lambda key: key[0] == token)

    def clear(self) -> None:
        self.coverings.clear()
        self.results.clear()

    def stats(self) -> dict:
        """Telemetry of both tiers (the ``GeoService.stats()`` payload)."""
        return {"covering": self.coverings.stats(), "result": self.results.stats()}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TieredCache(coverings={len(self.coverings)}/{self.coverings.max_entries}, "
            f"results={len(self.results)}/{self.results.max_entries})"
        )


# -- the process-wide shared instance ------------------------------------

_shared = TieredCache()
_shared_lock = threading.Lock()


def get_cache() -> TieredCache:
    """The process-wide shared cache every planner and dataset uses
    unless explicitly bound to a private one."""
    return _shared


def set_cache(cache: TieredCache) -> TieredCache:
    """Replace the process-wide shared cache (returns the new one).

    Components that already resolved the old instance keep it; this is
    a process-startup configuration hook, not a live swap.
    """
    global _shared
    with _shared_lock:
        _shared = cache
    return _shared


def configure(
    covering_entries: int = DEFAULT_COVERING_ENTRIES,
    result_entries: int = DEFAULT_RESULT_ENTRIES,
) -> TieredCache:
    """Rebuild the process-wide cache with new bounds.

    Call at process startup, *before* building blocks or datasets:
    like :func:`set_cache`, this replaces the shared instance, and
    components constructed earlier keep the one they already resolved.
    (:func:`reset_cache` by contrast clears the current instance in
    place and affects everyone at any time.)
    """
    return set_cache(TieredCache(CacheConfig(covering_entries, result_entries)))


def reset_cache() -> TieredCache:
    """Clear the shared cache in place (test isolation helper): every
    component that already holds the instance sees the empty state."""
    _shared.clear()
    return _shared
