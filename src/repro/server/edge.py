"""The HTTP-edge response cache: body-hash keyed, TTL + stale-while-
revalidate, invalidated by dataset version bumps.

This is the outermost tier of the caching architecture -- in front of
even the result tier of :mod:`repro.cache`.  Where the result tier
stores engine outcomes keyed by parsed request semantics, the edge
stores *serialized response bytes* keyed by a hash of the raw request
body, so a repeat request is answered without JSON parsing, request
validation, or routing (the memcached-fronted GeoJSON endpoint idiom).

Freshness follows the classic TTL / stale-while-revalidate split:

* within ``ttl`` seconds of being stored an entry is **fresh** -- served
  directly (``X-Cache: hit``);
* between ``ttl`` and ``ttl + stale_ttl`` it is **stale** -- still
  served (``X-Cache: stale``) so the client never waits, while the
  caller triggers one background revalidation (single-flight per key)
  that replaces the entry;
* past ``ttl + stale_ttl`` it is expired: a plain miss.

Consistency does not rely on TTL alone: every entry records the
serving datasets' version snapshot
(:meth:`repro.api.service.GeoService.versions`) at fill time, and a
lookup whose current snapshot differs treats the entry as invalidated
-- the *same* version bump an append uses to invalidate the result
tier, so the edge can never serve a pre-append body after a write, no
matter the TTL.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from collections.abc import Callable, Mapping

#: Default freshness window (seconds) -- dashboards tolerate a few
#: seconds of reuse, exactly the snippet-1 memcached TTL ballpark.
DEFAULT_TTL = 5.0

#: Default stale-while-revalidate window after the TTL expires.
DEFAULT_STALE_TTL = 30.0

#: Default entry bound; entries hold full response bodies, so the edge
#: is bounded tighter than the in-process result tier.
DEFAULT_MAX_ENTRIES = 1024


def body_key(path: str, body: bytes) -> str:
    """The cache key of one request: BLAKE2 over route + raw body.

    Hashing the raw bytes means two requests differing only in JSON
    key order or whitespace are distinct keys -- deliberately so: the
    edge must never parse a body to decide equality (that is what it
    exists to skip).  Clients that canonicalise their payloads get the
    corresponding hit rate.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(path.encode())
    digest.update(b"\x00")
    digest.update(body)
    return digest.hexdigest()


@dataclass
class EdgeEntry:
    """One cached response: the exact bytes to replay plus the
    freshness bookkeeping."""

    body: bytes
    status: int
    content_type: str
    stored_at: float
    #: Dataset versions at fill time; a mismatch at lookup time means a
    #: write happened since -- the entry is dead regardless of TTL.
    versions: dict[str, int] = field(default_factory=dict)


class EdgeCache:
    """A bounded, thread-safe LRU of serialized HTTP responses.

    ``clock`` is injectable for deterministic tests (defaults to
    :func:`time.monotonic`).  All counters are cumulative; ``stats()``
    snapshots them for the ``/stats`` endpoint.
    """

    def __init__(
        self,
        ttl: float = DEFAULT_TTL,
        stale_ttl: float = DEFAULT_STALE_TTL,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if ttl < 0 or stale_ttl < 0:
            raise ValueError("ttl and stale_ttl must be >= 0")
        if max_entries < 1:
            raise ValueError("edge cache needs at least one entry")
        self.ttl = ttl
        self.stale_ttl = stale_ttl
        self.max_entries = max_entries
        self._clock = clock
        self._entries: OrderedDict[str, EdgeEntry] = OrderedDict()
        self._revalidating: set[str] = set()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.stale_served = 0
        self.invalidated = 0
        self.evictions = 0
        self.revalidations = 0
        self.revalidation_failures = 0

    # -- lookup / store ----------------------------------------------------

    def lookup(self, key: str, versions: Mapping[str, int]) -> tuple[str, EdgeEntry | None]:
        """Probe the edge for ``key`` under the current dataset
        ``versions``; returns ``(state, entry)`` with state one of
        ``"hit"`` (fresh), ``"stale"`` (serve + revalidate), ``"miss"``.

        A version mismatch drops the entry and counts as
        ``invalidated`` (and a miss): the data moved on, so the stored
        body describes a world that no longer exists.
        """
        now = self._clock()
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return "miss", None
            if dict(entry.versions) != dict(versions):
                del self._entries[key]
                self.invalidated += 1
                self.misses += 1
                return "miss", None
            age = now - entry.stored_at
            if age <= self.ttl:
                self._entries.move_to_end(key)
                self.hits += 1
                return "hit", entry
            if age <= self.ttl + self.stale_ttl:
                self._entries.move_to_end(key)
                self.stale_served += 1
                return "stale", entry
            del self._entries[key]
            self.misses += 1
            return "miss", None

    def store(
        self,
        key: str,
        body: bytes,
        status: int,
        versions: Mapping[str, int],
        content_type: str = "application/json",
    ) -> None:
        """Cache a response (callers only store successes -- an error
        body served from cache would mask recovery)."""
        with self._lock:
            self._entries[key] = EdgeEntry(
                body=body,
                status=status,
                content_type=content_type,
                stored_at=self._clock(),
                versions=dict(versions),
            )
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    # -- stale-while-revalidate --------------------------------------------

    def revalidate(self, key: str, recompute: Callable[[], None]) -> bool:
        """Kick one background revalidation of ``key`` (single-flight:
        concurrent stale hits of the same key trigger exactly one).

        ``recompute`` runs on a daemon thread and is expected to call
        :meth:`store`; a recompute that raises stores nothing and is
        counted in ``revalidation_failures``.  The in-flight marker clears
        either way.  Returns whether a thread was actually started.
        """
        with self._lock:
            if key in self._revalidating:
                return False
            self._revalidating.add(key)
            self.revalidations += 1

        def run() -> None:
            failed = False
            try:
                recompute()
            except Exception:  # noqa: BLE001 - the stale entry keeps serving
                failed = True
            with self._lock:
                self._revalidating.discard(key)
                if failed:
                    self.revalidation_failures += 1

        thread = threading.Thread(target=run, name=f"edge-revalidate-{key[:8]}", daemon=True)
        thread.start()
        return True

    # -- maintenance --------------------------------------------------------

    def clear(self) -> int:
        """Drop every entry (counters keep accumulating); returns how
        many entries were dropped."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            return dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        """Counter snapshot for the ``/stats`` endpoint."""
        with self._lock:
            lookups = self.hits + self.misses + self.stale_served
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "stale_served": self.stale_served,
                "invalidated": self.invalidated,
                "evictions": self.evictions,
                "revalidations": self.revalidations,
                "revalidation_failures": self.revalidation_failures,
                "hit_rate": (self.hits + self.stale_served) / lookups if lookups else 0.0,
                "ttl_s": self.ttl,
                "stale_ttl_s": self.stale_ttl,
            }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"EdgeCache(entries={len(self)}, ttl={self.ttl}, "
            f"stale_ttl={self.stale_ttl})"
        )
