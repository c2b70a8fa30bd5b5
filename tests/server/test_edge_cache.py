"""Unit tests of the HTTP-edge response cache: freshness states under
an injected clock, version invalidation, single-flight revalidation,
LRU bounds, counters."""

from __future__ import annotations

import threading

import pytest

from repro.server import EdgeCache, body_key

V1 = {"small": 1}
V2 = {"small": 2}


class Clock:
    """A hand-cranked monotonic clock."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture()
def clock() -> Clock:
    return Clock()


@pytest.fixture()
def cache(clock) -> EdgeCache:
    return EdgeCache(ttl=5.0, stale_ttl=30.0, max_entries=4, clock=clock)


def store(cache: EdgeCache, key: str = "k", versions=V1) -> None:
    cache.store(key, b'{"ok": true}', 200, versions)


class TestBodyKey:
    def test_depends_on_path_and_body(self):
        assert body_key("/query", b"abc") == body_key("/query", b"abc")
        assert body_key("/query", b"abc") != body_key("/query", b"abd")
        assert body_key("/query", b"abc") != body_key("/other", b"abc")

    def test_raw_bytes_not_parsed_json(self):
        """Whitespace-different bodies are distinct keys by design: the
        edge must never parse a body to decide equality."""
        assert body_key("/query", b'{"a": 1}') != body_key("/query", b'{"a":1}')


class TestFreshness:
    def test_fresh_hit_within_ttl(self, cache, clock):
        store(cache)
        clock.now += 5.0  # inclusive boundary
        state, entry = cache.lookup("k", V1)
        assert state == "hit"
        assert entry.body == b'{"ok": true}'
        assert cache.hits == 1

    def test_stale_between_ttl_and_stale_window(self, cache, clock):
        store(cache)
        clock.now += 5.1
        state, entry = cache.lookup("k", V1)
        assert state == "stale"
        assert entry is not None
        assert cache.stale_served == 1

    def test_expired_past_stale_window_is_miss(self, cache, clock):
        store(cache)
        clock.now += 35.1
        state, entry = cache.lookup("k", V1)
        assert state == "miss"
        assert entry is None
        assert len(cache) == 0  # expired entries are dropped

    def test_unknown_key_is_miss(self, cache):
        assert cache.lookup("nope", V1) == ("miss", None)
        assert cache.misses == 1


class TestVersionInvalidation:
    def test_version_bump_kills_fresh_entry(self, cache):
        """The same version bump that invalidates the result tier kills
        the edge entry -- no TTL grace for stale data."""
        store(cache, versions=V1)
        state, entry = cache.lookup("k", V2)
        assert state == "miss"
        assert entry is None
        assert cache.invalidated == 1
        assert len(cache) == 0

    def test_new_dataset_in_registry_invalidates(self, cache):
        store(cache, versions=V1)
        state, _ = cache.lookup("k", {"small": 1, "other": 1})
        assert state == "miss"
        assert cache.invalidated == 1

    def test_matching_versions_still_hit(self, cache):
        store(cache, versions=V1)
        assert cache.lookup("k", dict(V1))[0] == "hit"


class TestBounds:
    def test_lru_eviction_at_capacity(self, cache):
        for index in range(6):  # max_entries=4
            store(cache, key=f"k{index}")
        assert len(cache) == 4
        assert cache.evictions == 2
        assert cache.lookup("k0", V1)[0] == "miss"  # oldest went first
        assert cache.lookup("k5", V1)[0] == "hit"

    def test_hit_refreshes_lru_position(self, cache):
        for index in range(4):
            store(cache, key=f"k{index}")
        cache.lookup("k0", V1)  # touch the oldest
        store(cache, key="k4")  # evicts k1, not k0
        assert cache.lookup("k0", V1)[0] == "hit"
        assert cache.lookup("k1", V1)[0] == "miss"

    def test_constructor_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            EdgeCache(ttl=-1.0)
        with pytest.raises(ValueError):
            EdgeCache(max_entries=0)


class TestRevalidation:
    def test_single_flight_per_key(self, cache):
        release = threading.Event()
        started = threading.Event()

        def recompute() -> None:
            started.set()
            release.wait(timeout=10)
            store(cache)

        assert cache.revalidate("k", recompute) is True
        started.wait(timeout=10)
        # A second stale hit of the same key while in flight: no thread.
        assert cache.revalidate("k", lambda: None) is False
        assert cache.revalidations == 1
        release.set()
        deadline = threading.Event()
        for _ in range(100):
            if cache.lookup("k", V1)[0] == "hit":
                break
            deadline.wait(0.05)
        assert cache.lookup("k", V1)[0] == "hit"

    @pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_marker_clears_after_failure(self, cache):
        def explode() -> None:
            raise RuntimeError("recompute failed")

        assert cache.revalidate("k", explode) is True
        for _ in range(100):
            if "k" not in cache._revalidating:
                break
            threading.Event().wait(0.05)
        # The in-flight marker cleared, so the key can revalidate again.
        assert cache.revalidate("k", lambda: None) is True


class TestMaintenance:
    def test_clear_keeps_counters(self, cache):
        store(cache)
        cache.lookup("k", V1)
        assert cache.clear() == 1
        assert len(cache) == 0
        assert cache.hits == 1

    def test_stats_shape_and_hit_rate(self, cache, clock):
        store(cache)
        cache.lookup("k", V1)  # hit
        clock.now += 6.0
        cache.lookup("k", V1)  # stale (still counts as served)
        cache.lookup("zzz", V1)  # miss
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["stale_served"] == 1
        assert stats["misses"] == 1
        assert stats["hit_rate"] == pytest.approx(2 / 3)
        assert stats["entries"] == 1
        assert stats["ttl_s"] == 5.0
