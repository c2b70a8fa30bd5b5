"""The result tier on the serving path: wire hits, parity, invalidation."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import Dataset, GeoService, QueryRequest, TieredCache, region_to_geojson
from repro.cells import EARTH
from repro.core import CachePolicy
from repro.storage import PointTable, Schema, extract

LEVEL = 14

AGG_STRINGS = ["count", "sum:fare", "min:fare", "max:distance", "avg:distance"]

WHERE = {"col": "fare", "op": ">=", "value": 10}


def make_base(count=8000, seed=55):
    rng = np.random.default_rng(seed)
    table = PointTable(
        Schema(["fare", "distance"]),
        rng.normal(-73.95, 0.04, count),
        rng.normal(40.75, 0.03, count),
        {"fare": rng.gamma(3.0, 4.0, count), "distance": rng.gamma(2.0, 2.0, count)},
    )
    return extract(table, EARTH)


def make_rows(count=60, seed=7):
    rng = np.random.default_rng(seed)
    return [
        {
            "x": float(x),
            "y": float(y),
            "fare": float(fare),
            "distance": float(distance),
        }
        for x, y, fare, distance in zip(
            rng.normal(-73.93, 0.06, count),
            rng.normal(40.74, 0.05, count),
            rng.gamma(3.0, 4.0, count),
            rng.gamma(2.0, 2.0, count),
        )
    ]


def rebuilt_base(base, rows):
    table = base.table
    xs = np.concatenate([table.xs, [row["x"] for row in rows]])
    ys = np.concatenate([table.ys, [row["y"] for row in rows]])
    columns = {
        name: np.concatenate([table.column(name), [row[name] for row in rows]])
        for name in table.schema.names
    }
    return extract(PointTable(table.schema, xs, ys, columns), EARTH)


def build_dataset(base, kind, **kwargs):
    if kind == "adaptive":
        kwargs.setdefault("policy", CachePolicy(threshold=0.5))
    elif kind == "sharded":
        kwargs.setdefault("shard_count", 8)
    dataset = Dataset.build(base, LEVEL, kind, name="taxi", **kwargs)
    if kind == "sharded":
        assert dataset.handle.num_shards >= 4
    return dataset


def assert_identical(got, want) -> None:
    assert got.count == want.count
    assert set(got.values) == set(want.values)
    for key, value in want.values.items():
        if np.isnan(value):
            assert np.isnan(got.values[key])
        else:
            assert got.values[key] == value  # bit-identical, no approx


@pytest.fixture(params=["geoblock", "sharded", "adaptive"])
def kind(request) -> str:
    return request.param


def wire_payload(polygon) -> dict:
    """A fresh wire dict each call -- the JSON round-trip guarantees no
    object identity survives, exactly like a real HTTP request."""
    return json.loads(
        json.dumps(
            {
                "v": 2,
                "dataset": "taxi",
                "region": region_to_geojson(polygon),
                "aggregates": AGG_STRINGS,
            }
        )
    )


class TestWireRepeats:
    def test_identical_wire_payload_hits_both_tiers(self, kind, quad_polygon):
        """The acceptance scenario: re-sending the same GeoJSON (fresh
        parse each time) serves from the result tier with byte-identical
        values -- identity keys gave 0% here."""
        service = GeoService(cache=TieredCache())
        service.register("taxi", build_dataset(make_base(), kind))
        first = service.run_dict(wire_payload(quad_polygon))
        second = service.run_dict(wire_payload(quad_polygon))
        assert first["ok"] and second["ok"]
        assert first["stats"]["cache"]["result_cached"] == 0
        assert second["stats"]["cache"]["result_cached"] == 1
        assert second["data"] == first["data"]
        stats = service.stats()
        assert stats["cache"]["result"]["hits"] == 1
        assert stats["cache"]["covering"]["hits"] == 0  # result hit skips covering

    @pytest.mark.parametrize("tier", ["covering", "result"])
    def test_sixteen_sends_hit_fifteen_times(self, tier, small_polygons):
        """Six polygons re-sent 16 times, each send freshly parsed: the
        tier under test hits on every send but the first (15/16), and
        every repeat answers exactly like the first send."""
        service = GeoService(cache=TieredCache(), result_cache=tier == "result")
        service.register("taxi", build_dataset(make_base(), "geoblock"))
        first = [service.run_dict(wire_payload(polygon)) for polygon in small_polygons[:6]]
        for _ in range(15):
            for polygon, want in zip(small_polygons[:6], first):
                got = service.run_dict(wire_payload(polygon))
                assert got["ok"]
                assert json.dumps(got["data"]) == json.dumps(want["data"])
        assert service.stats()["cache"][tier]["hit_rate"] == 15 / 16

    def test_fresh_polygon_objects_share_covering_tier(self, quad_polygon):
        """Distinct aggregate lists miss the result tier but still share
        the covering computed by the first request."""
        service = GeoService(cache=TieredCache())
        service.register("taxi", build_dataset(make_base(), "geoblock"))
        service.run_dict(wire_payload(quad_polygon))
        other = wire_payload(quad_polygon)
        other["aggregates"] = ["count"]
        envelope = service.run_dict(other)
        assert envelope["stats"]["cache"]["result_cached"] == 0
        assert envelope["stats"]["cache"]["covering_cached"] == 1

    def test_count_only_and_select_do_not_collide(self, quad_polygon):
        service = GeoService(cache=TieredCache())
        service.register("taxi", build_dataset(make_base(), "geoblock"))
        select = wire_payload(quad_polygon)
        count = wire_payload(quad_polygon)
        count["hints"] = {"count_only": True}
        first = service.run_dict(select)
        counted = service.run_dict(count)
        assert counted["stats"]["cache"]["result_cached"] == 0
        assert counted["data"]["values"] == {}
        assert counted["data"]["count"] == first["data"]["count"]
        # And the count path caches independently.
        again = service.run_dict(count)
        assert again["stats"]["cache"]["result_cached"] == 1
        assert again["data"]["count"] == counted["data"]["count"]

    def test_run_batch_members_probe_the_result_tier(self, small_polygons):
        service = GeoService(cache=TieredCache())
        service.register("taxi", build_dataset(make_base(), "geoblock"))
        requests = [
            QueryRequest(region=polygon, aggregates=AGG_STRINGS, dataset="taxi")
            for polygon in small_polygons[:4]
        ]
        cold = service.run_batch(requests)
        warm = service.run_batch(
            [
                QueryRequest(
                    region=json.loads(json.dumps(region_to_geojson(polygon))),
                    aggregates=AGG_STRINGS,
                    dataset="taxi",
                )
                for polygon in small_polygons[:4]
            ]
        )
        for want, got in zip(cold, warm):
            assert got.stats.result_cached == 1
            assert_identical(got, want)


class TestCacheOnOffParity:
    def test_cached_answers_equal_uncached_execution(self, kind, small_polygons):
        """The acceptance gate: with the result tier on, warm answers
        are bit-identical to a cache-off dataset over the same data, on
        every block kind."""
        base = make_base()
        cached = build_dataset(base, kind, cache=TieredCache())
        uncached = build_dataset(base, kind, result_cache=False)
        for polygon in small_polygons:
            request = QueryRequest(region=polygon, aggregates=AGG_STRINGS)
            cold = cached.query(request)
            warm = cached.query(
                QueryRequest(
                    region=json.loads(json.dumps(region_to_geojson(polygon))),
                    aggregates=AGG_STRINGS,
                )
            )
            plain = uncached.query(request)
            assert warm.stats.result_cached == 1
            assert_identical(warm, cold)
            assert_identical(warm, plain)

    def test_result_cache_off_never_probes(self, quad_polygon):
        cache = TieredCache()
        dataset = build_dataset(make_base(), "geoblock", cache=cache, result_cache=False)
        request = QueryRequest(region=quad_polygon, aggregates=AGG_STRINGS)
        dataset.query(request)
        dataset.query(request)
        assert len(cache.results) == 0
        assert cache.results.hits == 0 and cache.results.misses == 0


class TestInvalidation:
    def test_append_invalidates_and_matches_cold_rebuild(self, kind, small_polygons):
        """Warm the result tier, append, re-query: every answer must be
        bit-identical to a cold-cache rebuild over the combined rows --
        served stale entries would fail exactly here."""
        base = make_base()
        dataset = build_dataset(base, kind, cache=TieredCache())
        rows = make_rows()
        requests = [
            QueryRequest(region=polygon, aggregates=AGG_STRINGS)
            for polygon in small_polygons[:6]
        ]
        warmed = [dataset.query(request) for request in requests]
        for request, want in zip(requests, warmed):
            hit = dataset.query(request)
            assert hit.stats.result_cached == 1
            assert_identical(hit, want)
        dataset.append(rows)
        fresh = build_dataset(rebuilt_base(base, rows), kind, result_cache=False)
        # Uncached execution over the same mutated block: exact twin.
        twin = Dataset(dataset.handle, result_cache=False)
        for request in requests:
            got = dataset.query(request)
            assert got.stats.result_cached == 0  # version bump = lazy invalidation
            assert got.version == 2
            assert_identical(got, twin.query(request))
            want = fresh.query(request)
            assert got.count == want.count
            for key, value in want.values.items():
                if np.isnan(value):
                    assert np.isnan(got.values[key])
                else:
                    assert got.values[key] == pytest.approx(value, rel=1e-12)

    def test_append_invalidates_through_views(self, kind, small_polygons):
        """Views share the root's token and advance their version in
        lockstep, so an append invalidates the view's warm entries too."""
        base = make_base()
        dataset = build_dataset(base, kind, cache=TieredCache())
        rows = make_rows()
        request = QueryRequest(
            region=small_polygons[0], aggregates=AGG_STRINGS, where=WHERE
        )
        warm = dataset.query(request)
        hit = dataset.query(request)
        assert hit.stats.result_cached == 1
        assert_identical(hit, warm)
        dataset.append(rows)
        got = dataset.query(request)
        assert got.stats.result_cached == 0
        fresh = build_dataset(rebuilt_base(base, rows), kind, result_cache=False)
        want = fresh.query(request)
        assert got.count == want.count
        for key, value in want.values.items():
            if np.isnan(value):
                assert np.isnan(got.values[key])
            else:
                assert got.values[key] == pytest.approx(value, rel=1e-12)

    def test_append_through_another_facade_invalidates(self, quad_polygon):
        """The version key lives on the aggregates, not the serving
        facade: a second Dataset wrapping the same handle must not keep
        serving its warm entries after the first facade appends."""
        base = make_base()
        writer = build_dataset(base, "geoblock", cache=TieredCache())
        reader = Dataset(writer.handle, name="taxi", cache=TieredCache())
        request = QueryRequest(region=quad_polygon, aggregates=AGG_STRINGS)
        before = reader.query(request)
        assert reader.query(request).stats.result_cached == 1
        writer.append(make_rows(seed=3))
        after = reader.query(request)
        assert after.stats.result_cached == 0
        uncached = Dataset(writer.handle, result_cache=False).query(request)
        assert_identical(after, uncached)
        assert after.count != before.count or after.values != before.values

    def test_explicit_invalidate_drops_entries(self, quad_polygon):
        cache = TieredCache()
        service = GeoService(cache=cache)
        service.register("taxi", build_dataset(make_base(), "geoblock"))
        service.run_dict(wire_payload(quad_polygon))
        assert len(cache.results) == 1
        assert service.invalidate("taxi") == 1
        assert len(cache.results) == 0
        envelope = service.run_dict(wire_payload(quad_polygon))
        assert envelope["stats"]["cache"]["result_cached"] == 0


class TestTelemetry:
    def test_service_stats_shape(self, quad_polygon):
        service = GeoService(cache=TieredCache())
        service.register("taxi", build_dataset(make_base(), "geoblock"))
        service.run_dict(wire_payload(quad_polygon))
        service.run_dict(wire_payload(quad_polygon))
        stats = service.stats()
        for tier in ("covering", "result"):
            assert set(stats["cache"][tier]) == {
                "hits",
                "misses",
                "evictions",
                "entries",
                "bytes",
                "hit_rate",
            }
        assert stats["cache"]["result"]["entries"] == 1
        assert stats["cache"]["result"]["bytes"] > 0
        assert stats["datasets"]["taxi"] == {
            "version": 1,
            "result_cache": True,
            "materialized": 0,
            "routing": {
                "queries": 0,  # plain (unsharded) block: nothing routed
                "shards_total": 0,
                "shards_pruned": 0,
                "pruning_rate": 0.0,
            },
        }
        assert stats["mv"]["views"] == 0
        assert stats["mv"]["misses"] == 2

    def test_routing_counters_on_sharded_dataset(self, quad_polygon):
        service = GeoService(cache=TieredCache())
        service.register(
            "taxi", Dataset.build(make_base(), LEVEL, "sharded", name="taxi", shard_count=8)
        )
        first = service.run_dict(wire_payload(quad_polygon))
        assert first["ok"]
        shards = first["stats"]["shards"]
        assert shards["total"] == 8
        assert 0 <= shards["pruned"] < shards["total"]
        routing = service.stats()["datasets"]["taxi"]["routing"]
        assert routing["queries"] == 1
        assert routing["shards_total"] == 8
        assert routing["shards_pruned"] == shards["pruned"]
        assert routing["pruning_rate"] == pytest.approx(shards["pruned"] / 8)
        # A result-tier hit replays the original execution's counters but
        # does not inflate the dataset's routing totals.
        second = service.run_dict(wire_payload(quad_polygon))
        assert second["stats"]["cache"]["result_cached"] == 1
        assert second["stats"]["shards"] == shards
        assert service.stats()["datasets"]["taxi"]["routing"]["queries"] == 1

    def test_per_response_cache_block(self, quad_polygon):
        service = GeoService(cache=TieredCache())
        service.register("taxi", build_dataset(make_base(), "geoblock"))
        envelope = service.run_dict(wire_payload(quad_polygon))
        cache_block = envelope["stats"]["cache"]
        assert set(cache_block) == {"covering_cached", "result_cached", "trie_hits"}
        assert envelope["stats"]["mv"] == {"cached": 0}
        assert "covering_cached" not in envelope["stats"]
        assert "cache_hits" not in envelope["stats"]

    def test_no_response_carries_flat_stats_keys(self, quad_polygon):
        """Versioned or versionless, single, batched or grouped: the
        stats object holds only the structured blocks."""
        service = GeoService(cache=TieredCache())
        service.register("taxi", build_dataset(make_base(), "geoblock"))
        versionless = wire_payload(quad_polygon)
        del versionless["v"]
        grouped = {
            "dataset": "taxi",
            "group_by": [{"name": "quad", "region": region_to_geojson(quad_polygon)}],
        }
        envelopes = [
            service.run_dict(wire_payload(quad_polygon)),
            service.run_dict(versionless),
            service.run_dict(grouped),
            *service.run_batch_dict([versionless, wire_payload(quad_polygon), grouped]),
            service.dataset("taxi").query_dict(versionless),
        ]
        for envelope in envelopes:
            assert envelope["ok"] is True
            assert set(envelope["stats"]) == {
                "cells_probed",
                "latency_ms",
                "cache",
                "mv",
                "shards",
            }

    def test_stats_follow_privately_bound_datasets(self, quad_polygon):
        """A dataset bound to its own cache at build time keeps it when
        registered on an unconfigured service -- and stats() must report
        that cache's traffic, not the idle process-wide one."""
        private = TieredCache()
        dataset = build_dataset(make_base(), "geoblock", cache=private)
        service = GeoService()
        service.register("taxi", dataset)
        service.run_dict(wire_payload(quad_polygon))
        service.run_dict(wire_payload(quad_polygon))
        stats = service.stats()
        assert stats["cache"]["result"]["hits"] == 1
        assert stats["cache"]["result"]["entries"] == 1
        assert dataset.cache_scope.cache is private

    def test_private_service_cache_is_isolated(self, quad_polygon):
        from repro.cache import get_cache

        service = GeoService(cache=TieredCache())
        service.register("taxi", build_dataset(make_base(), "geoblock"))
        service.run_dict(wire_payload(quad_polygon))
        assert get_cache().results.misses == 0
        assert get_cache().coverings.misses == 0
        assert service.cache.results.misses == 1
