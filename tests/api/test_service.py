"""GeoService parity: wire queries answer exactly like direct blocks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import ApiError, Dataset, GeoService, QueryRequest, requests_from_workload
from repro.api.errors import UNKNOWN_COLUMN, UNKNOWN_DATASET
from repro.api.geojson import region_to_geojson
from repro.core import AdaptiveGeoBlock, AggSpec, CachePolicy, GeoBlock
from repro.engine.shards import ShardedGeoBlock
from repro.workloads import base_workload

LEVEL = 14

AGGS = [
    AggSpec("count"),
    AggSpec("sum", "fare"),
    AggSpec("min", "fare"),
    AggSpec("max", "distance"),
    AggSpec("avg", "distance"),
]

AGG_STRINGS = ["count", "sum:fare", "min:fare", "max:distance", "avg:distance"]


def assert_values_equal(got: dict, want: dict) -> None:
    assert set(got) == set(want)
    for key, value in want.items():
        if np.isnan(value):
            assert np.isnan(got[key])
        else:
            assert got[key] == value


@pytest.fixture(scope="module", params=["geoblock", "sharded", "adaptive"])
def kind(request) -> str:
    return request.param


@pytest.fixture(scope="module")
def handle(kind, small_base, small_polygons):
    """One block per kind; the adaptive one is warmed and adapted so
    cache hits actually occur."""
    if kind == "geoblock":
        return GeoBlock.build(small_base, LEVEL)
    if kind == "sharded":
        block = ShardedGeoBlock.build(small_base, LEVEL, shard_count=8)
        assert block.num_shards >= 4
        return block
    adaptive = AdaptiveGeoBlock(GeoBlock.build(small_base, LEVEL), CachePolicy(threshold=0.5))
    for polygon in small_polygons:
        adaptive.select(polygon, AGGS)
    adaptive.adapt()
    return adaptive


@pytest.fixture(scope="module")
def service(handle) -> GeoService:
    geo_service = GeoService()
    geo_service.register("small", Dataset(handle))
    return geo_service


class TestSingleQueryParity:
    # Deliberately sends versionless payloads: they are read as the
    # current envelope.
    def test_json_dict_select_matches_direct(self, service, handle, small_polygons):
        for polygon in small_polygons:
            want = handle.select(polygon, AGGS)
            envelope = service.run_dict(
                {
                    "dataset": "small",
                    "region": region_to_geojson(polygon),
                    "aggregates": AGG_STRINGS,
                }
            )
            assert envelope["ok"] is True
            assert envelope["data"]["count"] == want.count
            assert_values_equal(envelope["data"]["values"], want.values)
            assert envelope["stats"]["cells_probed"] == want.cells_probed
            assert envelope["stats"]["cache"]["trie_hits"] == want.cache_hits
            assert envelope["stats"]["latency_ms"] >= 0.0

    def test_json_dict_count_matches_direct(self, service, handle, small_polygons):
        for polygon in small_polygons:
            envelope = service.run_dict(
                {
                    "dataset": "small",
                    "region": region_to_geojson(polygon),
                    "hints": {"count_only": True},
                }
            )
            assert envelope["ok"] is True
            assert envelope["data"]["count"] == handle.count(polygon)
            assert envelope["data"]["values"] == {}

    def test_fluent_matches_direct(self, service, handle, quad_polygon):
        dataset = service.dataset("small")
        want = handle.select(quad_polygon, AGGS)
        got = dataset.over(region_to_geojson(quad_polygon)).agg(*AGG_STRINGS).run()
        assert got.count == want.count
        assert_values_equal(got.values, want.values)
        assert dataset.over(region_to_geojson(quad_polygon)).count() == handle.count(quad_polygon)


class TestBatchedParity:
    def test_run_batch_matches_direct_run_batch(self, service, handle, small_polygons):
        want = handle.run_batch(small_polygons, aggs=AGGS)
        requests = [
            QueryRequest(region=polygon, aggregates=AGG_STRINGS, dataset="small")
            for polygon in small_polygons
        ]
        got = service.run_batch(requests)
        assert len(got) == len(want)
        for response, result in zip(got, want):
            assert response.count == result.count
            assert_values_equal(response.values, result.values)
            assert response.stats.cells_probed == result.cells_probed
            assert response.stats.cache_hits == result.cache_hits

    def test_run_batch_dict_wire_path(self, service, handle, small_polygons):
        payloads = [
            {"dataset": "small", "region": region_to_geojson(polygon), "aggregates": ["count"]}
            for polygon in small_polygons
        ]
        envelopes = service.run_batch_dict(payloads)
        for envelope, polygon in zip(envelopes, small_polygons):
            assert envelope["ok"] is True
            assert envelope["data"]["count"] == handle.count(polygon)

    def test_mixed_hints_batch_preserves_order(self, service, handle, small_polygons):
        requests = []
        for index, polygon in enumerate(small_polygons):
            if index % 3 == 0:
                requests.append(QueryRequest(region=polygon, dataset="small", count_only=True))
            elif index % 3 == 1:
                requests.append(
                    QueryRequest(region=polygon, dataset="small", aggregates=["sum:fare"])
                )
            else:
                requests.append(
                    QueryRequest(
                        region=polygon, dataset="small", aggregates=["count"], cache=False
                    )
                )
        responses = service.run_batch(requests)
        assert [r.count for r in responses] == [handle.count(p) for p in small_polygons]

    def test_chunked_run_batch_matches_sequential(self, handle, small_polygons):
        """Workload requests answered by ``Dataset.run_batch`` in chunks
        of five agree with sequential ``select`` (exactly on counts;
        last-ulp float drift is allowed on sharded cross-boundary sums)."""
        workload = base_workload(small_polygons, AGGS)
        want = [handle.select(query.region, list(query.aggs)) for query in workload]
        dataset = Dataset(handle)
        requests = requests_from_workload(workload)
        got = [
            response
            for start in range(0, len(requests), 5)
            for response in dataset.run_batch(requests[start : start + 5])
        ]
        assert len(got) == len(want)
        for direct, via_api in zip(want, got):
            assert via_api.count == direct.count
            for key, value in direct.values.items():
                if np.isnan(value):
                    assert np.isnan(via_api.values[key])
                else:
                    assert via_api.values[key] == pytest.approx(value, rel=1e-12)

    def test_workload_bridge(self, service, handle, small_polygons):
        workload = base_workload(small_polygons, AGGS)
        requests = requests_from_workload(workload, dataset="small")
        responses = service.run_batch(requests)
        for response, query in zip(responses, workload):
            want = handle.select(query.region, list(query.aggs))
            assert response.count == want.count


class TestHints:
    def test_cache_false_bypasses_trie(self, service, handle, small_polygons):
        polygon = small_polygons[0]
        envelope = service.run_dict(
            {
                "dataset": "small",
                "region": region_to_geojson(polygon),
                "aggregates": AGG_STRINGS,
                "hints": {"cache": False},
            }
        )
        want = handle.block.select(polygon, AGGS) if isinstance(handle, AdaptiveGeoBlock) else handle.select(polygon, AGGS)
        assert envelope["stats"]["cache"]["trie_hits"] == 0
        assert envelope["data"]["count"] == want.count
        assert_values_equal(envelope["data"]["values"], want.values)


class TestErrors:
    def test_unknown_dataset_envelope(self, service):
        envelope = service.run_dict({"dataset": "nope", "region": {"bbox": [0, 0, 1, 1]}})
        assert envelope["ok"] is False
        assert envelope["error"]["code"] == UNKNOWN_DATASET
        assert "registered" in envelope["error"]["details"]

    def test_unknown_column_envelope(self, service):
        envelope = service.run_dict(
            {
                "dataset": "small",
                "region": {"bbox": [-74.2, 40.5, -73.7, 40.95]},
                "aggregates": ["sum:surge_fee"],
            }
        )
        assert envelope["ok"] is False
        assert envelope["error"]["code"] == UNKNOWN_COLUMN

    def test_malformed_region_envelope(self, service):
        envelope = service.run_dict({"dataset": "small", "region": {"type": "Blob"}})
        assert envelope["ok"] is False
        assert envelope["error"]["code"] == "bad_region"

    def test_batch_dict_fails_whole_batch(self, service):
        payloads = [
            {"dataset": "small", "region": {"bbox": [0, 0, 1, 1]}},
            {"dataset": "small", "region": {"type": "Blob"}},
        ]
        envelopes = service.run_batch_dict(payloads)
        assert len(envelopes) == 2
        assert all(envelope["ok"] is False for envelope in envelopes)

    def test_misaddressed_request_rejected_by_dataset(self, handle, small_polygons):
        """A request naming another dataset must not silently execute
        against this one (per-dataset wire endpoints would otherwise
        return wrong-dataset results)."""
        dataset = Dataset(handle, name="taxi")
        with pytest.raises(ApiError) as excinfo:
            dataset.query(QueryRequest(region=small_polygons[0], dataset="weather"))
        assert excinfo.value.code == UNKNOWN_DATASET
        with pytest.raises(ApiError):
            dataset.run_batch([QueryRequest(region=small_polygons[0], dataset="weather")])

    def test_batch_with_unknown_dataset_executes_nothing(self, handle, small_polygons):
        """A bad dataset name fails the whole batch before any member
        runs -- otherwise adaptive datasets would record statistics for
        queries the client sees reported as failed (and re-sends)."""
        service = GeoService()
        service.register("known", Dataset(handle))
        recorded_before = (
            handle.statistics.queries_recorded
            if isinstance(handle, AdaptiveGeoBlock)
            else None
        )
        with pytest.raises(ApiError) as excinfo:
            service.run_batch(
                [
                    QueryRequest(region=small_polygons[0], dataset="known"),
                    QueryRequest(region=small_polygons[1], dataset="missing"),
                ]
            )
        assert excinfo.value.code == UNKNOWN_DATASET
        if recorded_before is not None:
            assert handle.statistics.queries_recorded == recorded_before

    def test_run_raises_outside_envelope_entry_points(self, service):
        with pytest.raises(ApiError):
            service.run({"dataset": "nope", "region": {"bbox": [0, 0, 1, 1]}})


class TestRegistry:
    def test_default_dataset_resolution(self, handle):
        service = GeoService()
        service.register("only", Dataset(handle))
        response = service.run({"region": {"bbox": [-74.2, 40.5, -73.7, 40.95]}})
        assert response.dataset == "only"

    def test_default_requires_single_dataset(self, handle):
        service = GeoService()
        service.register("a", Dataset(handle))
        service.register("b", Dataset(handle))
        with pytest.raises(ApiError) as excinfo:
            service.run({"region": {"bbox": [0, 0, 1, 1]}})
        assert excinfo.value.code == UNKNOWN_DATASET

    def test_register_bare_block_wraps(self, handle):
        service = GeoService()
        dataset = service.register("raw", handle)
        assert isinstance(dataset, Dataset)
        assert dataset.name == "raw"
        assert "raw" in service

    def test_describe_catalog(self, service, kind):
        catalog = service.describe()
        [entry] = catalog["datasets"]
        assert entry["name"] == "small"
        assert entry["kind"] == kind
        assert entry["columns"] == ["fare", "distance"]
        assert entry["tuples"] > 0


class TestPersistence:
    def test_save_open_round_trip(self, service, handle, small_polygons, tmp_path):
        dataset = service.dataset("small")
        path = tmp_path / "dataset.npz"
        dataset.save(path)
        reopened = Dataset.open(path, name="reopened")
        assert reopened.kind == dataset.kind
        for polygon in small_polygons[:4]:
            want = handle.select(polygon, AGGS)
            got = reopened.query(QueryRequest(region=polygon, aggregates=AGG_STRINGS))
            assert got.count == want.count
            assert_values_equal(got.values, want.values)
