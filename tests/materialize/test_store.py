"""Store bookkeeping and the explicit-admission contract."""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.api import Dataset, QueryRequest, TieredCache
from repro.cells import EARTH
from repro.engine.executor import QueryResult
from repro.geometry import Polygon
from repro.materialize import MaterializedStore, MaterializedView
from repro.storage import PointTable, Schema, extract

LEVEL = 14

REGION = Polygon([(-74.05, 40.65), (-73.85, 40.63), (-73.82, 40.80), (-74.02, 40.82)])


def make_base(count=4000, seed=55):
    rng = np.random.default_rng(seed)
    table = PointTable(
        Schema(["fare", "distance"]),
        rng.normal(-73.95, 0.04, count),
        rng.normal(40.75, 0.03, count),
        {"fare": rng.gamma(3.0, 4.0, count), "distance": rng.gamma(2.0, 2.0, count)},
    )
    return extract(table, EARTH)


def make_dataset(kind="geoblock", **kwargs):
    kwargs.setdefault("cache", TieredCache())
    return Dataset.build(make_base(), LEVEL, kind, name="taxi", **kwargs)


def stub_view(name, key):
    from repro.cells.union import CellUnion

    return MaterializedView(
        name=name,
        region=REGION,
        aggs=(),
        trie_hint=False,
        count_only=True,
        key=key,
        covering=CellUnion(np.asarray([3], dtype=np.int64)),
        records=None,
        result=QueryResult(values={}, count=0),
        version=1,
    )


class TestStoreBookkeeping:
    def test_store_takes_no_arguments(self):
        assert list(inspect.signature(MaterializedStore).parameters) == []

    def test_duplicate_key_and_name_raise(self):
        store = MaterializedStore()
        store.admit(stub_view("a", key=("k",)))
        with pytest.raises(KeyError):
            store.admit(stub_view("b", key=("k",)))
        with pytest.raises(KeyError):
            store.admit(stub_view("a", key=("other",)))

    def test_drop_and_clear(self):
        store = MaterializedStore()
        store.admit(stub_view("a", key=("a",)))
        assert store.drop("missing") is None
        assert store.drop("a").name == "a"
        store.admit(stub_view("b", key=("b",)))
        assert store.clear() == 1
        assert len(store) == 0

    def test_stats_shape(self):
        store = MaterializedStore()
        store.admit(stub_view("a", key=("a",)))
        stats = store.stats()
        assert stats["views"] == 1
        assert stats["admissions"] == 1
        assert stats["bytes"] > 0


def distinct_requests(count):
    """``count`` requests with pairwise distinct regions."""
    return [
        QueryRequest(
            region=Polygon(
                [
                    (-74.00 + 0.002 * index, 40.70),
                    (-73.95 + 0.002 * index, 40.70),
                    (-73.95 + 0.002 * index, 40.76),
                    (-74.00 + 0.002 * index, 40.76),
                ]
            ),
            dataset="taxi",
            aggregates=("count", "sum:fare"),
        )
        for index in range(count)
    ]


class TestExplicitAdmissionOnly:
    def request(self):
        return QueryRequest(
            region=REGION, dataset="taxi", aggregates=("count", "sum:fare")
        )

    @pytest.mark.parametrize("kind", ["geoblock", "sharded", "adaptive"])
    @pytest.mark.parametrize("batched", [False, True], ids=["single", "batched"])
    def test_repetition_never_creates_a_view(self, kind, batched):
        dataset = make_dataset(kind)
        requests = distinct_requests(40)
        for repeat in range(4):
            if batched:
                responses = dataset.run_batch(requests)
            else:
                responses = [dataset.query(request) for request in requests]
            for response in responses:
                assert response.stats.mv_cached == 0
                assert response.stats.result_cached == int(repeat > 0)
        assert len(dataset.materialized) == 0
        assert dataset.mv_stats()["admissions"] == 0

    @pytest.mark.parametrize("batched", [False, True], ids=["single", "batched"])
    def test_mv_hit_leaves_the_result_tier_alone(self, batched):
        cache = TieredCache()
        dataset = make_dataset(cache=cache)
        dataset.materialize(self.request(), name="hot")

        def serve():
            before = (cache.results.hits, cache.results.misses)
            if batched:
                (response,) = dataset.run_batch([self.request()])
            else:
                response = dataset.query(self.request())
            assert response.stats.mv_cached == 1
            assert response.stats.result_cached == 0
            assert (cache.results.hits, cache.results.misses) == before

        serve()
        dataset.append([{"x": -73.95, "y": 40.75, "fare": 9.0, "distance": 1.0}])
        serve()
        assert dataset.mv_stats()["admissions"] == 1

    def test_cache_off_dataset_never_admits(self):
        dataset = make_dataset(result_cache=False)
        for _ in range(5):
            assert dataset.query(self.request()).stats.mv_cached == 0
        assert len(dataset.materialized) == 0

    def test_batch_members_serve_from_views(self):
        dataset = make_dataset()
        for _ in range(5):
            dataset.run_batch([self.request()])
        assert len(dataset.materialized) == 0
        dataset.materialize(self.request(), name="hot")
        responses = dataset.run_batch([self.request()])
        assert responses[0].stats.mv_cached == 1

    def test_explicit_invalidate_clears_views(self):
        dataset = make_dataset()
        dataset.materialize(self.request(), name="hot")
        assert len(dataset.materialized) == 1
        assert dataset.invalidate_cache() == 1  # result-tier count, as before
        assert len(dataset.materialized) == 0
