"""Batched execution: run_batch must equal sequential vector queries."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core import AdaptiveGeoBlock, AggSpec, CachePolicy, GeoBlock
from repro.workloads.workload import Query, base_workload

AGGS = [
    AggSpec("count"),
    AggSpec("sum", "fare"),
    AggSpec("min", "fare"),
    AggSpec("max", "distance"),
    AggSpec("avg", "fare"),
]

LEVEL = 14


def assert_results_identical(sequential, batched):
    assert len(sequential) == len(batched)
    for want, got in zip(sequential, batched):
        assert got.count == want.count
        assert got.cells_probed == want.cells_probed
        assert got.cache_hits == want.cache_hits
        for key, value in want.values.items():
            if np.isnan(value):
                assert np.isnan(got.values[key])
            else:
                # Bit-identical: the batch fold follows the same order.
                assert got.values[key] == value


@pytest.fixture(scope="module")
def block(small_base) -> GeoBlock:
    return GeoBlock.build(small_base, LEVEL)


class TestPlainBlockBatch:
    def test_batch_equals_sequential(self, block, small_polygons):
        sequential = [block.select(p, AGGS) for p in small_polygons]
        batched = block.run_batch(small_polygons, aggs=AGGS)
        assert_results_identical(sequential, batched)

    def test_batch_with_repeats(self, block, small_polygons):
        """Skew shape: repeated polygons share covering and records."""
        polygons = list(small_polygons) * 5
        sequential = [block.select(p, AGGS) for p in polygons]
        batched = block.run_batch(polygons, aggs=AGGS)
        assert_results_identical(sequential, batched)

    def test_batch_accepts_query_objects(self, block, small_polygons):
        queries = [Query(region=p, aggs=tuple(AGGS)) for p in small_polygons]
        batched = block.run_batch(queries)
        sequential = [block.select(q.region, list(q.aggs)) for q in queries]
        assert_results_identical(sequential, batched)

    def test_batch_mixed_aggs(self, block, small_polygons):
        """Each query may request different output aggregates."""
        queries = [
            Query(region=p, aggs=(AGGS[i % len(AGGS)],))
            for i, p in enumerate(small_polygons)
        ]
        batched = block.run_batch(queries)
        sequential = [block.select(q.region, list(q.aggs)) for q in queries]
        assert_results_identical(sequential, batched)

    def test_empty_batch(self, block):
        assert block.run_batch([]) == []

    def test_batch_honours_scalar_mode(self, small_base, small_polygons):
        """The experiment harness's scalar model must carry through the
        batched path: results identical to sequential scalar selects."""
        block = GeoBlock.build(small_base, LEVEL)
        block.query_mode = "scalar"
        sequential = [block.select(p, AGGS) for p in small_polygons]
        batched = block.run_batch(small_polygons, aggs=AGGS)
        assert_results_identical(sequential, batched)

    def test_default_aggs_are_count(self, block, quad_polygon):
        batched = block.run_batch([quad_polygon])
        assert batched[0].count == block.select(quad_polygon).count

    def test_explicit_empty_aggs_not_replaced_by_default(self, block, quad_polygon):
        """Query(aggs=()) asks for count only, no output values; the
        batch path must not substitute the shared/default aggregates."""
        query = Query(region=quad_polygon, aggs=())
        sequential = block.select(quad_polygon, [])
        batched = block.run_batch([query], aggs=AGGS)
        assert batched[0].values == {} == sequential.values
        assert batched[0].count == sequential.count


class TestAdaptiveBatch:
    @pytest.fixture()
    def adaptive(self, small_base) -> AdaptiveGeoBlock:
        return AdaptiveGeoBlock(GeoBlock.build(small_base, LEVEL), CachePolicy(threshold=0.5))

    def test_cold_batch_equals_sequential(self, adaptive, small_polygons):
        batched = adaptive.run_batch(small_polygons, aggs=AGGS)
        # A fresh twin for the sequential reference (statistics differ).
        twin = AdaptiveGeoBlock(adaptive.block, CachePolicy(threshold=0.5))
        sequential = [twin.select(p, AGGS) for p in small_polygons]
        assert_results_identical(sequential, batched)

    def test_warm_batch_hits_cache(self, adaptive, small_polygons):
        for polygon in small_polygons:
            adaptive.select(polygon, AGGS)
        adaptive.adapt()
        sequential = [adaptive.select(p, AGGS) for p in small_polygons]
        batched = adaptive.run_batch(small_polygons, aggs=AGGS)
        assert_results_identical(sequential, batched)
        assert sum(result.cache_hits for result in batched) > 0

    def test_batch_records_statistics(self, adaptive, small_polygons):
        before = adaptive.statistics.queries_recorded
        adaptive.run_batch(small_polygons, aggs=AGGS)
        assert adaptive.statistics.queries_recorded == before + len(small_polygons)

    def test_batch_respects_rebuild_cadence(self, small_base, small_polygons):
        adaptive = AdaptiveGeoBlock(
            GeoBlock.build(small_base, LEVEL),
            CachePolicy(threshold=0.5, rebuild_every=3),
        )
        assert adaptive.trie is None
        adaptive.run_batch(small_polygons[:4], aggs=AGGS)
        assert adaptive.trie is not None


class TestWorkloadHelpers:
    def test_chunked_covers_all_queries(self, small_polygons):
        workload = base_workload(small_polygons, AGGS)
        chunks = list(workload.chunked(5))
        assert sum(len(c) for c in chunks) == len(workload)
        assert all(len(c) <= 5 for c in chunks)
        flattened = [q for chunk in chunks for q in chunk]
        assert flattened == list(workload)

    def test_chunked_rejects_bad_size(self, small_polygons):
        from repro.errors import QueryError

        workload = base_workload(small_polygons, AGGS)
        with pytest.raises(QueryError):
            list(workload.chunked(0))

    def test_distinct_regions(self, small_polygons):
        workload = base_workload(small_polygons, AGGS).repeated(3)
        assert workload.distinct_regions() == list(small_polygons)

    def test_run_batch_whole_and_chunked_match_sequential(self, block, small_polygons):
        workload = base_workload(small_polygons, AGGS).repeated(2)
        sequential = [block.select(query.region, list(query.aggs)) for query in workload]
        whole = block.run_batch(workload.queries)
        chunked = [
            result for chunk in workload.chunked(7) for result in block.run_batch(chunk.queries)
        ]
        assert_results_identical(sequential, whole)
        assert_results_identical(sequential, chunked)


@pytest.mark.slow
def test_batch_not_slower_than_sequential(block, small_polygons):
    """The one timing bound of the suite: one ``run_batch`` pass over a
    skewed workload takes at most 1/0.75 of the sequential time (best
    of five, coverings warm)."""
    workload = base_workload(small_polygons, AGGS).repeated(10)
    for polygon in small_polygons:
        block.warm(polygon)

    def best(run) -> float:  # noqa: ANN001
        times = []
        for _ in range(5):
            start = time.perf_counter()
            run()
            times.append(time.perf_counter() - start)
        return min(times)

    sequential = best(lambda: [block.select(query.region, list(query.aggs)) for query in workload])
    batched = best(lambda: block.run_batch(workload.queries))
    assert sequential / batched >= 0.75
