"""Tests for the adaptive (query-cache accelerated) GeoBlock."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import AdaptiveGeoBlock, AggSpec, CachePolicy, GeoBlock
from repro.errors import QueryError

AGGS = [AggSpec("count"), AggSpec("sum", "fare"), AggSpec("min", "distance")]


@pytest.fixture()
def adaptive(small_base) -> AdaptiveGeoBlock:
    return AdaptiveGeoBlock(GeoBlock.build(small_base, 14), CachePolicy(threshold=0.5))


class TestEquivalence:
    def test_results_match_plain_block_in_every_cache_state(
        self, adaptive, small_block, small_polygons
    ):
        reference = {id(p): small_block.coarsened(14).select(p, AGGS) for p in small_polygons}
        # Cold (no trie).
        for polygon in small_polygons:
            got = adaptive.select(polygon, AGGS)
            assert got.count == reference[id(polygon)].count
        # Warm (trie built from the recorded statistics).
        adaptive.adapt()
        for polygon in small_polygons:
            got = adaptive.select(polygon, AGGS)
            want = reference[id(polygon)]
            assert got.count == want.count
            for key, value in want.values.items():
                if np.isnan(value):
                    assert np.isnan(got.values[key])
                else:
                    assert got.values[key] == pytest.approx(value)

    def test_scalar_mode_equivalence(self, adaptive, small_polygons):
        for polygon in small_polygons:
            adaptive.select(polygon, AGGS)
        adaptive.adapt()
        executor = adaptive.block.executor
        reference_results = [
            executor.select_reference(adaptive.plan(p), AGGS) for p in small_polygons
        ]
        adaptive.query_mode = "scalar"
        for polygon, want in zip(small_polygons, reference_results):
            got = adaptive.select(polygon, AGGS)
            assert got.count == want.count
            for key, value in want.values.items():
                if not np.isnan(value):
                    assert got.values[key] == pytest.approx(value)

    def test_count_bypasses_cache(self, adaptive, small_polygons):
        for polygon in small_polygons:
            adaptive.select(polygon)
        adaptive.adapt()
        for polygon in small_polygons[:4]:
            assert adaptive.count(polygon) == adaptive.block.count(polygon)


class TestCacheBehaviour:
    def test_hits_after_adapt(self, adaptive, small_polygons):
        for polygon in small_polygons:
            adaptive.select(polygon)
        adaptive.adapt()
        adaptive.reset_cache_counters()
        for polygon in small_polygons:
            adaptive.select(polygon)
        assert adaptive.cache_hit_rate > 0.3

    def test_no_hits_without_adapt(self, adaptive, small_polygons):
        for polygon in small_polygons:
            result = adaptive.select(polygon)
            assert result.cache_hits == 0
        assert adaptive.cache_hit_rate == 0.0

    def test_bigger_budget_more_hits(self, small_base, small_polygons):
        rates = []
        for threshold in (0.02, 1.0):
            adaptive = AdaptiveGeoBlock(
                GeoBlock.build(small_base, 14), CachePolicy(threshold=threshold)
            )
            for polygon in small_polygons:
                adaptive.select(polygon)
            adaptive.adapt()
            adaptive.reset_cache_counters()
            for polygon in small_polygons:
                adaptive.select(polygon)
            rates.append(adaptive.cache_hit_rate)
        assert rates[1] >= rates[0]

    def test_trie_respects_budget(self, small_base, small_polygons):
        policy = CachePolicy(threshold=0.05)
        adaptive = AdaptiveGeoBlock(GeoBlock.build(small_base, 14), policy)
        for polygon in small_polygons:
            adaptive.select(polygon)
        trie = adaptive.adapt()
        assert trie.memory_bytes() <= policy.budget_bytes(adaptive.block.memory_bytes())

    def test_zero_threshold_caches_nothing(self, small_base, small_polygons):
        adaptive = AdaptiveGeoBlock(GeoBlock.build(small_base, 14), CachePolicy(threshold=0.0))
        for polygon in small_polygons:
            adaptive.select(polygon)
        trie = adaptive.adapt()
        assert trie.num_cached == 0

    def test_auto_rebuild_cadence(self, small_base, small_polygons):
        adaptive = AdaptiveGeoBlock(
            GeoBlock.build(small_base, 14),
            CachePolicy(threshold=0.5, rebuild_every=3),
        )
        assert adaptive.trie is None
        for polygon in small_polygons[:3]:
            adaptive.select(polygon)
        assert adaptive.trie is not None

    def test_memory_includes_trie(self, adaptive, small_polygons):
        before = adaptive.memory_bytes()
        for polygon in small_polygons:
            adaptive.select(polygon)
        adaptive.adapt()
        assert adaptive.memory_bytes() >= before


class TestStatistics:
    def test_statistics_recorded_per_covering_cell(self, adaptive, quad_polygon):
        adaptive.select(quad_polygon)
        union = adaptive.covering(quad_polygon)
        stats = adaptive.statistics
        assert stats.queries_recorded == 1
        for cell in list(union)[:10]:
            assert stats.hits(cell) == 1


class TestPolicyValidation:
    def test_negative_threshold(self):
        with pytest.raises(QueryError):
            CachePolicy(threshold=-0.1)

    def test_bad_cadence(self):
        with pytest.raises(QueryError):
            CachePolicy(rebuild_every=0)

    def test_budget_math(self):
        policy = CachePolicy(threshold=0.25)
        assert policy.budget_bytes(1000) == 250
