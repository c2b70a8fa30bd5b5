"""Regression: every execution model reports identical counters.

The engine defines ``cells_probed`` / ``cache_hits`` once for every
path, so the kernel model, its per-cell reference fold
(``Executor.select_reference``) and the scalar model must never
disagree on them -- only on runtimes.  This pins that contract on a shared workload across the
plain block, the adaptive block (cold and warm), and the covering
baselines.
"""

from __future__ import annotations

import pytest

from repro.baselines import BinarySearchIndex, BTreeIndex
from repro.core import AdaptiveGeoBlock, AggSpec, CachePolicy, GeoBlock

AGGS = [AggSpec("count"), AggSpec("sum", "fare"), AggSpec("max", "distance")]

LEVEL = 14


def counters_for(aggregator, polygons):  # noqa: ANN001
    return [
        (result.cells_probed, result.cache_hits)
        for result in (aggregator.select(p, AGGS) for p in polygons)
    ]


def reference_counters_for(handle, polygons):  # noqa: ANN001
    executor = getattr(handle, "block", handle).executor
    return [
        (result.cells_probed, result.cache_hits)
        for result in (executor.select_reference(handle.plan(p), AGGS) for p in polygons)
    ]


class TestCounterParity:
    def test_plain_block(self, small_base, small_polygons):
        block = GeoBlock.build(small_base, LEVEL)
        kernel = counters_for(block, small_polygons)
        reference = reference_counters_for(block, small_polygons)
        block.query_mode = "scalar"
        scalar = counters_for(block, small_polygons)
        assert kernel == reference == scalar
        assert all(probed > 0 for probed, _ in kernel)

    def test_adaptive_block_cold_and_warm(self, small_base, small_polygons):
        adaptive = AdaptiveGeoBlock(
            GeoBlock.build(small_base, LEVEL), CachePolicy(threshold=0.5)
        )
        cold_kernel = counters_for(adaptive, small_polygons)
        cold_reference = reference_counters_for(adaptive, small_polygons)
        adaptive.query_mode = "scalar"
        cold_scalar = counters_for(adaptive, small_polygons)
        assert cold_kernel == cold_reference == cold_scalar
        adaptive.adapt()
        adaptive.query_mode = "kernel"
        warm_kernel = counters_for(adaptive, small_polygons)
        warm_reference = reference_counters_for(adaptive, small_polygons)
        adaptive.query_mode = "scalar"
        warm_scalar = counters_for(adaptive, small_polygons)
        assert warm_kernel == warm_reference == warm_scalar
        assert sum(hits for _, hits in warm_kernel) > 0

    @pytest.mark.parametrize("index_cls", [BinarySearchIndex, BTreeIndex])
    def test_covering_baselines(self, index_cls, small_base, small_polygons):
        vector = index_cls(small_base, LEVEL)
        scalar = index_cls(small_base, LEVEL, scalar=True)
        assert counters_for(vector, small_polygons) == counters_for(scalar, small_polygons)

    def test_baselines_report_probed_cells_like_block(self, small_base, small_polygons):
        """All covering-based approaches probe the same covering, so the
        probe counter must agree across them (the BTree used to drop
        covering cells without hits from the count)."""
        block = GeoBlock.build(small_base, LEVEL)
        binary = BinarySearchIndex(small_base, LEVEL)
        btree = BTreeIndex(small_base, LEVEL)
        for polygon in small_polygons:
            covering = len(block.covering(polygon))
            assert binary.select(polygon, AGGS).cells_probed == covering
            assert btree.select(polygon, AGGS).cells_probed == covering

    def test_rejected_queries_leave_statistics_untouched(self, small_base, small_polygons):
        """Regression: a query with an unknown column must not feed the
        adaptation statistics -- it was never answered."""
        from repro.errors import QueryError

        adaptive = AdaptiveGeoBlock(GeoBlock.build(small_base, LEVEL))
        bad = [AggSpec("sum", "no_such_column")]
        with pytest.raises(QueryError):
            adaptive.select(small_polygons[0], bad)
        with pytest.raises(QueryError):
            adaptive.run_batch(small_polygons, aggs=bad)
        assert adaptive.statistics.queries_recorded == 0
        assert len(adaptive.statistics) == 0

    def test_batch_counters_match_sequential(self, small_base, small_polygons):
        block = GeoBlock.build(small_base, LEVEL)
        sequential = counters_for(block, small_polygons)
        batched = [
            (result.cells_probed, result.cache_hits)
            for result in block.run_batch(small_polygons, aggs=AGGS)
        ]
        assert sequential == batched
