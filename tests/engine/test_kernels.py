"""The "kernel" execution model: bit-identical to its reference fold.

The kernel model is a pure execution strategy -- columnar numpy
reductions instead of per-cell Python folds -- so every answer it
produces must match ``Executor.select_reference`` (one
``Accumulator.add_slice`` per covering cell, one ``add_record`` per
trie hit) bit for bit: counts, sums (same float fold order), mins/maxs,
NaN placement, and the probe/hit counters.  These tests gate that
contract across all three block kinds (plain, sharded,
adaptive-with-trie), the empty edges, and the API surface, plus
unit-level checks of the kernel primitives themselves.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Dataset
from repro.cells import cellid
from repro.cells.union import CellUnion
from repro.core import AdaptiveGeoBlock, AggSpec, CachePolicy, GeoBlock
from repro.engine import kernels
from repro.engine.executor import EXECUTION_MODES, merge_results
from repro.engine.shards import ShardedGeoBlock
from repro.geometry import Polygon
from repro.workloads.workload import Query

AGGS = [
    AggSpec("count"),
    AggSpec("sum", "fare"),
    AggSpec("min", "fare"),
    AggSpec("max", "distance"),
    AggSpec("avg", "fare"),
]

LEVEL = 14


def assert_results_identical(want_list, got_list):
    assert len(want_list) == len(got_list)
    for want, got in zip(want_list, got_list):
        assert got.count == want.count
        assert got.cells_probed == want.cells_probed
        assert got.cache_hits == want.cache_hits
        assert set(got.values) == set(want.values)
        for key, value in want.values.items():
            if np.isnan(value):
                assert np.isnan(got.values[key])
            else:
                # Bit-identical, not approximately equal.
                assert got.values[key] == value


def reference(handle, targets, aggs=AGGS):
    """The per-plan reference answers: ``handle`` plans (an adaptive
    handle attaches its trie's probe decisions), the flat block's
    executor folds cell by cell."""
    executor = getattr(handle, "block", handle).executor
    return [executor.select_reference(handle.plan(target), aggs) for target in targets]


@pytest.fixture(scope="module")
def block(small_base) -> GeoBlock:
    return GeoBlock.build(small_base, LEVEL)


class TestModePlumbing:
    def test_kernel_is_the_production_default(self, block):
        assert block.query_mode == "kernel"
        assert EXECUTION_MODES[0] == "kernel"

    def test_adaptive_shares_mode_with_wrapped_block(self, small_base):
        adaptive = AdaptiveGeoBlock(GeoBlock.build(small_base, LEVEL))
        assert adaptive.query_mode == "kernel"


class TestPlainBlockParity:
    def test_select_matches_reference(self, block, small_polygons):
        kernel = [block.select(p, AGGS) for p in small_polygons]
        assert_results_identical(reference(block, small_polygons), kernel)

    def test_batch_matches_reference(self, block, small_polygons):
        polygons = list(small_polygons) * 4  # repeats exercise the dedup path
        total_cells = sum(len(block.plan(p).union) for p in polygons)
        assert total_cells >= block.executor.MIN_SEGMENTS_FOR_DEDUP
        kernel = block.run_batch(polygons, aggs=AGGS)
        assert_results_identical(reference(block, polygons), kernel)

    def test_batch_matches_sequential_kernel(self, block, small_polygons):
        sequential = [block.select(p, AGGS) for p in small_polygons]
        batched = block.run_batch(small_polygons, aggs=AGGS)
        assert_results_identical(sequential, batched)

    def test_mixed_aggs_batch(self, block, small_polygons):
        queries = [
            Query(region=p, aggs=(AGGS[i % len(AGGS)],))
            for i, p in enumerate(small_polygons)
        ]
        want = [
            block.executor.select_reference(block.plan(query.region), query.aggs)
            for query in queries
        ]
        assert_results_identical(want, block.run_batch(queries))

    def test_scalar_model_agrees_where_order_free(self, block, small_polygons):
        """Scalar differs from kernel only in float-sum fold order:
        counts, mins and maxs are order-independent and must agree
        exactly; sums to rounding."""
        for polygon in small_polygons:
            scalar = block.select_scalar(polygon, AGGS)
            kernel = block.select(polygon, AGGS)
            assert kernel.count == scalar.count
            if kernel.count == 0:
                assert np.isnan(kernel.values["min(fare)"])
                assert np.isnan(scalar.values["min(fare)"])
                continue
            assert kernel.values["min(fare)"] == scalar.values["min(fare)"]
            assert kernel.values["max(distance)"] == scalar.values["max(distance)"]
            assert kernel.values["sum(fare)"] == pytest.approx(
                scalar.values["sum(fare)"], rel=1e-9
            )

    def test_empty_covering(self, block):
        nowhere = Polygon([(10.0, 10.0), (10.001, 10.0), (10.001, 10.001)])
        kernel = block.select(nowhere, AGGS)
        assert_results_identical(reference(block, [nowhere]), [kernel])
        assert kernel.count == 0

    def test_empty_aggs_count_only(self, block, quad_polygon):
        (want,) = reference(block, [quad_polygon], ())
        kernel = block.select(quad_polygon, ())
        assert kernel.values == {} == want.values
        assert kernel.count == want.count
        batched = block.run_batch([Query(region=quad_polygon, aggs=())])
        assert batched[0].values == {}
        assert batched[0].count == want.count

    def test_empty_batch(self, block):
        assert block.run_batch([]) == []

    def test_grouped_matches_reference(self, block, small_polygons):
        kernel_rows, kernel_rollup = block.run_grouped(small_polygons, aggs=AGGS)
        want_rows = reference(block, small_polygons)
        assert_results_identical(want_rows, kernel_rows)
        assert_results_identical([merge_results(want_rows, AGGS)], [kernel_rollup])

    def test_count_matches_brute_force(self, block, small_polygons):
        """Satellite: the vectorised COUNT kernel must reproduce the
        old per-cell Python loop exactly (pure integer arithmetic)."""
        executor = block.executor
        for polygon in small_polygons:
            plan = block.plan(polygon)
            lo, hi = executor.ranges(plan.union)
            offsets = executor.aggregates.offsets
            counts = executor.aggregates.counts
            want = 0
            for first, last in zip(lo.tolist(), hi.tolist()):
                if last > first:
                    want += int(offsets[last - 1] + counts[last - 1] - offsets[first])
            assert executor.count(plan) == want
            assert block.count(polygon) == want


class TestShardedParity:
    @pytest.fixture(scope="class")
    def sharded(self, small_base) -> ShardedGeoBlock:
        return ShardedGeoBlock.build(small_base, LEVEL, shard_count=8)

    def test_select_matches_plain_reference(self, block, sharded, small_polygons):
        """Every polygon, from a handful of covering cells to coverings
        spanning several shards, answers bit-identically to the plain
        block's reference fold."""
        sizes = [len(sharded.plan(p).union) for p in small_polygons]
        assert min(size for size in sizes if size) < 32 <= max(sizes)
        kernel = [sharded.select(p, AGGS) for p in small_polygons]
        assert_results_identical(reference(block, small_polygons), kernel)

    def test_batch_fans_out_and_matches(self, block, sharded, small_polygons):
        """A batch over many shards stays bit-identical to the plain
        block's reference fold (boundary-spanning cells included)."""
        polygons = list(small_polygons) * 6
        assert sharded.num_shards > 1
        kernel = sharded.run_batch(polygons, aggs=AGGS)
        assert_results_identical(reference(block, polygons), kernel)


class TestAdaptiveParity:
    @pytest.fixture()
    def trained(self, small_base, small_polygons) -> AdaptiveGeoBlock:
        """An adaptive block with a populated trie, so kernel folds see
        the full Figure-8 mix of hit / partial / miss probes."""
        adaptive = AdaptiveGeoBlock(
            GeoBlock.build(small_base, LEVEL), CachePolicy(threshold=0.5)
        )
        for polygon in small_polygons:
            adaptive.select(polygon, AGGS)
        adaptive.adapt()
        return adaptive

    def test_select_matches_reference_with_trie_hits(self, trained, small_polygons):
        want = reference(trained, small_polygons)
        kernel = [trained.select(p, AGGS) for p in small_polygons]
        assert_results_identical(want, kernel)
        assert sum(result.cache_hits for result in kernel) > 0

    def test_partial_hits_match_reference(self, trained):
        """Partial trie hits (cached children + uncached-child range
        folds) need covering cells *above* cached ones: query the
        parents of the deepest cached cells."""
        cached = trained.trie.cached_cells()
        deepest = max(cellid.level_of(cell) for cell in cached)
        parents = sorted(
            {cellid.parent(cell) for cell in cached if cellid.level_of(cell) == deepest}
        )
        union = CellUnion(np.asarray(parents, dtype=np.int64))
        plan = trained.plan(union)
        assert any(
            probe.status == "partial" and probe.child_records and probe.uncached_children
            for probe in plan.probes
        )
        executor = trained.block.executor
        want = executor.select_reference(plan, AGGS)
        assert_results_identical([want], [executor.select(plan, AGGS)])
        assert_results_identical([want] * 3, executor.run_batch([(plan, AGGS)] * 3))

    def test_batch_matches_reference_with_trie_hits(self, trained, small_polygons):
        polygons = list(small_polygons) * 3
        want = reference(trained, polygons)
        kernel = trained.run_batch([Query(region=p, aggs=tuple(AGGS)) for p in polygons])
        assert_results_identical(want, kernel)
        assert sum(result.cache_hits for result in kernel) > 0

    def test_cold_trie_matches_plain(self, small_base, block, small_polygons):
        adaptive = AdaptiveGeoBlock(GeoBlock.build(small_base, LEVEL))
        kernel = [adaptive.select(p, AGGS) for p in small_polygons]
        assert_results_identical(reference(block, small_polygons), kernel)


class TestApiSurface:
    def test_cached_view_execution(self, small_base, quad_polygon):
        """Filtered-view execution under the kernel model: the view's
        block answers in kernel mode and the result tier round-trips."""
        from repro.storage.expr import col

        dataset = Dataset(GeoBlock.build(small_base, LEVEL), base=small_base)
        builder = dataset.where(col("fare") > 20.0).over(quad_polygon).agg(
            "count", "sum:fare"
        )
        first = builder.run()
        again = builder.run()
        assert first.stats.result_cached == 0
        assert again.stats.result_cached == 1
        assert again.count == first.count
        assert again.values == first.values
        view_block = dataset.where(col("fare") > 20.0).block
        (want,) = reference(
            view_block, [quad_polygon], [AggSpec("count"), AggSpec("sum", "fare")]
        )
        assert first.count == want.count
        assert first.values == want.values


class TestKernelPrimitives:
    def test_segment_partials_match_add_slice(self, block):
        """Stage 1 must equal float(column[lo:hi].sum()) / .min() /
        .max() per segment, bit for bit, across segment lengths."""
        aggregates = block.aggregates
        n = len(aggregates)
        rng = np.random.default_rng(5)
        lo = rng.integers(0, n, 200).astype(np.int64)
        length = rng.integers(0, 40, 200).astype(np.int64)
        hi = np.minimum(lo + length, n)
        partials = kernels.segment_partials(aggregates, lo, hi, ["fare", "distance"])
        for i in range(lo.size):
            a, b = int(lo[i]), int(hi[i])
            if b <= a:
                assert partials.counts[i] == 0.0
                assert partials.mins["fare"][i] == np.inf
                continue
            assert partials.counts[i] == float(aggregates.counts[a:b].sum())
            for name in ("fare", "distance"):
                assert partials.sums[name][i] == float(aggregates.sums[name][a:b].sum())
                assert partials.mins[name][i] == float(aggregates.mins[name][a:b].min())
                assert partials.maxs[name][i] == float(aggregates.maxs[name][a:b].max())

    def test_sequential_ranged_sums_match_python_fold(self):
        """Stage 2 must reproduce the accumulator's sequential += fold
        from 0.0, including ranges long enough for the heavy-query
        fallback path."""
        rng = np.random.default_rng(11)
        values = rng.normal(0.0, 123.456, 4000)
        lengths = [0, 1, 2, 3, 17, 100, 600, 1500]  # 600+ exceed HEAVY_QUERY_ROWS
        starts = np.cumsum([0] + lengths[: len(lengths)])
        values = values[: starts[-1]]
        (totals,) = kernels.sequential_ranged_sums([values], np.asarray(starts))
        for q in range(len(lengths)):
            fold = 0.0
            for x in values[starts[q] : starts[q + 1]]:
                fold += float(x)
            assert totals[q] == fold

    def test_ranged_reduce_min_max_and_identity(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=500)
        lo = np.asarray([0, 10, 250, 499, 500, 37], dtype=np.int64)
        hi = np.asarray([10, 10, 500, 500, 500, 38], dtype=np.int64)
        mins = kernels.ranged_reduce(np.minimum, values, lo, hi, np.inf)
        maxs = kernels.ranged_reduce(np.maximum, values, lo, hi, -np.inf)
        for i in range(lo.size):
            if hi[i] <= lo[i]:
                assert mins[i] == np.inf
                assert maxs[i] == -np.inf
            else:
                assert mins[i] == values[lo[i] : hi[i]].min()
                assert maxs[i] == values[lo[i] : hi[i]].max()

    def test_count_segments(self, block, small_polygons):
        executor = block.executor
        plan = block.plan(small_polygons[0])
        lo, hi = executor.ranges(plan.union)
        aggregates = executor.aggregates
        want = sum(
            int(aggregates.counts[a:b].sum()) for a, b in zip(lo.tolist(), hi.tolist())
        )
        assert kernels.count_segments(aggregates.offsets, aggregates.counts, lo, hi) == want
