"""Sharded GeoBlocks: partition invariants, query equivalence, updates."""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest

from repro.core import AggSpec, GeoBlock
from repro.core.updates import apply_update
from repro.engine.shards import ShardedGeoBlock
from repro.geometry import Polygon

AGGS = [
    AggSpec("count"),
    AggSpec("sum", "fare"),
    AggSpec("min", "fare"),
    AggSpec("max", "distance"),
]

LEVEL = 14


@pytest.fixture(scope="module")
def sharded(small_base) -> ShardedGeoBlock:
    return ShardedGeoBlock.build(small_base, LEVEL, shard_count=8)


@pytest.fixture(scope="module")
def plain(small_base) -> GeoBlock:
    return GeoBlock.build(small_base, LEVEL)


def assert_close(want, got):
    assert got.count == want.count
    assert got.cells_probed == want.cells_probed
    for key, value in want.values.items():
        if np.isnan(value):
            assert np.isnan(got.values[key])
        else:
            assert got.values[key] == pytest.approx(value, rel=1e-12)


class TestPartition:
    def test_shards_partition_rows(self, sharded):
        bounds = [(shard.lo, shard.hi) for shard in sharded.shards]
        assert bounds[0][0] == 0
        assert bounds[-1][1] == sharded.num_cells
        for (_, prev_hi), (next_lo, _) in zip(bounds, bounds[1:]):
            assert next_lo == prev_hi

    def test_default_layout_is_curve(self, sharded):
        from repro.cells import sfc

        assert sharded.splits is not None
        assert sharded.splits[0] == 0
        assert sharded.splits[-1] == sfc.KEY_SPACE

    def test_prefix_layout_parameters_are_gone(self, small_base):
        """One layout: the retired prefix-layout knobs are not accepted."""
        with pytest.raises(TypeError):
            ShardedGeoBlock.build(small_base, LEVEL, shard_level=11)
        with pytest.raises(TypeError):
            ShardedGeoBlock.build(small_base, LEVEL, layout="prefix")

    def test_worker_parameters_are_gone(self, small_base, plain):
        """No thread pool: ``max_workers=`` is not accepted anywhere."""
        with pytest.raises(TypeError):
            ShardedGeoBlock.build(small_base, LEVEL, max_workers=2)
        with pytest.raises(TypeError):
            ShardedGeoBlock.from_block(plain, max_workers=2)

    def test_default_layout_ignores_cpu_count(self, small_base, monkeypatch):
        """The cost model sizes a default layout from the data alone."""
        layouts = []
        for cpus in (1, 64):
            monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
            layouts.append(ShardedGeoBlock.build(small_base, LEVEL).splits)
        assert np.array_equal(layouts[0], layouts[1])

    def test_default_shard_count_follows_index_width(self):
        from repro.engine.cost import CostModel

        model = CostModel()
        assert model.shard_count(40_445) == 20  # ceil(40,445 / 2048)
        assert model.shard_count(2048) == 1
        assert model.shard_count(0) == model.shard_count(1) == 1
        assert model.shard_count(10**9) == model.config.max_shards

    def test_shards_are_derived_from_splits(self, sharded):
        """The shard table is recomputed on access, never stored: editing
        a returned list cannot move the partition."""
        shards = sharded.shards
        shards.clear()
        assert len(sharded.shards) == sharded.num_shards == len(sharded.splits) - 1

    def test_keys_respect_shard_key_ranges(self, sharded):
        """Every shard's rows carry leaf keys inside its key range, and
        the ranges tile the full curve-key space."""
        from repro.cells import sfc

        keys = sharded.aggregates.keys
        assert sharded.shards[0].key_lo == 0
        assert sharded.shards[-1].key_hi == sfc.KEY_SPACE
        for prev, nxt in zip(sharded.shards, sharded.shards[1:]):
            assert nxt.key_lo == prev.key_hi
        lo_pos = (keys >> 1).astype(np.int64)  # leaf start position per cell
        for shard in sharded.shards:
            segment = lo_pos[shard.lo : shard.hi]
            if segment.size:
                assert segment[0] >= shard.key_lo
                assert segment[-1] < shard.key_hi

    def test_explicit_shard_count_is_reproducible(self, small_base):
        one = ShardedGeoBlock.build(small_base, LEVEL, shard_count=8)
        two = ShardedGeoBlock.build(small_base, LEVEL, shard_count=8)
        assert one.num_shards == 8
        assert np.array_equal(one.splits, two.splits)
        rebuilt = ShardedGeoBlock.build(small_base, LEVEL, splits=one.splits)
        assert [(s.lo, s.hi) for s in rebuilt.shards] == [(s.lo, s.hi) for s in one.shards]

    def test_equi_depth_splits_balance_tuples(self, small_base):
        block = ShardedGeoBlock.build(small_base, LEVEL, shard_count=8)
        counts = block.aggregates.counts
        per_shard = [int(counts[s.lo : s.hi].sum()) for s in block.shards]
        total = sum(per_shard)
        # Equi-depth on clustered data: no shard hoards the tuples the
        # way a fixed prefix does (splits land on cell boundaries, so
        # perfect equality is not attainable).
        assert max(per_shard) < 0.5 * total

    def test_layout_argument_validation(self, small_base):
        from repro.errors import BuildError

        with pytest.raises(BuildError):
            ShardedGeoBlock.build(small_base, LEVEL, shard_count=0)
        with pytest.raises(BuildError):
            ShardedGeoBlock.build(small_base, LEVEL, shard_count=4, splits=[0, 1])

    def test_from_block_is_zero_copy(self, plain):
        sharded = ShardedGeoBlock.from_block(plain)
        assert sharded.aggregates is plain.aggregates
        assert sharded.num_cells == plain.num_cells

    def test_coarsened_stays_sharded(self, sharded, plain, quad_polygon):
        coarse = sharded.coarsened(11)
        assert isinstance(coarse, ShardedGeoBlock)
        # Curve splits are level-independent; the coarse block routes
        # along the same boundaries as its parent.
        assert np.array_equal(coarse.splits, sharded.splits)
        assert coarse.count(quad_polygon) == plain.coarsened(11).count(quad_polygon)


class TestQueryEquivalence:
    def test_select_matches_plain(self, sharded, plain, small_polygons):
        for polygon in small_polygons:
            assert_close(plain.select(polygon, AGGS), sharded.select(polygon, AGGS))

    def test_count_matches_plain(self, sharded, plain, small_polygons):
        for polygon in small_polygons:
            assert plain.count(polygon) == sharded.count(polygon)

    def test_batch_matches_sequential(self, sharded, small_polygons):
        polygons = list(small_polygons) * 6
        sequential = [sharded.select(p, AGGS) for p in polygons]
        batched = sharded.run_batch(polygons, aggs=AGGS)
        for want, got in zip(sequential, batched):
            assert_close(want, got)
            assert got.count == want.count  # counts are exact under sharding

    def test_cross_boundary_sums_bit_identical_to_plain(self, small_base, small_polygons):
        """Pin the PR-1 drift fix: batched sharded sums are *bit*
        identical to the plain block, including covering cells coarser
        than a shard (ranges spanning shard boundaries, which used to be
        merged from rounded per-shard partials)."""
        from repro.cells import sfc

        level = 16
        plain = GeoBlock.build(small_base, level)
        sharded = ShardedGeoBlock.build(small_base, level, shard_count=16)
        inner_splits = sharded.splits[1:-1]
        polygons = list(small_polygons) * 4
        spans = [
            sfc.cell_key_spans(plain.covering(polygon).ids) for polygon in small_polygons
        ]
        spanning_capable = sum(
            int(np.count_nonzero(
                np.searchsorted(inner_splits, lo, side="right")
                != np.searchsorted(inner_splits, hi - 1, side="right")
            ))
            for lo, hi in spans
        )
        assert spanning_capable > 0, "workload must exercise boundary-spanning ranges"
        for want, got in zip(
            plain.run_batch(polygons, aggs=AGGS), sharded.run_batch(polygons, aggs=AGGS)
        ):
            assert got.count == want.count
            for key, value in want.values.items():
                if np.isnan(value):
                    assert np.isnan(got.values[key])
                else:
                    assert got.values[key] == value  # exact, not approx



class TestNoThreads:
    """Sharded execution is inline: no call starts a thread."""

    @pytest.mark.parametrize("call", ["select", "run_batch", "run_grouped", "append_rows"])
    def test_thread_count_unchanged(self, call, small_base, small_polygons):
        from repro.core.updates import append_rows

        block = ShardedGeoBlock.build(small_base, LEVEL, shard_count=8)
        polygons = list(small_polygons) * 6
        before = threading.active_count()
        if call == "select":
            for polygon in polygons:
                block.select(polygon, AGGS)
        elif call == "run_batch":
            block.run_batch(polygons, aggs=AGGS)
        elif call == "run_grouped":
            block.run_grouped(polygons, aggs=AGGS)
        else:
            append_rows(
                block,
                [{"x": -73.5, "y": 40.95, "fare": 5.0, "distance": 2.0},
                 {"x": -73.98, "y": 40.75, "fare": 7.0, "distance": 1.0}],
            )
            block.run_batch(polygons, aggs=AGGS)
        assert threading.active_count() == before


class TestUpdates:
    def _fresh(self, level: int = 13) -> ShardedGeoBlock:
        from repro.cells import EARTH
        from repro.storage import PointTable, Schema, extract

        rng = np.random.default_rng(55)
        count = 8000
        table = PointTable(
            Schema(["fare", "distance"]),
            rng.normal(-73.95, 0.04, count),
            rng.normal(40.75, 0.03, count),
            {"fare": rng.gamma(3.0, 4.0, count), "distance": rng.gamma(2.0, 2.0, count)},
        )
        block = ShardedGeoBlock.build(extract(table, EARTH), level, shard_count=8)
        assert block.num_shards > 1
        return block

    def test_in_place_update_keeps_partition(self, quad_polygon):
        block = self._fresh()
        xs = -73.95, 40.75
        before = block.num_cells
        bounds = [(shard.lo, shard.hi) for shard in block.shards]
        in_place = apply_update(block, xs[0], xs[1], {"fare": 9.0, "distance": 1.0})
        assert in_place
        assert block.num_cells == before
        assert [(shard.lo, shard.hi) for shard in block.shards] == bounds

    def test_splice_update_keeps_partition_consistent(self):
        block = self._fresh()
        shards_before = block.num_shards
        in_place = apply_update(block, -73.5, 40.95, {"fare": 5.0, "distance": 2.0})
        assert not in_place
        # Partition still covers all rows contiguously.
        bounds = [(shard.lo, shard.hi) for shard in block.shards]
        assert bounds[0][0] == 0
        assert bounds[-1][1] == block.num_cells
        for (_, prev_hi), (next_lo, _) in zip(bounds, bounds[1:]):
            assert next_lo == prev_hi
        assert block.num_shards >= shards_before
        probe = Polygon.regular(-73.5, 40.95, 0.01, 4)
        assert block.count(probe) == 1

    def test_update_stream_matches_rebuild(self):
        """After a burst of updates, queries equal a freshly built block."""
        from repro.cells import EARTH
        from repro.storage import PointTable, Schema, extract

        block = self._fresh()
        rng = np.random.default_rng(6)
        new_xs = rng.normal(-73.9, 0.08, 40)
        new_ys = rng.normal(40.76, 0.05, 40)
        fares = rng.gamma(3.0, 4.0, 40)
        distances = rng.gamma(2.0, 2.0, 40)
        for i in range(40):
            apply_update(
                block,
                float(new_xs[i]),
                float(new_ys[i]),
                {"fare": float(fares[i]), "distance": float(distances[i])},
            )
        # Rebuild from the combined data.
        rng2 = np.random.default_rng(55)
        count = 8000
        xs = np.concatenate([rng2.normal(-73.95, 0.04, count), new_xs])
        ys = np.concatenate([rng2.normal(40.75, 0.03, count), new_ys])
        table = PointTable(
            Schema(["fare", "distance"]),
            xs,
            ys,
            {
                "fare": np.concatenate([rng2.gamma(3.0, 4.0, count), fares]),
                "distance": np.concatenate([rng2.gamma(2.0, 2.0, count), distances]),
            },
        )
        rebuilt = ShardedGeoBlock.build(extract(table, EARTH), 13, shard_count=8)
        probe = Polygon.regular(-73.9, 40.76, 0.06, 8)
        want = rebuilt.select(probe, AGGS)
        got = block.select(probe, AGGS)
        assert got.count == want.count
        for key, value in want.values.items():
            assert got.values[key] == pytest.approx(value)

    def test_skewed_appends_match_cold_rebuild_exactly(self):
        """Appends piled into one hot corner of the domain route by curve
        key into the existing partition, and every answer stays
        bit-identical to a block built cold from the combined data."""
        from repro.cells import EARTH
        from repro.storage import PointTable, Schema, extract

        block = self._fresh()
        splits_before = None if block.splits is None else np.array(block.splits)
        rng = np.random.default_rng(17)
        burst = 60
        # Heavy skew: everything lands in a ~200m patch.
        new_xs = rng.normal(-73.952, 0.001, burst)
        new_ys = rng.normal(40.751, 0.001, burst)
        fares = rng.gamma(3.0, 4.0, burst)
        distances = rng.gamma(2.0, 2.0, burst)
        for i in range(burst):
            apply_update(
                block,
                float(new_xs[i]),
                float(new_ys[i]),
                {"fare": float(fares[i]), "distance": float(distances[i])},
            )
        # Split points survive the skewed burst untouched.
        if splits_before is not None:
            assert np.array_equal(np.array(block.splits), splits_before)
        rng2 = np.random.default_rng(55)
        count = 8000
        table = PointTable(
            Schema(["fare", "distance"]),
            np.concatenate([rng2.normal(-73.95, 0.04, count), new_xs]),
            np.concatenate([rng2.normal(40.75, 0.03, count), new_ys]),
            {
                "fare": np.concatenate([rng2.gamma(3.0, 4.0, count), fares]),
                "distance": np.concatenate([rng2.gamma(2.0, 2.0, count), distances]),
            },
        )
        rebuilt = ShardedGeoBlock.build(extract(table, EARTH), 13, shard_count=8)
        probes = [
            Polygon.regular(-73.952, 40.751, 0.004, 8),  # the hot patch
            Polygon.regular(-73.95, 40.75, 0.05, 6),  # wide
            Polygon.regular(-73.9, 40.7, 0.02, 4),  # mostly empty
        ]
        for probe in probes:
            want = rebuilt.select(probe, AGGS)
            got = block.select(probe, AGGS)
            assert got.count == want.count
            # Counts are exact; sums tolerate float addition-order noise
            # between incremental accumulation and a cold extract.
            for key, value in want.values.items():
                assert got.values[key] == pytest.approx(value)

    def test_empty_block_gets_one_range_then_appends(self, small_base, small_polygons):
        """Built empty (a predicate no row matches), a sharded block gets
        the single range ``[0, KEY_SPACE]`` at construction and routes to
        0 shards; appends keep that range (one shard, whatever the
        batching), and it answers exactly like a plain block."""
        from repro.cells import sfc
        from repro.core.updates import append_rows
        from repro.storage.expr import col

        nothing = col("fare") < -1.0
        block = ShardedGeoBlock.build(small_base, LEVEL, nothing, shard_count=4)
        plain = GeoBlock.build(small_base, LEVEL, nothing)
        assert block.num_cells == 0
        assert block.splits.tolist() == [0, sfc.KEY_SPACE]
        assert block.shards == [] and block.num_shards == 0
        result = block.select(small_polygons[0], AGGS)
        assert (result.count, result.shards_total, result.shards_pruned) == (0, 0, 0)

        rng = np.random.default_rng(8)
        rows = [
            {"x": float(x), "y": float(y), "fare": float(f), "distance": float(d)}
            for x, y, f, d in zip(
                rng.normal(-73.95, 0.04, 300),
                rng.normal(40.75, 0.03, 300),
                rng.gamma(3.0, 4.0, 300),
                rng.gamma(2.0, 2.0, 300),
            )
        ]
        append_rows(block, rows[:1])
        block.select(small_polygons[0], AGGS)  # a read between appends moves nothing
        append_rows(block, rows[1:])
        append_rows(plain, rows)
        assert block.splits.tolist() == [0, sfc.KEY_SPACE]
        assert block.num_shards == 1
        assert [(s.lo, s.hi) for s in block.shards] == [(0, block.num_cells)]
        for polygon in small_polygons:
            want = plain.select(polygon, AGGS)
            got = block.select(polygon, AGGS)
            assert got.shards_total == block.num_shards
            assert got.count == want.count
            for key, value in want.values.items():
                if np.isnan(value):
                    assert np.isnan(got.values[key])
                else:
                    assert got.values[key] == value
