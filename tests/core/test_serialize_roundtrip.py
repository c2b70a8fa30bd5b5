"""Serialize round-trips for adaptive and sharded blocks (format v3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    AdaptiveGeoBlock,
    AggSpec,
    CachePolicy,
    GeoBlock,
    load,
    save,
)
from repro.engine.shards import ShardedGeoBlock

AGGS = [
    AggSpec("count"),
    AggSpec("sum", "fare"),
    AggSpec("min", "fare"),
    AggSpec("max", "distance"),
    AggSpec("avg", "distance"),
]

LEVEL = 14


def assert_same_answers(want_block, got_block, polygons):  # noqa: ANN001
    for polygon in polygons:
        want = want_block.select(polygon, AGGS)
        got = got_block.select(polygon, AGGS)
        assert got.count == want.count
        assert got.cache_hits == want.cache_hits
        for key, value in want.values.items():
            if np.isnan(value):
                assert np.isnan(got.values[key])
            else:
                assert got.values[key] == value


class TestShardedRoundTrip:
    def test_sharded_block_survives_save_load(self, small_base, small_polygons, tmp_path):
        block = ShardedGeoBlock.build(small_base, LEVEL, shard_count=8)
        assert block.num_shards >= 4
        path = tmp_path / "sharded.npz"
        save(block, path)
        loaded = load(path)
        assert isinstance(loaded, ShardedGeoBlock)
        assert loaded.num_shards == block.num_shards
        assert [(s.lo, s.hi) for s in loaded.shards] == [(s.lo, s.hi) for s in block.shards]
        assert_same_answers(block, loaded, small_polygons)

    def test_sharded_batch_after_load(self, small_base, small_polygons, tmp_path):
        block = ShardedGeoBlock.build(small_base, LEVEL, shard_count=8)
        path = tmp_path / "sharded.npz"
        save(block, path)
        loaded = load(path)
        for want, got in zip(
            block.run_batch(small_polygons, aggs=AGGS),
            loaded.run_batch(small_polygons, aggs=AGGS),
        ):
            assert got.count == want.count

    def test_curve_layout_round_trips_splits(self, small_base, small_polygons, tmp_path):
        block = ShardedGeoBlock.build(small_base, LEVEL, shard_count=8)
        path = tmp_path / "curve.npz"
        save(block, path)
        loaded = load(path)
        assert isinstance(loaded, ShardedGeoBlock)
        assert np.array_equal(np.array(loaded.splits), np.array(block.splits))
        assert [(s.lo, s.hi, s.key_lo, s.key_hi) for s in loaded.shards] == [
            (s.lo, s.hi, s.key_lo, s.key_hi) for s in block.shards
        ]
        assert_same_answers(block, loaded, small_polygons)

    def test_v3_sharded_meta_is_unchanged(self, small_base, tmp_path):
        """Files keep the v3 sharded meta, so older readers open them."""
        from repro.core import serialize

        block = ShardedGeoBlock.build(small_base, LEVEL, shard_count=8)
        path = tmp_path / "curve.npz"
        save(block, path)
        with np.load(path) as archive:
            meta = serialize.read_archive_meta(archive)
        assert meta["version"] == 3
        assert meta["layout"] == "curve"
        assert meta["shard_splits"] == [int(b) for b in block.splits]

    @pytest.mark.parametrize("version", [2, 3])
    def test_prefix_archives_load_as_curve(self, version, small_base, small_polygons, tmp_path):
        """A v2 archive and a v3 prefix-layout archive carry a shard
        level but no split points: both load as the curve layout with
        cost-model splits and answer bit-identically to the saved block."""
        from repro.core import serialize

        block = ShardedGeoBlock.build(small_base, LEVEL, shard_count=8)
        path = tmp_path / "curve.npz"
        save(block, path)
        with np.load(path) as archive:
            meta = serialize.read_archive_meta(archive)
            arrays = {name: archive[name] for name in archive.files if name != "meta"}
        # Rewrite the metadata exactly as the prefix layout wrote it.
        del meta["shard_splits"]
        meta["shard_level"] = 11
        meta["version"] = version
        if version == 2:
            del meta["layout"]
        else:
            meta["layout"] = "prefix"
        old_path = tmp_path / f"prefix-v{version}.npz"
        serialize.write_archive(old_path, meta, arrays)
        loaded = load(old_path)
        assert isinstance(loaded, ShardedGeoBlock)
        default = ShardedGeoBlock.build(small_base, LEVEL)
        assert np.array_equal(loaded.splits, default.splits)
        assert_same_answers(block, loaded, small_polygons)
        for want, got in zip(
            block.run_batch(small_polygons * 3, aggs=AGGS),
            loaded.run_batch(small_polygons * 3, aggs=AGGS),
        ):
            assert got.count == want.count
            for key, value in want.values.items():
                if np.isnan(value):
                    assert np.isnan(got.values[key])
                else:
                    assert got.values[key] == value


class TestAdaptiveRoundTrip:
    @pytest.fixture()
    def warmed(self, small_base, small_polygons) -> AdaptiveGeoBlock:
        adaptive = AdaptiveGeoBlock(
            GeoBlock.build(small_base, LEVEL),
            CachePolicy(threshold=0.5, rebuild_every=500),
        )
        for polygon in small_polygons:
            adaptive.select(polygon, AGGS)
        adaptive.adapt()
        return adaptive

    def test_trie_and_statistics_survive(self, warmed, small_polygons, tmp_path):
        path = tmp_path / "adaptive.npz"
        save(warmed, path)
        loaded = load(path)
        # Policy round-trips.
        assert loaded.policy.threshold == warmed.policy.threshold
        assert loaded.policy.rebuild_every == warmed.policy.rebuild_every
        # Statistics round-trip exactly.
        assert loaded.statistics.queries_recorded == warmed.statistics.queries_recorded
        cells, hits = warmed.statistics.export_counts()
        for cell, count in zip(cells.tolist(), hits.tolist()):
            assert loaded.statistics.hits(cell) == count
        # Trie round-trips: same layout, same cached cells.
        assert loaded.trie is not None
        assert loaded.trie.root_cell == warmed.trie.root_cell
        assert loaded.trie.num_nodes == warmed.trie.num_nodes
        assert loaded.trie.num_cached == warmed.trie.num_cached
        assert loaded.trie.memory_bytes() == warmed.trie.memory_bytes()
        assert loaded.trie.cached_cells() == warmed.trie.cached_cells()

    def test_identical_query_answers_with_cache_hits(
        self, warmed, small_polygons, tmp_path
    ):
        path = tmp_path / "adaptive.npz"
        save(warmed, path)
        loaded = load(path)
        assert_same_answers(warmed, loaded, small_polygons)
        # The loaded cache actually answers queries.
        hit_totals = sum(
            loaded.select(p, AGGS).cache_hits for p in small_polygons
        )
        assert hit_totals > 0

    def test_adapt_continues_from_persisted_statistics(
        self, warmed, small_polygons, tmp_path
    ):
        path = tmp_path / "adaptive.npz"
        save(warmed, path)
        loaded = load(path)
        trie = loaded.adapt()  # rebuild purely from persisted statistics
        assert trie.num_cached == warmed.trie.num_cached

    def test_cold_adaptive_round_trip(self, small_base, small_polygons, tmp_path):
        """No trie yet: statistics-only persistence."""
        adaptive = AdaptiveGeoBlock(GeoBlock.build(small_base, LEVEL))
        for polygon in small_polygons[:4]:
            adaptive.select(polygon, AGGS)
        path = tmp_path / "cold.npz"
        save(adaptive, path)
        loaded = load(path)
        assert loaded.trie is None
        assert loaded.statistics.queries_recorded == 4
        assert_same_answers(adaptive, loaded, small_polygons)

    def test_cache_refreshes_survive_save_load(self, warmed, small_polygons, tmp_path):
        """Regression: apply_update_adaptive mutates the trie's live
        record rows; persistence must capture those, not the build-time
        array, or loaded blocks silently answer with stale aggregates."""
        from repro.core import apply_update_adaptive

        # Update inside a cached region so a trie record is refreshed.
        polygon = small_polygons[0]
        box = polygon.bounding_box
        x = (box.min_x + box.max_x) / 2
        y = (box.min_y + box.max_y) / 2
        apply_update_adaptive(warmed, x, y, {"fare": 1000.0, "distance": 1.0})
        path = tmp_path / "updated.npz"
        save(warmed, path)
        loaded = load(path)
        assert_same_answers(warmed, loaded, small_polygons)

    def test_sharded_base_block_round_trips(self, small_base, small_polygons, tmp_path):
        adaptive = AdaptiveGeoBlock(
            ShardedGeoBlock.build(small_base, LEVEL, shard_count=8),
            CachePolicy(threshold=0.5),
        )
        for polygon in small_polygons:
            adaptive.select(polygon, AGGS)
        adaptive.adapt()
        path = tmp_path / "adaptive-sharded.npz"
        save(adaptive, path)
        loaded = load(path)
        assert isinstance(loaded.block, ShardedGeoBlock)
        assert_same_answers(adaptive, loaded, small_polygons)


class TestUnifiedSaveLoad:
    """The kind-dispatching save()/load() pair."""

    def _handles(self, small_base, small_polygons):
        plain = GeoBlock.build(small_base, LEVEL)
        sharded = ShardedGeoBlock.build(small_base, LEVEL, shard_count=8)
        assert sharded.num_shards >= 4
        adaptive = AdaptiveGeoBlock(
            GeoBlock.build(small_base, LEVEL), CachePolicy(threshold=0.5)
        )
        for polygon in small_polygons:
            adaptive.select(polygon, AGGS)
        adaptive.adapt()
        return {"geoblock": plain, "sharded": sharded, "adaptive": adaptive}

    def test_load_restores_each_kind(self, small_base, small_polygons, tmp_path):
        for kind, block in self._handles(small_base, small_polygons).items():
            path = tmp_path / f"{kind}.npz"
            save(block, path)
            loaded = load(path)
            assert type(loaded) is type(block)
            assert_same_answers(block, loaded, small_polygons)

    def test_kind_property_matches_serialized_kind(self, small_base):
        assert GeoBlock.build(small_base, LEVEL).kind == "geoblock"
        assert ShardedGeoBlock.build(small_base, LEVEL, shard_count=8).kind == "sharded"


class TestAtomicSave:
    """save() writes beside the destination and renames into place."""

    def test_failed_save_keeps_previous_file(self, small_base, small_polygons, tmp_path, monkeypatch):
        block = GeoBlock.build(small_base, LEVEL)
        path = tmp_path / "block.npz"
        save(block, path)

        def dies_partway(stream, **arrays):  # noqa: ANN001, ANN003
            stream.write(b"PK\x03\x04 truncated")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez_compressed", dies_partway)
        with pytest.raises(OSError, match="disk full"):
            save(ShardedGeoBlock.build(small_base, LEVEL, shard_count=8), path)
        monkeypatch.undo()
        assert [entry.name for entry in tmp_path.iterdir()] == ["block.npz"]
        loaded = load(path)
        assert type(loaded) is GeoBlock
        assert_same_answers(block, loaded, small_polygons)

    def test_final_name_follows_numpy_suffix_rule(self, small_base, tmp_path):
        block = GeoBlock.build(small_base, LEVEL)
        save(block, tmp_path / "bare")
        save(block, str(tmp_path / "dotted.npz"))
        assert sorted(entry.name for entry in tmp_path.iterdir()) == ["bare.npz", "dotted.npz"]
