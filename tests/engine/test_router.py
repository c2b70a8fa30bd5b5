"""PartitionRouter: pruning, conservativeness, routing after splices."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cells import EARTH, cellid
from repro.cells.union import CellUnion
from repro.core.updates import apply_update
from repro.engine.shards import ShardedGeoBlock

LEVEL = 14


@pytest.fixture(scope="module")
def curve_block(small_base) -> ShardedGeoBlock:
    return ShardedGeoBlock.build(small_base, LEVEL, shard_count=8)


def brute_force_candidates(block, ids) -> set[int]:
    """Per-cell Python reference for the vectorised interval routing."""
    lo, hi = cellid.cell_key_spans(np.asarray(ids, dtype=np.int64))
    hits: set[int] = set()
    for m, M in zip(lo.tolist(), hi.tolist()):
        for idx, shard in enumerate(block.shards):
            if shard.key_lo < M and shard.key_hi > m:
                hits.add(idx)
    return hits


class TestRouting:
    def test_empty_union_prunes_everything(self, curve_block):
        decision = curve_block.router.route(CellUnion(np.empty(0, dtype=np.int64)))
        assert decision.candidates.size == 0
        assert decision.total == curve_block.num_shards
        assert decision.pruned == curve_block.num_shards

    def test_candidates_cover_every_matching_row(self, curve_block):
        """Conservativeness: any shard owning a covered cell's row must
        be a candidate."""
        keys = curve_block.aggregates.keys
        rng = np.random.default_rng(23)
        sample = np.sort(rng.choice(keys, size=40, replace=False))
        decision = curve_block.router.route(CellUnion(sample, assume_sorted=True))
        candidates = set(decision.candidates.tolist())
        rows = np.searchsorted(keys, sample)
        for row in rows.tolist():
            owner = next(
                idx
                for idx, s in enumerate(curve_block.shards)
                if s.lo <= row < s.hi
            )
            assert owner in candidates

    def test_matches_brute_force(self, curve_block):
        keys = curve_block.aggregates.keys
        rng = np.random.default_rng(31)
        sample = rng.choice(keys, size=30, replace=False)
        # Mixed-level covering, as a real coverer produces: coarse
        # parents plus fine cells outside them (unions must be disjoint).
        parents = np.unique(
            np.array([cellid.parent(int(k), 10) for k in sample[:10]], dtype=np.int64)
        )
        parent_set = set(parents.tolist())
        fine = np.array(
            [
                int(k)
                for k in sample[10:]
                if cellid.parent(int(k), 10) not in parent_set
            ],
            dtype=np.int64,
        )
        union = CellUnion(np.concatenate([fine, parents]))
        decision = curve_block.router.route(union)
        assert set(decision.candidates.tolist()) == brute_force_candidates(
            curve_block, union.ids
        )

    def test_some_pruning_on_clustered_data(self, curve_block):
        """A tight covering over one corner of the data should not touch
        all eight shards."""
        keys = curve_block.aggregates.keys
        union = CellUnion(keys[:5].copy(), assume_sorted=True)
        decision = curve_block.router.route(union)
        assert 0 < decision.candidates.size < curve_block.num_shards
        assert decision.pruned > 0


class TestAfterSplice:
    def test_splice_routes_new_cell_and_counts_like_plain(self):
        """A splicing append needs no router upkeep: the new cell routes
        to the shard whose key range holds it, and COUNT over it equals
        the plain block's."""
        from repro.core import GeoBlock
        from repro.storage import PointTable, Schema, extract

        rng = np.random.default_rng(55)
        count = 4000
        table = PointTable(
            Schema(["fare"]),
            rng.normal(-73.95, 0.04, count),
            rng.normal(40.75, 0.03, count),
            {"fare": rng.gamma(3.0, 4.0, count)},
        )
        base = extract(table, EARTH)
        block = ShardedGeoBlock.build(base, 13, shard_count=4)
        plain = GeoBlock.build(base, 13)
        assert block.num_shards > 1
        for target in (block, plain):
            assert not apply_update(target, -73.5, 40.95, {"fare": 5.0})
        cell = cellid.parent(EARTH.leaf_id(-73.5, 40.95), 13)
        union = CellUnion(np.array([cell], dtype=np.int64))
        (key,) = cellid.cell_key_spans(union.ids)[0].tolist()
        owner = next(
            idx for idx, s in enumerate(block.shards) if s.key_lo <= key < s.key_hi
        )
        assert block.router.route(union).candidates.tolist() == [owner]
        row = int(np.searchsorted(block.aggregates.keys, cell))
        shard = block.shards[owner]
        assert shard.lo <= row < shard.hi
        assert block.count(union) == plain.count(union) == 1
