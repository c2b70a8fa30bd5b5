"""Cost-based partition routing for sharded blocks.

The router maps a query's covering cells onto the block's shard layout
*before* any work is scheduled: each covering cell owns a contiguous
curve-key span (:func:`repro.cells.sfc.cell_key_spans`), each shard
owns a key range, and a shard is a *candidate* only if some covering
cell's span intersects it.  Pruned shards never enter the thread pool
-- the routing decision is taken on int64 interval arithmetic alone,
without touching aggregate data.

Routing is conservative by construction: key spans over-approximate the
cells actually present, so every shard that could contribute a row is a
candidate, and bit-identical results (the house rule) are preserved --
pruning only removes shards whose key range no covering cell touches.

The per-block router caches the shard interval arrays and invalidates
on the block's ``partition_epoch``, which the block bumps whenever the
shard table changes (rebuild, splice).  The cache is one
tuple swapped atomically, so concurrent queries on the shared thread
pool never observe a half-updated layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cells import sfc


@dataclass(frozen=True)
class RoutingDecision:
    """Outcome of routing one covering against the shard table."""

    total: int
    candidates: np.ndarray  # sorted shard indices that may contribute

    @property
    def pruned(self) -> int:
        return self.total - int(self.candidates.size)


class PartitionRouter:
    """Maps coverings to candidate shards via curve-key intersection."""

    __slots__ = ("_block", "_cache")

    def __init__(self, block) -> None:  # noqa: ANN001 - ShardedGeoBlock (circular)
        self._block = block
        self._cache = None  # (epoch, key_los, key_his, row_starts)

    def _layout(self):
        """Shard interval arrays for the block's current epoch."""
        epoch = self._block.partition_epoch
        cache = self._cache
        if cache is not None and cache[0] == epoch:
            return cache
        shards = self._block.shards
        key_los = np.array([s.key_lo for s in shards], dtype=np.int64)
        key_his = np.array([s.key_hi for s in shards], dtype=np.int64)
        row_starts = np.array([s.lo for s in shards], dtype=np.int64)
        cache = (epoch, key_los, key_his, row_starts)
        self._cache = cache  # single assignment: atomic swap under the GIL
        return cache

    def route(self, union) -> RoutingDecision:  # noqa: ANN001 - CellUnion
        """Candidate shards for a covering, as sorted shard indices.

        A shard ``[key_lo, key_hi)`` intersects a cell span ``[m, M)``
        iff ``key_lo < M and key_hi > m``; the union over all covering
        cells is accumulated with a difference array instead of a
        per-cell Python loop.
        """
        _, key_los, key_his, _ = self._layout()
        n = key_los.size
        ids = union.ids
        if n == 0 or ids.size == 0:
            return RoutingDecision(total=n, candidates=np.empty(0, dtype=np.int64))
        lo, hi = sfc.cell_key_spans(ids)
        first = np.searchsorted(key_his, lo, side="right")
        last = np.searchsorted(key_los, hi, side="left")  # exclusive
        live = first < last
        if not bool(live.any()):
            return RoutingDecision(total=n, candidates=np.empty(0, dtype=np.int64))
        diff = np.zeros(n + 1, dtype=np.int64)
        np.add.at(diff, first[live], 1)
        np.add.at(diff, last[live], -1)
        mask = np.cumsum(diff[:n]) > 0
        return RoutingDecision(total=n, candidates=np.flatnonzero(mask).astype(np.int64))

    def segment_owners(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Owning shard of each half-open row segment ``[lo, hi)``.

        Returns the shard index when the segment lies entirely inside
        one shard, ``-1`` for empty segments and for segments spanning
        a shard boundary (those take the materialised spanning path to
        preserve the plain block's fold order).
        """
        _, _, _, starts = self._layout()
        if starts.size == 0:
            return np.full(np.asarray(lo).shape, -1, dtype=np.int64)
        first = np.maximum(np.searchsorted(starts, lo, side="right") - 1, 0)
        last = np.searchsorted(starts, np.maximum(hi, lo + 1) - 1, side="right") - 1
        return np.where((first == last) & (hi > lo), first, np.int64(-1))
