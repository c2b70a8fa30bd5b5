"""Cost-based partition routing for sharded blocks.

The router maps a query's covering cells onto the block's split points:
each covering cell owns a contiguous curve-key span
(:func:`repro.cells.sfc.cell_key_spans`), each shard owns the key range
between two consecutive split points, and a shard is a *candidate* only
if some covering cell's span intersects it.  The decision is taken on
int64 interval arithmetic alone, without touching aggregate data, and
surfaces as ``shards_total`` / ``shards_pruned`` on every result.

Routing is conservative by construction: key spans over-approximate the
cells actually present, so every shard that could contribute a row is a
candidate -- pruning only removes shards whose key range no covering
cell touches.  Split points are fixed at construction, so the router reads
them directly and keeps no layout cache of its own.
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

    __slots__ = ("_block",)

    def __init__(self, block) -> None:  # noqa: ANN001 - ShardedGeoBlock (circular)
        self._block = block

    def route(self, union) -> RoutingDecision:  # noqa: ANN001 - CellUnion
        """Candidate shards for a covering, as sorted shard indices.

        A shard ``[key_lo, key_hi)`` intersects a cell span ``[m, M)``
        iff ``key_lo < M and key_hi > m``; the union over all covering
        cells is accumulated with a difference array instead of a
        per-cell Python loop.
        """
        n = self._block.num_shards
        ids = union.ids
        if n == 0 or ids.size == 0:
            return RoutingDecision(total=n, candidates=np.empty(0, dtype=np.int64))
        bounds = self._block.splits
        lo, hi = sfc.cell_key_spans(ids)
        first = np.searchsorted(bounds[1:], lo, side="right")
        last = np.searchsorted(bounds[:-1], hi, side="left")  # exclusive
        live = first < last
        if not bool(live.any()):
            return RoutingDecision(total=n, candidates=np.empty(0, dtype=np.int64))
        diff = np.zeros(n + 1, dtype=np.int64)
        np.add.at(diff, first[live], 1)
        np.add.at(diff, last[live], -1)
        mask = np.cumsum(diff[:n]) > 0
        return RoutingDecision(total=n, candidates=np.flatnonzero(mask).astype(np.int64))
