"""Cost model for curve-keyed shard layout decisions.

At build/open time the sharding layer has to answer two questions: *how
many* shards, and *where* the key-range split points go.  This module
answers both from data statistics alone -- cell count, tuple count, and
the tuple-weighted distribution of cells along the curve -- so the
layout adapts to skew.  Every decision can be overridden explicitly
(``shard_count=`` / ``splits=``) for reproducible layouts in tests and
benchmarks.

The split points are *equi-depth*: boundaries are placed at weighted
quantiles of the tuple distribution along the curve, so each shard holds
roughly the same number of tuples regardless of how the data clusters.
Splits always land on cell boundaries (a cell's rows are never divided
across shards), which keeps every shard a contiguous, zero-copy slice of
the block's sorted aggregate arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cells import cellid
from repro.errors import BuildError


@dataclass(frozen=True)
class CostConfig:
    """Tuning knobs for the shard-layout cost model.

    ``target_cells_per_shard`` sizes shards by index width (smaller =>
    more shards => finer pruning but a larger routing table);
    ``max_shards`` caps metadata and routing cost.
    """

    target_cells_per_shard: int = 2048
    max_shards: int = 64

    def __post_init__(self) -> None:
        if self.target_cells_per_shard <= 0:
            raise BuildError("target_cells_per_shard must be positive")
        if self.max_shards <= 0:
            raise BuildError("max_shards must be positive")


@dataclass(frozen=True)
class PartitionPlan:
    """A concrete curve-key layout: ``len(bounds) - 1`` half-open key
    ranges ``[bounds[k], bounds[k+1])`` covering the full key space."""

    shard_count: int
    bounds: np.ndarray  # int64, sorted, bounds[0] == 0, bounds[-1] == KEY_SPACE

    def __post_init__(self) -> None:
        bounds = np.asarray(self.bounds, dtype=np.int64)
        if bounds.ndim != 1 or bounds.size < 2:
            raise BuildError("partition bounds need at least [0, KEY_SPACE]")
        if bounds[0] != 0 or bounds[-1] != cellid.KEY_SPACE:
            raise BuildError("partition bounds must span the full key space")
        if bounds.size > 2 and not bool((np.diff(bounds) > 0).all()):
            raise BuildError("partition bounds must be strictly increasing")
        if self.shard_count != bounds.size - 1:
            raise BuildError("shard_count does not match bounds")
        object.__setattr__(self, "bounds", bounds)


class CostModel:
    """Picks shard count and equi-depth split points from statistics."""

    def __init__(self, config: CostConfig | None = None) -> None:
        self._config = config or CostConfig()

    @property
    def config(self) -> CostConfig:
        return self._config

    def shard_count(self, cells: int) -> int:
        """Shard count for a block of ``cells`` index entries: one shard
        per ``target_cells_per_shard`` cells (pruning granularity),
        capped by ``max_shards``; empty and single-cell blocks get one.
        The data alone decides -- never the host it runs on."""
        if cells <= 0:
            return 1
        cfg = self._config
        by_width = -(-cells // cfg.target_cells_per_shard)
        return int(min(by_width, cfg.max_shards, cells))

    def plan(
        self,
        keys: np.ndarray,
        counts: np.ndarray,
        *,
        shard_count: int | None = None,
    ) -> PartitionPlan:
        """Equi-depth partition plan for a block's sorted cell ``keys``
        with per-cell tuple ``counts``.

        ``shard_count`` overrides the model's choice (reproducibility);
        the realised count can still come out lower when the data has
        fewer distinct split cells than requested.
        """
        keys = np.asarray(keys, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        if keys.shape != counts.shape:
            raise BuildError("keys and counts must align")
        if shard_count is not None and shard_count <= 0:
            raise BuildError(f"shard_count must be positive, got {shard_count}")
        want = shard_count if shard_count is not None else self.shard_count(keys.size)
        bounds = equi_depth_bounds(keys, counts, want)
        return PartitionPlan(shard_count=bounds.size - 1, bounds=bounds)


def equi_depth_bounds(keys: np.ndarray, counts: np.ndarray, shard_count: int) -> np.ndarray:
    """Equi-depth split bounds over the curve-key space.

    Walks the cumulative tuple distribution of the (sorted) cells and
    places a boundary at the cell where each of the ``shard_count - 1``
    weight quantiles is crossed.  Boundaries are the starting leaf key
    of the chosen cells, so a split never lands inside a cell's key
    span.  Duplicate or edge-hugging quantile rows collapse, which is
    how heavily skewed data yields fewer shards than requested rather
    than empty ones.
    """
    keys = np.asarray(keys, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    if shard_count <= 1 or keys.size <= 1:
        return np.array([0, cellid.KEY_SPACE], dtype=np.int64)
    shard_count = min(shard_count, keys.size)
    cum = np.cumsum(counts, dtype=np.int64)
    total = int(cum[-1])
    if total <= 0:  # degenerate stats: fall back to equal cell counts
        rows = (np.arange(1, shard_count, dtype=np.int64) * keys.size) // shard_count
    else:
        targets = (np.arange(1, shard_count, dtype=np.int64) * total) // shard_count
        rows = np.searchsorted(cum, targets, side="right")
    rows = np.unique(rows)
    rows = rows[(rows > 0) & (rows < keys.size)]
    if rows.size == 0:
        return np.array([0, cellid.KEY_SPACE], dtype=np.int64)
    starts = cellid.range_min(keys[rows]) >> 1
    inner = np.unique(starts)
    inner = inner[(inner > 0) & (inner < cellid.KEY_SPACE)]
    return np.concatenate(
        (
            np.array([0], dtype=np.int64),
            inner.astype(np.int64),
            np.array([cellid.KEY_SPACE], dtype=np.int64),
        )
    )
