"""Columnar executor kernels: the "kernel" execution model.

The per-cell ``Accumulator`` fold
(:meth:`~repro.engine.executor.Executor.select_reference`) walks
covering cells one at a time -- a Python-level ``add_slice`` per cell,
each issuing a handful of tiny numpy reductions.  The kernel model
instead gathers every [lo, hi)
aggregate-row range of a query (or of a whole batch) into flat segment
arrays and reduces them with a few batched numpy calls, so interpreter
overhead is O(aggregate functions), not O(cells x rows).

Bit-exactness contract
----------------------

Kernel answers must be bit-identical to that per-cell fold (the
reference gated by ``tests/engine/test_kernels.py`` and the
``engine_batch_parity`` bench scenario).  Its float semantics are: per covering cell the partial is
``float(column[lo:hi].sum())`` (numpy's pairwise summation over a
contiguous slice), and across cells the partials fold sequentially in
covering order through a Python ``+=`` starting at ``0.0``.  Plain
``np.add.reduceat`` reproduces *neither* (its accumulation order is
sequential per segment, which disagrees with pairwise slice sums for
segments of eight rows or more), so the kernels are built from three
primitives that do:

* **length-bucketed gathers** (:func:`segment_partials`): segments are
  grouped by length and gathered into C-contiguous ``(k, L)``
  matrices; a row-wise ``.sum(axis=1)`` runs the same pairwise routine
  a 1-D slice ``.sum()`` runs, so every per-segment partial matches
  ``add_slice`` bit for bit (min/max rows are order-independent and
  exact under any scheme);
* **lockstep sequential folds** (:func:`sequential_ranged_sums`): the
  per-query partials are scattered into a ``(max_cells, num_queries)``
  matrix and reduced row by row -- each query's fold is the exact
  sequential ``0.0 + p0 + p1 + ...`` of the accumulator, all
  queries advancing one step per vectorised add.  Oversized queries
  fall back to ``np.add.accumulate`` over a ``0.0``-seeded copy, which
  performs the identical sequential fold;
* **range reductions** (:func:`ranged_reduce`): counts are
  integer-valued (every fold order is exact below 2**53) and min/max
  are order-independent, so both may use ``reduceat`` with an
  identity-padded tail and an empty-range mask.

Padding folds the identity (``0.0`` for sums) into queries shorter
than the matrix: ``x + 0.0`` differs from ``x`` only when ``x`` is
``-0.0`` -- which a fold seeded at ``0.0`` never is.

This module is pure array plumbing: it knows nothing about plans,
probes, or blocks.  The :class:`~repro.engine.executor.Executor`
assembles per-query contribution sequences (mixing range partials with
cached trie records) and calls down here.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

#: Cap on gathered ``segments x length`` matrix cells per chunk, so a
#: pathological bucket (thousands of very long segments) cannot
#: allocate an unbounded gather matrix.
GATHER_CHUNK_CELLS = 4_000_000

#: Queries with more contributions than this are folded individually
#: (via ``np.add.accumulate``) instead of joining the lockstep matrix,
#: which keeps the matrix height bounded by the *typical* covering
#: size, not the largest.
HEAVY_QUERY_ROWS = 512


class SegmentPartials:
    """Per-segment partial aggregates over [lo, hi) aggregate-row ranges.

    Column-oriented: one float64 array per statistic, aligned with the
    segment arrays that produced them.  Empty segments hold the combine
    identity (zero count/sums, +/-inf extremes).
    """

    __slots__ = ("counts", "sums", "mins", "maxs")

    def __init__(
        self,
        counts: np.ndarray,
        sums: dict[str, np.ndarray],
        mins: dict[str, np.ndarray],
        maxs: dict[str, np.ndarray],
    ) -> None:
        self.counts = counts
        self.sums = sums
        self.mins = mins
        self.maxs = maxs

    @classmethod
    def identity(cls, n: int, columns: Sequence[str]) -> "SegmentPartials":
        return cls(
            np.zeros(n, dtype=np.float64),
            {name: np.zeros(n, dtype=np.float64) for name in columns},
            {name: np.full(n, np.inf, dtype=np.float64) for name in columns},
            {name: np.full(n, -np.inf, dtype=np.float64) for name in columns},
        )

    def take(self, indices: np.ndarray) -> "SegmentPartials":
        """Partials expanded (or permuted) through an index array --
        used to blow deduplicated unique-range partials back up to one
        entry per original segment."""
        return SegmentPartials(
            self.counts[indices],
            {name: arr[indices] for name, arr in self.sums.items()},
            {name: arr[indices] for name, arr in self.mins.items()},
            {name: arr[indices] for name, arr in self.maxs.items()},
        )


def segment_partials(
    aggregates,  # noqa: ANN001 - CellAggregates (duck-typed, avoids an import cycle)
    lo: np.ndarray,
    hi: np.ndarray,
    columns: Sequence[str],
) -> SegmentPartials:
    """Partial aggregates of every [lo, hi) segment, bit-identical to
    a per-cell ``Accumulator.add_slice``.

    Segments are bucketed by length and gathered into C-contiguous
    ``(k, L)`` matrices, whose row reductions match the corresponding
    1-D slice reductions bit for bit (see the module note).  Length-1
    segments skip the gather, and buckets are chunked so the gather
    matrix stays bounded.
    """
    n = int(lo.size)
    out = SegmentPartials.identity(n, columns)
    if n == 0:
        return out
    lengths = hi - lo
    stats = [(name, *aggregates.stat_arrays(name)) for name in columns]
    counts = aggregates.counts
    for length in np.unique(lengths).tolist():
        if length <= 0:
            continue
        members = np.flatnonzero(lengths == length)
        step = max(1, GATHER_CHUNK_CELLS // length)
        for start in range(0, members.size, step):
            idx = members[start : start + step]
            if length == 1:
                rows = lo[idx]
                out.counts[idx] = counts[rows]
                for name, sums, mins, maxs in stats:
                    out.sums[name][idx] = sums[rows]
                    out.mins[name][idx] = mins[rows]
                    out.maxs[name][idx] = maxs[rows]
            else:
                gather = lo[idx][:, None] + np.arange(length)
                out.counts[idx] = counts[gather].sum(axis=1)
                for name, sums, mins, maxs in stats:
                    out.sums[name][idx] = sums[gather].sum(axis=1)
                    out.mins[name][idx] = mins[gather].min(axis=1)
                    out.maxs[name][idx] = maxs[gather].max(axis=1)
    return out


def ranged_reduce(
    ufunc: np.ufunc,
    values: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    identity: float,
) -> np.ndarray:
    """Per-range ``ufunc`` reduction; empty ranges yield ``identity``.

    Only valid for order-independent reductions (min/max) and for sums
    of integer-valued floats: ``reduceat``'s accumulation order is not
    the sequential fold general float sums would need.  The interleaved
    ``[lo0, hi0, lo1, hi1, ...]`` index trick needs every index to be a
    valid position, so the tail is padded with one identity element
    when any range ends at ``len(values)``.
    """
    m = int(lo.size)
    out = np.full(m, identity, dtype=np.float64)
    if m == 0 or values.shape[0] == 0:
        return out
    mask = hi > lo
    if not bool(mask.any()):
        return out
    vals = values.astype(np.float64, copy=False)
    if int(hi.max()) >= vals.shape[0]:
        vals = np.append(vals, identity)
    idx = np.empty(2 * m, dtype=np.int64)
    idx[0::2] = lo
    idx[1::2] = hi
    reduced = ufunc.reduceat(vals, idx)[0::2]
    out[mask] = reduced[mask]
    return out


def sequential_sum(values: np.ndarray) -> float:
    """Exact sequential left fold of one array starting at ``0.0``.

    The single-range form of :func:`sequential_ranged_sums`'s heavy
    path: ``np.add.accumulate`` over a ``0.0``-seeded copy performs the
    accumulator's ``+=`` sequence element for element.
    """
    if values.size == 0:
        return 0.0
    seeded = np.empty(values.size + 1, dtype=np.float64)
    seeded[0] = 0.0
    seeded[1:] = values
    return float(np.add.accumulate(seeded)[-1])


def sequential_ranged_sums(
    values_list: Sequence[np.ndarray], starts: np.ndarray
) -> list[np.ndarray]:
    """Exact sequential per-range float sums (the accumulator's fold).

    Every input array shares the layout described by ``starts``
    (``len(starts) - 1`` ranges, range ``q`` spanning
    ``values[starts[q]:starts[q + 1]]``); one totals array is returned
    per input.  Each range is folded strictly left to right from
    ``0.0`` -- the accumulator's ``+=`` sequence -- via the
    lockstep matrix (all ranges advance one element per vectorised
    add); ranges longer than :data:`HEAVY_QUERY_ROWS` fold through
    ``np.add.accumulate`` over a ``0.0``-seeded copy instead, which is
    the same sequential fold element for element.
    """
    k = np.diff(starts)
    nq = int(k.size)
    outs = [np.zeros(nq, dtype=np.float64) for _ in values_list]
    if nq == 0 or int(starts[-1]) == 0 or not values_list:
        return outs
    heavy = np.flatnonzero(k > HEAVY_QUERY_ROWS)
    for q in heavy.tolist():
        seg_lo, seg_hi = int(starts[q]), int(starts[q + 1])
        for values, out in zip(values_list, outs):
            seeded = np.empty(seg_hi - seg_lo + 1, dtype=np.float64)
            seeded[0] = 0.0
            seeded[1:] = values[seg_lo:seg_hi]
            out[q] = np.add.accumulate(seeded)[-1]
    light = np.flatnonzero(k <= HEAVY_QUERY_ROWS)
    if light.size == 0:
        return outs
    # Sort light ranges by descending length so the row loop only
    # touches the still-alive prefix: total work is O(contributions),
    # not O(max_len x num_ranges).
    order = light[np.argsort(-k[light], kind="stable")]
    kk = k[order]
    maxk = int(kk[0])
    if maxk == 0:
        return outs
    total = int(kk.sum())
    sorted_starts = np.cumsum(kk) - kk
    row = np.arange(total) - np.repeat(sorted_starts, kk)
    col = np.repeat(np.arange(order.size), kk)
    src = np.repeat(starts[:-1][order], kk) + row
    alive = np.searchsorted(-kk, -np.arange(maxk), side="left")
    matrix = np.zeros((maxk, order.size), dtype=np.float64)
    for values, out in zip(values_list, outs):
        # The matrix is reused across columns: every (row, col) slot is
        # overwritten and padding slots stay 0.0 (the fold identity).
        matrix[row, col] = values[src]
        totals = np.zeros(order.size, dtype=np.float64)
        for j in range(maxk):
            width = int(alive[j])
            if width == 0:
                break
            totals[:width] += matrix[j, :width]
        out[order] = totals
    return outs


def count_segments(
    offsets: np.ndarray, counts: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> int:
    """Total tuple count over [lo, hi) aggregate ranges (Listing 2):
    per range only the first and last aggregate are touched --
    ``offsets[hi - 1] + counts[hi - 1] - offsets[lo]`` -- with empty
    ranges masked out.  Pure int64 arithmetic, exact by construction.
    """
    mask = hi > lo
    if not bool(mask.any()):
        return 0
    first = lo[mask]
    last = hi[mask] - 1
    return int((offsets[last] + counts[last] - offsets[first]).sum())
