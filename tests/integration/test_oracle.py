"""Engine answers against an independent brute-force oracle.

Every other parity gate compares one engine path with another (batched
vs sequential, sharded vs plain, cached vs cold), so a bug shared by
all paths -- in the pre-aggregated cell records, the trie, the kernel
reduce, the shard splits or the append fold -- passes all of them.
The oracle here shares nothing with the engine but the covering: it
keys the raw rows itself, keeps those whose leaf key falls in one of
the covering's cell spans (:func:`repro.cells.cellid.cell_key_spans`)
and folds their column values directly.  Counts, minima and maxima
must match exactly; sums and averages within 1e-9 relative of an
exact ``math.fsum``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.api import Dataset, QueryRequest, parse_aggs
from repro.cells import cellid
from repro.core import AdaptiveGeoBlock, CachePolicy, GeoBlock
from repro.engine.shards import ShardedGeoBlock
from repro.workloads.workload import Query

LEVEL = 14
COLUMNS = ("fare", "distance")
AGGS = ["count"] + [f"{op}:{column}" for column in COLUMNS for op in ("sum", "min", "max", "avg")]
SPECS = parse_aggs(AGGS)
KINDS = ("plain", "sharded", "adaptive")


class RawRows:
    """The rows an answer must fold: leaf keys plus column values, kept
    apart from every engine structure."""

    def __init__(self, space, xs, ys, columns) -> None:  # noqa: ANN001
        self.space = space
        self.keys = space.leaf_ids(xs, ys) >> 1
        self.columns = {
            name: np.asarray(values, dtype=np.float64) for name, values in columns.items()
        }

    @classmethod
    def of(cls, base) -> "RawRows":  # noqa: ANN001 - BaseData
        table = base.table
        return cls(base.space, table.xs, table.ys, {name: table.column(name) for name in COLUMNS})

    def plus(self, rows: list[dict]) -> "RawRows":
        appended = RawRows(
            self.space,
            [row["x"] for row in rows],
            [row["y"] for row in rows],
            {name: [row[name] for row in rows] for name in COLUMNS},
        )
        merged = RawRows.__new__(RawRows)
        merged.space = self.space
        merged.keys = np.concatenate([self.keys, appended.keys])
        merged.columns = {
            name: np.concatenate([values, appended.columns[name]])
            for name, values in self.columns.items()
        }
        return merged

    def where(self, mask: np.ndarray) -> "RawRows":
        kept = RawRows.__new__(RawRows)
        kept.space = self.space
        kept.keys = self.keys[mask]
        kept.columns = {name: values[mask] for name, values in self.columns.items()}
        return kept

    def fold(self, covering) -> tuple[int, dict[str, float]]:  # noqa: ANN001 - CellUnion
        """The expected count and values of every aggregate in ``SPECS``."""
        lo, hi = cellid.cell_key_spans(covering.ids)
        inside = np.zeros(self.keys.shape, dtype=bool)
        for start, stop in zip(lo.tolist(), hi.tolist()):
            inside |= (self.keys >= start) & (self.keys < stop)
        count = int(inside.sum())
        want: dict[str, float] = {}
        for spec in SPECS:
            if spec.function == "count":
                want[spec.key] = float(count)
                continue
            values = self.columns[spec.column][inside].tolist()
            if spec.function == "sum":
                want[spec.key] = math.fsum(values)
            elif not values:
                want[spec.key] = math.nan  # min / max / avg of nothing
            elif spec.function == "avg":
                want[spec.key] = math.fsum(values) / count
            else:
                want[spec.key] = min(values) if spec.function == "min" else max(values)
        return count, want


def assert_matches_oracle(got, want: tuple[int, dict[str, float]]) -> None:  # noqa: ANN001
    """``got`` is any answer with ``count`` and ``values``."""
    count, values = want
    assert got.count == count
    assert set(got.values) == set(values)
    for key, value in values.items():
        if math.isnan(value):
            assert math.isnan(got.values[key]), key
        elif key.startswith(("count", "min", "max")):
            assert got.values[key] == value, key
        else:
            assert got.values[key] == pytest.approx(value, rel=1e-9, abs=0.0), key


def build_handle(base, kind, polygons):  # noqa: ANN001, ANN201
    if kind == "plain":
        return GeoBlock.build(base, LEVEL)
    if kind == "sharded":
        sharded = ShardedGeoBlock.build(base, LEVEL, shard_count=8)
        assert sharded.num_shards > 1
        return sharded
    # A trained trie, so answers mix trie records with leaf folds.
    adaptive = AdaptiveGeoBlock(GeoBlock.build(base, LEVEL), CachePolicy(threshold=0.5))
    for polygon in polygons:
        adaptive.select(polygon, SPECS)
    adaptive.adapt()
    return adaptive


def append_rows(count: int = 300, seed: int = 21) -> list[dict]:
    rng = np.random.default_rng(seed)
    return [
        {"x": float(x), "y": float(y), "fare": float(fare), "distance": float(distance)}
        for x, y, fare, distance in zip(
            rng.normal(-73.95, 0.05, count),
            rng.normal(40.72, 0.05, count),
            rng.gamma(3.0, 4.0, count),
            rng.gamma(2.0, 2.0, count),
        )
    ]


@pytest.fixture(scope="module")
def raw(small_base) -> RawRows:
    return RawRows.of(small_base)


@pytest.fixture(scope="module", params=KINDS)
def handle(request, small_base, small_polygons):  # noqa: ANN201
    return build_handle(small_base, request.param, small_polygons)


def test_select(handle, raw, small_polygons):
    for polygon in small_polygons:
        got = handle.select(polygon, SPECS)
        assert_matches_oracle(got, raw.fold(handle.covering(polygon)))


def test_count(handle, raw, small_polygons):
    for polygon in small_polygons:
        assert handle.count(polygon) == raw.fold(handle.covering(polygon))[0]


def test_run_batch(handle, raw, small_polygons):
    polygons = list(small_polygons) * 2
    results = handle.run_batch([Query(region=polygon, aggs=tuple(SPECS)) for polygon in polygons])
    assert len(results) == len(polygons)
    for polygon, got in zip(polygons, results):
        assert_matches_oracle(got, raw.fold(handle.covering(polygon)))


def test_group_by_members(handle, raw, small_polygons):
    dataset = Dataset(handle, result_cache=False)
    named = [(f"zone_{index}", polygon) for index, polygon in enumerate(small_polygons)]
    response = dataset.query(QueryRequest(group_by=named, aggregates=AGGS))
    assert [row.name for row in response.groups] == [name for name, _ in named]
    for row, (_, polygon) in zip(response.groups, named):
        assert_matches_oracle(row, raw.fold(handle.covering(polygon)))


def test_filtered_view(handle, raw, small_base, small_polygons):
    """A ``where`` request answers from a per-predicate block built over
    the qualifying rows only."""
    dataset = Dataset(handle, base=small_base, result_cache=False)
    where = {"col": "fare", "op": ">=", "value": 10}
    kept = raw.where(raw.columns["fare"] >= 10)
    for polygon in small_polygons:
        got = dataset.query(QueryRequest(region=polygon, aggregates=AGGS, where=where))
        assert_matches_oracle(got, kept.fold(handle.covering(polygon)))


@pytest.mark.parametrize("kind", KINDS)
def test_select_after_append(kind, small_base, raw, small_polygons):
    dataset = Dataset(build_handle(small_base, kind, small_polygons), result_cache=False)
    rows = append_rows()
    assert dataset.append(rows).appended == len(rows)
    grown = raw.plus(rows)
    for polygon in small_polygons:
        got = dataset.query(QueryRequest(region=polygon, aggregates=AGGS))
        assert_matches_oracle(got, grown.fold(dataset.handle.covering(polygon)))


@pytest.mark.parametrize("kind", KINDS)
def test_materialized_views_after_append(kind, small_base, raw, small_polygons):
    """Pinned views refresh incrementally on append; what they serve
    afterwards must still be the fold over every row."""
    dataset = Dataset(build_handle(small_base, kind, small_polygons))
    pinned = small_polygons[:4]
    for index, polygon in enumerate(pinned):
        dataset.materialize(QueryRequest(region=polygon, aggregates=AGGS), name=f"mv-{index}")
    rows = append_rows()
    dataset.append(rows)
    grown = raw.plus(rows)
    for polygon in pinned:
        got = dataset.query(QueryRequest(region=polygon, aggregates=AGGS))
        assert got.stats.mv_cached == 1
        assert_matches_oracle(got, grown.fold(dataset.handle.covering(polygon)))
