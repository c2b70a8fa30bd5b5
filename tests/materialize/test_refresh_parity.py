"""The tentpole gate: incremental MV refresh is bit-identical to a
cold rebuild, on every block kind, under single and repeated appends."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Dataset, QueryRequest, TieredCache
from repro.cells import EARTH
from repro.core import CachePolicy
from repro.geometry import Polygon
from repro.storage import PointTable, Schema, extract

LEVEL = 14

AGGS = ("count", "sum:fare", "min:fare", "max:distance", "avg:distance")

REGION = Polygon([(-74.05, 40.65), (-73.85, 40.63), (-73.82, 40.80), (-74.02, 40.82)])

#: A region far outside every appended point (delta == 0 refresh path).
FAR_REGION = Polygon.regular(-73.60, 41.05, 0.02, 6)


def make_base(count=8000, seed=55):
    rng = np.random.default_rng(seed)
    table = PointTable(
        Schema(["fare", "distance"]),
        rng.normal(-73.95, 0.04, count),
        rng.normal(40.75, 0.03, count),
        {"fare": rng.gamma(3.0, 4.0, count), "distance": rng.gamma(2.0, 2.0, count)},
    )
    return extract(table, EARTH)


def make_rows(count=60, seed=7):
    rng = np.random.default_rng(seed)
    return [
        {
            "x": float(x),
            "y": float(y),
            "fare": float(fare),
            "distance": float(distance),
        }
        for x, y, fare, distance in zip(
            rng.normal(-73.93, 0.06, count),
            rng.normal(40.74, 0.05, count),
            rng.gamma(3.0, 4.0, count),
            rng.gamma(2.0, 2.0, count),
        )
    ]


def rebuilt_base(base, rows):
    table = base.table
    xs = np.concatenate([table.xs, [row["x"] for row in rows]])
    ys = np.concatenate([table.ys, [row["y"] for row in rows]])
    columns = {
        name: np.concatenate([table.column(name), [row[name] for row in rows]])
        for name in table.schema.names
    }
    return extract(PointTable(table.schema, xs, ys, columns), EARTH)


def build_dataset(base, kind, **kwargs):
    if kind == "adaptive":
        kwargs.setdefault("policy", CachePolicy(threshold=0.5))
    elif kind == "sharded":
        kwargs.setdefault("shard_count", 8)
    kwargs.setdefault("cache", TieredCache())
    dataset = Dataset.build(base, LEVEL, kind, name="taxi", **kwargs)
    if kind == "sharded":
        assert dataset.handle.num_shards >= 4
    return dataset


def request(region=REGION, **kwargs) -> QueryRequest:
    kwargs.setdefault("aggregates", AGGS)
    return QueryRequest(region=region, dataset="taxi", **kwargs)


def cold_answer(dataset, req):
    """Fresh engine execution on the dataset's *current* arrays -- the
    cold rebuild the MV refresh is gated bit-identical against."""
    block = dataset.block
    if req.count_only:
        return {}, block.count(req.target)
    plan = block.plan(req.target)
    result = block.executor.select(plan, list(req.aggregates))
    return result.values, result.count


def assert_bit_identical(response, values, count) -> None:
    assert response.count == count
    assert set(response.values) == set(values)
    for key, want in values.items():
        got = response.values[key]
        # Byte-level equality: NaN-safe and stricter than ==.
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), key


@pytest.fixture(params=["geoblock", "sharded", "adaptive"])
def kind(request) -> str:
    return request.param


class TestRefreshParity:
    def test_single_append(self, kind):
        dataset = build_dataset(make_base(), kind)
        req = request()
        dataset.materialize(req, name="hot")
        dataset.append(make_rows())
        served = dataset.query(req)
        assert served.stats.mv_cached == 1
        assert served.stats.result_cached == 0  # version bump missed the tier
        assert_bit_identical(served, *cold_answer(dataset, req))

    def test_repeated_appends(self, kind):
        dataset = build_dataset(make_base(), kind)
        req = request()
        dataset.materialize(req, name="hot")
        for seed in (7, 11, 13):
            dataset.append(make_rows(seed=seed))
            served = dataset.query(req)
            assert served.stats.mv_cached == 1
            assert_bit_identical(served, *cold_answer(dataset, req))

    def test_count_only(self, kind):
        dataset = build_dataset(make_base(), kind)
        req = request(count_only=True, aggregates=())
        dataset.materialize(req, name="hot-count")
        dataset.append(make_rows())
        served = dataset.query(req)
        assert served.stats.mv_cached == 1
        assert served.count == dataset.block.count(req.target)

    def test_append_outside_covering_restamps_only(self, kind):
        """Rows that land in no covering cell leave the stored records
        and answer byte-stable (the delta == 0 fast path) while the
        view's version still advances."""
        dataset = build_dataset(make_base(), kind)
        req = request(region=FAR_REGION)
        info = dataset.materialize(req, name="far")
        before = dict(dataset.query(req).values)
        dataset.append(make_rows())
        view = dataset.materialized.views()[0]
        assert view.refreshed_version == dataset.version
        assert view.delta_rows == 0
        served = dataset.query(req)
        assert served.stats.mv_cached == 1
        assert_bit_identical(served, before, served.count)
        assert_bit_identical(served, *cold_answer(dataset, req))
        assert info["name"] == "far"

    def test_parity_against_rebuilt_from_scratch(self, kind):
        """Strongest form: the MV answer after appends equals a dataset
        rebuilt from the concatenated base -- not just a re-execution
        over the appended arrays."""
        base = make_base()
        rows = make_rows()
        dataset = build_dataset(base, kind)
        req = request()
        dataset.materialize(req, name="hot")
        dataset.append(rows)
        served = dataset.query(req)
        assert served.stats.mv_cached == 1
        rebuilt = build_dataset(rebuilt_base(base, rows), kind)
        assert_bit_identical(served, *cold_answer(rebuilt, req))

    def test_trained_trie_refreshes_by_full_reexecution(self):
        """An adaptive dataset with a trained trie cannot refold stored
        records bit-identically (trie partial hits group differently),
        so the refresh re-executes -- and still matches cold."""
        dataset = build_dataset(make_base(), "adaptive")
        req = request()
        # Record statistics on the handle directly (the Dataset caches
        # would short-circuit repeats without recording).
        for _ in range(4):
            dataset.handle.select(req.target, list(req.aggregates))
        dataset.handle.adapt()
        assert dataset.handle.trie is not None
        dataset.materialize(req, name="hot")
        dataset.append(make_rows())
        view = dataset.materialized.views()[0]
        assert view.full_refreshes == 1
        served = dataset.query(req)
        assert served.stats.mv_cached == 1
        want = dataset.handle.select(req.target, list(req.aggregates))
        assert served.count == want.count
        for key, value in want.values.items():
            assert np.float64(served.values[key]).tobytes() == np.float64(value).tobytes()


class TestFilteredViewRefresh:
    WHERE = {"col": "fare", "op": ">=", "value": 10}

    def test_matching_appends_refresh_the_views_mv(self, kind):
        dataset = build_dataset(make_base(), kind)
        req = request(where=self.WHERE)
        dataset.materialize(req, name="hot-filtered")
        dataset.append(make_rows())
        served = dataset.query(req)
        assert served.stats.mv_cached == 1
        view = dataset.view(self.WHERE)
        assert_bit_identical(served, *cold_answer(view, request()))

    def test_non_matching_appends_leave_answer_stable(self, kind):
        """Appended rows the predicate excludes never reach the filtered
        view's block, so its MV restamps without changing a byte."""
        dataset = build_dataset(make_base(), kind)
        req = request(where=self.WHERE)
        dataset.materialize(req, name="hot-filtered")
        before = dict(dataset.query(req).values)
        rows = [dict(row, fare=1.0) for row in make_rows()]  # all below 10
        dataset.append(rows)
        served = dataset.query(req)
        assert served.stats.mv_cached == 1
        assert served.version == dataset.version
        assert_bit_identical(served, before, served.count)
