"""MV sidecar persistence: round-trip, warm restart, stamp guards."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Dataset, QueryRequest, TieredCache
from repro.cells import EARTH
from repro.core import CachePolicy
from repro.geometry import Polygon
from repro.materialize import MaterializedStore, load_views, sidecar_path
from repro.storage import PointTable, Schema, extract

LEVEL = 14

AGGS = ("count", "sum:fare", "min:fare", "avg:distance")

REGION = Polygon([(-74.05, 40.65), (-73.85, 40.63), (-73.82, 40.80), (-74.02, 40.82)])


def make_base(count=6000, seed=55):
    rng = np.random.default_rng(seed)
    table = PointTable(
        Schema(["fare", "distance"]),
        rng.normal(-73.95, 0.04, count),
        rng.normal(40.75, 0.03, count),
        {"fare": rng.gamma(3.0, 4.0, count), "distance": rng.gamma(2.0, 2.0, count)},
    )
    return extract(table, EARTH)


def build_dataset(kind="geoblock", seed=55, **kwargs):
    if kind == "adaptive":
        kwargs.setdefault("policy", CachePolicy(threshold=0.5))
    elif kind == "sharded":
        kwargs.setdefault("shard_count", 8)
    kwargs.setdefault("cache", TieredCache())
    dataset = Dataset.build(make_base(seed=seed), LEVEL, kind, name="taxi", **kwargs)
    if kind == "sharded":
        assert dataset.handle.num_shards >= 4
    return dataset


def request(**kwargs) -> QueryRequest:
    kwargs.setdefault("aggregates", AGGS)
    return QueryRequest(region=REGION, dataset="taxi", **kwargs)


def saved_pair(tmp_path):
    """A saved dataset whose sidecar holds two views: "hot", "other"."""
    other = Polygon([(-74.00, 40.70), (-73.90, 40.70), (-73.90, 40.78), (-74.00, 40.78)])
    dataset = build_dataset()
    dataset.materialize(request(), name="hot")
    dataset.materialize(QueryRequest(region=other, dataset="taxi", aggregates=AGGS), name="other")
    path = tmp_path / "taxi.npz"
    dataset.save(path)
    return dataset, path


def rewrite_sidecar(path, mutate) -> None:
    """Hand-edit the sidecar next to ``path``: ``mutate(meta, arrays)``."""
    from repro.core.serialize import read_archive_meta, write_archive

    with np.load(sidecar_path(path)) as archive:
        meta = read_archive_meta(archive)
        arrays = {name: archive[name] for name in archive.files if name != "meta"}
    mutate(meta, arrays)
    write_archive(sidecar_path(path), meta, arrays)


@pytest.fixture(params=["geoblock", "sharded", "adaptive"])
def kind(request) -> str:
    return request.param


class TestRoundTrip:
    def test_views_survive_save_open_bit_identically(self, kind, tmp_path):
        dataset = build_dataset(kind)
        dataset.materialize(request(), name="hot")
        dataset.materialize(request(count_only=True, aggregates=()), name="hot-count")
        want = dataset.query(request())
        path = tmp_path / "taxi.npz"
        dataset.save(path)
        assert sidecar_path(path).exists()

        reopened = Dataset.open(path, name="taxi")
        assert len(reopened.materialized) == 2
        served = reopened.query(request())
        assert served.stats.mv_cached == 1
        assert served.count == want.count
        for key, value in want.values.items():
            assert np.float64(served.values[key]).tobytes() == np.float64(value).tobytes()
        count_served = reopened.query(request(count_only=True, aggregates=()))
        assert count_served.stats.mv_cached == 1
        assert count_served.count == want.count

    def test_name_and_hits_survive(self, tmp_path):
        dataset = build_dataset()
        dataset.materialize(request(), name="hot")
        dataset.query(request())
        dataset.query(request())
        path = tmp_path / "taxi.npz"
        dataset.save(path)
        view = Dataset.open(path).materialized.views()[0]
        assert view.name == "hot"
        assert view.hits == 2

    def test_refresh_still_exact_after_reopen(self, kind, tmp_path):
        """The restored records must keep refreshing bit-identically --
        the JSON/npz round-trip preserved every byte."""
        dataset = build_dataset(kind)
        dataset.materialize(request(), name="hot")
        path = tmp_path / "taxi.npz"
        dataset.save(path)
        reopened = Dataset.open(path, name="taxi")
        rng = np.random.default_rng(3)
        rows = [
            {
                "x": float(x),
                "y": float(y),
                "fare": float(fare),
                "distance": float(distance),
            }
            for x, y, fare, distance in zip(
                rng.normal(-73.93, 0.05, 40),
                rng.normal(40.74, 0.05, 40),
                rng.gamma(3.0, 4.0, 40),
                rng.gamma(2.0, 2.0, 40),
            )
        ]
        reopened.append(rows)
        served = reopened.query(request())
        assert served.stats.mv_cached == 1
        block = reopened.block
        cold = block.executor.select(
            block.plan(request().target), list(request().aggregates)
        )
        assert served.count == cold.count
        for key, value in cold.values.items():
            assert np.float64(served.values[key]).tobytes() == np.float64(value).tobytes()


class TestSidecarGuards:
    def test_empty_store_removes_stale_sidecar(self, tmp_path):
        dataset = build_dataset()
        dataset.materialize(request(), name="hot")
        path = tmp_path / "taxi.npz"
        dataset.save(path)
        assert sidecar_path(path).exists()
        dataset.drop_view("hot")
        dataset.save(path)
        assert not sidecar_path(path).exists()

    def test_content_stamp_mismatch_yields_empty_store(self, tmp_path):
        from repro.core.serialize import save

        dataset = build_dataset(seed=55)
        dataset.materialize(request(), name="hot")
        path = tmp_path / "taxi.npz"
        dataset.save(path)
        # Rebuild the block file out-of-band from different data: the
        # sidecar must refuse to serve answers for it.
        other = build_dataset(seed=77)
        save(other.handle, path)
        reopened = Dataset.open(path)
        assert len(reopened.materialized) == 0

    def test_pre_1_8_sidecar_loads_pins_and_skips_auto_admitted(self, tmp_path):
        """Sidecars written before 1.8 flag each entry ``pinned``: the
        explicit pins load without a format bump, the auto-admitted
        guesses (``false``) must not come back as permanent views, and
        entries without the key (written from 1.8 on) load as ever."""
        other = Polygon([(-74.00, 40.70), (-73.90, 40.70), (-73.90, 40.78), (-74.00, 40.78)])
        dataset = build_dataset()
        dataset.materialize(request(), name="old-pin")
        dataset.materialize(request(count_only=True, aggregates=()), name="old-auto")
        dataset.materialize(QueryRequest(region=other, dataset="taxi", aggregates=AGGS), name="new")
        want = dataset.query(request())
        path = tmp_path / "taxi.npz"
        dataset.save(path)

        def pre_1_8(meta, arrays):
            assert all("pinned" not in view for view in meta["views"])
            by_name = {view["name"]: view for view in meta["views"]}
            by_name["old-pin"]["pinned"] = True
            by_name["old-auto"]["pinned"] = False

        rewrite_sidecar(path, pre_1_8)

        reopened = Dataset.open(path, name="taxi")
        assert sorted(view.name for view in reopened.materialized.views()) == ["new", "old-pin"]
        served = reopened.query(request())
        assert served.stats.mv_cached == 1
        assert served.count == want.count
        for key, value in want.values.items():
            assert np.float64(served.values[key]).tobytes() == np.float64(value).tobytes()
        assert reopened.query(request(count_only=True, aggregates=())).stats.mv_cached == 0

    def test_pre_1_9_sidecar_ignores_mode_and_collapses_twins(self, tmp_path):
        """Sidecars written before 1.9 carry a ``mode`` per entry.  The
        key is ignored, and one region pinned under "kernel" and again
        under "vector" now shares a key: it loads as one view, the
        first, under its name."""
        dataset, path = saved_pair(tmp_path)
        want = dataset.query(request())

        def legacy(meta, arrays):
            hot, other = meta["views"]
            hot["mode"] = "kernel"
            other["mode"] = "vector"
            meta["views"].append(dict(hot, name="hot-vector", mode="vector"))
            arrays["covering_2"] = arrays["covering_0"]
            arrays["records_2"] = arrays["records_0"]

        rewrite_sidecar(path, legacy)
        store = MaterializedStore()
        loaded = load_views(sidecar_path(path), store, dataset.block.aggregates)
        assert loaded == len(store) == store.admissions == 2
        assert [view.name for view in store.views()] == ["hot", "other"]

        reopened = Dataset.open(path, name="taxi")
        served = reopened.query(request())
        assert served.stats.mv_cached == 1
        assert served.count == want.count
        for key, value in want.values.items():
            assert np.float64(served.values[key]).tobytes() == np.float64(value).tobytes()

    def test_corrupt_entry_loads_nothing(self, tmp_path):
        """All-or-nothing: a malformed entry *after* a good one must
        not leave the good one admitted behind a return value of 0."""
        dataset, path = saved_pair(tmp_path)
        rewrite_sidecar(path, lambda meta, arrays: meta["views"][1].pop("aggs"))
        store = MaterializedStore()
        loaded = load_views(sidecar_path(path), store, dataset.block.aggregates)
        assert loaded == len(store) == store.admissions == 0
        assert store.views() == []
        assert len(Dataset.open(path).materialized) == 0

    def test_missing_sidecar_is_fine(self, tmp_path):
        dataset = build_dataset()
        path = tmp_path / "taxi.npz"
        dataset.save(path)
        assert not sidecar_path(path).exists()
        assert len(Dataset.open(path).materialized) == 0
