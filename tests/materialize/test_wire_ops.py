"""The v2.1 wire surface: materialize / views / drop_view ops, the
fluent terminal, and their error codes."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import Dataset, GeoService, MaterializeRequest, TieredCache, region_to_geojson
from repro.cells import EARTH
from repro.geometry import Polygon
from repro.storage import PointTable, Schema, extract

LEVEL = 14

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


def make_service():
    service = GeoService(cache=TieredCache())
    service.register(
        "taxi", Dataset.build(make_base(), LEVEL, "geoblock", name="taxi")
    )
    return service


def wire(op=None, **extra) -> dict:
    payload = {
        "v": 2,
        "dataset": "taxi",
        "region": region_to_geojson(REGION),
        "aggregates": ["count", "avg:fare"],
    }
    if op is not None:
        payload["op"] = op
    payload.update(extra)
    return json.loads(json.dumps(payload))


class TestMaterializeOp:
    def test_materialize_then_query_serves_from_view(self):
        service = make_service()
        envelope = service.run_dict(wire(op="materialize", name="hot-soho"))
        assert envelope["ok"]
        assert envelope["data"]["name"] == "hot-soho"
        assert envelope["data"]["kind"] == "materialized"
        answer = service.run_dict(wire())
        assert answer["stats"]["mv"]["cached"] == 1

    def test_duplicate_name_conflicts(self):
        service = make_service()
        assert service.run_dict(wire(op="materialize", name="hot"))["ok"]
        envelope = service.run_dict(
            {
                "v": 2,
                "op": "materialize",
                "dataset": "taxi",
                "region": {"bbox": [-74.0, 40.7, -73.9, 40.8]},
                "name": "hot",
            }
        )
        assert envelope["ok"] is False
        assert envelope["error"]["code"] == "duplicate_view"

    def test_duplicate_query_conflicts(self):
        service = make_service()
        assert service.run_dict(wire(op="materialize"))["ok"]
        envelope = service.run_dict(wire(op="materialize"))
        assert envelope["ok"] is False
        assert envelope["error"]["code"] == "duplicate_view"

    def test_grouped_rejected(self):
        service = make_service()
        payload = {
            "v": 2,
            "op": "materialize",
            "dataset": "taxi",
            "group_by": [{"name": "a", "region": {"bbox": [-74.0, 40.7, -73.9, 40.8]}}],
        }
        envelope = service.run_dict(payload)
        assert envelope["ok"] is False
        # group_by is not part of the materialize shape at all.
        assert envelope["error"]["code"] == "bad_request"

    def test_scalar_block_rejected(self):
        """Only the experiment harness switches a block to the scalar
        model; such a block has no re-fold parity gate, so it refuses
        to pin value queries (counts are model-independent)."""
        service = make_service()
        service.dataset("taxi").block.query_mode = "scalar"
        envelope = service.run_dict(wire(op="materialize"))
        assert envelope["ok"] is False
        assert envelope["error"]["code"] == "unsupported_op"
        counted = service.run_dict(wire(op="materialize", hints={"count_only": True}))
        assert counted["ok"] is True

    def test_v1_rejected(self):
        service = make_service()
        payload = wire(op="materialize")
        del payload["v"]
        envelope = service.run_dict(payload)
        assert envelope["ok"] is False
        assert envelope["error"]["code"] == "bad_request"

    def test_request_roundtrip(self):
        parsed = MaterializeRequest.from_dict(wire(op="materialize", name="hot"))
        assert parsed.name == "hot"
        assert parsed.dataset == "taxi"
        again = MaterializeRequest.from_dict(parsed.to_dict())
        assert again.name == "hot"
        assert again.query.aggregates == parsed.query.aggregates


class TestViewsOp:
    def test_views_lists_materialized_and_filtered(self):
        service = make_service()
        service.run_dict(wire(op="materialize", name="hot"))
        where = {"col": "fare", "op": ">=", "value": 10}
        service.run_dict(wire(where=where))  # builds the filtered view
        envelope = service.run_dict({"v": 2, "op": "views", "dataset": "taxi"})
        assert envelope["ok"]
        data = envelope["data"]
        assert data["dataset"] == "taxi"
        names = [view["name"] for view in data["materialized"]]
        assert names == ["hot"]
        assert data["materialized"][0]["where"] is None
        assert data["materialized"][0]["stale"] is False
        assert [view["where"] for view in data["filtered"]] == ["fare >= 10.0"]

    def test_views_shows_staleness_and_hits(self):
        service = make_service()
        service.run_dict(wire(op="materialize", name="hot"))
        service.run_dict(wire())
        rows = [{"x": -73.95, "y": 40.75, "fare": 9.0, "distance": 1.0}]
        service.run_dict({"v": 2, "op": "append", "dataset": "taxi", "rows": rows})
        data = service.run_dict({"v": 2, "op": "views", "dataset": "taxi"})["data"]
        view = data["materialized"][0]
        assert view["hits"] == 1
        assert view["stale"] is False  # the append refreshed it in lockstep
        assert view["version"] == data["version"] == 2
        assert view["delta_rows"] >= 0

    def test_views_requires_v2(self):
        service = make_service()
        envelope = service.run_dict({"op": "views", "dataset": "taxi"})
        assert envelope["ok"] is False
        assert envelope["error"]["code"] == "bad_request"


class TestDropViewOp:
    def test_drop_then_unknown(self):
        service = make_service()
        service.run_dict(wire(op="materialize", name="hot"))
        envelope = service.run_dict(
            {"v": 2, "op": "drop_view", "dataset": "taxi", "name": "hot"}
        )
        assert envelope["ok"]
        assert envelope["data"]["dropped"] == "hot"
        again = service.run_dict(
            {"v": 2, "op": "drop_view", "dataset": "taxi", "name": "hot"}
        )
        assert again["ok"] is False
        assert again["error"]["code"] == "unknown_view"

    def test_drop_needs_name(self):
        service = make_service()
        envelope = service.run_dict({"v": 2, "op": "drop_view", "dataset": "taxi"})
        assert envelope["ok"] is False
        assert envelope["error"]["code"] == "bad_request"

    def test_drop_reaches_filtered_view_stores(self):
        service = make_service()
        where = {"col": "fare", "op": ">=", "value": 10}
        service.run_dict(wire(op="materialize", where=where, name="hot-filtered"))
        envelope = service.run_dict(
            {"v": 2, "op": "drop_view", "dataset": "taxi", "name": "hot-filtered"}
        )
        assert envelope["ok"]
        assert envelope["data"]["dropped"] == "hot-filtered"


class TestFluentTerminal:
    def test_fluent_materialize(self):
        dataset = Dataset.build(
            make_base(), LEVEL, "geoblock", name="taxi", cache=TieredCache()
        )
        info = dataset.over(REGION).agg("count", "avg:fare").materialize("hot")
        assert info["name"] == "hot"
        served = dataset.over(REGION).agg("count", "avg:fare").run()
        assert served.stats.mv_cached == 1

    def test_fluent_grouped_rejected(self):
        from repro.api import ApiError

        dataset = Dataset.build(
            make_base(), LEVEL, "geoblock", name="taxi", cache=TieredCache()
        )
        features = [{"name": "a", "region": {"bbox": [-74.0, 40.7, -73.9, 40.8]}}]
        with pytest.raises(ApiError) as caught:
            dataset.group_by(features).agg("count").materialize()
        assert caught.value.code == "unsupported_op"


class TestServiceStats:
    def test_mv_block_counts_admissions_and_refreshes(self):
        service = make_service()
        service.run_dict(wire(op="materialize", name="hot"))
        service.run_dict(wire())
        rows = [{"x": -73.95, "y": 40.75, "fare": 9.0, "distance": 1.0}]
        service.run_dict({"v": 2, "op": "append", "dataset": "taxi", "rows": rows})
        service.run_dict(wire())
        stats = service.stats()
        assert stats["mv"]["views"] == 1
        assert stats["mv"]["admissions"] == 1
        assert stats["mv"]["hits"] == 2
        assert stats["mv"]["incremental_refreshes"] + stats["mv"]["full_refreshes"] >= 1
        assert stats["datasets"]["taxi"]["materialized"] == 1
