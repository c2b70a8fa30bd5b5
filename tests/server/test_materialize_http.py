"""Materialized views over the wire: the /materialize and /views
routes, management ops through /query, the /stats mv block, and the
warm-restart path (a reopened server serves from the persisted MVs)."""

from __future__ import annotations

from repro.api import GeoService
from repro.materialize import sidecar_path

from tests.server.conftest import AGGS, REGION, answer, build_dataset, make_rows, wire_query


def materialize_body(name=None, **extra) -> dict:
    body = {
        "dataset": "small",
        "region": dict(REGION),
        "aggregates": list(AGGS),
    }
    if name is not None:
        body["name"] = name
    body.update(extra)
    return body


class TestMaterializeRoute:
    def test_post_materialize_then_queries_serve_from_it(self, client, service):
        reply = client.request("POST", "/materialize", materialize_body(name="hot"))
        assert reply.status == 200
        assert reply.ok
        assert reply.x_cache == "bypass"
        assert reply.body["data"]["name"] == "hot"
        served = client.query(wire_query())
        assert served.body["stats"]["mv"]["cached"] == 1
        assert answer(served.body) == answer(service.run_dict(wire_query()))

    def test_duplicate_is_409(self, client):
        assert client.request("POST", "/materialize", materialize_body(name="hot")).ok
        reply = client.request("POST", "/materialize", materialize_body(name="hot"))
        assert reply.status == 409
        assert reply.body["error"]["code"] == "duplicate_view"

    def test_body_cannot_override_op(self, client):
        reply = client.request(
            "POST", "/materialize", materialize_body(op="query")
        )
        assert reply.status == 400
        assert reply.body["error"]["code"] == "bad_request"

    def test_drop_view_through_unified_query_route(self, client, edge):
        client.request("POST", "/materialize", materialize_body(name="hot"))
        reply = client.query({"v": 2, "op": "drop_view", "dataset": "small", "name": "hot"})
        assert reply.status == 200
        assert reply.body["data"]["dropped"] == "hot"
        assert reply.x_cache == "bypass"
        assert len(edge) == 0  # management ops never enter the edge
        missing = client.query(
            {"v": 2, "op": "drop_view", "dataset": "small", "name": "hot"}
        )
        assert missing.status == 404
        assert missing.body["error"]["code"] == "unknown_view"


class TestViewsRoute:
    def test_get_views_lists_the_view(self, client):
        client.request("POST", "/materialize", materialize_body(name="hot"))
        reply = client.request("GET", "/views?dataset=small")
        assert reply.status == 200
        assert reply.ok
        data = reply.body["data"]
        assert data["dataset"] == "small"
        assert [view["name"] for view in data["materialized"]] == ["hot"]

    def test_sole_dataset_needs_no_param(self, client):
        reply = client.request("GET", "/views")
        assert reply.status == 200
        assert reply.body["data"]["dataset"] == "small"
        assert reply.body["data"]["materialized"] == []

    def test_unknown_dataset_is_404(self, client):
        reply = client.request("GET", "/views?dataset=nope")
        assert reply.status == 404
        assert reply.body["error"]["code"] == "unknown_dataset"

    def test_stats_has_mv_block(self, client):
        client.request("POST", "/materialize", materialize_body(name="hot"))
        client.query(wire_query())
        stats = client.stats().body
        assert stats["mv"]["views"] == 1
        assert stats["mv"]["hits"] == 1
        assert stats["datasets"]["small"]["materialized"] == 1


class TestWarmRestart:
    def test_reopened_server_serves_from_persisted_views(self, small_base, tmp_path):
        """Save a dataset with a pinned MV, open it in a brand-new
        service behind a brand-new server: the first query is already
        an MV hit and the body matches the original server's answer."""
        path = tmp_path / "small.npz"
        first = GeoService()
        first.register("small", build_dataset(small_base, "geoblock"))
        assert first.run_dict({"v": 2, "op": "materialize", **materialize_body(name="hot")})["ok"]
        want = answer(first.run_dict(wire_query()))
        first.dataset("small").save(path)
        assert sidecar_path(path).exists()

        from repro.server import GeoClient, GeoHTTPServer

        warm = GeoService()
        warm.open("small", path)
        with GeoHTTPServer(warm, port=0) as server:
            with GeoClient.for_server(server) as client:
                reply = client.query(wire_query())
                assert reply.status == 200
                assert reply.body["stats"]["mv"]["cached"] == 1
                assert answer(reply.body) == want
                views = client.request("GET", "/views").body["data"]
                assert [view["name"] for view in views["materialized"]] == ["hot"]

    def test_refresh_continues_across_restart(self, small_base, tmp_path):
        """Append after the warm restart: the restored MV refreshes and
        answers identically to a cold in-process service."""
        path = tmp_path / "small.npz"
        first = GeoService()
        first.register("small", build_dataset(small_base, "geoblock"))
        assert first.run_dict({"v": 2, "op": "materialize", **materialize_body(name="hot")})["ok"]
        first.dataset("small").save(path)

        from repro.server import GeoClient, GeoHTTPServer

        warm = GeoService()
        warm.open("small", path)
        with GeoHTTPServer(warm, port=0) as server:
            with GeoClient.for_server(server) as client:
                rows = make_rows()
                assert client.append(rows, dataset="small").status == 200
                reply = client.query(wire_query())
                assert reply.body["stats"]["mv"]["cached"] == 1

        cold = GeoService()
        cold.open("cold", path)
        cold.dataset("cold").drop_view("hot")
        cold.dataset("cold").append(rows)
        truth = cold.run_dict(wire_query(dataset="cold"))
        assert reply.body["data"] == truth["data"]
