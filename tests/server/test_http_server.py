"""Integration tests of the wire server: real sockets on ephemeral
ports, round-trips on every block kind, error mapping, edge-cache
states, graceful shutdown."""

from __future__ import annotations

import json
import socket

import pytest

from repro.api import GeoService
from repro.api.errors import HTTP_STATUS, http_status
from repro.server import EdgeCache, GeoClient, GeoHTTPServer

from tests.server.conftest import (
    BBOXES,
    answer,
    build_dataset,
    make_rows,
    read_shapes,
    wire_query,
)


class TestRoundTripAllKinds:
    """query / append / stats / healthz against plain, sharded, and
    adaptive datasets behind one live server each."""

    @pytest.fixture()
    def kind_server(self, small_base, kind):
        service = GeoService()
        service.register("small", build_dataset(small_base, kind))
        with GeoHTTPServer(service, port=0, edge=EdgeCache(ttl=600.0)) as running:
            with GeoClient.for_server(running) as connected:
                yield running, connected, service

    def test_query_matches_in_process(self, kind_server):
        server, client, service = kind_server
        reply = client.query(wire_query())
        assert reply.status == 200
        assert reply.ok
        assert answer(reply.body) == answer(service.run_dict(wire_query()))
        assert reply.body["data"]["count"] > 0

    def test_versionless_group_by_matches_v2(self, kind_server):
        """A payload without "v" is the current envelope over the wire
        too: a grouped request answers exactly like its "v": 2 twin."""
        server, client, service = kind_server
        grouped = {
            "dataset": "small",
            "group_by": [
                {"name": "west", "region": {"bbox": [-74.05, 40.65, -73.95, 40.82]}},
                {"name": "east", "region": {"bbox": [-73.95, 40.65, -73.82, 40.82]}},
            ],
            "aggregates": ["count", "sum:fare"],
        }
        versionless = client.query(grouped)
        versioned = client.query(dict(grouped, v=2))
        assert versionless.status == versioned.status == 200
        assert answer(versionless.body) == answer(versioned.body)
        assert [row["name"] for row in versionless.body["data"]["groups"]] == ["west", "east"]

    def test_append_then_query_reflects_rows(self, kind_server):
        server, client, service = kind_server
        before = client.query(wire_query()).body
        rows = make_rows()
        appended = client.append(rows, dataset="small")
        assert appended.status == 200
        assert appended.x_cache == "bypass"
        assert appended.body["data"]["appended"] == len(rows)
        assert appended.body["version"] == 2
        after = client.query(wire_query())
        assert after.x_cache == "miss"  # the version bump killed the entry
        assert after.body["version"] == 2
        assert after.body["data"]["count"] >= before["data"]["count"]
        assert answer(after.body) == answer(service.run_dict(wire_query()))

    def test_healthz_and_stats(self, kind_server):
        server, client, _ = kind_server
        health = client.healthz()
        assert health.status == 200
        assert health.body == {"ok": True, "status": "ok", "datasets": 1}
        client.query(wire_query())
        stats = client.stats().body
        assert stats["ok"]
        assert stats["server"]["requests"] >= 2
        assert stats["server"]["by_route"]["POST /query"] >= 1
        assert stats["edge"]["ttl_s"] == 600.0
        assert stats["datasets"]["small"]["version"] == 1
        assert "cache" in stats

    def test_datasets_catalog(self, kind_server):
        _, client, service = kind_server
        catalog = client.datasets()
        assert catalog.status == 200
        assert catalog.body["ok"]
        assert catalog.body["datasets"] == service.describe()["datasets"]
        assert catalog.body["datasets"][0]["name"] == "small"


class TestBatch:
    def test_batch_is_one_engine_pass_with_member_envelopes(self, client, service):
        payloads = [wire_query(), wire_query()]
        reply = client.query_batch(payloads)
        assert reply.status == 200
        assert isinstance(reply.body, list) and len(reply.body) == 2
        want = [answer(envelope) for envelope in service.run_batch_dict(payloads)]
        assert [answer(envelope) for envelope in reply.body] == want

    def test_bad_member_fails_the_batch_and_is_uncacheable(self, client, edge):
        """The engine pass is all-or-nothing (run_batch_dict's
        retry-safety contract): one bad member fails every sibling, and
        the failed batch never enters the edge."""
        good, bad = wire_query(), wire_query(dataset="nope")
        reply = client.query_batch([good, bad])
        assert reply.status == 200  # members carry their own envelopes
        assert [member["ok"] for member in reply.body] == [False, False]
        assert reply.body[1]["error"]["code"] == "unknown_dataset"
        assert reply.x_cache == "miss"
        assert client.query_batch([good, bad]).x_cache == "miss"  # resend recomputes
        assert len(edge) == 0


NAN, INF = float("nan"), float("inf")


def ring_region(vertex: int, axis: int, value: float) -> dict:
    """A GeoJSON square with one coordinate replaced by ``value``."""
    ring = [[-74.0, 40.7], [-73.9, 40.7], [-73.9, 40.8], [-74.0, 40.8]]
    ring[vertex][axis] = value
    return {"type": "Polygon", "coordinates": [ring]}


class TestErrorMapping:
    def test_table_is_total_and_sane(self):
        assert HTTP_STATUS["bad_request"] == 400
        assert HTTP_STATUS["unknown_dataset"] == 404
        assert HTTP_STATUS["not_found"] == 404
        assert HTTP_STATUS["unsupported_op"] == 400
        assert HTTP_STATUS["internal"] == 500
        assert http_status("never-heard-of-it") == 500

    def test_every_code_constant_has_a_status(self):
        from repro.api import errors

        constants = {
            value
            for name, value in vars(errors).items()
            if name.isupper() and isinstance(value, str)
        }
        assert constants == set(errors.HTTP_STATUS) == set(errors.ERROR_CODES)

    @pytest.mark.parametrize(
        ("payload", "status", "code"),
        [
            (wire_query(dataset="nope"), 404, "unknown_dataset"),
            ({"v": 2, "dataset": "small"}, 400, "bad_request"),
            (dict(wire_query(), v=1), 400, "bad_request"),
            (
                {"v": 2, "dataset": "small", "region": {"bogus": 1}, "aggregates": ["count"]},
                400,
                "bad_region",
            ),
            (
                dict(wire_query(), aggregates=["count", "median:fare"]),
                400,
                "bad_aggregate",
            ),
            # json.loads accepts NaN / Infinity: non-finite coordinates
            # are the client's fault, never a 500 or a 200 over garbage.
            (dict(wire_query(), region=ring_region(1, 1, NAN)), 400, "bad_region"),
            (dict(wire_query(), region=ring_region(1, 0, INF)), 400, "bad_region"),
            (dict(wire_query(), region={"bbox": [-74.0, 40.7, NAN, 40.8]}), 400, "bad_region"),
            (dict(wire_query(), region={"bbox": [-74.0, 40.7, -73.9, INF]}), 400, "bad_region"),
            # A JSON integer too large for a float is not finite either.
            (dict(wire_query(), region=ring_region(2, 0, 10**400)), 400, "bad_region"),
            (dict(wire_query(), region={"bbox": [10**400, 40.7, -73.9, 40.8]}), 400, "bad_region"),
            # The retired execution-model hint is an unknown hint.
            (dict(wire_query(), hints={"mode": "kernel"}), HTTP_STATUS["bad_hint"], "bad_hint"),
        ],
    )
    def test_api_errors_map_to_statuses(self, client, payload, status, code):
        reply = client.query(payload)
        assert reply.status == status
        assert reply.body["ok"] is False
        assert reply.body["error"]["code"] == code

    def test_unknown_routes_are_404_envelopes(self, client):
        for method, path in (("GET", "/zzz"), ("POST", "/zzz")):
            reply = client.request(method, path, payload={} if method == "POST" else None)
            assert reply.status == 404
            assert reply.body["error"]["code"] == "not_found"

    def test_invalid_json_and_missing_body(self, client, server):
        import http.client

        reply = client.request("POST", "/query", payload=None)  # no Content-Length
        assert reply.status == 400
        assert reply.body["error"]["code"] == "bad_request"
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            conn.request("POST", "/query", body=b"{not json", headers={"Content-Length": "9"})
            response = conn.getresponse()
            body = json.loads(response.read())
            assert response.status == 400
            assert body["error"]["code"] == "bad_request"
        finally:
            conn.close()

    @pytest.mark.parametrize("length", ["abc", "-1", "1.5"])
    def test_bad_content_length_answers_400_and_closes(self, server, length):
        """A malformed or negative Content-Length is the client's error:
        a 400 envelope, then the socket closes (its body end is
        unknown).  The timeout turns a hang into a failure."""
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
            sock.sendall(
                f"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: {length}\r\n\r\n{{}}".encode()
            )
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400")
        envelope = json.loads(body)
        assert envelope["error"]["code"] == "bad_request"
        assert repr(length) in envelope["error"]["message"]

    def test_append_cannot_override_op(self, client):
        reply = client.request(
            "POST", "/append", {"op": "query", "rows": [], "dataset": "small"}
        )
        assert reply.status == 400
        assert reply.body["error"]["code"] == "bad_request"

    def test_error_responses_are_never_cached(self, client, edge):
        client.query(wire_query(dataset="nope"))
        assert len(edge) == 0
        assert client.query(wire_query(dataset="nope")).x_cache == "miss"


class TestEdgeStates:
    def test_miss_then_hit_replays_bytes(self, client, edge):
        first = client.query(wire_query())
        second = client.query(wire_query())
        assert (first.x_cache, second.x_cache) == ("miss", "hit")
        # Byte replay: even the stats block matches the stored answer.
        assert second.body == first.body
        assert edge.hits == 1

    def test_sixteen_repeats_hit_fifteen_times(self, client, edge):
        """Six bodies sent 16 times each: exactly the first send of each
        misses, every repeat replays the first reply byte for byte, and
        the headers and the edge counters agree (hit rate 15/16)."""
        payloads = read_shapes(BBOXES)
        first = [client.query(payload) for payload in payloads]
        assert [reply.x_cache for reply in first] == ["miss"] * len(payloads)
        hits = 0
        for _ in range(15):
            for payload, want in zip(payloads, first):
                reply = client.query(payload)
                assert reply.status == 200
                assert reply.body == want.body
                hits += reply.x_cache == "hit"
        assert hits / (16 * len(payloads)) == 15 / 16
        assert (edge.stats()["hits"], edge.stats()["misses"]) == (hits, len(payloads))

    def test_different_bodies_are_different_keys(self, client, edge):
        client.query(wire_query())
        other = client.query(wire_query(region={"bbox": [-74.0, 40.7, -73.9, 40.8]}))
        assert other.x_cache == "miss"
        assert len(edge) == 2

    def test_stale_serves_then_revalidates(self, small_base):
        import time

        clock = {"now": 100.0}
        edge = EdgeCache(ttl=5.0, stale_ttl=600.0, clock=lambda: clock["now"])
        service = GeoService()
        service.register("small", build_dataset(small_base, "geoblock"))
        with GeoHTTPServer(service, port=0, edge=edge) as server:
            with GeoClient.for_server(server) as client:
                fresh = client.query(wire_query())
                assert fresh.x_cache == "miss"
                clock["now"] += 10.0  # past the TTL, inside the stale window
                stale = client.query(wire_query())
                assert stale.x_cache == "stale"
                assert stale.body == fresh.body  # served instantly, old bytes
                deadline = time.time() + 10.0
                while time.time() < deadline:
                    reply = client.query(wire_query())
                    if reply.x_cache == "hit":  # background refresh landed
                        break
                    time.sleep(0.02)
                assert reply.x_cache == "hit"
                assert edge.revalidations >= 1

    def test_no_edge_means_no_x_cache_header(self, small_base):
        service = GeoService()
        service.register("small", build_dataset(small_base, "geoblock"))
        with GeoHTTPServer(service, port=0, edge=None) as server:
            with GeoClient.for_server(server) as client:
                reply = client.query(wire_query())
                assert reply.status == 200
                assert reply.x_cache is None
                assert client.stats().body["edge"] is None


class TestLifecycle:
    def test_graceful_shutdown_refuses_new_connections(self, small_base):
        service = GeoService()
        service.register("small", build_dataset(small_base, "geoblock"))
        server = GeoHTTPServer(service, port=0)
        server.start()
        port = server.port
        with GeoClient.for_server(server) as client:
            assert client.healthz().status == 200
        server.stop()
        with pytest.raises(OSError):
            GeoClient("127.0.0.1", port, timeout=2).healthz()

    def test_start_twice_raises(self, server):
        with pytest.raises(RuntimeError):
            server.start()

    def test_serves_a_dataset_opened_from_disk(self, small_base, tmp_path):
        """The --datasets path: save a block, open it by path, serve it."""
        path = tmp_path / "small.npz"
        build_dataset(small_base, "geoblock").save(path)
        service = GeoService()
        service.open("small", path)
        with GeoHTTPServer(service, port=0) as server:
            with GeoClient.for_server(server) as client:
                reply = client.query(wire_query())
                assert reply.status == 200
                assert reply.body["data"]["count"] > 0

    def test_bounded_threads_still_serve(self, small_base):
        service = GeoService()
        service.register("small", build_dataset(small_base, "geoblock"))
        with GeoHTTPServer(service, port=0, threads=2) as server:
            with GeoClient.for_server(server) as client:
                for _ in range(4):
                    assert client.query(wire_query()).status == 200


class TestCli:
    def test_refuses_to_serve_nothing(self, capsys):
        from repro.server.__main__ import main

        assert main([]) == 2
        assert "nothing to serve" in capsys.readouterr().err

    def test_rejects_malformed_dataset_spec(self, capsys):
        from repro.server.__main__ import main

        assert main(["--datasets", "no-equals-sign"]) == 2
        assert "name=path" in capsys.readouterr().err

    def test_rejects_unreadable_dataset_path(self, capsys, tmp_path):
        from repro.server.__main__ import main

        assert main(["--datasets", f"x={tmp_path}/missing.geoblock"]) == 2
        assert "cannot open" in capsys.readouterr().err

    def test_rejects_bad_thread_count(self, capsys):
        from repro.server.__main__ import main

        assert main(["--demo", "--threads", "0"]) == 2
        assert "--threads" in capsys.readouterr().err
