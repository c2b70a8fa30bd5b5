"""Serving over HTTP: a live wire server, a client, and the edge cache.

Walks the HTTP tier end to end, in process (no terminal juggling --
the same server `python -m repro.server` runs in the foreground):

1. build a dataset and register it with a GeoService,
2. start a GeoHTTPServer on an ephemeral port, edge cache attached,
3. round-trip queries with the stdlib GeoClient and watch X-Cache
   go miss -> hit (byte-identical replay),
4. batch a dashboard sweep through one POST,
5. append rows over HTTP and watch the version bump invalidate the
   edge entry (the same bump that invalidates the result tier),
6. drive it with 8 concurrent clients, one thread and one GeoClient each,
7. read the /stats telemetry: server counters, edge, cache tiers.

Run with:  PYTHONPATH=src python examples/serve_http.py
"""

from __future__ import annotations

import json
import threading
import time

from repro import EARTH, Dataset, GeoService, extract, level_for_max_diagonal
from repro.data import nyc_cleaning_rules, nyc_taxi
from repro.server import EdgeCache, GeoClient, GeoHTTPServer


def main() -> None:
    # 1. A dataset behind a service, exactly as in quickstart.py.
    print("Generating 100,000 synthetic NYC taxi trips...")
    base = extract(nyc_taxi(100_000, seed=42), EARTH, nyc_cleaning_rules())
    level = level_for_max_diagonal(EARTH, max_diagonal_meters=250.0, latitude=40.7)
    service = GeoService()
    service.register("taxi", Dataset.build(base, level))

    # 2. The server: ephemeral port, 5 s edge TTL.  Context-managed --
    #    it serves on a background thread and stops on exit.
    with GeoHTTPServer(service, port=0, edge=EdgeCache(ttl=5.0)) as server:
        print(f"Serving on {server.url}")
        payload = {
            "v": 2,
            "dataset": "taxi",
            "region": {"bbox": [-74.05, 40.70, -73.90, 40.80]},
            "aggregates": ["count", "avg:fare_amount", "sum:tip_amount"],
        }

        with GeoClient.for_server(server) as client:
            # 3. miss -> hit: the second answer replays the stored bytes.
            first = client.query(payload)
            second = client.query(payload)
            print(f"\nPOST /query: {first.body['data']['count']:,} trips, "
                  f"avg fare ${first.body['data']['values']['avg(fare_amount)']:.2f}")
            print(f"  X-Cache: {first.x_cache} -> {second.x_cache}; "
                  f"bodies identical: {first.body == second.body}")

            # 4. A dashboard sweep as one batched POST (one engine pass).
            sweep = [
                dict(payload, region={"bbox": [-74.02 + 0.02 * i, 40.70,
                                               -73.99 + 0.02 * i, 40.80]})
                for i in range(6)
            ]
            replies = client.query_batch(sweep)
            print(f"\nBatched sweep over {len(sweep)} windows: "
                  f"counts {[member['data']['count'] for member in replies.body]}")

            # 5. A write over HTTP: the version bump kills the edge entry.
            rows = [{
                "x": -73.98, "y": 40.75, "fare_amount": 12.5, "trip_distance": 2.1,
                "tip_amount": 2.0, "tip_rate": 0.16, "passenger_cnt": 1.0,
                "total_amount": 15.0, "pickup_ts": 0.0,
            }]
            appended = client.append(rows, dataset="taxi")
            after = client.query(payload)
            print(f"\nPOST /append: ok={appended.body['ok']}, "
                  f"version {appended.body['version']}")
            print(f"  next query: X-Cache {after.x_cache} (entry invalidated), "
                  f"count {after.body['data']['count']:,}")

        # 6. Concurrent clients: 8 threads, each with its own keep-alive
        #    connection (a GeoClient is not thread-safe), 5 requests each.
        statuses: list[int] = []

        def dashboard_user() -> None:
            with GeoClient.for_server(server) as own:
                statuses.extend(own.query(payload).status for _ in range(5))

        users = [threading.Thread(target=dashboard_user) for _ in range(8)]
        start = time.perf_counter()
        for user in users:
            user.start()
        for user in users:
            user.join()
        elapsed = time.perf_counter() - start
        print(f"\nLoad: {len(statuses)} requests from {len(users)} clients "
              f"in {elapsed * 1e3:.0f} ms ({len(statuses) / elapsed:.0f} QPS), "
              f"all 200: {set(statuses) == {200}}")

        # 7. Telemetry: counters + edge + tiered-cache stats in one GET.
        with GeoClient.for_server(server) as client:
            stats = client.stats().body
        print(f"\nGET /stats: {json.dumps(stats['server'], indent=2)}")
        edge_stats = stats["edge"]
        print(f"  edge: {edge_stats['hits']} hits / {edge_stats['misses']} misses "
              f"/ {edge_stats['invalidated']} invalidated "
              f"(hit rate {edge_stats['hit_rate']:.2f})")
    print("\nServer stopped cleanly.")


if __name__ == "__main__":
    main()
