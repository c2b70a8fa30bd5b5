"""Materialized aggregates: pin hot queries, survive appends, restart warm.

Walks the MV tier end to end:

1. build a dataset and pin one hot query as a materialized view
   through the fluent builder,
2. query it -- the answer comes from the view (stats.mv_cached),
3. append rows and watch the *incremental* refresh: the post-append
   answer still serves from the view, bit-identical to recomputation,
4. manage views over the wire: op=materialize, op=views, op=drop_view,
5. save the dataset -- views persist in a .mv.npz sidecar -- and
   reopen it: the first query of the new process is already warm.

Run with:  PYTHONPATH=src python examples/materialized_views.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import EARTH, Dataset, GeoService, extract, level_for_max_diagonal
from repro.api import QueryRequest
from repro.data import nyc_cleaning_rules, nyc_taxi

HOT = {"bbox": [-74.02, 40.70, -73.93, 40.80]}
AGGS = ("count", "avg:fare_amount", "sum:tip_amount")


def main() -> None:
    print("Generating 100,000 synthetic NYC taxi trips...")
    base = extract(nyc_taxi(100_000, seed=42), EARTH, nyc_cleaning_rules())
    level = level_for_max_diagonal(EARTH, max_diagonal_meters=250.0, latitude=40.7)
    dataset = Dataset.build(base, level, name="taxi")
    service = GeoService()
    service.register("taxi", dataset)

    # 1. Pin the dashboard's hot query: it stays until drop_view.
    info = dataset.over(HOT).agg(*AGGS).materialize("hot-midtown")
    print(f"\nPinned '{info['name']}': {info['cells']} covering cells, "
          f"{dataset.materialized.views()[0].nbytes():,} bytes of records")

    # 2. Served from the view, not recomputed.
    response = dataset.over(HOT).agg(*AGGS).run()
    print(f"Query: {response.count:,} trips, mv_cached={response.stats.mv_cached}")

    # 3. The append refreshes the view incrementally -- only the cell
    #    records the new rows touch are recomputed -- and the refreshed
    #    answer is bit-identical to executing from scratch.
    rows = [{
        "x": -73.98, "y": 40.75, "fare_amount": 12.5, "trip_distance": 2.1,
        "tip_amount": 2.0, "tip_rate": 0.16, "passenger_cnt": 1.0,
        "total_amount": 15.0, "pickup_ts": 0.0,
    }] * 25
    dataset.append(rows)
    after = dataset.over(HOT).agg(*AGGS).run()
    view = dataset.materialized.views()[0]
    cold = Dataset(dataset.handle, result_cache=False).query(
        QueryRequest(region=HOT, aggregates=AGGS)
    )
    print(f"\nAppended {len(rows)} rows: view refreshed with "
          f"{view.delta_rows} delta rows "
          f"({view.incremental_refreshes} incremental refreshes)")
    print(f"  post-append query: mv_cached={after.stats.mv_cached}, "
          f"count {after.count:,}, identical to recompute: "
          f"{after.values == cold.values and after.count == cold.count}")

    # 4. Wire management: pin a second query, list, and drop it again.
    #    Repeating a query never creates a view; only materialize does.
    nearby = {"bbox": [-74.00, 40.72, -73.95, 40.78]}
    pinned = service.run_dict({"v": 2, "op": "materialize", "dataset": "taxi",
                               "region": nearby, "aggregates": ["count"],
                               "name": "nearby"})
    print(f"\nop=materialize -> '{pinned['data']['name']}'")
    listed = service.run_dict({"v": 2, "op": "views", "dataset": "taxi"})
    print("op=views ->", [(v["name"], v["hits"])
                          for v in listed["data"]["materialized"]])
    dropped = service.run_dict({"v": 2, "op": "drop_view", "dataset": "taxi",
                                "name": "nearby"})
    print("op=drop_view ->", dropped["data"])

    # 5. Warm restart: the sidecar carries the views across processes.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "taxi.npz"
        dataset.save(path)
        sidecars = sorted(p.name for p in Path(tmp).iterdir())
        reopened = Dataset.open(path, name="taxi")
        warm = reopened.over(HOT).agg(*AGGS).run()
        print(f"\nSaved {sidecars}; reopened: first query "
              f"mv_cached={warm.stats.mv_cached}, count {warm.count:,}")


if __name__ == "__main__":
    main()
