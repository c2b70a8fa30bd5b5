"""Answer pins: deterministic totals of the smoke-scale NYC workload.

The workload is the full neighbourhood set plus a 3x-repeated skewed
slice (255 queries over the pinned-seed 8k-tuple taxi extract).  Every
serving path -- sequential ``select``, batched ``run_batch``, the API
per request and batched -- on every block kind must return the same
pinned totals, so an answer that drifts on any path fails here even
when all paths drift together (which the pairwise parity tests cannot
see).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.api import Dataset, GeoService, QueryRequest, requests_from_workload
from repro.core import AdaptiveGeoBlock, CachePolicy, GeoBlock
from repro.data import nyc_neighborhoods
from repro.engine.shards import ShardedGeoBlock
from repro.experiments.common import ExperimentConfig, nyc_base
from repro.workloads import base_workload, combined_workload, default_aggregates, skewed_workload

#: The smoke sizing, independent of any ``REPRO_SCALE`` in the environment.
CONFIG = replace(ExperimentConfig.smoke(), scale=1.0)

#: (queries, total_count) of the combined workload on every path.
WORKLOAD_PIN = (255, 168387)

KINDS = ("plain", "sharded", "adaptive")
PATHS = ("engine_select", "engine_batch", "api_single", "api_batch")


@pytest.fixture(scope="module")
def base():
    return nyc_base(CONFIG)


@pytest.fixture(scope="module")
def level() -> int:
    return CONFIG.nyc_level(CONFIG.block_level)


@pytest.fixture(scope="module")
def polygons():
    return nyc_neighborhoods(seed=CONFIG.seed)


@pytest.fixture(scope="module")
def aggs(base):
    return default_aggregates(base.table.schema, 4)


@pytest.fixture(scope="module")
def workload(polygons, aggs):
    return combined_workload(
        base_workload(polygons, aggs),
        skewed_workload(polygons, aggs, seed=17),
        skew_repeats=3,
    )


@pytest.fixture(scope="module")
def blocks(base, level, workload):
    adaptive = AdaptiveGeoBlock(GeoBlock.build(base, level), CachePolicy(threshold=1.0))
    for region in workload.distinct_regions():
        adaptive.select(region, list(workload.queries[0].aggs))
    adaptive.adapt()  # the trie answers part of every later query
    return {
        "plain": GeoBlock.build(base, level),
        "sharded": ShardedGeoBlock.build(base, level),
        "adaptive": adaptive,
    }


def assert_same_answer(got, want) -> None:  # noqa: ANN001
    assert got.count == want.count
    for key, value in want.values.items():
        assert got.values[key] == value or (np.isnan(value) and np.isnan(got.values[key])), key


def service_over(block, base) -> GeoService:  # noqa: ANN001
    service = GeoService()
    # Result caching off: the workload repeats regions on purpose, and
    # every request must reach the engine.
    service.register("pins", Dataset(block, base=base, result_cache=False))
    return service


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("path", PATHS)
def test_workload_total_count(path, kind, blocks, base, workload):
    block = blocks[kind]
    if path == "engine_select":
        results = [block.select(query.region, list(query.aggs)) for query in workload]
    elif path == "engine_batch":
        results = block.run_batch(workload.queries)
    else:
        service = service_over(block, base)
        requests = requests_from_workload(workload, dataset="pins")
        if path == "api_single":
            results = [service.run(request) for request in requests]
        else:
            results = service.run_batch(requests)
    assert (len(results), sum(result.count for result in results)) == WORKLOAD_PIN


def test_group_by_over_every_distinct_region(blocks, base, workload):
    """One grouped request over the 195 distinct regions: pinned rollup,
    and each row equal to the region's own request."""
    service = service_over(blocks["plain"], base)
    aggregates = ["count", "sum:fare_amount", "avg:trip_distance"]
    regions = workload.distinct_regions()
    grouped = QueryRequest(
        group_by=[(f"zone_{index}", region) for index, region in enumerate(regions)],
        aggregates=aggregates,
        dataset="pins",
    )
    response = service.run(grouped)
    assert (len(response.groups), response.count) == (195, 120759)
    for row, (_, target) in zip(response.groups, grouped.feature_targets):
        want = service.run(QueryRequest(region=target, aggregates=aggregates, dataset="pins"))
        assert_same_answer(row, want)


def test_filtered_view_total(blocks, base, workload):
    service = service_over(blocks["plain"], base)
    where = {"col": "fare_amount", "op": ">=", "value": 10}
    requests = [
        QueryRequest(region=query.region, aggregates=query.aggs, dataset="pins", where=where)
        for query in workload
    ]
    responses = [service.run(request) for request in requests]
    assert (len(responses), sum(response.count for response in responses)) == (255, 53425)


def test_sharded_pruning_on_the_skewed_workload(base, level, polygons, aggs, blocks):
    """32 requested curve shards over the clustered slice: pinned
    totals and routing counters, most shards pruned, answers equal to
    the plain block's."""
    workload = skewed_workload(polygons, aggs, seed=17).repeated(4)
    sharded = ShardedGeoBlock.build(base, level, shard_count=32)
    service = GeoService()
    service.register("pins", Dataset(sharded, result_cache=False))
    requests = requests_from_workload(workload, dataset="pins")
    responses = [service.run(request) for request in requests]
    shards_total = sum(response.stats.shards_total for response in responses)
    shards_pruned = sum(response.stats.shards_pruned for response in responses)
    assert (len(responses), sum(response.count for response in responses)) == (80, 63504)
    assert shards_total == 1520
    assert shards_pruned / shards_total > 0.8
    for query, response in zip(workload, responses):
        assert_same_answer(response, blocks["plain"].select(query.region, list(query.aggs)))


def test_append_batch_tuples(base, level):
    """A 200-row batch folded into a fresh dataset lands every row."""
    rng = np.random.default_rng(CONFIG.seed)
    names = base.table.schema.names
    xs = rng.normal(-73.93, 0.05, 200)
    ys = rng.normal(40.74, 0.04, 200)
    columns = {name: rng.gamma(3.0, 4.0, 200) for name in names}
    rows = [
        {"x": float(xs[index]), "y": float(ys[index])}
        | {name: float(columns[name][index]) for name in names}
        for index in range(200)
    ]
    dataset = Dataset.build(base, level, name="pins")
    response = dataset.append(rows)
    assert response.appended == 200
    assert dataset.block.header.total_count == 8110
