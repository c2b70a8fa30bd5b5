"""Built-in scenarios: every paper experiment plus the serving paths.

Importing this module populates the registry with:

* ``experiment`` group -- one scenario per reproduced table/figure
  (``fig10`` .. ``fig19``, ``table2``); the timed thunk is the whole
  experiment replay and the rendered tables land in the result's
  ``artifacts``;
* ``engine`` group -- raw-engine paths over the NYC workload:
  sequential ``select`` and batched ``run_batch`` on plain, sharded,
  and adaptive blocks, plus the ``engine_batch_parity`` gate asserting
  the batched/sharded/api paths return the sequential answers (and
  that the kernel model matches its per-cell reference fold,
  ``Executor.select_reference``, bit for bit);
* ``serving`` group -- the same workload through :mod:`repro.api`
  (``GeoService.run`` per request, and ``GeoService.run_batch``) on all
  three block kinds.

Timing setup (dataset extraction, block builds, covering warm-up,
adaptive trie construction) happens in ``build`` and never counts
toward the samples.  Workloads derive from the pinned experiment seed,
so the ``queries`` / ``total_count`` metrics are deterministic and act
as cross-run result-integrity checks (``strict_metrics``).
"""

from __future__ import annotations

from collections.abc import Callable

from repro.bench.registry import register
from repro.bench.scenario import Prepared, Scale, Scenario
from repro.core.adaptive import AdaptiveGeoBlock
from repro.core.geoblock import GeoBlock
from repro.core.policy import CachePolicy
from repro.data.polygons import nyc_neighborhoods
from repro.engine.executor import batch_items
from repro.experiments import fig13_scalability
from repro.experiments.common import (
    ExperimentResult,
    nyc_base,
    run_workload,
    run_workload_batched,
    warm_caches,
)
from repro.experiments.registry import run_experiment
from repro.workloads import (
    base_workload,
    combined_workload,
    default_aggregates,
    skewed_workload,
)

#: Block kinds the serving matrix covers (mirrors ``repro.api.KINDS``).
BLOCK_KINDS = ("plain", "sharded", "adaptive")

#: Experiment ids wrapped one-to-one (fig13 wraps both of its figures).
EXPERIMENT_IDS = (
    "fig10",
    "fig11a",
    "fig11b",
    "fig11c",
    "table2",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
)


def _json_safe(value: object) -> object:
    if hasattr(value, "item"):  # numpy scalars
        value = value.item()
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def result_to_dict(result: ExperimentResult) -> dict:
    """An :class:`ExperimentResult` as a JSON-compatible artifact."""
    return {
        "experiment": result.experiment,
        "title": result.title,
        "headers": list(result.headers),
        "rows": [[_json_safe(value) for value in row] for row in result.rows],
        "notes": list(result.notes),
    }


# -- experiment scenarios -----------------------------------------------------------


def _experiment_build(experiment_id: str) -> Callable[[Scale], Prepared]:
    def build(scale: Scale) -> Prepared:
        if experiment_id == "fig13":
            def thunk() -> list[ExperimentResult]:
                return list(fig13_scalability.run(scale.config))
        else:
            def thunk() -> list[ExperimentResult]:
                return [run_experiment(experiment_id, scale.config)]

        def finalize(tables: list[ExperimentResult]) -> dict:
            return {
                "metrics": {"rows": float(sum(len(table.rows) for table in tables))},
                "artifacts": {"tables": [result_to_dict(table) for table in tables]},
            }

        return Prepared(thunk, finalize)

    return build


for _experiment_id in EXPERIMENT_IDS:
    register(
        Scenario(
            name=_experiment_id,
            group="experiment",
            description=f"end-to-end replay of the paper's {_experiment_id} experiment",
            build=_experiment_build(_experiment_id),
            # End-to-end replays are too slow to repeat; they already
            # loop internally, and a single sample with a generous
            # threshold is what the CI gate needs.
            repeats=1,
            warmup=0,
            # Single-sample end-to-end replays are the noisiest
            # scenarios; their budget is wider than the matrix's.
            warn_ratio=2.5,
            fail_ratio=5.0,
            strict_metrics=("rows",),
        )
    )


# -- serving-path scenarios ---------------------------------------------------------

_CONTEXT_CACHE: dict[tuple, object] = {}


def clear_context_cache() -> None:
    """Drop the cached blocks/workloads (tests use this)."""
    _CONTEXT_CACHE.clear()


def _workload(scale: Scale):
    key = ("workload", scale.config.nyc_size, scale.config.seed)
    if key not in _CONTEXT_CACHE:
        base = nyc_base(scale.config)
        # The full neighbourhood set plus repeated skew keeps one timed
        # pass in the tens of milliseconds even at smoke scale -- large
        # enough that scheduler noise doesn't dominate the samples.
        polygons = nyc_neighborhoods(seed=scale.config.seed)
        aggs = default_aggregates(base.table.schema, 4)
        _CONTEXT_CACHE[key] = combined_workload(
            base_workload(polygons, aggs),
            skewed_workload(polygons, aggs, seed=17),
            skew_repeats=3,
        )
    return _CONTEXT_CACHE[key]


def _block(scale: Scale, kind: str):
    """A warmed, production-mode (kernel) block of ``kind`` over the NYC
    base data, with the workload's coverings pre-computed."""
    key = ("block", scale.config.nyc_size, scale.config.seed, kind)
    if key not in _CONTEXT_CACHE:
        base = nyc_base(scale.config)
        level = scale.config.nyc_level(scale.config.block_level)
        workload = _workload(scale)
        if kind == "plain":
            block = GeoBlock.build(base, level)
        elif kind == "sharded":
            from repro.engine.shards import ShardedGeoBlock

            block = ShardedGeoBlock.build(base, level)
        elif kind == "adaptive":
            block = AdaptiveGeoBlock(GeoBlock.build(base, level), CachePolicy(threshold=1.0))
        else:  # pragma: no cover - registry bug
            raise ValueError(f"unknown block kind {kind!r}")
        warm_caches(block, workload)
        if kind == "adaptive":
            # Populate the query-cache exactly once so the timed runs
            # measure the hot (trie-accelerated) serving path.
            for region in workload.distinct_regions():
                block.select(region, list(workload.queries[0].aggs))
            block.adapt()
        _CONTEXT_CACHE[key] = block
    return _CONTEXT_CACHE[key]


def _service(scale: Scale, kind: str):
    from repro.api import Dataset, GeoService, requests_from_workload

    key = ("service", scale.config.nyc_size, scale.config.seed, kind)
    if key not in _CONTEXT_CACHE:
        service = GeoService()
        # Base data retained so v2 filtered views can build on demand.
        # Result caching off: these scenarios track the *execution* cost
        # of the serving matrix across PRs; the workload's deliberate
        # skew repeats would otherwise serve from the result tier and
        # time the cache instead (api_cached_wire covers that path).
        service.register(
            "bench",
            Dataset(_block(scale, kind), base=nyc_base(scale.config), result_cache=False),
        )
        requests = requests_from_workload(_workload(scale), dataset="bench")
        _CONTEXT_CACHE[key] = (service, requests)
    return _CONTEXT_CACHE[key]


def _result_metrics(workload, results) -> dict:
    counts = [result.count for result in results]
    checksum = 0.0
    for result in results:
        for value in result.values.values():
            if value == value:  # skip NaN (empty-region aggregates)
                checksum += float(value)
    return {
        "metrics": {
            "queries": float(len(workload)),
            "total_count": float(sum(counts)),
            "value_checksum": checksum,
        }
    }


def _engine_select_build(kind: str) -> Callable[[Scale], Prepared]:
    def build(scale: Scale) -> Prepared:
        block = _block(scale, kind)
        workload = _workload(scale)
        return Prepared(
            thunk=lambda: run_workload(block, workload)[1],
            finalize=lambda results: _result_metrics(workload, results),
        )

    return build


def _engine_batch_build(kind: str) -> Callable[[Scale], Prepared]:
    def build(scale: Scale) -> Prepared:
        block = _block(scale, kind)
        workload = _workload(scale)
        return Prepared(
            thunk=lambda: run_workload_batched(block, workload)[1],
            finalize=lambda results: _result_metrics(workload, results),
        )

    return build


def _api_single_build(kind: str) -> Callable[[Scale], Prepared]:
    def build(scale: Scale) -> Prepared:
        service, requests = _service(scale, kind)
        workload = _workload(scale)
        return Prepared(
            thunk=lambda: [service.run(request) for request in requests],
            finalize=lambda responses: _result_metrics(workload, responses),
        )

    return build


def _api_batch_build(kind: str) -> Callable[[Scale], Prepared]:
    def build(scale: Scale) -> Prepared:
        service, requests = _service(scale, kind)
        workload = _workload(scale)
        return Prepared(
            thunk=lambda: service.run_batch(requests),
            finalize=lambda responses: _result_metrics(workload, responses),
        )

    return build


_SERVING_PATHS = (
    # (name prefix, group, builder, description template)
    ("engine_select", "engine", _engine_select_build, "sequential select() calls on a {kind} block"),
    ("engine_batch", "engine", _engine_batch_build, "one run_batch() engine pass on a {kind} block"),
    ("api_single", "serving", _api_single_build, "GeoService.run per request on a {kind} dataset"),
    ("api_batch", "serving", _api_batch_build, "GeoService.run_batch on a {kind} dataset"),
)

for _prefix, _group, _builder, _template in _SERVING_PATHS:
    for _kind in BLOCK_KINDS:
        register(
            Scenario(
                name=f"{_prefix}_{_kind}",
                group=_group,
                description=_template.format(kind=_kind),
                build=_builder(_kind),
                strict_metrics=("queries", "total_count"),
            )
        )


# -- the batched-execution parity gate ----------------------------------------------


def _parity_build(scale: Scale) -> Prepared:
    from repro.api import Dataset
    from repro.experiments.common import run_workload_api

    plain = _block(scale, "plain")
    sharded = _block(scale, "sharded")
    workload = _workload(scale)
    # Result caching off: the api_s sample must measure the façade over
    # a real engine pass (the workload repeats regions by design).
    dataset = Dataset(plain, name="bench", result_cache=False)

    def thunk() -> dict:
        seq_seconds, seq_results = run_workload(plain, workload)
        batch_seconds, batch_results = run_workload_batched(plain, workload)
        sharded_seconds, sharded_results = run_workload_batched(sharded, workload)
        api_seconds, api_results = run_workload_api(dataset, workload)
        # The runs above all execute under the kernel model; one
        # sequential pass of its reference closes the loop, so the gate
        # also proves the kernels are bit-identical to the per-cell
        # ``Accumulator`` fold they restructure.
        reference_results = [
            plain.executor.select_reference(plain.plan(target), aggs)
            for target, aggs in batch_items(list(workload))
        ]
        # Sharded execution is bit-identical too (same executor over
        # the same arrays), so values are compared exactly, same as the
        # plain batched path.
        identical = all(
            _bit_identical_results(want, got)
            for want, got in (
                (seq_results, batch_results),
                (seq_results, sharded_results),
                (batch_results, api_results),
                (reference_results, batch_results),
            )
        )
        return {
            "seq_s": seq_seconds,
            "batch_s": batch_seconds,
            "sharded_s": sharded_seconds,
            "api_s": api_seconds,
            "identical": identical,
            "total_count": float(sum(result.count for result in seq_results)),
        }

    def finalize(last: dict) -> dict:
        return {
            "metrics": {
                "queries": float(len(workload)),
                "total_count": last["total_count"],
                "seq_s": last["seq_s"],
                "batch_s": last["batch_s"],
                "sharded_s": last["sharded_s"],
                "api_s": last["api_s"],
                "speedup": last["seq_s"] / max(last["batch_s"], 1e-12),
                "api_overhead": last["api_s"] / max(last["batch_s"], 1e-12),
                "identical": 1.0 if last["identical"] else 0.0,
            }
        }

    return Prepared(thunk, finalize)


# -- Query v2 serving scenarios -----------------------------------------------------


def _groupby_build(scale: Scale) -> Prepared:
    """One grouped request over every distinct workload polygon vs the
    equivalent sequential per-feature requests -- the choropleth serving
    pattern, with its own parity gate."""
    from repro.api import QueryRequest

    service, _ = _service(scale, "plain")
    workload = _workload(scale)
    regions = workload.distinct_regions()
    aggs = ["count", "sum:fare_amount", "avg:trip_distance"]
    grouped_request = QueryRequest(
        group_by=[(f"zone_{index}", region) for index, region in enumerate(regions)],
        aggregates=aggs,
        dataset="bench",
    )
    sequential_requests = [
        QueryRequest(region=target, aggregates=aggs, dataset="bench")
        for _, target in grouped_request.feature_targets
    ]

    def thunk() -> dict:
        grouped = service.run(grouped_request)
        sequential = [service.run(request) for request in sequential_requests]
        identical = len(grouped.groups) == len(sequential)
        for row, want in zip(grouped.groups, sequential):
            if row.count != want.count:
                identical = False
            for key, value in want.values.items():
                if value == value and row.values[key] != value:
                    identical = False
        return {
            "features": float(len(grouped.groups)),
            "total_count": float(grouped.count),
            "covering_cached": float(grouped.stats.covering_cached),
            "identical": 1.0 if identical else 0.0,
        }

    return Prepared(thunk, lambda last: {"metrics": dict(last, queries=float(len(regions)))})


def _filtered_view_build(scale: Scale) -> Prepared:
    """The per-predicate view serving path: the view is built once in
    setup (untimed, like any block build); the timed pass answers the
    workload through ``where`` requests against the ready view."""
    from repro.api import QueryRequest

    service, _ = _service(scale, "plain")
    workload = _workload(scale)
    where = {"col": "fare_amount", "op": ">=", "value": 10}
    dataset = service.dataset("bench")
    dataset.view(where)  # build + cache the per-predicate block
    requests = [
        QueryRequest(region=query.region, aggregates=query.aggs, dataset="bench", where=where)
        for query in workload
    ]

    def thunk():  # noqa: ANN202
        return [service.run(request) for request in requests]

    def finalize(responses) -> dict:  # noqa: ANN001
        return _result_metrics(workload, responses)

    return Prepared(thunk, finalize)


def _append_batch(scale: Scale, base) -> list[dict]:  # noqa: ANN001 - BaseData
    """The shared 200-row synthetic write batch of the append-path
    scenarios (one generator, so api_append and api_cache_invalidation
    always exercise the same workload)."""
    import numpy as np

    rng = np.random.default_rng(scale.config.seed)
    names = base.table.schema.names
    batch = 200
    xs = rng.normal(-73.93, 0.05, batch)
    ys = rng.normal(40.74, 0.04, batch)
    columns = {name: rng.gamma(3.0, 4.0, batch) for name in names}
    return [
        {"x": float(xs[index]), "y": float(ys[index])}
        | {name: float(columns[name][index]) for name in names}
        for index in range(batch)
    ]


def _append_build(scale: Scale) -> Prepared:
    """The write path: build a fresh block and fold a batch of new rows
    through ``Dataset.append`` (trie refresh and shard splices included);
    a fresh build per sample keeps repeats independent."""
    from repro.api import Dataset

    base = nyc_base(scale.config)
    level = scale.config.nyc_level(scale.config.block_level)
    rows = _append_batch(scale, base)

    def thunk() -> dict:
        dataset = Dataset.build(base, level, name="bench")
        response = dataset.append(rows)
        return {
            "appended": float(response.appended),
            "in_place": float(response.in_place),
            "version": float(response.version),
            "tuples": float(dataset.block.header.total_count),
        }

    return Prepared(thunk, lambda last: {"metrics": dict(last, queries=1.0)})


register(
    Scenario(
        name="api_groupby",
        group="serving",
        description=(
            "one v2 group-by request over every distinct workload polygon vs "
            "sequential per-feature requests; asserts identical answers"
        ),
        build=_groupby_build,
        strict_metrics=("queries", "features", "total_count", "identical"),
        metric_bounds={"identical": (1.0, 1.0)},
    )
)

register(
    Scenario(
        name="api_filtered_view",
        group="serving",
        description="the workload through 'where' requests against a cached filtered view",
        build=_filtered_view_build,
        strict_metrics=("queries", "total_count"),
    )
)

register(
    Scenario(
        name="api_append",
        group="serving",
        description="Dataset.build + a 200-row append batch (the v2 write path)",
        build=_append_build,
        strict_metrics=("queries", "appended", "tuples"),
    )
)


# -- query-cache serving scenarios --------------------------------------------------


def _cached_wire_build(scale: Scale) -> Prepared:
    """Identical GeoJSON re-sent N times -- the acceptance scenario of
    the cache subsystem.  Two serving paths over the same block: a
    result-cache-off dataset isolates the covering tier (every re-sent
    polygon parses fresh, so identity keys scored 0% here), and a
    default dataset measures the result tier's whole-answer
    short-circuit plus its parity against the cold answers."""
    import json

    from repro.api import Dataset, GeoService, TieredCache
    from repro.api.geojson import region_to_geojson

    block = _block(scale, "plain")
    polygons = nyc_neighborhoods(seed=scale.config.seed)[:6]
    sends = 16  # covering hit rate = 1 - 1/sends = 0.9375 per path
    payloads = [
        json.dumps(
            {
                "v": 2,
                "dataset": "bench",
                "region": region_to_geojson(polygon),
                "aggregates": ["count", "sum:fare_amount", "avg:trip_distance"],
            }
        )
        for polygon in polygons
    ]
    # Two independent wrappers over the same aggregates: each service
    # binds its dataset's planner to its own cache, so the paths must
    # not share a block.
    covering_dataset = Dataset(GeoBlock(block.space, block.level, block.aggregates))
    result_dataset = Dataset(GeoBlock(block.space, block.level, block.aggregates))

    def thunk() -> dict:
        from time import perf_counter

        covering_service = GeoService(cache=TieredCache(), result_cache=False)
        covering_service.register("bench", covering_dataset)
        result_service = GeoService(cache=TieredCache())
        result_service.register("bench", result_dataset)
        identical = True
        cold: list[dict] = []
        pass_times: list[float] = []
        for service in (covering_service, result_service):
            for round_index in range(sends):
                start = perf_counter()
                for payload_index, payload in enumerate(payloads):
                    envelope = service.run_dict(json.loads(payload))
                    if not envelope.get("ok"):
                        identical = False
                        continue
                    if service is result_service:
                        if round_index == 0:
                            cold.append(envelope["data"])
                        elif envelope["data"] != cold[payload_index]:
                            identical = False
                if service is result_service:
                    pass_times.append(perf_counter() - start)
        covering_stats = covering_service.stats()["cache"]["covering"]
        result_stats = result_service.stats()["cache"]["result"]
        warm = sorted(pass_times[1:])[len(pass_times[1:]) // 2]
        return {
            "queries": float(2 * sends * len(payloads)),
            "covering_hit_rate": covering_stats["hit_rate"],
            "result_hit_rate": result_stats["hit_rate"],
            "identical": 1.0 if identical else 0.0,
            "cold_ms_per_query": pass_times[0] * 1e3 / len(payloads),
            "warm_ms_per_query": warm * 1e3 / len(payloads),
            "warm_speedup": pass_times[0] / max(warm, 1e-12),
        }

    return Prepared(thunk, lambda last: {"metrics": dict(last)})


def _cache_invalidation_build(scale: Scale) -> Prepared:
    """Append-then-query: a warm result tier must never serve stale
    answers.  Each sample builds a fresh dataset (appends mutate the
    aggregates), warms the tier, appends a batch, and asserts the
    post-append answer is a cache miss bit-identical to uncached
    execution over the mutated block."""
    import json

    from repro.api import Dataset, QueryRequest, TieredCache
    from repro.api.geojson import region_to_geojson

    base = nyc_base(scale.config)
    level = scale.config.nyc_level(scale.config.block_level)
    polygon = nyc_neighborhoods(seed=scale.config.seed)[0]
    region_json = json.dumps(region_to_geojson(polygon))
    aggs = ["count", "sum:fare_amount", "avg:trip_distance"]
    rows = _append_batch(scale, base)

    def fresh_request() -> QueryRequest:
        return QueryRequest(region=json.loads(region_json), aggregates=aggs)

    def thunk() -> dict:
        dataset = Dataset.build(base, level, name="bench", cache=TieredCache())
        first = dataset.query(fresh_request())
        hit = dataset.query(fresh_request())
        appended = dataset.append(rows)
        post = dataset.query(fresh_request())
        # Ground truth: uncached execution over the same mutated block.
        twin = Dataset(dataset.handle, result_cache=False)
        want = twin.query(fresh_request())
        identical = post.count == want.count and set(post.values) == set(want.values)
        for key, value in want.values.items():
            if value == value and post.values[key] != value:
                identical = False
        return {
            "queries": 4.0,
            "hit_pre_append": float(hit.stats.result_cached),
            "invalidated": 0.0 if post.stats.result_cached else 1.0,
            "identical": 1.0 if identical else 0.0,
            "appended": float(appended.appended),
            "version": float(post.version),
            "count_delta": float(post.count - first.count),
        }

    return Prepared(thunk, lambda last: {"metrics": dict(last)})


def _materialized_build(scale: Scale) -> Prepared:
    """The materialized-view serving path: pin one hot query as an MV,
    measure the warm hit against recomputation, then append a batch and
    gate the incrementally refreshed answer bit-identical to uncached
    execution over the mutated block."""
    import json

    from repro.api import Dataset, QueryRequest, TieredCache
    from repro.api.geojson import region_to_geojson

    base = nyc_base(scale.config)
    level = scale.config.nyc_level(scale.config.block_level)
    polygon = nyc_neighborhoods(seed=scale.config.seed)[0]
    region_json = json.dumps(region_to_geojson(polygon))
    aggs = ["count", "sum:fare_amount", "avg:trip_distance"]
    rows = _append_batch(scale, base)
    warm_sends = 16

    def fresh_request() -> QueryRequest:
        return QueryRequest(region=json.loads(region_json), aggregates=aggs)

    def bit_identical(got, want) -> bool:  # noqa: ANN001 - QueryResponse/QueryResult
        import numpy as np

        if got.count != want.count or set(got.values) != set(want.values):
            return False
        return all(
            np.float64(got.values[key]).tobytes() == np.float64(value).tobytes()
            for key, value in want.values.items()
        )

    def thunk() -> dict:
        from time import perf_counter

        dataset = Dataset.build(base, level, name="bench", cache=TieredCache())
        dataset.materialize(fresh_request(), name="hot")
        # Cold twin over the same handle: no result tier, no MV store.
        twin = Dataset(dataset.handle, result_cache=False)
        start = perf_counter()
        cold = twin.query(fresh_request())
        cold_s = perf_counter() - start
        start = perf_counter()
        warm = [dataset.query(fresh_request()) for _ in range(warm_sends)]
        warm_s = (perf_counter() - start) / warm_sends
        hits = sum(response.stats.mv_cached for response in warm)
        identical = all(bit_identical(response, cold) for response in warm)
        appended = dataset.append(rows)
        post = dataset.query(fresh_request())
        want = twin.query(fresh_request())  # uncached, over the mutated block
        view = dataset.materialized.views()[0]
        return {
            "queries": float(warm_sends + 4),
            "mv_hit_rate": hits / warm_sends,
            "mv_hit_post_append": float(post.stats.mv_cached),
            "refresh_identical": 1.0 if bit_identical(post, want) else 0.0,
            "identical": 1.0 if identical else 0.0,
            "appended": float(appended.appended),
            "delta_rows": float(view.delta_rows),
            "cold_ms_per_query": cold_s * 1e3,
            "warm_ms_per_query": warm_s * 1e3,
            "warm_speedup": cold_s / max(warm_s, 1e-12),
        }

    return Prepared(thunk, lambda last: {"metrics": dict(last)})


register(
    Scenario(
        name="api_cached_wire",
        group="serving",
        description=(
            "identical GeoJSON re-sent 16x per polygon: covering-tier hit rate "
            "on a result-cache-off path, result-tier short-circuit + parity on "
            "the default path"
        ),
        build=_cached_wire_build,
        strict_metrics=("queries", "covering_hit_rate", "result_hit_rate", "identical"),
        metric_bounds={
            "covering_hit_rate": (0.9, None),
            "result_hit_rate": (0.9, None),
            "identical": (1.0, 1.0),
        },
    )
)

register(
    Scenario(
        name="api_cache_invalidation",
        group="serving",
        description=(
            "append-then-query through a warm result tier: the post-append "
            "answer must miss the cache and match uncached execution exactly"
        ),
        build=_cache_invalidation_build,
        strict_metrics=(
            "queries",
            "hit_pre_append",
            "invalidated",
            "identical",
            "appended",
        ),
        metric_bounds={
            "hit_pre_append": (1.0, 1.0),
            "invalidated": (1.0, 1.0),
            "identical": (1.0, 1.0),
        },
    )
)


register(
    Scenario(
        name="api_materialized",
        group="serving",
        description=(
            "a pinned materialized view serving a hot query: warm hits vs "
            "recomputation, then an append whose incremental refresh must "
            "answer bit-identically to uncached execution"
        ),
        build=_materialized_build,
        strict_metrics=(
            "queries",
            "mv_hit_rate",
            "mv_hit_post_append",
            "refresh_identical",
            "identical",
            "appended",
        ),
        metric_bounds={
            "mv_hit_rate": (1.0, 1.0),
            "mv_hit_post_append": (1.0, 1.0),
            "refresh_identical": (1.0, 1.0),
            "identical": (1.0, 1.0),
        },
    )
)


# -- curve-sharding scenarios -------------------------------------------------------


def _skewed_only_workload(scale: Scale):
    """The clustered slice of the workload: 10% of the neighbourhoods,
    repeated -- the shape partition routing is built to exploit."""
    key = ("skewed-workload", scale.config.nyc_size, scale.config.seed)
    if key not in _CONTEXT_CACHE:
        base = nyc_base(scale.config)
        polygons = nyc_neighborhoods(seed=scale.config.seed)
        aggs = default_aggregates(base.table.schema, 4)
        _CONTEXT_CACHE[key] = skewed_workload(polygons, aggs, seed=17).repeated(4)
    return _CONTEXT_CACHE[key]


def _curve_sharded_block(scale: Scale):
    """A warmed 32-shard curve block over the NYC base data."""
    key = ("curve-block", scale.config.nyc_size, scale.config.seed)
    if key not in _CONTEXT_CACHE:
        from repro.engine.shards import ShardedGeoBlock

        base = nyc_base(scale.config)
        level = scale.config.nyc_level(scale.config.block_level)
        # Explicit shard count: the cost model gives small data one
        # shard, which would leave nothing to prune; routing quality is
        # what the pruning scenario measures.
        block = ShardedGeoBlock.build(base, level, shard_count=32)
        warm_caches(block, _skewed_only_workload(scale))
        _CONTEXT_CACHE[key] = block
    return _CONTEXT_CACHE[key]


def _bit_identical_results(wants, gots) -> bool:  # noqa: ANN001
    if len(wants) != len(gots):
        return False
    for want, got in zip(wants, gots):
        if got.count != want.count:
            return False
        for key, value in want.values.items():
            if value == value and got.values[key] != value:
                return False
    return True


def _sharded_pruning_build(scale: Scale) -> Prepared:
    """The skewed workload served from a shard_count=32 curve dataset
    (equi-depth split dedup may yield fewer shards on clustered data)
    through the API facade.  Ground truth is plain-block execution computed in
    setup; the pruning rate comes from the per-response telemetry and is
    gated -- on this clustered workload most shards must never be
    submitted."""
    from repro.api import Dataset, GeoService, requests_from_workload

    block = _curve_sharded_block(scale)
    workload = _skewed_only_workload(scale)
    plain = _block(scale, "plain")
    want_results = run_workload(plain, workload)[1]
    service = GeoService()
    # Result caching off: every request must route and execute, or the
    # repeated skew would serve from the result tier and report the
    # first pass's telemetry forever.
    service.register("bench", Dataset(block, name="bench", result_cache=False))
    requests = requests_from_workload(workload, dataset="bench")

    def thunk() -> dict:
        responses = [service.run(request) for request in requests]
        shards_total = sum(response.stats.shards_total for response in responses)
        shards_pruned = sum(response.stats.shards_pruned for response in responses)
        return {
            "identical": _bit_identical_results(want_results, responses),
            "shards_total": float(shards_total),
            "pruning_rate": shards_pruned / max(shards_total, 1),
            "total_count": float(sum(response.count for response in responses)),
        }

    def finalize(last: dict) -> dict:
        return {
            "metrics": {
                "queries": float(len(workload)),
                "total_count": last["total_count"],
                "shards_total": last["shards_total"],
                "pruning_rate": last["pruning_rate"],
                "identical": 1.0 if last["identical"] else 0.0,
            }
        }

    return Prepared(thunk, finalize)


register(
    Scenario(
        name="api_sharded_pruning",
        group="serving",
        description=(
            "the skewed workload served from a shard_count=32 curve dataset; "
            "gates pruning rate > 0.8 and parity with plain execution"
        ),
        build=_sharded_pruning_build,
        strict_metrics=(
            "queries",
            "total_count",
            "identical",
            "shards_total",
            "pruning_rate",
        ),
        metric_bounds={"identical": (1.0, 1.0), "pruning_rate": (0.8, None)},
    )
)


register(
    Scenario(
        name="engine_batch_parity",
        group="engine",
        description=(
            "sequential vs batched vs sharded vs serving execution of the same "
            "workload; asserts identical answers (kernel matching its per-cell "
            "reference fold included) and a batched speedup"
        ),
        build=_parity_build,
        repeats=1,
        warmup=1,
        warn_ratio=2.5,
        fail_ratio=5.0,
        strict_metrics=("queries", "total_count", "identical"),
        metric_bounds={"identical": (1.0, 1.0), "speedup": (0.75, None)},
    )
)
