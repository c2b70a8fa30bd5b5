"""The traced pass of one workload: spans around the calls into each
layer, recorded from outside, and the per-layer metrics they give.

A fixed number of ops is replayed twice against freshly built identical
services: once plain (the base of ``load.trace_overhead_ratio``), once
traced.  Per traced op the root span ``op`` covers bytes -> reply; its
children are ``server.json`` (decode/encode) and ``api.run_dict``.  The
spans under ``api.run_dict`` are *probes*: the same public calls the
service makes inside, repeated right after the op on a view-less twin
dataset with a private ``TieredCache`` (so probing never warms the
service under test) and booked as children of the op's ``api.run_dict``
span.  Their intervals therefore follow the parent's instead of nesting
in it; spans recorded inside ``src/`` are a later issue.  On
``http_serving`` the root is the socket round trip and ``api.run_dict``
itself is a probe, on an in-process mirror of the served dataset.
"""

from __future__ import annotations

import json
from collections import defaultdict
from functools import partial
from time import perf_counter

from repro.api import AppendRequest, Dataset, GeoService, QueryRequest
from repro.cache import TieredCache
from repro.cells import EARTH, RegionCoverer, region_fingerprint

from audit import Checker, totals
from endtoend import QUERY_KINDS, run_audit, tail_ops
from harness import OUT, SPECS, Workdir, build_dataset, closed_loop, open_loop, run_threads, set_up
from inputs import DATASET, LEVEL, N_HOODS, Cursor, Inputs, Op
from measure import p50

#: Ops replayed per pass.  http_serving: 44 ms a round trip, so 100 ops
#: stay inside the 5 s edge TTL; dashboard_hot: the trie trains only
#: after 2000 engine selects, which takes about ten renders.
TRACE_OPS = {"http_serving": 100, "dashboard_hot": 1000}
DEFAULT_TRACE_OPS = 300
APPEND_EVERY = 25  # reads between two appends when the mix has a writer
SCHEDULED_SECONDS = 2.0  # the open-loop phase that measures load.append_late_ms

#: Every per-layer metric, by the ``src/repro`` package it measures
#: (the names BENCHMARK.json lists).
PER_LAYER = (
    "storage.extract_s", "storage.base_mb", "core.build_s", "core.block_mb",
    "core.save_s", "core.open_s", "core.file_mb", "server.start_s",
    "cells.cover_ms", "cells.cover_cells", "cells.fingerprint_us", "api.parse_ms",
    "api.group_parse_ms", "engine.group_ms_per_region",
    "engine.plan_ms", "engine.select_ms", "engine.cells_probed", "engine.shards_pruned_ratio",
    "core.trie_hit_ratio", "core.adapt_s",
    "cache.covering_hit_ratio", "cache.result_hit_ratio", "cache.evictions",
    "materialize.mv_hit_ratio", "materialize.admissions", "materialize.append_overhead_ms",
    "core.append_ms", "api.run_dict_ms", "api.self_ms", "api.envelope_bytes", "server.json_ms",
    "server.roundtrip_ms", "server.healthz_ms", "server.self_ms", "server.edge_hit_ratio",
    "load.append_late_ms", "load.trace_overhead_ratio", "trace.coverage", "audit.count_rel_error",
)


class Tracer:
    """Spans in memory: ``(id, parent, op, name, start, end)``."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.by_op: dict = defaultdict(lambda: defaultdict(float))

    def add(self, name: str, op: int, parent: int | None, start: float, end: float) -> int:
        self.spans.append((len(self.spans), parent, op, name, start, end))
        self.by_op[op][name] += end - start
        return len(self.spans) - 1

    def call(self, name: str, op: int, parent: int | None, function, *args):
        """Time ``function(*args)`` as one span; returns its value and
        the span id."""
        start = perf_counter()
        value = function(*args)
        return value, self.add(name, op, parent, start, perf_counter())

    def seconds(self, span: int) -> float:
        return self.spans[span][5] - self.spans[span][4]

    def write(self, path, header: dict) -> None:
        fields = ("id", "parent", "op", "name", "start", "end")
        spans = [dict(zip(fields, span)) for span in self.spans]
        path.write_text(json.dumps({**header, "spans": spans}))


def sequence(workload: str, inputs: Inputs, count: int) -> list[Op]:
    """The traced ops: the head of client 0's stream, with the writer's
    appends interleaved at a fixed stride where the mix has a writer,
    then one tail round of the classes the mix lacks."""
    spec = SPECS[workload]
    reads = inputs.stream(workload, 0, count)
    writes = inputs.appends(workload, count // APPEND_EVERY + inputs.scale.tail_appends)
    appends = Cursor(writes, f"{workload}/writer")
    ops = []
    for index, op in enumerate(reads, 1):
        ops.append(op)
        if spec.appends_per_s and index % APPEND_EVERY == 0:
            ops.append(appends.take())
    return ops + tail_ops(inputs, spec, appends, 1)[0]


def replay_plain(client, checker: Checker, ops: list[Op]) -> float:
    """Seconds spent inside the ops, no spans recorded."""
    spent = 0.0
    for op in ops:
        reply = client.send(op)
        checker.check(op, reply.envelope, reply.status)
        spent += reply.end - reply.start
    return spent


def scheduled_late_ms(
    target, inputs: Inputs, workload: str, used: list[Op], checkers: list[Checker],
    seconds: float,
) -> float:
    """How late the open-loop writer runs beside a closed-loop reader
    (median ms between an append's due time and its send); both go on
    from where the ``used`` ops of the replay stopped."""
    spec = SPECS[workload]
    appended = sum(op.kind == "append" for op in used)
    reads = inputs.stream(workload, 0, len(used) + int(spec.cap_per_s * seconds) + 1)[len(used):]
    writes = inputs.appends(workload, appended + int(spec.appends_per_s * seconds) + 2)[appended:]
    samples: list = []
    begin = perf_counter()
    run_threads([
        partial(closed_loop, target.client(), Cursor(reads, "late/reader"), checkers[0], [],
                begin + seconds),
        partial(open_loop, target.client(), Cursor(writes, "late/writer"), checkers[1], samples, [],
                begin, begin + seconds, spec.appends_per_s),
    ])
    return p50([(sample[3] - sample[1]) * 1e3 for sample in samples])


def run_traced(workload: str, inputs: Inputs, seconds: float) -> dict:
    spec = SPECS[workload]
    count = TRACE_OPS.get(workload, DEFAULT_TRACE_OPS) // inputs.scale.shrink
    ops = sequence(workload, inputs, count)
    rows = len(inputs.points.xs)
    checkers = [Checker(rows), Checker(rows)]
    tracer = Tracer()
    records: list[dict] = []
    detail = dict.fromkeys(PER_LAYER, 0.0)  # a layer the workload never enters reads 0

    with Workdir(workload) as workdir:
        plain = set_up(inputs, spec, workdir, cache=TieredCache())
        try:
            client = plain.client()
            plain_s = replay_plain(client, checkers[0], ops)
            client.close()
            if spec.appends_per_s:
                checkers += [Checker(rows), Checker(rows)]
                detail["load.append_late_ms"] = scheduled_late_ms(
                    plain, inputs, workload, ops, checkers[2:], min(seconds, SCHEDULED_SECONDS)
                )
        finally:
            plain.close()

        target = set_up(inputs, spec, workdir)
        try:
            detail.update({k: v for k, v in target.setup.items() if k != "setup_s"})
            twin = build_dataset(target.base, spec, cache=TieredCache())
            mirror = None
            if spec.http:
                mirror = GeoService(cache=TieredCache())
                mirror.register(DATASET, build_dataset(target.base, spec))
                _, span = tracer.call("core.open", -1, None, Dataset.open, workdir / "bench.npz")
                detail["core.open_s"] = tracer.seconds(span)
            client = target.client()
            applied: list = []
            coverer = RegionCoverer(EARTH)
            for index, op in enumerate(ops):
                records.append(
                    trace_op(index, op, client, mirror, twin, coverer, tracer, checkers[1], applied)
                )
            if spec.http:
                healthz = []
                for _ in range(max(2, 20 // inputs.scale.shrink)):
                    _, span = tracer.call("server.healthz", -1, None, client.get, "/healthz")
                    healthz.append(tracer.seconds(span) * 1e3)
                detail["server.healthz_ms"] = p50(healthz)
            if spec.policy is not None:
                _, span = tracer.call("core.adapt", -1, None, twin.handle.adapt)
                detail["core.adapt_s"] = tracer.seconds(span)
            detail["core.trie_hit_ratio"] = target.trie_hit_ratio()
            stats = target.stats()
            audit = run_audit([client], [checkers[1]], inputs, applied)
            client.close()
        finally:
            target.close()

    derive(detail, records, tracer, stats, plain_s)
    detail["audit.count_rel_error"] = audit["count_rel_error"]
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace_{workload}.json", {"workload": workload, "seed": inputs.seed})

    attempted, failed, reasons = totals(checkers)
    notes = [] if audit["bounded"] else ["audit: an engine COUNT is outside its limits"]
    return {
        "workload": workload,
        "detail": {name: {"value": float(value)} for name, value in detail.items()},
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and not notes,
        "notes": notes,
        "reasons": reasons,
        "info": {"traced_ops": len(ops), "spans": len(tracer.spans)},
    }


def trace_op(
    index: int, op: Op, client, mirror, twin: Dataset, coverer: RegionCoverer,
    tracer: Tracer, checker: Checker, applied: list,
) -> dict:
    """Run one op with spans and return what the derivation needs."""
    if mirror is None:
        start = perf_counter()
        payload = json.loads(op.body)
        decoded = perf_counter()
        envelope = client.service.run_dict(payload)
        answered = perf_counter()
        size = len(json.dumps(envelope).encode())
        end = perf_counter()
        root = tracer.add("op", index, None, start, end)
        tracer.add("server.json", index, root, start, decoded)
        run = tracer.add("api.run_dict", index, root, decoded, answered)
        tracer.add("server.json", index, root, answered, end)
        checker.check(op, envelope, 200 if envelope.get("ok") else 500)
        x_cache = None
    else:
        reply = client.send(op)
        checker.check(op, reply.envelope, reply.status)
        root = tracer.add("op", index, None, reply.start, reply.end)
        if reply.envelope is None:
            return {"kind": op.kind, "bytes": 0, "x_cache": None, "miss": False}
        payload, _ = tracer.call("server.json", index, root, json.loads, op.body)
        envelope, run = tracer.call("api.run_dict", index, root, mirror.run_dict, payload)
        tracer.call("server.json", index, root, json.dumps, envelope)
        size, x_cache = reply.size, reply.x_cache
        served = reply.envelope
    record = {"kind": op.kind, "bytes": size, "x_cache": x_cache, "miss": False}
    if not envelope.get("ok"):
        return record

    if op.kind == "append":
        tracer.call("api.parse", index, run, AppendRequest.from_dict, payload)
        tracer.call("core.append", index, run, twin.append, payload["rows"])
        applied.append(op.rows)
    elif op.kind == "render":
        request, _ = tracer.call("api.group_parse", index, run, QueryRequest.from_dict, payload)
        regions = [region for _, region in request.feature_targets]
        tracer.call("engine.group", index, run, twin.handle.run_grouped, regions,
                    list(request.aggregates))
    else:
        request, _ = tracer.call("api.parse", index, run, QueryRequest.from_dict, payload)
        region = request.target
        tracer.call("cells.fingerprint", index, run, region_fingerprint, region)
        stats = envelope["stats"]
        record["mv"] = stats["mv"]["cached"]
        shards = (served if mirror is not None else envelope)["stats"]["shards"]
        record["shards"] = (shards["total"], shards["pruned"])
        if not (stats["cache"]["result_cached"] or stats["mv"]["cached"]):
            record["miss"] = True
            record["cells_probed"] = stats["cells_probed"]
            if not stats["cache"]["covering_cached"]:
                covering, _ = tracer.call(
                    "cells.cover", index, run, coverer.covering, region, LEVEL
                )
                record["cover_cells"] = len(covering)
            twin.handle.plan(region)  # untimed: the twin's own covering tier is now warm
            plan_start = perf_counter()
            twin.handle.plan(region)
            plan_end = perf_counter()
            _, select = tracer.call("engine.select", index, run, twin.handle.select, region,
                                    list(request.aggregates))
            # select plans again inside, so the plan probe is its child.
            tracer.add("engine.plan", index, select, plan_start, plan_end)
    return record


_RUN_DICT_CHILDREN = ("api.parse", "cells.fingerprint", "cells.cover", "engine.select",
                      "core.append")


def derive(detail: dict, records: list[dict], tracer: Tracer, stats: dict, plain_s: float) -> None:
    """Per-layer metrics from the spans, the replies and the service's
    own counters."""

    def spans_ms(name: str, chosen: list[int]) -> list[float]:
        return [tracer.by_op[i][name] * 1e3 for i in chosen if name in tracer.by_op[i]]

    def mean(values: list) -> float:
        return sum(values) / len(values) if values else 0.0

    queries = [i for i, r in enumerate(records) if r["kind"] in QUERY_KINDS]
    misses = [i for i in queries if records[i]["miss"]]
    appends = [i for i, r in enumerate(records) if r["kind"] == "append"]
    renders = [i for i, r in enumerate(records) if r["kind"] == "render"]

    def children_ms(op: int) -> float:
        return sum(tracer.by_op[op].get(name, 0.0) for name in _RUN_DICT_CHILDREN) * 1e3

    detail["api.parse_ms"] = p50(spans_ms("api.parse", queries))
    detail["cells.fingerprint_us"] = p50(spans_ms("cells.fingerprint", queries)) * 1e3
    detail["cells.cover_ms"] = p50(spans_ms("cells.cover", misses))
    detail["cells.cover_cells"] = mean([r["cover_cells"] for r in records if "cover_cells" in r])
    detail["engine.plan_ms"] = p50(spans_ms("engine.plan", misses))
    detail["engine.select_ms"] = p50(spans_ms("engine.select", misses))
    detail["engine.cells_probed"] = mean([records[i]["cells_probed"] for i in misses])
    total = sum(records[i]["shards"][0] for i in queries)
    pruned = sum(records[i]["shards"][1] for i in queries)
    detail["engine.shards_pruned_ratio"] = pruned / total if total else 0.0
    detail["api.group_parse_ms"] = p50(spans_ms("api.group_parse", renders))
    detail["engine.group_ms_per_region"] = p50(spans_ms("engine.group", renders)) / N_HOODS
    detail["api.run_dict_ms"] = p50(spans_ms("api.run_dict", queries))
    detail["api.self_ms"] = p50([tracer.by_op[i]["api.run_dict"] * 1e3 - children_ms(i)
                                 for i in misses])
    detail["api.envelope_bytes"] = mean([records[i]["bytes"] for i in queries])
    detail["server.json_ms"] = p50(spans_ms("server.json", queries))
    covered = sum(children_ms(i) for i in misses)
    whole = sum(tracer.by_op[i]["api.run_dict"] for i in misses) * 1e3
    detail["trace.coverage"] = covered / whole if whole else 0.0
    detail["core.append_ms"] = p50(spans_ms("core.append", appends))
    detail["materialize.append_overhead_ms"] = p50(
        [tracer.by_op[i]["api.run_dict"] * 1e3 - children_ms(i) for i in appends]
    )

    for tier in ("covering", "result"):
        counters = stats["cache"][tier]
        lookups = counters["hits"] + counters["misses"]
        detail[f"cache.{tier}_hit_ratio"] = counters["hits"] / lookups if lookups else 0.0
    detail["cache.evictions"] = sum(stats["cache"][t]["evictions"] for t in ("covering", "result"))
    lookups = stats["mv"]["hits"] + stats["mv"]["misses"]
    detail["materialize.mv_hit_ratio"] = stats["mv"]["hits"] / lookups if lookups else 0.0
    detail["materialize.admissions"] = stats["mv"]["admissions"]

    if any(r["x_cache"] is not None for r in records):  # served over sockets
        detail["server.roundtrip_ms"] = p50(spans_ms("op", queries))
        detail["server.self_ms"] = p50(
            [(tracer.by_op[i]["op"] - tracer.by_op[i]["api.run_dict"]) * 1e3 for i in queries]
        )
        detail["server.edge_hit_ratio"] = mean(
            [float(records[i]["x_cache"] == "hit") for i in queries]
        )
    traced_s = sum(tracer.by_op[i]["op"] for i in range(len(records)))
    detail["load.trace_overhead_ratio"] = plain_s / traced_s if traced_s else 0.0
