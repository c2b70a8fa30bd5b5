"""The untraced run of one workload: set-up, warm-up, the timed phase,
the tail phase, the audit -- and the end-to-end metrics they give."""

from __future__ import annotations

import gc
import statistics
from functools import partial
from time import perf_counter

import numpy as np

from audit import Checker, count_rel_error, points_in_ring, totals
from harness import SPECS, Workdir, closed_loop, fixed_count, open_loop, run_threads, set_up
from inputs import Cursor, Inputs, Op, polygon, query_body
from measure import (
    latency_windows,
    p50,
    per_window,
    percentile,
    quiet,
    rate_windows,
    tail_percentile,
)

QUERY_KINDS = ("drill", "jitter", "novel", "bbox")
#: Two level-17 cells in degrees: a covering cell that touches a ring
#: lies within this margin of the ring's bounding box.
_COVER_MARGIN = 2 * 360.0 / 2**17


def tail_ops(inputs: Inputs, spec, appends: Cursor, rounds: int) -> list[list[Op]]:
    """The op classes the workload's mix lacks, in ``rounds`` rounds.
    Appends come first in a round: each bumps the version, so the
    renders after them cannot be answered from the edge cache."""
    scale = inputs.scale
    tail = []
    for index in range(rounds):
        ops = []
        if "append" not in spec.in_mix:
            ops += [appends.take() for _ in range(scale.tail_appends)]
        if "render" not in spec.in_mix:
            first = index * scale.tail_renders
            ops += [inputs.render((first + j) % 6) for j in range(scale.tail_renders)]
        tail.append(ops)
    return tail


def run_tail(client, checker: Checker, rounds: list[list[Op]], applied: list) -> dict:
    """Per op class, the median latency (ms) of each round."""
    medians: dict[str, list[float]] = {}
    for ops in rounds:
        by_kind: dict[str, list[float]] = {}
        for op in ops:
            reply = client.send(op)
            checker.check(op, reply.envelope, reply.status)
            by_kind.setdefault(op.kind, []).append((reply.end - reply.start) * 1e3)
            if op.rows is not None:
                applied.append(op.rows)
        for kind, values in by_kind.items():
            medians.setdefault(kind, []).append(statistics.median(values))
    return medians


def run_audit(clients: list, checkers: list[Checker], inputs: Inputs, applied: list) -> dict:
    """COUNT over the 64-ring audit set against the exact oracle over
    every row present (the table plus every applied append)."""
    rings = inputs.audit_rings()
    ops = [Op("audit", None, "/query", query_body(polygon(ring), ("count",))) for ring in rings]
    engine: list = [None] * len(ops)

    def part(caller: int) -> None:
        for index in range(caller, len(ops), len(clients)):
            reply = clients[caller].send(ops[index])
            checkers[caller].check(ops[index], reply.envelope, reply.status)
            if reply.envelope is not None and reply.envelope.get("ok"):
                engine[index] = reply.envelope["data"]["count"]

    run_threads([partial(part, caller) for caller in range(len(clients))])
    xs = np.concatenate([inputs.points.xs, *(rows[0] for rows in applied)])
    ys = np.concatenate([inputs.points.ys, *(rows[1] for rows in applied)])
    exact = [points_in_ring(xs, ys, ring) for ring in rings]
    bounded = all(
        count is not None and low <= count <= _box_count(xs, ys, ring)
        for count, low, ring in zip(engine, exact, rings)
    )
    error = count_rel_error([c or 0 for c in engine], exact)
    return {"count_rel_error": error, "bounded": bounded}


def _box_count(xs: np.ndarray, ys: np.ndarray, ring: list) -> int:
    vx = [v[0] for v in ring]
    vy = [v[1] for v in ring]
    m = _COVER_MARGIN
    box = (xs >= min(vx) - m) & (xs <= max(vx) + m) & (ys >= min(vy) - m) & (ys <= max(vy) + m)
    return int(box.sum())


def run_end_to_end(workload: str, inputs: Inputs, seconds: float) -> dict:
    spec = SPECS[workload]
    scale = inputs.scale
    warmup = max(5, spec.warmup // scale.shrink)
    per_caller = warmup + int(spec.cap_per_s * seconds) + 1
    cursors = [
        Cursor(inputs.stream(workload, caller, per_caller), f"{workload}/{caller}")
        for caller in range(spec.callers)
    ]
    n_appends = scale.tail_rounds * scale.tail_appends + int(spec.appends_per_s * seconds) + 2
    appends = Cursor(inputs.appends(workload, n_appends), f"{workload}/writer")
    checkers = [Checker(len(inputs.points.xs)) for _ in range(spec.callers + 1)]
    writer_checker = checkers[-1]
    applied: list = []
    samples: list[list] = [[] for _ in range(spec.callers + 1)]

    with Workdir(workload) as workdir:
        setups = []
        target = None
        for _ in range(scale.setups):
            if target is not None:
                target.close()
                target = None
                gc.collect()  # the previous service is gone before the next is built
            target = set_up(inputs, spec, workdir)
            setups.append(target.setup["setup_s"])
        try:
            clients = [target.client() for _ in range(spec.callers)]
            run_threads([
                partial(fixed_count, clients[c], cursors[c], checkers[c], warmup)
                for c in range(spec.callers)
            ])
            rounds = tail_ops(inputs, spec, appends, scale.tail_rounds)  # before the timed phase

            before = target.stats()
            cpu_before = target.cpu_s()
            begin = perf_counter()
            stop_at = begin + seconds
            jobs = [
                partial(closed_loop, clients[c], cursors[c], checkers[c], samples[c], stop_at)
                for c in range(spec.callers)
            ]
            if spec.appends_per_s:
                jobs.append(partial(
                    open_loop, target.client(), appends, writer_checker, samples[-1], applied,
                    begin, stop_at, spec.appends_per_s,
                ))
            run_threads(jobs)
            cpu_spent = target.cpu_s() - cpu_before
            after = target.stats()

            tail = run_tail(clients[0], checkers[0], rounds, applied)
            audit = run_audit(clients, checkers[: spec.callers], inputs, applied)
            peak_rss_mb = target.peak_rss_mb()
            for client in clients:
                client.close()
        finally:
            target.close()

    reads = [s for caller in samples[:-1] for s in caller]
    writes = samples[-1]
    queries = latency_windows([s for s in reads if s[0] in QUERY_KINDS], begin, seconds)
    renders = latency_windows([s for s in reads if s[0] == "render"], begin, seconds)
    detail = {
        "setup_s": {"value": statistics.median(setups), "runs": setups},
        "query_p50_ms": quiet(per_window(queries, 0.50)),
        "query_p95_ms": quiet(per_window(queries, 0.95)),
        "group_p50_ms": quiet(
            per_window(renders, 0.50) if "render" in spec.in_mix else tail["render"]
        ),
        "append_p50_ms": quiet(
            per_window(latency_windows(writes, begin, seconds), 0.50)
            if spec.appends_per_s else tail["append"]
        ),
        "ops_per_s": quiet(rate_windows([s[2] for s in reads], begin, seconds), "higher"),
        "cpu_ms_per_op": {"value": cpu_spent * 1e3 / (len(reads) + len(writes))},
        "peak_rss_mb": {"value": peak_rss_mb},
    }

    attempted, failed, reasons = totals(checkers)
    notes = []
    if not audit["bounded"]:
        notes.append("audit: an engine COUNT is outside [exact, bounding-box] limits")
    hits = {
        "result": _delta(before, after, ("cache", "result", "hits")),
        "mv": _delta(before, after, ("mv", "hits")),
    }
    if spec.all_miss and (hits["result"] or hits["mv"]):
        notes.append(f"{workload} must miss every tier, saw {hits}")

    all_queries = sorted(value for window in queries for value in window)
    high = tail_percentile(len(all_queries))
    return {
        "workload": workload,
        "detail": detail,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and not notes,
        "notes": notes,
        "reasons": reasons,
        "info": {
            "samples": {
                "queries": len(all_queries),
                "renders": sum(len(w) for w in renders),
                "appends": len(applied),
                "per_window_queries": [len(w) for w in queries],
            },
            "tail_percentile": None if high is None else {
                "percentile": high * 100.0, "ms": percentile(all_queries, high)
            },
            "append_late_ms": p50([(s[3] - s[1]) * 1e3 for s in writes]),
            "count_rel_error": audit["count_rel_error"],
            "tier_hits_in_timed_phase": hits,
            "stream_ops_used": [cursor.used for cursor in cursors],
        },
    }


def _delta(before: dict, after: dict, path: tuple) -> int:
    for key in path:
        before, after = before[key], after[key]
    return after - before
