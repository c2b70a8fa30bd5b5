"""geobench: the repo's benchmark.

    python3 benchmarks/geobench/run.py --seed S                 # every workload, both passes
    python3 benchmarks/geobench/run.py --workload NAME --seed S --seconds N --trace 0|1
    python3 benchmarks/geobench/run.py --quick                  # 20k points, 0.5 s
    python3 benchmarks/geobench/run.py --repeat-check           # two full sets, compared

With ``--workload`` the run happens in this interpreter and the last
line of stdout is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` holding the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``) of BENCHMARK.json.  Without it every
workload runs in a fresh interpreter of its own (the ``repro.cache``
default instance is process-wide).  README.md explains the rest.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy

from inputs import FULL, QUICK, WORKLOADS, Inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="geobench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in this interpreter")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics; 1: the traced pass and per-layer metrics")
    parser.add_argument("--quick", action="store_true", help="20k points and a 0.5 s timed phase")
    parser.add_argument("--repeat-check", action="store_true",
                        help="run two full sets and fail on a gap over a metric's bound")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.5 if args.quick else float(load_contract()["run_seconds"])
    return args


# -- one workload, this interpreter ------------------------------------------------


def run_one(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"geobench: unknown workload {args.workload!r}; one of {WORKLOADS}", file=sys.stderr)
        return 2
    contract = load_contract()
    inputs = Inputs(args.seed, QUICK if args.quick else FULL)
    header = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace or 0,
        "quick": args.quick,
        "points": len(inputs.points.xs),
        "input_digest": inputs.digest(args.workload),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    print("geobench " + " ".join(f"{key}={value}" for key, value in header.items()))
    if args.trace:
        from traced import run_traced

        result = run_traced(args.workload, inputs, args.seconds)
        units = {m["name"]: m["unit"] for m in contract["per_layer"]}
    else:
        from endtoend import run_end_to_end

        result = run_end_to_end(args.workload, inputs, args.seconds)
        units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    detail = result["detail"]
    missing = sorted(set(units) - set(detail))
    if missing:
        raise SystemExit(f"geobench: {args.workload} did not measure {missing}")

    for name in units:
        entry = detail[name]
        line = f"  {name:<36} {entry['value']:>14.6g} {units[name]}"
        if "windows" in entry:
            line += (
                f"   windows median {entry['median']:.6g} [q1 {entry['q1']:.6g}, "
                f"q3 {entry['q3']:.6g}] values " + " ".join(f"{v:.6g}" for v in entry["windows"])
            )
        if "runs" in entry:
            line += "   runs " + " ".join(f"{v:.4g}" for v in entry["runs"])
        print(line)
    print("  info " + json.dumps(result["info"]))
    for note in result["notes"]:
        print(f"  INCORRECT: {note}")
    if result["failed"]:
        print(f"  FAILED {result['failed']} of {result['attempted']}: {result['reasons']}")

    OUT.mkdir(exist_ok=True)
    kind = "trace" if args.trace else "e2e"
    path = OUT / f"result_{args.workload}_{kind}_s{args.seed}.json"
    path.write_text(json.dumps({**header, **result}, indent=1))
    metrics = {name: {"value": detail[name]["value"], "unit": unit} for name, unit in units.items()}
    bad = [name for name, m in metrics.items() if not math.isfinite(m["value"])]
    if bad:
        raise SystemExit(f"geobench: non-finite metrics {bad}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


# -- every workload, a fresh interpreter each --------------------------------------


def run_child(workload: str, trace: int, args: argparse.Namespace) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ] + (["--quick"] if args.quick else [])
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0:
        raise SystemExit(f"geobench: {workload} --trace {trace} exited {done.returncode}")
    return json.loads(done.stdout.rstrip().rsplit("\n", 1)[-1])


def run_set(args: argparse.Namespace) -> dict:
    """Every workload, the untraced then the traced pass."""
    passes = (0, 1) if args.trace is None else (args.trace,)
    return {w: {trace: run_child(w, trace, args) for trace in passes} for w in WORKLOADS}


def verdict(results: dict) -> int:
    bad = [
        f"{workload} --trace {trace}"
        for workload, by_trace in results.items()
        for trace, line in by_trace.items()
        if not line["correct"] or line["failed"]
    ]
    if bad:
        print("geobench: INCORRECT or failed operations in " + ", ".join(bad))
        return 1
    print("geobench: every workload correct, failed_ratio 0")
    return 0


#: Traced counters that come from a fixed op count and must repeat
#: exactly on in-process workloads (README.md, "Reading a trace").
EXACT_COUNTERS = (
    "cells.cover_cells", "engine.cells_probed", "cache.covering_hit_ratio",
    "cache.result_hit_ratio", "materialize.mv_hit_ratio", "materialize.admissions",
)


def repeat_check(args: argparse.Namespace) -> int:
    contract = load_contract()
    first, second = run_set(args), run_set(args)
    status = max(verdict(first), verdict(second))
    print(f"\n{'workload':<20} {'metric':<16} {'first':>12} {'second':>12} {'gap':>8} {'bound':>6}")
    for workload in first:
        for metric in contract["end_to_end"]:
            name = metric["name"]
            a = first[workload][0]["metrics"][name]["value"]
            b = second[workload][0]["metrics"][name]["value"]
            gap = abs(b - a) / a
            over = gap > metric["bound"]
            status = max(status, int(over))
            print(f"{workload:<20} {name:<16} {a:>12.5g} {b:>12.5g} {gap:>8.3f} "
                  f"{metric['bound']:>6.2f}{'  OVER' if over else ''}")
        if workload == "http_serving":
            continue  # the edge TTL makes its hit ratios depend on the clock
        for name in EXACT_COUNTERS:
            a = first[workload][1]["metrics"][name]["value"]
            b = second[workload][1]["metrics"][name]["value"]
            if a != b:
                status = 1
                print(f"{workload:<20} {name} did not repeat exactly: {a!r} vs {b!r}")
    return status


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "repro").is_dir():
        print(f"geobench: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    args = parse_args(argv)
    if args.workload is not None:
        return run_one(args)
    if args.repeat_check:
        args.trace = None
        return repeat_check(args)
    return verdict(run_set(args))


if __name__ == "__main__":
    raise SystemExit(main())
