"""Self-test of geobench, collected by the tier-1 run.

A later change may not edit the benchmark, so this is what tells it that
it renamed a public call the benchmark depends on: ``--quick`` drives
all four workloads, the server subprocess included, through both passes.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONTRACT = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in CONTRACT["workloads"]]

sys.path.insert(0, str(HERE))
from inputs import QUICK, Inputs  # noqa: E402 - needs the path entry above


def quick_run(job: tuple[str, int]) -> dict:
    workload, trace = job
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--workload", workload,
         "--seed", "7", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=False,
    )
    assert done.returncode == 0, f"{workload} --trace {trace}:\n{done.stdout}\n{done.stderr}"
    return json.loads(done.stdout.rstrip().rsplit("\n", 1)[-1])


def test_quick_run_emits_every_metric_of_the_contract():
    units = {
        0: {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]},
        1: {m["name"]: m["unit"] for m in CONTRACT["per_layer"]},
    }
    jobs = [(workload, trace) for workload in WORKLOADS for trace in (0, 1)]
    # Three at a time: the two http_serving runs mostly wait on sockets.
    with ThreadPoolExecutor(max_workers=3) as pool:
        lines = list(pool.map(quick_run, jobs))
    for (workload, trace), line in zip(jobs, lines):
        where = f"{workload} --trace {trace}"
        assert set(line) == {"correct", "attempted", "failed", "metrics"}, where
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1, where
        assert {n: m["unit"] for n, m in line["metrics"].items()} == units[trace], where
        for name, metric in line["metrics"].items():
            assert math.isfinite(metric["value"]), f"{where}: {name}"
            if trace == 0:
                assert metric["value"] > 0, f"{where}: {name}"


def test_inputs_follow_the_seed():
    first, again, other = Inputs(3, QUICK), Inputs(3, QUICK), Inputs(4, QUICK)
    for workload in WORKLOADS:
        assert first.digest(workload) == again.digest(workload)
        assert first.digest(workload) != other.digest(workload)
    # A longer stream extends a shorter one: op i depends on i alone.
    for workload in WORKLOADS:
        assert first.stream(workload, 0, 40) == first.stream(workload, 0, 80)[:40]


def test_benchmark_imports_no_legacy_harness():
    legacy = "|".join(("data", "workloads", "experiments", "bench"))
    forbidden = re.compile(rf"\brepro\.({legacy})\b")
    for path in sorted(HERE.glob("*.py")):
        assert not forbidden.search(path.read_text()), path.name
