"""Serving targets, set-up and load loops of geobench.

Only the surfaces listed in README.md are imported from ``repro``.  A
*target* is a service able to answer: an in-process ``GeoService``
behind a bytes -> ``run_dict`` -> bytes adapter (what a transport
does), or a ``python -m repro.server`` subprocess behind real sockets.
"""

from __future__ import annotations

import http.client
import json
import os
import resource
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

from repro.api import Dataset, GeoService
from repro.cache import TieredCache
from repro.cells import EARTH
from repro.core import CachePolicy
from repro.storage import PointTable, Schema, extract

from audit import Checker
from inputs import COLUMNS, DATASET, LEVEL, Cursor, Inputs, Op

SRC = Path(__file__).resolve().parents[2] / "src"
OUT = Path(__file__).resolve().parent / "out"
_JSON_HEADERS = {"Content-Type": "application/json"}
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
#: CPUs this process may run on, read before :func:`set_up` pins it.
_CPUS = sorted(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Spec:
    """What one workload serves with and how hard it is driven."""

    kind: str
    policy: CachePolicy | None = None
    http: bool = False
    callers: int = 1
    warmup: int = 100  # ops per caller, untimed
    cap_per_s: int = 1000  # stream ops generated per caller and timed second
    appends_per_s: int = 0  # open-loop writer beside the readers
    in_mix: tuple = ()  # op classes the mix has; the tail phase runs the others
    all_miss: bool = False  # no payload repeats: a result-tier or MV hit voids the run


SPECS = {
    "explore_cold": Spec(kind="geoblock", warmup=100, cap_per_s=1000, all_miss=True),
    "dashboard_hot": Spec(
        kind="adaptive",
        # rebuild_every=None (the default) never trains the trie.
        policy=CachePolicy(threshold=0.05, rebuild_every=2000),
        warmup=1000,
        cap_per_s=4000,
        in_mix=("render",),
    ),
    "http_serving": Spec(kind="geoblock", http=True, callers=2, warmup=40, cap_per_s=800),
    "ingest_beside_reads": Spec(
        kind="sharded", warmup=400, cap_per_s=8000, appends_per_s=10, in_mix=("append",)
    ),
}


class Reply(NamedTuple):
    start: float
    end: float
    envelope: dict | None
    status: int
    size: int
    x_cache: str | None = None


# -- targets -------------------------------------------------------------------


class InProcessClient:
    def __init__(self, service: GeoService) -> None:
        self.service = service

    def send(self, op: Op) -> Reply:
        start = perf_counter()
        envelope = self.service.run_dict(json.loads(op.body))
        reply = json.dumps(envelope).encode()
        end = perf_counter()
        return Reply(start, end, envelope, 200 if envelope.get("ok") else 500, len(reply))

    def close(self) -> None:
        pass


class HttpClient:
    """One keep-alive connection; the reply is decoded outside the timed
    interval."""

    def __init__(self, port: int) -> None:
        self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)

    def get(self, path: str) -> tuple[int, bytes]:
        self._conn.request("GET", path)
        response = self._conn.getresponse()
        return response.status, response.read()

    def send(self, op: Op) -> Reply:
        start = perf_counter()
        try:
            self._conn.request("POST", op.route, body=op.body, headers=_JSON_HEADERS)
            response = self._conn.getresponse()
            reply = response.read()
        except (OSError, http.client.HTTPException):
            self._conn.close()
            return Reply(start, perf_counter(), None, 0, 0)
        end = perf_counter()
        try:
            envelope = json.loads(reply)
        except ValueError:
            envelope = None
        x_cache = response.getheader("X-Cache")
        return Reply(start, end, envelope, response.status, len(reply), x_cache)

    def close(self) -> None:
        self._conn.close()


class InProcessTarget:
    def __init__(self, service: GeoService) -> None:
        self.service = service

    def client(self) -> InProcessClient:
        return InProcessClient(self.service)

    def stats(self) -> dict:
        return self.service.stats()

    def cpu_s(self) -> float:
        return time.process_time()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def trie_hit_ratio(self) -> float:
        return float(getattr(self.service.dataset(DATASET).handle, "cache_hit_rate", 0.0))

    def close(self) -> None:
        pass


class ServerTarget:
    """``python -u -m repro.server`` in its shipped defaults, always
    reaped by :meth:`close`."""

    def __init__(self, npz: Path, cpu: int | None) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.server", "--port", "0", "--quiet",
             "--datasets", f"{DATASET}={npz}"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        )
        if cpu is not None:
            os.sched_setaffinity(self.proc.pid, {cpu})
        watchdog = threading.Timer(60.0, self.proc.kill)
        watchdog.start()
        try:
            self.port = self._read_port()
            status, _ = self.client().get("/healthz")
            if status != 200:
                raise RuntimeError(f"server /healthz answered {status}")
        except BaseException:
            self.close()
            raise
        finally:
            watchdog.cancel()

    def _read_port(self) -> int:
        lines = []
        for line in self.proc.stdout:
            lines.append(line)
            if "serving" in line and "http://" in line:
                return int(line.rsplit(":", 1)[1])
        raise RuntimeError("server exited before serving:\n" + "".join(lines))

    def client(self) -> HttpClient:
        return HttpClient(self.port)

    def stats(self) -> dict:
        client = self.client()
        try:
            return json.loads(client.get("/stats")[1])
        finally:
            client.close()

    def cpu_s(self) -> float:
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def trie_hit_ratio(self) -> float:
        return 0.0

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def build_base(inputs: Inputs):
    points = inputs.points
    table = PointTable(Schema(list(COLUMNS)), points.xs, points.ys, points.columns())
    return extract(table, EARTH)


def build_dataset(base, spec: Spec, cache: TieredCache | None = None) -> Dataset:
    return Dataset.build(base, LEVEL, spec.kind, policy=spec.policy, cache=cache)


def set_up(inputs: Inputs, spec: Spec, workdir: Path, cache: TieredCache | None = None):
    """Raw table in memory -> a target able to answer.  ``target.setup``
    holds the time of each public call on the way and their total,
    ``target.base`` the extracted base data (for twins).

    At full scale this process is pinned to one CPU first, and a server
    subprocess to another when there is one.  Two Python threads that
    the scheduler moves between two shared vCPUs hand the GIL across
    cores: ``ingest_beside_reads`` then runs about twice as slow as on
    one CPU and flips between the two speeds from run to run (README,
    "One CPU").
    """
    if inputs.scale.pin:
        os.sched_setaffinity(0, {_CPUS[0]})
    times = {}
    begin = mark = perf_counter()

    def lap(name: str) -> None:
        nonlocal mark
        now = perf_counter()
        times[name] = now - mark
        mark = now

    base = build_base(inputs)
    lap("storage.extract_s")
    dataset = build_dataset(base, spec)
    lap("core.build_s")
    sizes = {
        "storage.base_mb": base.memory_bytes() / 1e6,
        "core.block_mb": dataset.handle.memory_bytes() / 1e6,
    }
    if spec.http:
        npz = workdir / "bench.npz"
        dataset.save(npz)
        lap("core.save_s")
        sizes["core.file_mb"] = npz.stat().st_size / 1e6
        target = ServerTarget(npz, _CPUS[-1] if inputs.scale.pin else None)
        lap("server.start_s")
    else:
        service = GeoService(cache=cache)
        service.register(DATASET, dataset)
        target = InProcessTarget(service)
    target.setup = {**times, **sizes, "setup_s": perf_counter() - begin}
    target.base = base
    return target


class Workdir:
    """A scratch directory under ``out/``, removed on exit."""

    def __init__(self, label: str) -> None:
        self.path = OUT / f"tmp_{label}_{os.getpid()}"

    def __enter__(self) -> Path:
        self.path.mkdir(parents=True, exist_ok=True)
        return self.path

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


# -- load loops ----------------------------------------------------------------


def run_threads(jobs: list) -> None:
    """Run each job on its own thread (the first inline when alone) and
    re-raise the first failure."""
    if len(jobs) == 1:
        jobs[0]()
        return
    errors: list[BaseException] = []

    def guarded(job) -> None:
        try:
            job()
        except BaseException as error:  # noqa: BLE001 - re-raised by the caller below
            errors.append(error)

    threads = [threading.Thread(target=guarded, args=(job,)) for job in jobs]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def closed_loop(client, cursor: Cursor, checker: Checker, samples: list, stop_at: float) -> None:
    """Send the next request only once the previous one is answered."""
    while perf_counter() < stop_at:
        op = cursor.take()
        reply = client.send(op)
        samples.append((op.kind, reply.start, reply.end))
        checker.check(op, reply.envelope, reply.status)


def fixed_count(client, cursor: Cursor, checker: Checker, count: int) -> None:
    for _ in range(count):
        op = cursor.take()
        reply = client.send(op)
        checker.check(op, reply.envelope, reply.status)


def open_loop(
    client, cursor: Cursor, checker: Checker, samples: list, applied: list,
    start_at: float, stop_at: float, per_second: int,
) -> None:
    """Send on a fixed schedule whatever the replies do; a sample is
    ``("append", due, end, start)`` so latency counts from the due time
    and ``start - due`` says how late the generator ran."""
    index = 0
    while (due := start_at + index / per_second) < stop_at:
        delay = due - perf_counter()
        if delay > 0:
            time.sleep(delay)
        op = cursor.take()
        reply = client.send(op)
        samples.append((op.kind, due, reply.end, reply.start))
        checker.check(op, reply.envelope, reply.status)
        applied.append(op.rows)
        index += 1
