"""Seeded inputs of geobench: the point table, the region families, the
aggregate lists and the request streams.

Everything here is numpy plus ``json`` -- nothing is imported from
``repro`` -- so the program under test only ever sees the generated
rows and request bytes.  Equal seeds give byte-equal inputs (see
:func:`digest`); the *city* (where the hot spots are and how heavy)
is a constant, so another seed resamples the same city instead of
designing a new one and timings stay comparable across seeds.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

LEVEL = 17
N_HOODS = 195
BATCH_ROWS = 256
DATASET = "bench"
COLUMNS = ("fare", "dist", "pax")
WORKLOADS = ("explore_cold", "dashboard_hot", "http_serving", "ingest_beside_reads")

#: Every generated point lies strictly inside this box, so a COUNT over
#: it must equal the number of rows present (the whole-bounds rule).
BOUNDS = (-74.40, 40.40, -73.50, 41.10)
_UNIFORM_BOX = (-74.15, 40.55, -73.70, 40.92)
_KM_PER_DEG_LAT = 111.0
_KM_PER_DEG_LON = 84.4  # at 40.7 N

#: The city: 10 Gaussian hot spots as (lon, lat, sd_km, weight).
CITY = (
    (-73.985, 40.758, 1.1, 0.22),
    (-74.006, 40.713, 0.9, 0.15),
    (-73.968, 40.785, 1.3, 0.13),
    (-73.949, 40.722, 1.2, 0.10),
    (-73.990, 40.690, 1.4, 0.09),
    (-73.870, 40.770, 0.7, 0.08),
    (-73.785, 40.645, 0.8, 0.07),
    (-73.920, 40.830, 1.8, 0.06),
    (-73.830, 40.730, 2.2, 0.05),
    (-74.080, 40.630, 2.5, 0.05),
)
UNIFORM_SHARE = 0.04

#: Six fixed aggregate lists over the three columns; index 0 is the
#: "one aggregate list" of the workloads that use a single one.
AGG_LISTS = (
    ("count", "sum:fare"),
    ("count",),
    ("avg:fare", "avg:dist"),
    ("count", "sum:fare", "min:dist", "max:dist"),
    ("sum:pax",),
    ("count", "avg:pax", "max:fare"),
)


@dataclass(frozen=True)
class Scale:
    """How much of everything a run does.  ``QUICK`` exists for the
    tier-1 self-test only: its numbers mean nothing."""

    points: int
    setups: int  # set-up repetitions behind the setup_s median
    tail_rounds: int
    tail_appends: int  # per round
    tail_renders: int  # per round
    audit_rings: int  # half ``hoods``, half ``novel``
    shrink: int  # divisor of warm-up, traced-op and probe counts
    pin: bool  # one CPU per process; off where the self-test runs three at once


FULL = Scale(2_000_000, setups=3, tail_rounds=4, tail_appends=10, tail_renders=4,
             audit_rings=64, shrink=1, pin=True)
QUICK = Scale(20_000, setups=2, tail_rounds=1, tail_appends=2, tail_renders=1,
              audit_rings=16, shrink=10, pin=False)


class Op(NamedTuple):
    """One request of a stream.  ``key`` identifies a payload that may
    repeat (``None`` for a never-repeated one); ``rows`` carries the
    ``(xs, ys)`` an append adds, for the audit."""

    kind: str  # drill | jitter | novel | bbox | render | append
    key: object
    route: str
    body: bytes
    rows: tuple | None = None


@dataclass(frozen=True)
class Points:
    xs: np.ndarray
    ys: np.ndarray
    fare: np.ndarray
    dist: np.ndarray
    pax: np.ndarray

    def columns(self) -> dict[str, np.ndarray]:
        return {"fare": self.fare, "dist": self.dist, "pax": self.pax}


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def make_points(rng: np.random.Generator, count: int) -> Points:
    """``count`` rows drawn from the city (hot spots + uniform share)."""
    city = np.asarray(CITY)
    spot = rng.choice(len(city), size=count, p=city[:, 3] / city[:, 3].sum())
    xs = rng.normal(city[spot, 0], city[spot, 2] / _KM_PER_DEG_LON)
    ys = rng.normal(city[spot, 1], city[spot, 2] / _KM_PER_DEG_LAT)
    uniform = rng.random(count) < UNIFORM_SHARE
    n_uniform = int(uniform.sum())
    xs[uniform] = rng.uniform(_UNIFORM_BOX[0], _UNIFORM_BOX[2], n_uniform)
    ys[uniform] = rng.uniform(_UNIFORM_BOX[1], _UNIFORM_BOX[3], n_uniform)
    eps = 1e-6
    np.clip(xs, BOUNDS[0] + eps, BOUNDS[2] - eps, out=xs)
    np.clip(ys, BOUNDS[1] + eps, BOUNDS[3] - eps, out=ys)
    return Points(
        xs=xs,
        ys=ys,
        fare=np.round(rng.gamma(3.0, 4.0, count), 2),
        dist=np.round(rng.gamma(2.0, 1.5, count), 2),
        pax=rng.integers(1, 7, count).astype(np.float64),
    )


def star_ring(rng: np.random.Generator, cx: float, cy: float, radius_km: float) -> list:
    """A closed star-shaped ring of 8-48 vertices around ``(cx, cy)``."""
    vertices = int(rng.integers(8, 49))
    angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, vertices))
    radii = radius_km * rng.uniform(0.6, 1.0, vertices)
    xs = np.round(cx + radii * np.cos(angles) / _KM_PER_DEG_LON, 6)
    ys = np.round(cy + radii * np.sin(angles) / _KM_PER_DEG_LAT, 6)
    ring = [[float(x), float(y)] for x, y in zip(xs, ys)]
    ring.append(ring[0])
    return ring


def scaled_ring(ring: list, factor: float) -> list:
    """``ring`` scaled about its vertex mean (a new fingerprint over
    mostly the same cells)."""
    body = np.asarray(ring[:-1])
    centre = body.mean(axis=0)
    scaled = np.round(centre + (body - centre) * factor, 6).tolist()
    scaled.append(scaled[0])
    return scaled


def _dumps(payload: dict) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode()


def query_body(region: dict, aggs: tuple) -> bytes:
    return _dumps({"v": 2, "dataset": DATASET, "region": region, "aggregates": list(aggs)})


def polygon(ring: list) -> dict:
    return {"type": "Polygon", "coordinates": [ring]}


class Inputs:
    """All inputs of one ``(seed, scale)``: the table, the ``hoods``
    family, and stream factories."""

    def __init__(self, seed: int, scale: Scale = FULL) -> None:
        self.seed = seed
        self.scale = scale
        self.points = make_points(_rng(seed, 0), scale.points)
        rng = _rng(seed, 1)
        # Ordered by radius, so an evenly spread index is an evenly spread size.
        radii = np.sort(rng.uniform(0.3, 2.0, N_HOODS))
        self.hoods = [self._ring_at_point(rng, radius) for radius in radii]
        collection = {
            "type": "FeatureCollection",
            "features": [
                {"type": "Feature", "properties": {"name": f"hood{i:03d}"}, "geometry": polygon(r)}
                for i, r in enumerate(self.hoods)
            ],
        }
        self._drill = [[query_body(polygon(r), a) for a in AGG_LISTS] for r in self.hoods]
        self._render = [
            _dumps({"v": 2, "dataset": DATASET, "group_by": collection, "aggregates": list(a)})
            for a in AGG_LISTS
        ]
        self._bbox = query_body({"bbox": list(BOUNDS)}, ("count",))

    def _ring_at_point(self, rng: np.random.Generator, radius_km: float) -> list:
        at = int(rng.integers(len(self.points.xs)))
        return star_ring(rng, float(self.points.xs[at]), float(self.points.ys[at]), radius_km)

    def novel_ring(self, rng: np.random.Generator, quantile: float) -> list:
        """Radius log-uniform on 0.2-8 km at ``quantile``."""
        radius = math.exp(math.log(0.2) + quantile * math.log(8.0 / 0.2))
        return self._ring_at_point(rng, radius)

    # -- op factories --------------------------------------------------------

    def drill(self, hood: int, aggs: int) -> Op:
        return Op("drill", (hood, aggs), "/query", self._drill[hood][aggs])

    def novel(self, rng: np.random.Generator, aggs: int, quantile: float) -> Op:
        body = query_body(polygon(self.novel_ring(rng, quantile)), AGG_LISTS[aggs])
        return Op("novel", None, "/query", body)

    def jitter(self, rng: np.random.Generator, aggs: int, quantile: float) -> Op:
        ring = scaled_ring(self.hoods[int(quantile * N_HOODS)], rng.uniform(0.9, 1.1))
        return Op("jitter", None, "/query", query_body(polygon(ring), AGG_LISTS[aggs]))

    def render(self, aggs: int) -> Op:
        return Op("render", ("render", aggs), "/query", self._render[aggs])

    def bbox(self) -> Op:
        return Op("bbox", "bbox", "/query", self._bbox)

    def append(self, rng: np.random.Generator) -> Op:
        new = make_points(rng, BATCH_ROWS)
        rows = [
            {"x": x, "y": y, "fare": f, "dist": d, "pax": p}
            for x, y, f, d, p in zip(
                new.xs.tolist(), new.ys.tolist(), new.fare.tolist(),
                new.dist.tolist(), new.pax.tolist(),
            )
        ]
        body = _dumps({"v": 2, "op": "append", "dataset": DATASET, "rows": rows})
        return Op("append", None, "/append", body, (new.xs, new.ys))

    # -- streams -------------------------------------------------------------

    def stream(self, workload: str, client: int, count: int) -> list[Op]:
        """The first ``count`` ops of ``(seed, workload, client)``: op
        ``i`` depends on nothing but those three and ``i``."""
        rng = _rng(self.seed, 2, WORKLOADS.index(workload), client, 0)
        zipf_rng = _rng(self.seed, 2, WORKLOADS.index(workload), client, 1)
        sizes = _Spread(zipf_rng, _Spread.GOLDEN)
        classes = _Spread(zipf_rng, _Spread.SQRT2)
        if workload == "explore_cold":
            return [
                self.novel(rng, int(rng.integers(len(AGG_LISTS))), sizes.next())
                for _ in range(count)
            ]
        if workload == "dashboard_hot":
            keys = _zipf_draws(zipf_rng, N_HOODS * len(AGG_LISTS), 1.1, count)
            ops = []
            for key in keys:
                roll = classes.next()
                aggs = int(rng.integers(len(AGG_LISTS)))
                if roll < 0.90:
                    ops.append(self.drill(*divmod(int(key), len(AGG_LISTS))))
                elif roll < 0.98:
                    ops.append(self.jitter(rng, aggs, sizes.next()))
                else:
                    ops.append(self.render(aggs))
            return ops
        if workload == "http_serving":
            hoods = _zipf_draws(zipf_rng, N_HOODS, 1.1, count)
            return [
                self.drill(int(hood), 0) if classes.next() < 0.70
                else self.novel(rng, 0, sizes.next())
                for hood in hoods
            ]
        if workload == "ingest_beside_reads":
            return [
                self.drill(int(rng.integers(N_HOODS)), 0) if classes.next() < 0.95 else self.bbox()
                for _ in range(count)
            ]
        raise ValueError(f"unknown workload {workload!r}")

    def appends(self, workload: str, count: int) -> list[Op]:
        """The writer's stream (client 99 of the workload)."""
        rng = _rng(self.seed, 2, WORKLOADS.index(workload), 99)
        return [self.append(rng) for _ in range(count)]

    def audit_rings(self) -> list[list]:
        """The fixed audit set: 32 ``hoods`` + 32 ``novel`` at full scale."""
        rng = _rng(self.seed, 3)
        half = self.scale.audit_rings // 2
        step = N_HOODS // half
        return self.hoods[: half * step : step] + [
            self.novel_ring(rng, float(rng.random())) for _ in range(half)
        ]

    def digest(self, workload: str) -> str:
        """Hash of the table and of the head of every stream of
        ``workload`` -- equal for equal seeds, different across seeds."""
        h = hashlib.blake2b(digest_size=12)
        for column in (self.points.xs, self.points.ys, *self.points.columns().values()):
            h.update(np.ascontiguousarray(column).tobytes())
        for op in self.stream(workload, 0, 64) + self.appends(workload, 2):
            h.update(op.body)
        return h.hexdigest()


class _Spread:
    """Evenly spread draws on [0, 1) (an additive irrational-step
    sequence from a seeded start): op classes and sizes drawn through
    it have the stated shares and distribution, and every few dozen
    consecutive ops see the same mix of them, so a one-second window
    measures the same work as the next."""

    GOLDEN = 0.6180339887498949
    SQRT2 = 0.41421356237309515

    def __init__(self, rng: np.random.Generator, step: float) -> None:
        self._at = float(rng.random())
        self._step = step

    def next(self) -> float:
        self._at = (self._at + self._step) % 1.0
        return self._at


def _zipf_draws(rng: np.random.Generator, keys: int, exponent: float, count: int) -> np.ndarray:
    """``count`` draws from Zipf(``exponent``) over a seeded ranking of
    ``keys`` items."""
    weights = 1.0 / np.arange(1, keys + 1) ** exponent
    ranking = rng.permutation(keys)
    # Inverse-CDF on sequential uniforms, so a longer stream extends a
    # shorter one instead of reshuffling it.
    ranks = np.searchsorted(np.cumsum(weights / weights.sum()), rng.random(count))
    return ranking[np.minimum(ranks, keys - 1)]


class StreamDry(RuntimeError):
    """A stream ran out inside a timed phase: the run is void (wrapping
    round would turn misses into hits)."""


class Cursor:
    """Hands out a pre-generated stream op by op; never wraps."""

    def __init__(self, ops: list[Op], label: str) -> None:
        self._ops = ops
        self._next = 0
        self._label = label

    def take(self) -> Op:
        if self._next >= len(self._ops):
            raise StreamDry(f"stream {self._label} ran dry after {self._next} ops; raise its cap")
        op = self._ops[self._next]
        self._next += 1
        return op

    @property
    def used(self) -> int:
        return self._next
