"""Shared fixtures of the HTTP serving-tier tests: datasets of every
block kind behind a live ephemeral-port server."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Dataset, GeoService
from repro.core.policy import CachePolicy
from repro.server import EdgeCache, GeoClient, GeoHTTPServer

LEVEL = 14

#: The wire shapes every round-trip test reuses.
REGION = {"bbox": [-74.05, 40.65, -73.82, 40.82]}
AGGS = ["count", "sum:fare", "avg:distance"]


def wire_query(dataset: str = "small", region: dict | None = None) -> dict:
    return {
        "v": 2,
        "dataset": dataset,
        "region": dict(region or REGION),
        "aggregates": list(AGGS),
    }


def make_rows(count: int = 40, seed: int = 5) -> list[dict]:
    rng = np.random.default_rng(seed)
    return [
        {
            "x": float(x),
            "y": float(y),
            "fare": float(fare),
            "distance": float(distance),
        }
        for x, y, fare, distance in zip(
            rng.normal(-73.95, 0.04, count),
            rng.normal(40.74, 0.04, count),
            rng.gamma(3.0, 4.0, count),
            rng.gamma(2.0, 2.0, count),
        )
    ]


def build_dataset(base, kind: str, **kwargs) -> Dataset:  # noqa: ANN001 - BaseData
    if kind == "adaptive":
        kwargs.setdefault("policy", CachePolicy(threshold=0.5))
    elif kind == "sharded":
        kwargs.setdefault("shard_count", 8)
    dataset = Dataset.build(base, LEVEL, kind, name="small", **kwargs)
    if kind == "sharded":
        assert dataset.handle.num_shards >= 4
    return dataset


def answer(envelope: dict) -> dict:
    """The deterministic part of a wire envelope (drop the
    run-dependent ``stats`` block)."""
    return {key: value for key, value in envelope.items() if key != "stats"}


@pytest.fixture(params=["geoblock", "sharded", "adaptive"])
def kind(request) -> str:
    return request.param


@pytest.fixture()
def service(small_base) -> GeoService:
    built = GeoService()
    built.register("small", build_dataset(small_base, "geoblock"))
    return built


@pytest.fixture()
def edge() -> EdgeCache:
    # TTLs far beyond a test run: only explicit clock control or a
    # version bump can move an entry out of the fresh state.
    return EdgeCache(ttl=600.0, stale_ttl=600.0)


@pytest.fixture()
def server(service, edge):
    with GeoHTTPServer(service, port=0, edge=edge) as running:
        yield running


@pytest.fixture()
def client(server):
    with GeoClient.for_server(server) as connected:
        yield connected
