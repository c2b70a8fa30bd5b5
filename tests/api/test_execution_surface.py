"""A request has no execution model: the retired ``mode`` knob is gone
from every surface -- wire hint, fluent method, ``select`` /
``run_batch`` / ``run_grouped`` keyword -- and the block's
``query_mode`` (kernel, or scalar for the experiment harness) is the
one survivor."""

from __future__ import annotations

import dataclasses
import inspect

import pytest

from repro.api import Dataset, GeoService, QueryRequest, TieredCache
from repro.api.request import HINT_KEYS
from repro.core import AdaptiveGeoBlock, GeoBlock
from repro.engine import Executor, ShardedExecutor, ShardedGeoBlock
from repro.errors import QueryError

LEVEL = 14

REGION = {"bbox": [-74.05, 40.65, -73.82, 40.82]}


def payload(**extra) -> dict:
    return {"v": 2, "dataset": "small", "region": dict(REGION), "aggregates": ["count"], **extra}


@pytest.fixture()
def service(small_base) -> GeoService:
    built = GeoService(cache=TieredCache())
    built.register("small", Dataset.build(small_base, LEVEL, "geoblock", name="small"))
    return built


def assert_bad_mode_hint(envelope: dict) -> None:
    assert envelope["ok"] is False
    assert envelope["error"]["code"] == "bad_hint"
    assert envelope["error"]["details"]["unknown"] == ["mode"]


class TestRetiredModeHint:
    """``hints.mode`` fails the ordinary unknown-hint check everywhere
    a request is parsed: no special case, no accept-and-ignore."""

    HINTS = {"mode": "kernel"}

    def test_run_dict(self, service):
        assert_bad_mode_hint(service.run_dict(payload(hints=self.HINTS)))

    def test_batch_member_fails_the_batch(self, service):
        envelopes = service.run_batch_dict([payload(), payload(hints=self.HINTS)])
        assert len(envelopes) == 2
        for envelope in envelopes:
            assert_bad_mode_hint(envelope)

    def test_materialize_op(self, service):
        assert_bad_mode_hint(service.run_dict(payload(op="materialize", hints=self.HINTS)))
        assert service.run_dict({"v": 2, "op": "views", "dataset": "small"})["data"][
            "materialized"
        ] == []

    def test_versionless_v1_payload(self, service):
        legacy = payload(hints=self.HINTS)
        del legacy["v"]
        assert_bad_mode_hint(service.run_dict(legacy))


class TestNoModeAnywhere:
    def test_view_rows_carry_no_mode(self, service):
        info = service.run_dict(payload(op="materialize", name="hot"))["data"]
        assert "mode" not in info
        (row,) = service.run_dict({"v": 2, "op": "views", "dataset": "small"})["data"][
            "materialized"
        ]
        assert row["name"] == "hot"
        assert "mode" not in row
        (view,) = service.dataset("small").materialized.views()
        assert "mode" not in view.info(current_version=1)
        assert not hasattr(view, "mode")

    @pytest.mark.parametrize(
        "owner", [GeoBlock, AdaptiveGeoBlock, ShardedGeoBlock, Executor, ShardedExecutor]
    )
    @pytest.mark.parametrize("method", ["select", "run_batch", "run_grouped"])
    def test_engine_signatures(self, owner, method):
        assert "mode" not in inspect.signature(getattr(owner, method)).parameters

    def test_request_and_fluent_surface(self, service):
        assert HINT_KEYS == ("cache", "count_only")
        assert "mode" not in {field.name for field in dataclasses.fields(QueryRequest)}
        builder = service.dataset("small").over(REGION)
        assert not hasattr(builder, "mode")

    def test_query_mode_accepts_only_kernel_and_scalar(self, small_base):
        block = GeoBlock.build(small_base, LEVEL)
        adaptive = AdaptiveGeoBlock(block)
        for handle in (block, adaptive):
            with pytest.raises(QueryError):
                handle.query_mode = "vector"
            assert handle.query_mode == "kernel"
        adaptive.query_mode = "scalar"
        assert block.query_mode == "scalar"
