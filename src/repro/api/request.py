"""Declarative queries: the request/response model of the service API.

A :class:`QueryRequest` is a pure description of one spatial aggregation
query -- region (or grouped features), filter, output aggregates,
execution hints, optional dataset name -- that round-trips to and from
plain JSON dicts, so a future HTTP layer is a thin adapter:
``QueryRequest.from_dict(json.loads(body))`` in, ``response.to_dict()``
out.

Query v2 wire shape::

    {
      "v": 2,                                 # envelope version
      "dataset": "taxi",                      # optional (default dataset)
      "region": {"type": "Polygon", ...}      # GeoJSON geometry/Feature
                | {"bbox": [minx, miny, maxx, maxy]},
      "group_by": {"type": "FeatureCollection", ...}   # instead of
                | [{"name": "soho", "region": ...}],   # "region"
      "where": {"col": "distance", "op": ">=", "value": 4},
      "aggregates": ["count", "sum:fare"],    # compact spec strings
      "hints": {                              # optional, defaults below
        "cache": true,                        # planner: probe the trie
        "count_only": false                   # executor: Listing 2 path
      }
    }

``region`` and ``group_by`` are mutually exclusive: the former answers
one region, the latter answers every feature of a FeatureCollection (or
named-region list) in one grouped engine pass plus a combined rollup.
``where`` routes the query through a per-predicate filtered view (the
paper's GeoBlock-per-filter design, Section 3.3).  The write path has
its own shape -- ``{"v": 2, "op": "append", "rows": [...]}`` -- parsed
by :class:`AppendRequest`.

There is one query envelope: ``"v"`` may be omitted (the payload is
read as the current envelope, ``group_by`` and ``where`` included), and
any other version -- the retired ``"v": 1`` among them -- is a
``bad_request``.

Hints split cleanly across the engine seam: ``cache`` is consumed by
the *planner* (whether plans carry AggregateTrie probe decisions),
while ``count_only`` is consumed by the *executor* (the Listing 2 count
in place of the value fold).  Every response embeds
:class:`QueryStats` -- cells probed, cache hits, covering-cache reuse,
latency -- so serving dashboards get observability without a side
channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections.abc import Mapping, Sequence

from repro.api.aggregates import format_agg, parse_aggs
from repro.api.errors import (
    BAD_HINT,
    BAD_PREDICATE,
    BAD_REGION,
    BAD_REQUEST,
    ERROR_CODES,
    INTERNAL,
    ApiError,
)
from repro.api.geojson import (
    features_from_geojson,
    region_from_geojson,
    region_to_geojson,
)
from repro.core.aggregates import AggSpec
from repro.errors import GeometryError, QueryError
from repro.geometry.bbox import BoundingBox
from repro.geometry.polygon import MultiPolygon, Polygon
from repro.storage.expr import Predicate, predicate_from_wire, predicate_to_wire

#: Hint names understood by :class:`QueryRequest` (anything else is a
#: client error -- silently ignoring typos would mask wrong results).
HINT_KEYS = ("cache", "count_only")

#: The envelope version this module speaks (and emits).
WIRE_VERSION = 2

_REQUEST_KEYS = ("v", "op", "dataset", "region", "group_by", "where", "aggregates", "hints")

#: Default output aggregates when a request names none.
DEFAULT_AGGREGATES = (AggSpec("count"),)

def parse_where(payload: object) -> Predicate:
    """Parse a request's ``where`` payload into a predicate.

    Predicate objects pass through; dicts use the wire syntax of
    :func:`repro.storage.expr.predicate_from_wire`.  Malformed payloads
    raise :class:`ApiError` with code ``bad_predicate``.
    """
    if isinstance(payload, Predicate):
        return payload
    try:
        return predicate_from_wire(payload)
    except QueryError as error:
        raise ApiError(BAD_PREDICATE, str(error)) from error


def parse_features(payload: object) -> tuple[tuple[str, Polygon | MultiPolygon], ...]:
    """Parse a ``group_by`` payload into named query regions.

    Accepts a GeoJSON ``FeatureCollection`` or a list of
    ``{"name": ..., "region": ...}`` objects (regions in any form
    :func:`parse_region` takes, including bboxes); pre-compiled
    ``(name, region)`` pairs pass through.  The compiled regions are
    stable objects: re-running the same request replans against the
    planner's covering cache by identity.
    """
    if isinstance(payload, dict):
        features = features_from_geojson(payload)
    elif isinstance(payload, (list, tuple)):
        if not payload:
            raise ApiError(BAD_REGION, "group_by list is empty; name at least one region")
        features = []
        for index, member in enumerate(payload):
            if (
                isinstance(member, (list, tuple))
                and len(member) == 2
                and isinstance(member[0], str)
            ):
                name, region_payload = member
            elif isinstance(member, Mapping):
                unknown = sorted(set(member) - {"name", "region"})
                if unknown:
                    raise ApiError(
                        BAD_REGION,
                        f"group_by member {index}: unknown key(s) {unknown}; "
                        "expected 'name' and 'region'",
                    )
                if "region" not in member:
                    raise ApiError(BAD_REGION, f"group_by member {index} needs a 'region'")
                name = member.get("name")
                if name is None:
                    name = f"feature_{index}"
                if not isinstance(name, str) or not name:
                    raise ApiError(
                        BAD_REGION, f"group_by member {index}: 'name' must be a string"
                    )
                region_payload = member["region"]
            else:
                raise ApiError(
                    BAD_REGION,
                    f"group_by member {index} must be a named-region object, "
                    f"got {type(member).__name__}",
                )
            try:
                features.append((name, parse_region(region_payload)))
            except ApiError as error:
                raise ApiError(
                    error.code,
                    f"group_by member {index} ({name!r}): {error.message}",
                    details=error.details or None,
                ) from error
    else:
        raise ApiError(
            BAD_REGION,
            "group_by must be a GeoJSON FeatureCollection or a list of named regions, "
            f"got {type(payload).__name__}",
        )
    seen: set[str] = set()
    for name, _ in features:
        if name in seen:
            raise ApiError(
                BAD_REGION,
                f"group_by names feature {name!r} twice; feature names must be unique",
            )
        seen.add(name)
    return tuple(features)


def parse_region(payload: object) -> Polygon | MultiPolygon | BoundingBox:
    """Parse a request's region payload.

    Region objects pass through; dicts are either a ``{"bbox": [...]}``
    rectangle or a GeoJSON geometry/Feature.
    """
    if isinstance(payload, (Polygon, MultiPolygon, BoundingBox)):
        return payload
    if isinstance(payload, dict) and "type" not in payload and "bbox" in payload:
        bbox = payload["bbox"]
        if (
            not isinstance(bbox, (list, tuple))
            or len(bbox) != 4
            or not all(isinstance(value, (int, float)) and not isinstance(value, bool) for value in bbox)
        ):
            raise ApiError(
                BAD_REGION, "'bbox' must be [min_x, min_y, max_x, max_y] numbers"
            )
        if not all(math.isfinite(value) for value in bbox):
            raise ApiError(BAD_REGION, "'bbox' values must be finite")
        try:
            return BoundingBox(*(float(value) for value in bbox))
        except GeometryError as error:
            raise ApiError(BAD_REGION, str(error)) from error
    return region_from_geojson(payload)


def serialise_region(region: Polygon | MultiPolygon | BoundingBox) -> dict:
    """Inverse of :func:`parse_region` (bboxes keep their compact form)."""
    if isinstance(region, BoundingBox):
        return {"bbox": [region.min_x, region.min_y, region.max_x, region.max_y]}
    return region_to_geojson(region)


@dataclass(frozen=True)
class QueryRequest:
    """One declarative spatial aggregation query.

    Exactly one of ``region`` (single-region answer) and ``group_by``
    (per-feature rows plus a combined rollup) must be set.
    """

    region: Polygon | MultiPolygon | BoundingBox | None = None
    aggregates: tuple[AggSpec, ...] = DEFAULT_AGGREGATES
    dataset: str | None = None
    #: Whether the planner may answer covering cells from the query cache.
    cache: bool = True
    #: COUNT-only fast path (Listing 2); ``aggregates`` are ignored.
    count_only: bool = False
    #: Filter predicate: the query answers against the dataset's
    #: per-predicate filtered view (built and cached on first use).
    where: Predicate | None = None
    #: Named features of a grouped request, mutually exclusive with
    #: ``region``.
    group_by: tuple[tuple[str, Polygon | MultiPolygon | BoundingBox], ...] | None = None

    def __post_init__(self) -> None:
        if (self.region is None) == (self.group_by is None):
            raise ApiError(
                BAD_REQUEST, "query needs exactly one of 'region' and 'group_by'"
            )
        if self.region is not None:
            object.__setattr__(self, "region", parse_region(self.region))
        else:
            object.__setattr__(self, "group_by", parse_features(self.group_by))
        object.__setattr__(self, "aggregates", parse_aggs(self.aggregates))
        if self.where is not None:
            object.__setattr__(self, "where", parse_where(self.where))
        if not isinstance(self.cache, bool):
            raise ApiError(BAD_HINT, "'cache' hint must be a boolean")
        if not isinstance(self.count_only, bool):
            raise ApiError(BAD_HINT, "'count_only' hint must be a boolean")

    # -- execution plumbing ----------------------------------------------

    @property
    def grouped(self) -> bool:
        return self.group_by is not None

    @property
    def target(self) -> Polygon | MultiPolygon:
        """The region as an engine query target (bbox -> its polygon).

        The resolved polygon is memoised: planner covering caches key on
        region identity, so a reused request must present a stable
        object across calls.
        """
        cached = self.__dict__.get("_target")
        if cached is None:
            region = self.region
            if region is None:
                raise ApiError(
                    BAD_REQUEST, "grouped query has no single target; use feature_targets"
                )
            cached = Polygon.from_box(region) if isinstance(region, BoundingBox) else region
            object.__setattr__(self, "_target", cached)
        return cached

    @property
    def feature_targets(self) -> tuple[tuple[str, Polygon | MultiPolygon], ...]:
        """Named engine targets of a grouped request (memoised, so
        repeated execution reuses the planner's covering cache by
        region identity -- see :attr:`target`)."""
        cached = self.__dict__.get("_feature_targets")
        if cached is None:
            if self.group_by is None:
                raise ApiError(BAD_REQUEST, "query has no 'group_by'")
            cached = tuple(
                (
                    name,
                    Polygon.from_box(region) if isinstance(region, BoundingBox) else region,
                )
                for name, region in self.group_by
            )
            object.__setattr__(self, "_feature_targets", cached)
        return cached

    def hints(self) -> dict:
        """Non-default execution hints (the wire ``hints`` object)."""
        hints: dict = {}
        if not self.cache:
            hints["cache"] = False
        if self.count_only:
            hints["count_only"] = True
        return hints

    # -- wire format -----------------------------------------------------

    def to_dict(self) -> dict:
        """Plain JSON-compatible dict; defaults are omitted, so the
        canonical (v2) form is minimal and ``from_dict`` round-trips
        it."""
        payload: dict = {"v": WIRE_VERSION}
        if self.region is not None:
            payload["region"] = serialise_region(self.region)
        else:
            payload["group_by"] = [
                {"name": name, "region": serialise_region(region)}
                for name, region in self.group_by or ()
            ]
        if self.where is not None:
            payload["where"] = predicate_to_wire(self.where)
        payload["aggregates"] = [format_agg(spec) for spec in self.aggregates]
        if self.dataset is not None:
            payload["dataset"] = self.dataset
        hints = self.hints()
        if hints:
            payload["hints"] = hints
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "QueryRequest":
        """Parse a wire dict (strict: unknown keys are client errors).

        A payload without ``"v"`` is read as the current envelope; any
        other version is rejected.
        """
        if not isinstance(payload, Mapping):
            raise ApiError(
                BAD_REQUEST, f"query must be an object, got {type(payload).__name__}"
            )
        unknown = sorted(set(payload) - set(_REQUEST_KEYS))
        if unknown:
            raise ApiError(
                BAD_REQUEST,
                f"unknown request key(s) {unknown}; expected {list(_REQUEST_KEYS)}",
                details={"unknown": unknown},
            )
        version = payload.get("v", WIRE_VERSION)
        if version != WIRE_VERSION:
            raise ApiError(
                BAD_REQUEST,
                f"unsupported envelope version {version!r}; this server speaks "
                f"v{WIRE_VERSION}",
            )
        op = payload.get("op", "query")
        if op != "query":
            raise ApiError(
                BAD_REQUEST,
                f"request op {op!r} is not a query; "
                "append payloads are parsed by AppendRequest",
            )
        if "region" not in payload and "group_by" not in payload:
            raise ApiError(BAD_REQUEST, "query needs a 'region' (or 'group_by')")
        if "region" in payload and "group_by" in payload:
            raise ApiError(BAD_REQUEST, "'region' and 'group_by' are mutually exclusive")
        dataset = payload.get("dataset")
        if dataset is not None and not isinstance(dataset, str):
            raise ApiError(BAD_REQUEST, "'dataset' must be a string name")
        hints = payload.get("hints", {})
        if not isinstance(hints, Mapping):
            raise ApiError(BAD_HINT, "'hints' must be an object")
        unknown_hints = sorted(set(hints) - set(HINT_KEYS))
        if unknown_hints:
            raise ApiError(
                BAD_HINT,
                f"unknown hint(s) {unknown_hints}; expected {list(HINT_KEYS)}",
                details={"unknown": unknown_hints},
            )
        return cls(
            region=parse_region(payload["region"]) if "region" in payload else None,
            aggregates=parse_aggs(payload.get("aggregates", DEFAULT_AGGREGATES)),
            dataset=dataset,
            cache=hints.get("cache", True),
            count_only=hints.get("count_only", False),
            where=parse_where(payload["where"]) if "where" in payload else None,
            group_by=parse_features(payload["group_by"]) if "group_by" in payload else None,
        )


@dataclass(frozen=True)
class QueryStats:
    """Per-query execution statistics surfaced in every response."""

    #: Covering cells probed against the block (after header pruning).
    cells_probed: int = 0
    #: Covering cells answered entirely from the AggregateTrie.
    cache_hits: int = 0
    #: Wall-clock execution latency in milliseconds.  Batched queries
    #: report the whole batch's latency on each member (the engine
    #: answers them in one shared pass; per-member attribution would be
    #: fiction).
    latency_ms: float = 0.0
    #: Coverings served from the shared covering tier instead of
    #: re-covering the polygon: 0/1 for single-region queries, the
    #: number of reused features for grouped requests.
    covering_cached: int = 0
    #: Whole answers served from the result tier (covering *and*
    #: execution skipped): 0/1 for single-region queries, the number of
    #: short-circuited members for batches routed through one response.
    result_cached: int = 0
    #: Whole answers supplied by the materialized-view tier of
    #: :mod:`repro.materialize` (0/1; one tier answers, so an MV hit
    #: always reports ``result_cached`` 0).
    mv_cached: int = 0
    #: Shards in the answering block's partition (0 when the dataset is
    #: not sharded).  Like ``cells_probed``, cached answers keep the
    #: routing counters of the execution that produced them.
    shards_total: int = 0
    #: Shards the partition router proved disjoint from the covering.
    #: Summed across members for grouped requests, like
    #: ``cells_probed``.
    shards_pruned: int = 0

    def to_dict(self) -> dict:
        """The stats object: structured ``cache``, ``mv``, and
        ``shards`` blocks plus the undisputed flat facts (cells probed,
        latency)."""
        return {
            "cells_probed": self.cells_probed,
            "latency_ms": self.latency_ms,
            "cache": {
                "covering_cached": self.covering_cached,
                "result_cached": self.result_cached,
                "trie_hits": self.cache_hits,
            },
            "mv": {"cached": self.mv_cached},
            "shards": {"total": self.shards_total, "pruned": self.shards_pruned},
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "QueryStats":
        cache = payload.get("cache")
        cache = cache if isinstance(cache, Mapping) else {}
        mv = payload.get("mv")
        mv = mv if isinstance(mv, Mapping) else {}
        shards = payload.get("shards")
        shards = shards if isinstance(shards, Mapping) else {}
        return cls(
            cells_probed=int(payload.get("cells_probed", 0)),
            cache_hits=int(cache.get("trie_hits", 0)),
            latency_ms=float(payload.get("latency_ms", 0.0)),
            covering_cached=int(cache.get("covering_cached", 0)),
            result_cached=int(cache.get("result_cached", 0)),
            mv_cached=int(mv.get("cached", 0)),
            shards_total=int(shards.get("total", 0)),
            shards_pruned=int(shards.get("pruned", 0)),
        )


@dataclass(frozen=True)
class GroupRow:
    """One feature's answer inside a grouped response."""

    #: The feature's name (FeatureCollection ``properties.name`` / ``id``
    #: or the positional fallback).
    name: str
    #: Aggregate values keyed like the engine keys them: ``"sum(fare)"``.
    values: dict[str, float]
    #: Number of tuples covered by this feature.
    count: int

    def to_dict(self) -> dict:
        return {"name": self.name, "values": dict(self.values), "count": self.count}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "GroupRow":
        if not isinstance(payload, Mapping) or "name" not in payload or "count" not in payload:
            raise ApiError(BAD_REQUEST, "group row needs 'name' and 'count'")
        values = {
            str(key): float(value) for key, value in dict(payload.get("values", {})).items()
        }
        return cls(name=str(payload["name"]), values=values, count=int(payload["count"]))


@dataclass(frozen=True)
class QueryResponse:
    """Outcome of one successful query.

    The wire form is the success envelope (``{"ok": true, "v": 2,
    ...}``); failures never construct a response -- they travel as the
    error envelope (:func:`repro.api.errors.error_envelope`).  For
    grouped requests, ``values``/``count`` hold the combined rollup and
    ``groups`` the per-feature rows in feature order.
    """

    #: Aggregate values keyed like the engine keys them: ``"sum(fare)"``.
    values: dict[str, float]
    #: Number of tuples covered by the query (always computed).
    count: int
    stats: QueryStats = field(default_factory=QueryStats)
    dataset: str | None = None
    #: Per-feature rows of a grouped request (None for single-region).
    groups: tuple[GroupRow, ...] | None = None
    #: The answering dataset's monotonically bumped version (appends
    #: advance it), so readers can detect staleness.  None only when a
    #: response is rebuilt from a wire dict that lacks it.
    version: int | None = None

    def __getitem__(self, key: str) -> float:
        return self.values[key]

    @property
    def ok(self) -> bool:
        return True

    def group(self, name: str) -> GroupRow:
        """Look up one feature's row by name."""
        for row in self.groups or ():
            if row.name == name:
                return row
        raise KeyError(name)

    def to_dict(self) -> dict:
        """The success envelope."""
        data: dict = {"values": dict(self.values), "count": self.count}
        if self.groups is not None:
            data["groups"] = [row.to_dict() for row in self.groups]
        payload: dict = {
            "ok": True,
            "v": WIRE_VERSION,
            "data": data,
            "stats": self.stats.to_dict(),
        }
        if self.dataset is not None:
            payload["dataset"] = self.dataset
        if self.version is not None:
            payload["version"] = self.version
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "QueryResponse":
        """Parse a wire envelope; error envelopes re-raise their
        :class:`ApiError` (client-side symmetry with the server)."""
        if not isinstance(payload, Mapping):
            raise ApiError(
                BAD_REQUEST, f"response must be an object, got {type(payload).__name__}"
            )
        if payload.get("ok") is False:
            error = payload.get("error") or {}
            code = error.get("code", INTERNAL)
            details = error.get("details")
            if code not in ERROR_CODES:
                # A server with a newer code set must still surface as
                # ApiError on this client, not as a ValueError.
                details = dict(details or {}, code=code)
                code = INTERNAL
            raise ApiError(code, error.get("message", "unknown error"), details=details)
        data = payload.get("data")
        if not isinstance(data, Mapping) or "count" not in data:
            raise ApiError(BAD_REQUEST, "response envelope needs 'data' with a 'count'")
        values = {str(key): float(value) for key, value in dict(data.get("values", {})).items()}
        groups = None
        if "groups" in data:
            groups = tuple(GroupRow.from_dict(row) for row in data["groups"])
        version = payload.get("version")
        return cls(
            values=values,
            count=int(data["count"]),
            stats=QueryStats.from_dict(payload.get("stats", {})),
            dataset=payload.get("dataset"),
            groups=groups,
            version=int(version) if version is not None else None,
        )


@dataclass(frozen=True)
class AppendRequest:
    """The write path: fold new rows into a dataset's block in place.

    Wire shape (``"v"`` is required)::

        {"v": 2, "op": "append", "dataset": "taxi",
         "rows": [{"x": -73.98, "y": 40.75, "fare": 12.5, ...}, ...]}
    """

    rows: tuple[Mapping, ...]
    dataset: str | None = None

    _KEYS = ("v", "op", "dataset", "rows")

    def __post_init__(self) -> None:
        if not isinstance(self.rows, (list, tuple)) or not self.rows:
            raise ApiError(BAD_REQUEST, "'rows' must be a non-empty list of row objects")
        for index, row in enumerate(self.rows):
            if not isinstance(row, Mapping):
                raise ApiError(
                    BAD_REQUEST,
                    f"row {index} must be an object, got {type(row).__name__}",
                )
        object.__setattr__(self, "rows", tuple(dict(row) for row in self.rows))

    def to_dict(self) -> dict:
        payload: dict = {
            "v": WIRE_VERSION,
            "op": "append",
            "rows": [dict(row) for row in self.rows],
        }
        if self.dataset is not None:
            payload["dataset"] = self.dataset
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "AppendRequest":
        if not isinstance(payload, Mapping):
            raise ApiError(
                BAD_REQUEST, f"append must be an object, got {type(payload).__name__}"
            )
        if payload.get("op") != "append":
            raise ApiError(BAD_REQUEST, "append payload needs '\"op\": \"append\"'")
        if payload.get("v") != WIRE_VERSION:
            raise ApiError(
                BAD_REQUEST,
                f"append needs the v{WIRE_VERSION} envelope ('\"v\": {WIRE_VERSION}')",
            )
        unknown = sorted(set(payload) - set(cls._KEYS))
        if unknown:
            raise ApiError(
                BAD_REQUEST,
                f"unknown append key(s) {unknown}; expected {list(cls._KEYS)}",
                details={"unknown": unknown},
            )
        dataset = payload.get("dataset")
        if dataset is not None and not isinstance(dataset, str):
            raise ApiError(BAD_REQUEST, "'dataset' must be a string name")
        if "rows" not in payload:
            raise ApiError(BAD_REQUEST, "append needs 'rows'")
        return cls(rows=payload["rows"], dataset=dataset)


@dataclass(frozen=True)
class AppendResponse:
    """Outcome of one successful append."""

    #: Rows folded into the block.
    appended: int
    #: How many landed in an existing cell aggregate (the cheap
    #: in-place path; the rest spliced new cells into the arrays).
    in_place: int
    #: The dataset's version *after* this append.
    version: int
    dataset: str | None = None

    @property
    def ok(self) -> bool:
        return True

    def to_dict(self) -> dict:
        payload: dict = {
            "ok": True,
            "v": WIRE_VERSION,
            "data": {"appended": self.appended, "in_place": self.in_place},
            "version": self.version,
        }
        if self.dataset is not None:
            payload["dataset"] = self.dataset
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "AppendResponse":
        if not isinstance(payload, Mapping):
            raise ApiError(
                BAD_REQUEST, f"response must be an object, got {type(payload).__name__}"
            )
        if payload.get("ok") is False:
            raise ApiError(
                payload.get("error", {}).get("code", INTERNAL),
                payload.get("error", {}).get("message", "unknown error"),
            )
        data = payload.get("data")
        if not isinstance(data, Mapping) or "appended" not in data:
            raise ApiError(BAD_REQUEST, "append envelope needs 'data' with 'appended'")
        return cls(
            appended=int(data["appended"]),
            in_place=int(data.get("in_place", 0)),
            version=int(payload.get("version", 0)),
            dataset=payload.get("dataset"),
        )


@dataclass(frozen=True)
class MaterializeRequest:
    """Pin one query as a materialized view (the ``materialize`` op).

    Wire shape (v2 only -- the op is part of the v2.1 surface)::

        {"v": 2, "op": "materialize", "dataset": "taxi",
         "region": {...}, "aggregates": ["count", "avg:fare"],
         "where": {...}, "hints": {...}, "name": "hot-soho"}

    Everything but ``op`` and the optional ``name`` is the single-region
    query shape of :class:`QueryRequest` (grouped queries answer
    per-feature and cannot pin as one view, so ``group_by`` is
    rejected).  ``name`` defaults to a store-assigned ``mv-N``.
    """

    query: QueryRequest
    name: str | None = None

    _KEYS = ("v", "op", "dataset", "region", "where", "aggregates", "hints", "name")

    @property
    def dataset(self) -> str | None:
        return self.query.dataset

    def to_dict(self) -> dict:
        payload = {"v": WIRE_VERSION, "op": "materialize"}
        if self.query.region is not None:
            payload["region"] = serialise_region(self.query.region)
        payload["aggregates"] = [format_agg(spec) for spec in self.query.aggregates]
        if self.query.where is not None:
            payload["where"] = predicate_to_wire(self.query.where)
        hints = self.query.hints()
        if hints:
            payload["hints"] = hints
        if self.query.dataset is not None:
            payload["dataset"] = self.query.dataset
        if self.name is not None:
            payload["name"] = self.name
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "MaterializeRequest":
        if not isinstance(payload, Mapping):
            raise ApiError(
                BAD_REQUEST, f"materialize must be an object, got {type(payload).__name__}"
            )
        if payload.get("op") != "materialize":
            raise ApiError(BAD_REQUEST, "materialize payload needs '\"op\": \"materialize\"'")
        if payload.get("v") != WIRE_VERSION:
            raise ApiError(
                BAD_REQUEST,
                f"materialize needs the v{WIRE_VERSION} envelope ('\"v\": {WIRE_VERSION}')",
            )
        unknown = sorted(set(payload) - set(cls._KEYS))
        if unknown:
            raise ApiError(
                BAD_REQUEST,
                f"unknown materialize key(s) {unknown}; expected {list(cls._KEYS)}",
                details={"unknown": unknown},
            )
        name = payload.get("name")
        if name is not None and (not isinstance(name, str) or not name):
            raise ApiError(BAD_REQUEST, "'name' must be a non-empty string")
        inner = {key: value for key, value in payload.items() if key != "name"}
        inner["op"] = "query"
        return cls(query=QueryRequest.from_dict(inner), name=name)


def as_request(obj: object) -> QueryRequest:
    """Coerce any request-shaped input into a :class:`QueryRequest`:
    a request passes through, a mapping is parsed from the wire form,
    and a fluent builder is asked for its request."""
    if isinstance(obj, QueryRequest):
        return obj
    if isinstance(obj, Mapping):
        return QueryRequest.from_dict(obj)
    build = getattr(obj, "request", None)
    if callable(build):
        built = build()
        if isinstance(built, QueryRequest):
            return built
    raise ApiError(
        BAD_REQUEST,
        f"cannot interpret {type(obj).__name__} as a query; "
        "pass a QueryRequest, a wire dict, or a query builder",
    )


def requests_from_workload(workload: Sequence, dataset: str | None = None) -> list[QueryRequest]:
    """Convert a :class:`~repro.workloads.workload.Workload` (or any
    sequence of objects with ``region``/``aggs``) into API requests --
    the bridge from the paper's experiment workloads to the serving
    layer."""
    requests = []
    for query in workload:
        region = getattr(query, "region", query)
        aggs = getattr(query, "aggs", None)
        requests.append(
            QueryRequest(
                region=region,
                aggregates=parse_aggs(aggs) if aggs is not None else DEFAULT_AGGREGATES,
                dataset=dataset,
            )
        )
    return requests
