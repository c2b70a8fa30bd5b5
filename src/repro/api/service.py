"""GeoService: the registry of named datasets and the request router.

This is the object a serving process holds: register datasets once,
then feed it declarative queries -- :class:`QueryRequest` objects, wire
dicts, or fluent builders -- singly or in batches.  ``run_dict`` is the
transport-facing entry point: it never raises for request-shaped
failures; every outcome is an envelope, ``{"ok": true, ...}`` or the
unified error envelope, so an HTTP layer reduces to
``json.dumps(service.run_dict(json.loads(body)))``.

Batches are split per dataset into the engine's batched executor
(shared binary searches, dedup'd range records) and stitched back into
request order.
"""

from __future__ import annotations

import pathlib
import threading
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass

from repro.api.dataset import Dataset, Handle
from repro.cache.tiers import TieredCache, get_cache
from repro.api.errors import (
    BAD_REQUEST,
    UNKNOWN_DATASET,
    ApiError,
    error_envelope,
)
from repro.api.request import (
    WIRE_VERSION,
    AppendRequest,
    AppendResponse,
    MaterializeRequest,
    QueryRequest,
    QueryResponse,
    as_request,
    check_envelope,
)


class GeoService:
    """A registry of named :class:`Dataset` handles plus query routing.

    ``cache`` binds every registered dataset to a private
    :class:`~repro.cache.tiers.TieredCache` instead of the process-wide
    shared one (multi-tenant isolation, or custom sizing via
    :class:`~repro.cache.tiers.CacheConfig`); ``result_cache=False``
    turns off whole-answer caching service-wide while keeping covering
    reuse.  :meth:`stats` exposes both tiers' telemetry and
    :meth:`invalidate` is the eager result-tier drop (appends already
    invalidate lazily through the dataset version).
    """

    def __init__(
        self,
        cache: TieredCache | None = None,
        result_cache: bool | None = None,
    ) -> None:
        self._datasets: dict[str, Dataset] = {}
        self._cache = cache
        self._result_cache = result_cache
        # Registry lock: a threaded serving adapter may register/replace
        # datasets while other threads route requests, and iterating a
        # dict that another thread mutates raises.  Re-entrant because
        # ``open`` registers and ``invalidate`` resolves under the same
        # lock.  Query execution itself is NOT serialised here -- the
        # lock only covers registry lookups and snapshots; per-dataset
        # read/write coordination lives on :class:`Dataset`.
        self._lock = threading.RLock()

    # -- registry ----------------------------------------------------------

    def register(self, name: str, dataset: Dataset | Handle) -> Dataset:
        """Register a dataset (or bare block, which gets wrapped) under
        ``name``; re-registering a name replaces the handle."""
        if not isinstance(name, str) or not name:
            raise ApiError(BAD_REQUEST, "dataset name must be a non-empty string")
        if not isinstance(dataset, Dataset):
            dataset = Dataset(dataset)
        dataset.name = name
        if self._cache is not None or self._result_cache is not None:
            # With only the result_cache flag configured, keep the
            # dataset's own cache binding (it may be private) and just
            # toggle the flag.
            cache = self._cache if self._cache is not None else dataset.cache_scope.cache
            dataset.bind_cache(cache, self._result_cache)
        with self._lock:
            self._datasets[name] = dataset
        return dataset

    def open(self, name: str, path: str | pathlib.Path) -> Dataset:
        """Load a saved block of any kind and register it."""
        return self.register(name, Dataset.open(path))

    def dataset(self, name: str | None = None) -> Dataset:
        """Look up a dataset; ``None`` resolves to the sole registered
        dataset (the common single-tenant case)."""
        with self._lock:
            if name is None:
                if len(self._datasets) == 1:
                    return next(iter(self._datasets.values()))
                raise ApiError(
                    UNKNOWN_DATASET,
                    "query names no dataset and the service has "
                    f"{len(self._datasets)} registered; set 'dataset'",
                    details={"registered": sorted(self._datasets)},
                )
            try:
                return self._datasets[name]
            except KeyError:
                raise ApiError(
                    UNKNOWN_DATASET,
                    f"unknown dataset {name!r}",
                    details={"registered": sorted(self._datasets)},
                ) from None

    @property
    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._datasets)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._datasets

    def __iter__(self) -> Iterator[Dataset]:
        with self._lock:
            return iter(list(self._datasets.values()))

    def __len__(self) -> int:
        with self._lock:
            return len(self._datasets)

    def _snapshot(self) -> dict[str, Dataset]:
        """A point-in-time copy of the registry (safe to iterate while
        other threads register)."""
        with self._lock:
            return dict(self._datasets)

    def describe(self) -> dict:
        """Catalog endpoint payload: every dataset's summary."""
        datasets = self._snapshot()
        return {"datasets": [datasets[name].describe() for name in sorted(datasets)]}

    # -- cache telemetry and invalidation ----------------------------------

    @property
    def cache(self) -> TieredCache:
        """The tiered cache this service's datasets answer through (the
        process-wide shared one unless configured privately)."""
        return self._cache if self._cache is not None else get_cache()

    def stats(self) -> dict:
        """Serving telemetry: per-tier cache counters (hits, misses,
        evictions, entries, bytes) plus each dataset's version,
        result-cache state, and partition-routing counters -- the
        payload a metrics endpoint scrapes.

        Counters aggregate over every *distinct* cache the registered
        datasets actually serve through (a dataset bound to a private
        cache at build time keeps it).  Note that the default shared
        cache is process-wide: when this service serves through it,
        the counters include every other component sharing it (other
        services, raw engine use); bind a private ``TieredCache`` for
        strictly per-service numbers.
        """
        datasets = self._snapshot()
        caches: list = []
        for dataset in datasets.values():
            cache = dataset.cache_scope.cache
            if not any(cache is seen for seen in caches):
                caches.append(cache)
        if not caches:
            caches.append(self.cache)
        snapshots = [cache.stats() for cache in caches]  # one snapshot per cache
        merged: dict = {}
        for tier in ("covering", "result"):
            totals = {"hits": 0, "misses": 0, "evictions": 0, "entries": 0, "bytes": 0}
            for snapshot in snapshots:
                for key, value in snapshot[tier].items():
                    if key in totals:
                        totals[key] += value
            lookups = totals["hits"] + totals["misses"]
            merged[tier] = dict(totals, hit_rate=totals["hits"] / lookups if lookups else 0.0)
        per_dataset_mv = {name: dataset.mv_stats() for name, dataset in datasets.items()}
        mv_totals: dict = {}
        for stats in per_dataset_mv.values():
            for key, value in stats.items():
                mv_totals[key] = mv_totals.get(key, 0) + value
        return {
            "cache": merged,
            "mv": mv_totals,
            "datasets": {
                name: {
                    "version": dataset.version,
                    "result_cache": dataset.cache_scope.enabled,
                    "materialized": per_dataset_mv[name]["views"],
                    "routing": dataset.routing_stats(),
                }
                for name, dataset in sorted(datasets.items())
            },
        }

    def versions(self) -> dict[str, int]:
        """Current data version per registered dataset -- the snapshot
        an HTTP edge cache stamps into entries so that the same version
        bump that invalidates the result tier invalidates edge
        responses too."""
        return {name: dataset.version for name, dataset in self._snapshot().items()}

    def invalidate(self, name: str | None = None) -> int:
        """Eagerly drop result-tier entries: one dataset's (by name) or
        every registered dataset's; returns how many entries were
        dropped.  Version keys already invalidate lazily on append --
        this is the explicit memory-reclaim hook."""
        if name is not None:
            return self.dataset(name).invalidate_cache()
        # repro-lint: allow[FD001] invalidate_cache returns an int entry count
        return sum(dataset.invalidate_cache() for dataset in self._snapshot().values())

    # -- query routing -----------------------------------------------------

    def run(self, request) -> QueryResponse:  # noqa: ANN001 - request-shaped
        """Route one request to its dataset and answer it."""
        request = as_request(request)
        return self.dataset(request.dataset).query(request)

    def run_batch(self, requests: Sequence) -> list[QueryResponse]:
        """Answer a mixed-dataset batch through the batched executor.

        Requests are grouped per dataset, each group runs as one
        :meth:`Dataset.run_batch` (one engine pass, whatever the
        dataset kind), and responses return in input order.
        """
        parsed = [as_request(request) for request in requests]
        by_dataset: dict[str | None, list[int]] = {}
        for index, request in enumerate(parsed):
            by_dataset.setdefault(request.dataset, []).append(index)
        # Resolve every dataset before executing anything: a bad name
        # must fail the batch up front, not after other members have
        # already run (and, on adaptive datasets, recorded statistics).
        datasets = {name: self.dataset(name) for name in by_dataset}
        responses: list[QueryResponse | None] = [None] * len(parsed)
        for name, indices in by_dataset.items():
            for index, response in zip(
                indices, datasets[name].run_batch([parsed[i] for i in indices])
            ):
                responses[index] = response
        return [response for response in responses if response is not None]

    # -- the write path ----------------------------------------------------

    def append(self, request, rows: Sequence | None = None) -> AppendResponse:  # noqa: ANN001
        """Route an append to its dataset.

        Accepts an :class:`AppendRequest` (or its wire dict), or a
        dataset name plus ``rows``: ``service.append("taxi", rows)``.

        Concurrency contract: reads may run concurrently with each
        other (the view cache is internally synchronised), but appends
        mutate aggregate arrays in place and follow the paper's
        single-writer, no-concurrent-reader model -- a threaded adapter
        must serialise writes against reads per dataset.
        """
        if isinstance(request, str) or (request is None and rows is not None):
            request = AppendRequest(rows=rows, dataset=request)
        elif isinstance(request, Mapping):
            request = AppendRequest.from_dict(request)
        elif not isinstance(request, AppendRequest):
            raise ApiError(
                BAD_REQUEST,
                f"cannot interpret {type(request).__name__} as an append; "
                "pass an AppendRequest, a wire dict, or (name, rows)",
            )
        return self.dataset(request.dataset).append(request.rows)

    # -- materialized-view management --------------------------------------

    def materialize(self, request, name: str | None = None) -> dict:  # noqa: ANN001
        """Pin one query as a materialized view on its dataset; returns
        the view's info row.  Accepts a :class:`MaterializeRequest` (or
        its wire dict via :meth:`run_dict`) or any query-shaped input
        plus ``name``."""
        if isinstance(request, MaterializeRequest):
            name = request.name if name is None else name
            request = request.query
        request = as_request(request)
        return self.dataset(request.dataset).materialize(request, name)

    def views(self, dataset: str | None = None) -> dict:
        """One dataset's cached views -- filtered and materialized --
        with hit counts, versions, and staleness."""
        return self.dataset(dataset).views_info()

    def drop_view(self, name: str, dataset: str | None = None) -> dict:
        """Drop a materialized view by name (``unknown_view`` when no
        store on the dataset holds it)."""
        return self.dataset(dataset).drop_view(name)

    # -- wire-format entry points -----------------------------------------

    def run_dict(self, payload: dict) -> dict:
        """Transport entry point: wire dict in, envelope out, never
        raises for request-shaped failures.

        Dispatches on ``"op"`` through :data:`WIRE_OPS`: queries (the
        default, also for an op no row names), appends, and the
        view-management ops share the one entry point, so an HTTP
        adapter stays a single route.  A query without ``"v"`` is read
        as the current envelope.
        """
        try:
            op = payload.get("op", "query") if isinstance(payload, Mapping) else "query"
            wire_op = WIRE_OPS.get(op, QUERY_OP) if isinstance(op, str) else QUERY_OP
            check_envelope(payload, wire_op.name, wire_op.keys)
            return wire_op.handler(self, payload)
        except Exception as error:  # noqa: BLE001 - envelope boundary
            return error_envelope(error)

    def run_batch_dict(self, payloads: Sequence[dict]) -> list[dict]:
        """Batched wire entry point (queries only; appends go through
        :meth:`run_dict` one at a time -- batching writes with reads
        would make the version stamped on sibling responses ambiguous).

        A malformed member fails the whole batch with one error envelope
        per member (the engine pass is all-or-nothing; partial execution
        would make retries ambiguous).
        """
        try:
            requests = [QueryRequest.from_dict(payload) for payload in payloads]
            return [response.to_dict() for response in self.run_batch(requests)]
        except Exception as error:  # noqa: BLE001 - envelope boundary
            return [error_envelope(error) for _ in payloads]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"GeoService(datasets={self.names})"


# -- the wire table ----------------------------------------------------------


@dataclass(frozen=True)
class WireOp:
    """One wire op: its ``"op"`` name, its own payload keys (the
    envelope's ``v``/``op``/``dataset`` come on top), the handler that
    answers a payload whose envelope passed, and its dedicated HTTP
    route, if it has one (every op also rides ``POST /query``)."""

    name: str
    keys: tuple[str, ...]
    handler: Callable[[GeoService, Mapping], dict]
    route: str | None = None


def _ok(data: dict) -> dict:
    return {"ok": True, "v": WIRE_VERSION, "data": data}


def _query(service: GeoService, payload: Mapping) -> dict:
    return service.run(QueryRequest.from_checked(payload)).to_dict()


def _append(service: GeoService, payload: Mapping) -> dict:
    return service.append(AppendRequest.from_checked(payload)).to_dict()


def _materialize(service: GeoService, payload: Mapping) -> dict:
    return _ok(service.materialize(MaterializeRequest.from_checked(payload)))


def _views(service: GeoService, payload: Mapping) -> dict:
    return _ok(service.views(payload.get("dataset")))


def _drop_view(service: GeoService, payload: Mapping) -> dict:
    name = payload.get("name")
    if not isinstance(name, str) or not name:
        raise ApiError(BAD_REQUEST, "drop_view needs 'name', a non-empty string")
    return _ok(service.drop_view(name, payload.get("dataset")))


#: Every op of the wire protocol, declared once: ``run_dict`` dispatches
#: on it, the HTTP server routes by it, and the README documents it
#: (``tests/test_readme_wire.py`` holds the two together).
WIRE_OPS: dict[str, WireOp] = {
    wire_op.name: wire_op
    for wire_op in (
        WireOp("query", QueryRequest.KEYS, _query),
        WireOp("append", AppendRequest.KEYS, _append, "POST /append"),
        WireOp("materialize", MaterializeRequest.KEYS, _materialize, "POST /materialize"),
        WireOp("views", (), _views, "GET /views"),
        WireOp("drop_view", ("name",), _drop_view),
    )
}

#: The default op: a payload without ``"op"``, or naming none of the
#: rows, is checked (and rejected) as a query.
QUERY_OP = WIRE_OPS["query"]
