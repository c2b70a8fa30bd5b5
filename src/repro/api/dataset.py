"""Datasets: one uniform serving handle over every block kind.

A :class:`Dataset` wraps a plain :class:`~repro.core.geoblock.GeoBlock`,
a curve-sharded :class:`~repro.engine.shards.ShardedGeoBlock`, or a
query-cache accelerated
:class:`~repro.core.adaptive.AdaptiveGeoBlock` behind one handle:
``build`` / ``open`` / ``save`` dispatch on the block kind, and every
query -- single, batched, grouped, declarative dict, or fluent --
executes through the same engine paths the blocks expose directly, so
API results are identical to calling ``select``/``count`` on the
underlying block yourself.

Query v2 adds three serving surfaces on top:

* **filtered views** (:meth:`Dataset.view`): the paper builds GeoBlocks
  per filter-predicate combination (Section 3.3); a view is exactly
  that -- a per-predicate block of the same kind/level, built from the
  retained base data and cached under the predicate's stable render
  string, so repeated ``where`` queries hit a ready block;
* **multi-region group-by** (requests with ``group_by``): every feature
  of a FeatureCollection answers in one grouped engine pass
  (:meth:`~repro.core.geoblock.GeoBlock.run_grouped` -- shared binary
  searches, range dedup, covering-cache reuse) plus a combined rollup;
* **appends** (:meth:`Dataset.append`): new rows fold into the block in
  place through :mod:`repro.core.updates` (trie refresh on adaptive,
  shard-bound splices on sharded), bump the dataset's
  monotonically increasing :attr:`version` -- stamped into every
  response -- and propagate to cached views whose predicate matches.

Execution hints map onto the engine seam without touching shared
state: ``cache: false`` routes an adaptive dataset through its wrapped
base block (no trie probes, no statistics recorded), and ``count_only``
takes the Listing 2 fast path.

Every single-region query is answered by exactly one tier, chosen in
:meth:`Dataset._probe_tiers`: a materialized view pinned for it, else
the result tier of :mod:`repro.cache` (see :meth:`Dataset._result_key`
for the key discipline), else the engine.  A repeat of an identical
request -- wire, fluent, or batched -- serves the exact stored engine
result, skipping covering and execution entirely, with byte-identical
answers guaranteed because both tiers store outcomes.  Appends bump
:attr:`Dataset.version`, which is part of every result-tier key, so
writes lazily invalidate all warm entries for the dataset and its
views; materialized views refresh in place instead.
"""

from __future__ import annotations

import pathlib
import threading
from collections import OrderedDict
from time import perf_counter
from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.api.errors import (
    BAD_REQUEST,
    DUPLICATE_VIEW,
    UNKNOWN_COLUMN,
    UNKNOWN_DATASET,
    UNKNOWN_VIEW,
    UNSUPPORTED_OP,
    ApiError,
)
from repro.api.request import (
    AppendResponse,
    GroupRow,
    QueryRequest,
    QueryResponse,
    QueryStats,
    as_request,
    parse_where,
)
from repro.cache.results import ResultCacheScope, aggregate_key
from repro.cache.tiers import TieredCache
from repro.core.adaptive import AdaptiveGeoBlock
from repro.core.geoblock import GeoBlock
from repro.engine.executor import QueryResult as EngineResult
from repro.core.policy import CachePolicy
from repro.errors import QueryError
from repro.materialize.store import MaterializedStore
from repro.materialize.view import MaterializedView, build_records, mv_key as make_mv_key
from repro.storage.etl import BaseData
from repro.storage.expr import ALWAYS_TRUE, Predicate
from repro.storage.table import PointTable
from repro.util.sync import RWLock
from repro.workloads.workload import Query

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.fluent import QueryBuilder

#: Block kinds a dataset can build; mirrors the serialized ``kind``
#: discriminator of :mod:`repro.core.serialize`.
KINDS = ("geoblock", "sharded", "adaptive")

#: A dataset handle: any of the three block kinds.
Handle = GeoBlock | AdaptiveGeoBlock

#: Most-recently-used filtered views kept per dataset.  Each view is a
#: full per-predicate block, so the cache is bounded the way the
#: planner's covering LRU is; beyond this, least-recently-used views
#: are dropped and rebuild on demand.
MAX_VIEWS = 16


class Dataset:
    """A named, queryable block of one of the three kinds."""

    def __init__(
        self,
        handle: Handle,
        name: str | None = None,
        base: BaseData | None = None,
        parent: "Dataset | None" = None,
        cache: TieredCache | None = None,
        result_cache: bool = True,
    ) -> None:
        if not isinstance(handle, (GeoBlock, AdaptiveGeoBlock)):
            raise ApiError(
                BAD_REQUEST,
                f"a dataset wraps a GeoBlock-family block, got {type(handle).__name__}",
            )
        self._handle = handle
        self.name = name
        self._base = base
        self._parent = parent
        # The dataset's handle on the tiered cache (repro.cache): a view
        # derives its parent's scope (same token + cache, the view's
        # predicate key), a root allocates a fresh token.  With
        # ``result_cache=False`` whole-answer caching is off for this
        # dataset while covering reuse stays on (it is always
        # value-preserving).  ``cache=None`` means the process-wide
        # shared instance.
        predicate_key = (
            handle.block if isinstance(handle, AdaptiveGeoBlock) else handle
        ).predicate.key
        if parent is not None:
            self._scope = parent._scope.derive(predicate_key)
            self.block.planner.use_cache(parent._scope.cache)
        else:
            self._scope = ResultCacheScope(
                cache, predicate_key=predicate_key, enabled=result_cache
            )
            if cache is not None:
                self.block.planner.use_cache(cache)
        # The materialized-view tier (repro.materialize): answers
        # pinned by an explicit materialize, refreshed incrementally on
        # append instead of invalidated.  Per dataset *and* per
        # filtered view -- the MV key's predicate component is implicit
        # in which store a view lives in.
        self._mv = MaterializedStore()
        self._views: OrderedDict[str, Dataset] = OrderedDict()
        # Serialises view-cache mutation: 'where' reads mutate the LRU
        # (move_to_end / insert / evict), which must stay safe under a
        # threaded serving adapter.
        self._views_lock = threading.Lock()
        # Partition-routing telemetry: engine executions that carried a
        # routing decision (sharded handles only) accumulate on the
        # *root* dataset -- filtered views fold into it, like the
        # rwlock -- and surface through routing_stats() / GET /stats.
        self._routing_lock = (
            parent._routing_lock if parent is not None else threading.Lock()
        )
        self._routing_queries = 0
        self._routing_shards_total = 0
        self._routing_shards_pruned = 0
        # The dataset-wide readers-writer lock: queries run concurrently
        # with each other but never with an append, which mutates
        # aggregate arrays in place (the paper's single-writer,
        # no-concurrent-reader model).  Views share their root's lock --
        # appends propagate to views under the same exclusive section,
        # so a reader can never observe a root/view torn pair.  All
        # acquisition happens in the outermost public methods (query /
        # run_batch / view / append); the _*_inner twins assume the
        # lock is already held and never re-acquire.
        self._rwlock = parent._rwlock if parent is not None else RWLock()
        #: The view's filter relative to the root dataset (None on the
        #: root itself); cache keys derive from it so every route to
        #: the same logical filter shares one view.
        self._relative: Predicate | None = None
        self._version = 1 if parent is None else parent.version
        # Rows folded in since construction: the retained base data does
        # not contain them, so views built later replay the matching
        # ones to stay consistent with the parent block.  Grows with
        # write volume (a WAL-like retention, rows only -- not blocks);
        # rebuilding the base folds it away.
        self._appended: list[Mapping] = []

    # -- construction / persistence --------------------------------------

    @classmethod
    def build(
        cls,
        base: BaseData,
        level: int,
        kind: str = "geoblock",
        *,
        name: str | None = None,
        predicate: Predicate = ALWAYS_TRUE,
        policy: CachePolicy | None = None,
        shard_count: int | None = None,
        cache: TieredCache | None = None,
        result_cache: bool = True,
    ) -> "Dataset":
        """Build a dataset of ``kind`` from extracted base data.

        The base data is retained on the dataset: filtered views
        (:meth:`view`) rebuild per-predicate blocks from it on demand.
        ``cache`` binds the dataset to a private tiered cache (default:
        the process-wide shared one); ``result_cache=False`` turns off
        whole-answer caching while keeping covering reuse.  For sharded
        datasets the partition is cost-model curve splits unless
        ``shard_count`` pins its width (reproducible layouts).
        """
        if kind == "geoblock":
            handle: Handle = GeoBlock.build(base, level, predicate)
        elif kind == "sharded":
            from repro.engine.shards import ShardedGeoBlock

            handle = ShardedGeoBlock.build(base, level, predicate, shard_count=shard_count)
        elif kind == "adaptive":
            handle = AdaptiveGeoBlock(GeoBlock.build(base, level, predicate), policy)
        else:
            raise ApiError(BAD_REQUEST, f"unknown dataset kind {kind!r}; use one of {KINDS}")
        return cls(handle, name=name, base=base, cache=cache, result_cache=result_cache)

    @classmethod
    def open(cls, path: str | pathlib.Path, name: str | None = None) -> "Dataset":
        """Load any saved block (the serialized ``kind`` decides what
        comes back: plain, sharded, or adaptive).

        A ``.mv.npz`` sidecar written by :meth:`save` restores the
        dataset's materialized views, so a restarted server answers its
        hot queries from disk without one engine pass (the sidecar's
        content stamp guards against a block file rebuilt out-of-band).
        """
        from repro.core.serialize import load
        from repro.materialize.persist import load_views, sidecar_path

        dataset = cls(load(path), name=name)
        load_views(sidecar_path(path), dataset._mv, dataset.block.aggregates)
        for view in dataset._mv.views():
            # Version stamps are per-process; re-anchor to this facade.
            view.refreshed_version = dataset._version
        return dataset

    def save(self, path: str | pathlib.Path) -> None:
        """Persist the dataset's block, whatever its kind, plus the
        materialized-view sidecar (removed again when no views exist,
        so stale sidecars cannot outlive their views)."""
        from repro.core.serialize import save
        from repro.materialize.persist import save_views, sidecar_path

        save(self._handle, path)
        save_views(sidecar_path(path), self._mv, self.block.aggregates)

    # -- introspection ----------------------------------------------------

    @property
    def handle(self) -> Handle:
        """The wrapped block exactly as constructed."""
        return self._handle

    @property
    def block(self) -> GeoBlock:
        """The underlying plain/sharded block (adaptive unwrapped)."""
        if isinstance(self._handle, AdaptiveGeoBlock):
            return self._handle.block
        return self._handle

    @property
    def kind(self) -> str:
        """The serialized-kind discriminator of the wrapped block."""
        if isinstance(self._handle, AdaptiveGeoBlock):
            return "adaptive"
        return self._handle.kind

    @property
    def level(self) -> int:
        return self.block.level

    @property
    def columns(self) -> tuple[str, ...]:
        return tuple(self.block.aggregates.schema.names)

    @property
    def version(self) -> int:
        """Monotonically increasing data version (appends bump it);
        stamped into every response so readers can detect staleness."""
        return self._version

    @property
    def base(self) -> BaseData | None:
        """The retained base data (None when opened from disk)."""
        return self._base

    @property
    def is_view(self) -> bool:
        """Whether this dataset is a filtered view of another."""
        return self._parent is not None

    # -- cache plumbing ----------------------------------------------------

    @property
    def cache_scope(self) -> ResultCacheScope:
        """The dataset's result-tier handle (token, predicate key,
        enabled flag); views share their root's token."""
        return self._scope

    def bind_cache(self, cache: TieredCache, result_cache: bool | None = None) -> None:
        """Re-point this dataset (and its cached views) at ``cache``.

        The service-level configuration hook: covering lookups and
        result probes move to the given tiered cache; entries in the
        previous cache stay behind and age out there.
        """
        self._scope.rebind(cache)
        if result_cache is not None:
            self._scope.enabled = result_cache
        self.block.planner.use_cache(cache)
        with self._views_lock:
            views = list(self._views.values())
        for view in views:
            view.bind_cache(cache, result_cache)

    def invalidate_cache(self) -> int:
        """Eagerly drop this dataset's result-tier entries (all
        versions, all views -- they share the token) and every
        materialized view: explicit invalidation means "recompute
        everything".  Appends never call this -- they
        invalidate the result tier lazily by bumping :attr:`version`
        and *refresh* MVs in place.  Returns the result-tier count."""
        dropped = self._scope.invalidate()
        self._mv.clear()
        with self._views_lock:
            views = list(self._views.values())
        for view in views:
            view._mv.clear()
        return dropped

    def describe(self) -> dict:
        """JSON-compatible summary (what a service catalog endpoint
        would return per dataset)."""
        block = self.block
        with self._views_lock:
            views = sorted(self._views)
        summary = {
            "name": self.name,
            "kind": self.kind,
            "level": block.level,
            "cells": block.num_cells,
            "tuples": int(block.header.total_count),
            "columns": list(self.columns),
            "memory_bytes": self._handle.memory_bytes(),
            "version": self._version,
            "views": views,
            "materialized": len(self._mv),
        }
        if self.is_view:
            summary["filter"] = self.block.predicate.key
        return summary

    # -- filtered views ----------------------------------------------------

    def view(self, where) -> "Dataset":  # noqa: ANN001 - Predicate or wire dict
        """The per-predicate filtered view of this dataset.

        ``where`` is a :class:`~repro.storage.expr.Predicate` or its
        wire dict.  The first call for a predicate builds a block of the
        same kind and level over the retained base data (the paper's
        GeoBlock-per-filter design) and caches it under the predicate's
        stable render string; later calls return the ready view.
        Views of views compose conjunctively through the parent.
        """
        with self._rwlock.read():
            return self._view_inner(where)

    def _view_inner(self, where) -> "Dataset":  # noqa: ANN001 - Predicate or wire dict
        """:meth:`view` with the dataset read lock already held (view
        construction replays ``_appended``, which a concurrent append
        extends -- the shared section keeps the replay consistent)."""
        relative = parse_where(where)
        if self._parent is not None:
            # Delegate to the root so all views share one cache; only
            # the filter *relative to the root* composes, so a nested
            # view and the equivalent direct view share one cache key
            # (the root's own build predicate must not compose twice).
            assert self._relative is not None
            return self._parent._view_inner(self._relative & relative)
        key = relative.key
        with self._views_lock:
            cached = self._views.get(key)
            if cached is not None:
                self._views.move_to_end(key)
                return cached
        predicate = relative
        if not isinstance(self.block.predicate, type(ALWAYS_TRUE)):
            # A dataset built with its own filter composes it in: the
            # view must answer a *subset* of this dataset, never rows
            # its own predicate excludes.
            predicate = self.block.predicate & relative
        if self._base is None:
            raise ApiError(
                UNSUPPORTED_OP,
                f"dataset {self.name!r} was opened without base data; filtered "
                "views rebuild per-predicate blocks from the base table -- "
                "use Dataset.build(...) (or re-extract) to enable 'where'",
            )
        unknown = sorted(
            column for column in relative.columns() if column not in self.columns
        )
        if unknown:
            raise ApiError(
                UNKNOWN_COLUMN,
                f"filter references unknown column(s) {unknown}; "
                f"dataset columns are {list(self.columns)}",
                details={"unknown": unknown},
            )
        if isinstance(self._handle, AdaptiveGeoBlock):
            handle: Handle = AdaptiveGeoBlock(
                GeoBlock.build(self._base, self.level, predicate),
                self._handle.policy,
            )
        elif self._handle.kind == "sharded":
            from repro.engine.shards import ShardedGeoBlock

            # The view inherits the parent's split points, so parent and
            # view route queries along identical shard boundaries.
            handle = ShardedGeoBlock.build(
                self._base, self.level, predicate, splits=self._handle.splits
            )
        else:
            handle = GeoBlock.build(self._base, self.level, predicate)
        view = Dataset(handle, name=self.name, base=self._base, parent=self)
        view._relative = relative
        if self._appended:
            # The base predates earlier appends; replay the qualifying
            # rows so the new view agrees with the parent block.
            from repro.core.updates import append_rows

            matching = self._matching_rows(predicate, self._appended)
            if matching:
                append_rows(handle, matching)
        with self._views_lock:
            racing = self._views.get(key)
            if racing is not None:
                # Another thread built the same view first; keep one.
                self._views.move_to_end(key)
                return racing
            self._views[key] = view
            # Bounded like the planner's covering LRU: a wire client
            # cycling through distinct predicates must not accumulate
            # one full block per predicate string forever.  An evicted
            # view rebuilds on demand (base + appended-row replay);
            # handles callers still hold stay queryable but stop
            # tracking parent appends -- their stale version is exactly
            # what response stamping exposes.
            while len(self._views) > MAX_VIEWS:
                self._views.popitem(last=False)
        return view

    def where(self, predicate) -> "Dataset":  # noqa: ANN001 - Predicate or wire dict
        """Fluent alias of :meth:`view`:
        ``ds.where(col("fare") > 20).over(region).run()``."""
        return self.view(predicate)

    # -- materialized views ------------------------------------------------

    @property
    def materialized(self) -> MaterializedStore:
        """The dataset's materialized-view store (telemetry and direct
        inspection; serving goes through :meth:`query`)."""
        return self._mv

    def materialize(self, request, name: str | None = None) -> dict:  # noqa: ANN001
        """Pin one single-region query as a materialized view.

        The query executes (or serves from the warm result tier), its
        per-covering-cell records are materialised, and from then on
        identical requests answer from the view -- including right
        after appends, which refresh it incrementally instead of
        invalidating.  Views stay until :meth:`drop_view`.  Returns the
        view's info row.
        """
        request = as_request(request)
        with self._rwlock.read():
            return self._materialize_inner(request, name)

    def _materialize_inner(self, request: QueryRequest, name: str | None) -> dict:
        self._validate(request)
        if request.where is not None:
            view = self._view_inner(request.where)
            return view._materialize_local(request, name)
        return self._materialize_local(request, name)

    def _materialize_local(self, request: QueryRequest, name: str | None) -> dict:
        """:meth:`materialize` against this block (``where`` already
        routed to the filtered view by the caller)."""
        if request.grouped:
            raise ApiError(
                UNSUPPORTED_OP,
                "cannot materialize a grouped query; pin each feature's "
                "region as its own view",
            )
        key = self._mv_key(request)
        if key is None:
            raise ApiError(
                UNSUPPORTED_OP,
                "cannot materialize this request: the target has no stable "
                "region fingerprint, or the block runs the scalar model "
                "(no bit-identity gate against the re-fold an MV refresh runs)",
            )
        result_key = self._result_key(request)
        result = self._scope.probe(result_key)
        if result is None:
            result = self._engine_result(request)
            self._scope.fill(result_key, result)
        try:
            view = self._admit_view(request, key, result, name)
        except KeyError as error:
            raise ApiError(DUPLICATE_VIEW, str(error.args[0])) from error
        return view.info(self._version)

    def views_info(self) -> dict:
        """Every cached view of this dataset: the filtered (per-
        predicate) views and all materialized views -- the root's and
        each filtered view's, flagged with their ``where`` key."""
        with self._rwlock.read():
            with self._views_lock:
                filtered_views = list(self._views.items())
            materialized = [
                dict(info, where=None)
                for info in self._mv.views_info(self._version)
            ]
            filtered = []
            for where_key, view in filtered_views:
                filtered.append(
                    {
                        "where": where_key,
                        "kind": "filtered",
                        "version": view.version,
                        "tuples": int(view.block.header.total_count),
                        "materialized": len(view._mv),
                    }
                )
                materialized.extend(
                    dict(info, where=where_key)
                    for info in view._mv.views_info(view._version)
                )
            return {
                "dataset": self.name,
                "version": self._version,
                "filtered": filtered,
                "materialized": materialized,
            }

    def mv_stats(self) -> dict:
        """The dataset's merged MV telemetry: the root store's counters
        plus every cached filtered view's (each holds its own store)."""
        stats = self._mv.stats()
        with self._views_lock:
            views = list(self._views.values())
        for view in views:
            for key, value in view._mv.stats().items():
                stats[key] += value
        return stats

    def drop_view(self, name: str) -> dict:
        """Drop the materialized view named ``name`` (the root's stores
        are searched first, then each filtered view's)."""
        with self._rwlock.read():
            stores = [self._mv]
            with self._views_lock:
                stores.extend(view._mv for view in self._views.values())
            for store in stores:
                dropped = store.drop(name)
                if dropped is not None:
                    return {"dropped": dropped.name, "dataset": self.name}
        raise ApiError(
            UNKNOWN_VIEW,
            f"no materialized view named {name!r} on dataset {self.name!r}",
        )

    # -- the write path ----------------------------------------------------

    def append(self, rows: Sequence[Mapping]) -> AppendResponse:
        """Fold new rows into the block in place (Section 5's update
        sketch via :mod:`repro.core.updates`) and bump :attr:`version`.

        Each row is ``{"x": ..., "y": ..., <column>: ...}`` with every
        schema column present.  On adaptive handles cached trie
        ancestors refresh; on sharded handles new cells splice into
        their owning shards.  Cached filtered views receive the rows
        matching their predicate, and every view's version advances in
        lockstep with the parent, so responses from any view reflect the
        append.
        """
        if self._parent is not None:
            raise ApiError(
                UNSUPPORTED_OP,
                "cannot append to a filtered view; append to dataset "
                f"{self._parent.name!r} and matching rows propagate to its views",
            )
        if self.kind not in KINDS:  # pragma: no cover - future block kinds
            raise ApiError(
                UNSUPPORTED_OP,
                f"block kind {self.kind!r} does not support in-place updates",
            )
        rows = list(rows)
        if not rows:
            raise ApiError(BAD_REQUEST, "append needs at least one row")
        # The exclusive section: no query may run while aggregate arrays
        # are spliced/folded in place, and the version bump + view
        # propagation land atomically with the data mutation, so every
        # concurrent reader sees exactly the pre- or post-append state.
        with self._rwlock.write():
            return self._append_inner(rows)

    def _append_inner(self, rows: list[Mapping]) -> AppendResponse:
        from repro.core.updates import append_rows
        # At most one columnar table over the batch: the dataset's own
        # filter and every view's predicate evaluate as masks on it
        # (per-view rebuilds would make the write path O(views x rows));
        # with no filter and no views it is never built at all.
        table: PointTable | None = None

        def qualifying(predicate: Predicate) -> list[Mapping]:
            nonlocal table
            if isinstance(predicate, type(ALWAYS_TRUE)):
                return rows
            if table is None:
                table = self._rows_table(rows)
            return [row for row, keep in zip(rows, predicate.mask(table)) if keep]

        # A dataset built with its own filter keeps only qualifying
        # rows, exactly like a rebuild would.
        applied = qualifying(self.block.predicate)
        try:
            appended, in_place = (
                append_rows(self._handle, applied) if applied else (0, 0)
            )
        except QueryError as error:
            raise ApiError(BAD_REQUEST, str(error)) from error
        self._version += 1
        if self._base is not None:
            # Snapshots, not references: a caller mutating its row
            # dicts after the append must not corrupt later view
            # replays.  Without base data no view can ever be built,
            # so there is nothing to retain the rows for.
            self._appended.extend(dict(row) for row in applied)
        # Materialized views refresh *inside* the exclusive section:
        # only the covering cells the appended leaves landed in
        # recompute, and the restamped answers are bit-identical to a
        # cold rebuild -- the write path stays a cheap delta instead of
        # a cache-killer.
        self._mv.refresh_all(self._handle, self._row_leaves(applied), self._version)
        with self._views_lock:
            views = list(self._views.values())
        for view in views:
            matching = qualifying(view.block.predicate)
            if matching:
                try:
                    append_rows(view._handle, matching)
                except QueryError as error:  # pragma: no cover - parent validated
                    raise ApiError(BAD_REQUEST, str(error)) from error
            view._version = self._version
            view._mv.refresh_all(view._handle, view._row_leaves(matching), self._version)
        return AppendResponse(
            appended=appended,
            in_place=in_place,
            version=self._version,
            dataset=self.name,
        )

    def _rows_table(self, rows: list[Mapping]) -> PointTable:
        """The batch as a columnar table (the form every predicate mask
        -- the build pipeline's included -- evaluates against)."""
        schema = self.block.aggregates.schema
        try:
            return PointTable(
                schema,
                np.asarray([float(row["x"]) for row in rows]),
                np.asarray([float(row["y"]) for row in rows]),
                {
                    name: np.asarray([float(row[name]) for row in rows])
                    for name in schema.names
                },
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ApiError(
                BAD_REQUEST,
                f"append rows must carry numeric 'x', 'y', and {list(schema.names)}: "
                f"{error}",
            ) from error

    def _row_leaves(self, rows: list[Mapping]) -> np.ndarray:
        """The appended rows' leaf cell ids (what MV refresh tests
        against each view's covering for touched-cell detection)."""
        if not rows:
            return np.empty(0, dtype=np.int64)
        table = self._rows_table(rows)
        return self.block.space.leaf_ids(table.xs, table.ys)

    def _matching_rows(self, predicate: Predicate, rows: list[Mapping]) -> list[Mapping]:
        """Rows qualifying under ``predicate`` (evaluated batched, the
        same mask the build pipeline applies)."""
        mask = predicate.mask(self._rows_table(rows))
        return [row for row, keep in zip(rows, mask) if keep]

    # -- querying ----------------------------------------------------------

    def over(self, region) -> "QueryBuilder":  # noqa: ANN001 - region payload
        """Start a fluent query: ``ds.over(region).agg("avg:fare").run()``."""
        from repro.api.fluent import QueryBuilder

        return QueryBuilder(self, region)

    def group_by(self, features) -> "QueryBuilder":  # noqa: ANN001 - features payload
        """Start a fluent grouped query over a FeatureCollection (or
        named-region list): ``ds.group_by(fc).agg("sum:fare").run()``."""
        from repro.api.fluent import QueryBuilder

        return QueryBuilder(self, None, features=features)

    def _execution_handle(self, request: QueryRequest) -> Handle:
        """The block a request executes against (``cache: false``
        bypasses an adaptive handle's trie and statistics)."""
        if not request.cache and isinstance(self._handle, AdaptiveGeoBlock):
            return self._handle.block
        return self._handle

    def _validate(self, request: QueryRequest) -> None:
        if request.dataset is not None and request.dataset != self.name:
            # A request addressed to another dataset must not silently
            # execute here (it would return another dataset's data).
            raise ApiError(
                UNKNOWN_DATASET,
                f"request addresses dataset {request.dataset!r} but this "
                f"dataset is {self.name!r}",
            )
        try:
            self.block.executor.validate_aggs(request.aggregates)
        except QueryError as error:
            raise ApiError(UNKNOWN_COLUMN, str(error)) from error

    def query(self, request) -> QueryResponse:  # noqa: ANN001 - request-shaped
        """Answer one request; identical to the equivalent direct
        ``select``/``count`` call on the wrapped block.

        Requests with ``where`` route through the per-predicate view,
        grouped requests through the engine's grouped batch; both stamp
        the answering dataset's :attr:`version`.
        """
        request = as_request(request)
        with self._rwlock.read():
            return self._query_inner(request)

    def _query_inner(self, request: QueryRequest) -> QueryResponse:
        """:meth:`query` with the dataset read lock already held (the
        batched path calls this per multi-part member so one public
        entry never nests two shared sections)."""
        self._validate(request)
        if request.where is not None:
            view = self._view_inner(request.where)
            return view._execute(request)
        return self._execute(request)

    def _result_key(self, request: QueryRequest) -> tuple | None:
        """The result-tier key of a single-region request, or ``None``
        when the request is not cacheable (grouped requests answer
        per-feature; cell-union targets carry no geometry).

        The version component is the *aggregates'* mutation counter,
        not this facade's :attr:`version`: the counter lives on the
        object writes actually mutate, so an append through any other
        wrapper of the same block (another ``Dataset`` over the same
        handle, a direct ``core.updates`` call) invalidates this
        facade's entries too.  The trie hint and the count-only flag
        are key components because each pins a distinct float-fold (or
        count) sequence; a cached answer is byte-identical only along
        the same path.
        """
        if request.grouped:
            return None
        data_version = self.block.aggregates.data_version
        if request.count_only:
            # The Listing 2 path bypasses the trie.
            return self._scope.key(request.target, data_version, "count_only", False, True)
        trie = request.cache and isinstance(self._handle, AdaptiveGeoBlock)
        return self._scope.key(
            request.target,
            data_version,
            aggregate_key(request.aggregates),
            trie,
            False,
        )

    def _routing_root(self) -> "Dataset":
        root = self
        while root._parent is not None:
            root = root._parent
        return root

    def _note_routing(self, result) -> None:  # noqa: ANN001 - QueryResult
        """Fold one engine execution's routing decision into the root
        dataset's counters (no-op for unsharded handles, whose results
        carry ``shards_total == 0``)."""
        if not result.shards_total:
            return
        root = self._routing_root()
        with root._routing_lock:
            root._routing_queries += 1
            root._routing_shards_total += result.shards_total
            root._routing_shards_pruned += result.shards_pruned

    def routing_stats(self) -> dict:
        """Cumulative partition-routing counters (root-wide: engine
        executions against this dataset and its filtered views).

        ``pruning_rate`` is the fraction of shard visits the router
        avoided -- the dataset-level analogue of the per-response
        ``stats.shards`` block.  All zeros for unsharded datasets.
        """
        root = self._routing_root()
        with root._routing_lock:
            queries = root._routing_queries
            total = root._routing_shards_total
            pruned = root._routing_shards_pruned
        return {
            "queries": queries,
            "shards_total": total,
            "shards_pruned": pruned,
            "pruning_rate": (pruned / total) if total else 0.0,
        }

    def _respond(
        self,
        result: EngineResult,
        latency_ms: float,
        *,
        result_cached: bool = False,
        mv_cached: bool = False,
    ) -> QueryResponse:
        """The response for a single-region answer, whichever tier
        produced ``result``.  Values and count are the exact stored or
        executed objects; on a tier hit the probe/hit counters describe
        the execution that originally produced them."""
        return QueryResponse(
            values=dict(result.values),
            count=result.count,
            stats=QueryStats(
                cells_probed=result.cells_probed,
                cache_hits=result.cache_hits,
                latency_ms=latency_ms,
                covering_cached=int(result.covering_cached),
                result_cached=int(result_cached),
                mv_cached=int(mv_cached),
                shards_total=result.shards_total,
                shards_pruned=result.shards_pruned,
            ),
            dataset=self.name,
            version=self._version,
        )

    def _mv_key(self, request: QueryRequest) -> tuple | None:
        """The materialized-view store key of a request, or ``None``
        when the MV tier cannot serve it: grouped requests (per-feature
        answers), geometry-free targets, and value queries on a block
        the experiment harness switched to the scalar model (the one
        model with no bit-identity gate against the re-fold an MV
        refresh runs)."""
        if request.grouped:
            return None
        try:
            if request.count_only:
                return make_mv_key(request.target, (), False, True)
            if self.block.query_mode == "scalar":
                return None
            trie = request.cache and isinstance(self._handle, AdaptiveGeoBlock)
            return make_mv_key(request.target, request.aggregates, trie, False)
        except TypeError:
            return None

    def _engine_result(self, request: QueryRequest) -> EngineResult:
        """Cold single-region execution (the non-cached paths and MV
        admission share it): the Listing 2 count fast path or a
        ``select`` on the execution handle."""
        if request.count_only:
            # Plan once; executor.count is exactly what block.count runs.
            block = self.block
            plan = block.plan(request.target)
            return EngineResult(
                values={},
                count=block.executor.count(plan),
                cells_probed=plan.num_cells,
                covering_cached=plan.from_cache,
            )
        handle = self._execution_handle(request)
        return handle.select(request.target, list(request.aggregates))

    def _admit_view(
        self,
        request: QueryRequest,
        key: tuple,
        result: EngineResult,
        name: str | None,
    ) -> MaterializedView:
        """Build and install the MV serving ``request``: the unpruned
        covering (append-invariant geometry) plus one aggregate record
        per covering cell, with ``result`` as the current answer."""
        block = self.block
        covering = block.planner.covering(request.target)
        records = None if request.count_only else build_records(block, covering)
        view = MaterializedView(
            name=name if name is not None else self._mv.auto_name(),
            region=request.target,
            aggs=() if request.count_only else request.aggregates,
            trie_hint=bool(
                not request.count_only
                and request.cache
                and isinstance(self._handle, AdaptiveGeoBlock)
            ),
            count_only=request.count_only,
            key=key,
            covering=covering,
            records=records,
            result=result,
            version=self._version,
        )
        return self._mv.admit(view)

    def _probe_tiers(self, request: QueryRequest) -> tuple[QueryResponse | None, tuple | None]:
        """The one place a single-region request picks its answering
        tier, in order: materialized view, result tier, engine.

        Returns ``(response, None)`` when a tier holds the answer --
        both store exact :class:`QueryResult` outcomes, so covering and
        execution are skipped and the bytes equal cold execution -- or
        ``(None, result key)`` when the caller must run the engine and
        hand the outcome to :meth:`_engine_response`.  Exactly one tier
        answers: an MV hit never touches the result tier.
        """
        start = perf_counter()
        view = self._mv.lookup(self._mv_key(request))
        if view is not None:
            return self._respond(view.result, (perf_counter() - start) * 1e3, mv_cached=True), None
        key = self._result_key(request)
        cached = self._scope.probe(key)
        if cached is not None:
            return self._respond(cached, (perf_counter() - start) * 1e3, result_cached=True), None
        return None, key

    def _engine_response(
        self, key: tuple | None, result: EngineResult, latency_ms: float
    ) -> QueryResponse:
        """The engine-tier tail of :meth:`_probe_tiers`: fill the result
        tier under ``key`` and count the routing decision."""
        self._scope.fill(key, result)
        self._note_routing(result)
        return self._respond(result, latency_ms)

    def _execute(self, request: QueryRequest) -> QueryResponse:
        """Carry out a validated request against this dataset's block
        (``where`` already resolved to a view by :meth:`query`)."""
        if request.grouped:
            return self._execute_grouped(request)
        start = perf_counter()
        response, key = self._probe_tiers(request)
        if response is not None:
            return response
        result = self._engine_result(request)
        return self._engine_response(key, result, (perf_counter() - start) * 1e3)

    def _execute_grouped(self, request: QueryRequest) -> QueryResponse:
        """Answer every feature in one grouped engine pass plus the
        combined rollup (bit-identical per feature to answering each
        region alone -- shared binary searches and range dedup are
        value-preserving by construction)."""
        features = request.feature_targets
        names = [name for name, _ in features]
        targets = [target for _, target in features]
        start = perf_counter()
        if request.count_only:
            block = self.block
            plans = [block.plan(target) for target in targets]
            counts = [block.executor.count(plan) for plan in plans]
            groups = tuple(
                GroupRow(name, {}, count) for name, count in zip(names, counts)
            )
            values: dict[str, float] = {}
            total = sum(counts)
            probed = sum(plan.num_cells for plan in plans)
            hits = 0
            covering_cached = sum(int(plan.from_cache) for plan in plans)
            shards_total = shards_pruned = 0
        else:
            handle = self._execution_handle(request)
            results, rollup = handle.run_grouped(targets, list(request.aggregates))
            groups = tuple(
                GroupRow(name, result.values, result.count)
                for name, result in zip(names, results)
            )
            values = rollup.values
            total = rollup.count
            probed = rollup.cells_probed
            hits = rollup.cache_hits
            covering_cached = sum(int(result.covering_cached) for result in results)
            shards_total = rollup.shards_total
            shards_pruned = rollup.shards_pruned
            self._note_routing(rollup)
        latency_ms = (perf_counter() - start) * 1e3
        return QueryResponse(
            values=values,
            count=total,
            stats=QueryStats(
                cells_probed=probed,
                cache_hits=hits,
                latency_ms=latency_ms,
                covering_cached=covering_cached,
                shards_total=shards_total,
                shards_pruned=shards_pruned,
            ),
            dataset=self.name,
            groups=groups,
            version=self._version,
        )

    def run_batch(self, requests: Sequence) -> list[QueryResponse]:
        """Answer many requests in one engine pass.

        Requests sharing the same ``cache`` hint are grouped into one
        ``run_batch`` call on the block (the engine's shared binary
        searches and range dedup); ``count_only`` requests take the
        Listing 2 path individually, which is already a two-probe
        operation per covering cell.  Responses come back in input
        order, identical to answering each request alone.
        """
        parsed = [as_request(request) for request in requests]
        with self._rwlock.read():
            return self._run_batch_inner(parsed)

    def _run_batch_inner(self, parsed: list[QueryRequest]) -> list[QueryResponse]:
        for request in parsed:
            self._validate(request)
        responses: list[QueryResponse | None] = [None] * len(parsed)
        # Group indices by the cache hint; order within a group is
        # input order.  The hint only changes execution on adaptive
        # handles -- grouping by it elsewhere would needlessly split
        # one engine pass into several.  Members that are themselves
        # multi-part (grouped requests, filtered views, count_only) run
        # through ``query`` -- each is already its own engine pass.
        cache_matters = isinstance(self._handle, AdaptiveGeoBlock)
        groups: dict[bool, list[int]] = {}
        fill_keys: dict[int, tuple | None] = {}
        for index, request in enumerate(parsed):
            if request.count_only or request.grouped or request.where is not None:
                responses[index] = self._query_inner(request)
                continue
            # Members a tier already answers (same region, aggregates,
            # version, and hints) never reach the engine pass; the rest
            # execute batched and fill the result tier on the way out.
            response, key = self._probe_tiers(request)
            if response is not None:
                responses[index] = response
                continue
            fill_keys[index] = key
            groups.setdefault(request.cache if cache_matters else True, []).append(index)
        for indices in groups.values():
            handle = self._execution_handle(parsed[indices[0]])
            queries = [
                Query(region=parsed[index].target, aggs=parsed[index].aggregates)
                for index in indices
            ]
            start = perf_counter()
            results = handle.run_batch(queries)
            latency_ms = (perf_counter() - start) * 1e3
            for index, result in zip(indices, results):
                responses[index] = self._engine_response(fill_keys[index], result, latency_ms)
        return [response for response in responses if response is not None]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        label = f"{self.name!r}, " if self.name else ""
        return f"Dataset({label}kind={self.kind}, level={self.level}, cells={self.block.num_cells})"
