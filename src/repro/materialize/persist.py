"""Materialized-view persistence: the dataset's ``.mv.npz`` sidecar.

``Dataset.save`` writes the store's views next to the block file and
``Dataset.open`` restores them, so a restarted ``repro.server`` answers
its hot queries from disk-warm MVs without a single engine pass.  The
format follows :mod:`repro.core.serialize`'s idiom -- one compressed
``.npz`` holding a JSON meta blob plus numpy arrays: per view the
unpruned covering ids and (for value queries) the per-covering-cell
record matrix.

The sidecar is only valid against the exact aggregate arrays it was
computed from, so the meta carries a **content stamp** (BLAKE2 over the
block's sorted keys and counts): on load a mismatching stamp -- the
block file was rebuilt or appended to out-of-band -- silently yields an
empty store rather than serving answers for different data.
"""

from __future__ import annotations

import hashlib
import os
import pathlib

import numpy as np

from repro.api.request import parse_region, serialise_region
from repro.cells.union import CellUnion
from repro.core.aggregates import AggSpec, CellAggregates
from repro.core.serialize import read_archive_meta, write_archive
from repro.engine.executor import QueryResult
from repro.materialize.store import MaterializedStore
from repro.materialize.view import MaterializedView, MVKey, mv_key

#: Bumped whenever the sidecar layout changes.
MV_FORMAT_VERSION = 1


def sidecar_path(path: str | pathlib.Path) -> pathlib.Path:
    """The MV sidecar next to a dataset's block file
    (``blocks/taxi.npz`` -> ``blocks/taxi.mv.npz``)."""
    path = pathlib.Path(path)
    name = path.name
    if name.endswith(".npz"):
        name = name[: -len(".npz")]
    return path.with_name(name + ".mv.npz")


def content_stamp(aggregates: CellAggregates) -> str:
    """A digest binding a sidecar to the exact aggregate arrays."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(",".join(aggregates.schema.names).encode("utf-8"))
    digest.update(np.ascontiguousarray(aggregates.keys).tobytes())
    digest.update(np.ascontiguousarray(aggregates.counts).tobytes())
    return digest.hexdigest()


def _result_meta(result: QueryResult) -> dict:
    return {
        "values": {key: float(value) for key, value in result.values.items()},
        "count": int(result.count),
        "cells_probed": int(result.cells_probed),
        "cache_hits": int(result.cache_hits),
        "covering_cached": bool(result.covering_cached),
    }


def _result_from_meta(meta: dict) -> QueryResult:
    return QueryResult(
        values={key: float(value) for key, value in meta["values"].items()},
        count=int(meta["count"]),
        cells_probed=int(meta["cells_probed"]),
        cache_hits=int(meta["cache_hits"]),
        covering_cached=bool(meta["covering_cached"]),
    )


def save_views(
    path: str | pathlib.Path, store: MaterializedStore, aggregates: CellAggregates
) -> int:
    """Write (or remove) the sidecar at ``path``; returns bytes on disk.

    An empty store removes a stale sidecar -- loading old views against
    new data is exactly what the content stamp exists to prevent, and a
    fresh save must not leave the trap armed.
    """
    path = pathlib.Path(path)
    views = store.views()
    if not views:
        if path.exists():
            path.unlink()
        store.disk_bytes = 0
        return 0
    meta: dict = {
        "version": MV_FORMAT_VERSION,
        "stamp": content_stamp(aggregates),
        "views": [],
    }
    arrays: dict[str, np.ndarray] = {}
    for index, view in enumerate(views):
        meta["views"].append(
            {
                "name": view.name,
                "region": serialise_region(view.region),
                "aggs": [[spec.function, spec.column] for spec in view.aggs],
                "trie": view.trie_hint,
                "count_only": view.count_only,
                "hits": view.hits,
                "version": view.refreshed_version,
                "result": _result_meta(view.result),
                "has_records": view.records is not None,
            }
        )
        arrays[f"covering_{index}"] = view.covering.ids
        if view.records is not None:
            arrays[f"records_{index}"] = view.records
    write_archive(path, meta, arrays)
    size = int(os.path.getsize(path))
    store.disk_bytes = size
    return size


def load_views(path: str | pathlib.Path, store: MaterializedStore, aggregates: CellAggregates) -> int:
    """Restore views from the sidecar at ``path`` into ``store``.

    Missing file, unreadable meta, wrong format version, a content
    stamp that no longer matches the aggregates, or any malformed view
    entry all yield an untouched store (count 0): a sidecar is an
    accelerator, never a correctness dependency.  Every view is built
    before the first is admitted, so a sidecar loads whole or not at
    all.  Returns the number of views restored.

    Pre-1.9 entries carry a ``mode`` key that is ignored; two entries
    that differed only in it now share one key and load as one view
    (the first wins and keeps its name).
    """
    path = pathlib.Path(path)
    if not path.exists():
        return 0
    views: dict[MVKey, MaterializedView] = {}
    try:
        with np.load(path) as archive:
            meta = read_archive_meta(archive)
            if meta.get("version") != MV_FORMAT_VERSION:
                return 0
            if meta.get("stamp") != content_stamp(aggregates):
                return 0
            for index, view_meta in enumerate(meta["views"]):
                if not view_meta.get("pinned", True):
                    # Auto-admitted by a pre-1.8 server: a guess, not a
                    # pin -- it must not become permanent here.
                    continue
                region = parse_region(view_meta["region"])
                aggs = [
                    AggSpec(function, column)
                    for function, column in view_meta["aggs"]
                ]
                trie_hint = bool(view_meta["trie"])
                count_only = bool(view_meta["count_only"])
                covering = CellUnion(
                    np.asarray(archive[f"covering_{index}"], dtype=np.int64),
                    assume_sorted=True,
                )
                records = (
                    np.array(archive[f"records_{index}"], dtype=np.float64)
                    if view_meta["has_records"]
                    else None
                )
                view = MaterializedView(
                    name=view_meta["name"],
                    region=region,
                    aggs=aggs,
                    trie_hint=trie_hint,
                    count_only=count_only,
                    key=mv_key(region, aggs, trie_hint, count_only),
                    covering=covering,
                    records=records,
                    result=_result_from_meta(view_meta["result"]),
                    version=int(view_meta["version"]),
                    hits=int(view_meta["hits"]),
                )
                views.setdefault(view.key, view)
    except (KeyError, ValueError, OSError):
        return 0
    if len({view.name for view in views.values()}) != len(views):
        return 0  # duplicate names: no writer produces them
    for view in views.values():
        store.admit(view)
    store.disk_bytes = int(os.path.getsize(path))
    return len(views)


__all__ = [
    "MV_FORMAT_VERSION",
    "content_stamp",
    "load_views",
    "save_views",
    "sidecar_path",
]
