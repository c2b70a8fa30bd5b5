"""Saving and loading GeoBlocks.

GeoBlocks are materialised views: building them from base data is fast,
but persisting them avoids keeping the base data around at query time
(a block is typically ~2-50% of its input, Figure 11b).  The format is
a single ``.npz`` file holding the aggregate arrays, the block level,
the curve name, the domain, and the filter predicate's display string.

The entry points are :func:`save` and :func:`load`, which dispatch on
the block-kind discriminator (``GeoBlock.kind`` in memory, the ``kind``
meta field on disk):

* ``geoblock`` -- a plain block (version-1 files load as this kind);
* ``sharded``  -- a :class:`~repro.engine.shards.ShardedGeoBlock`; its
  curve-key split points ride along and the partition itself is
  re-derived from the sorted keys on load (it is pure bookkeeping).  A
  sharded file without ``shard_splits`` (version 2, or a version-3 file
  written with the retired prefix layout) loads with cost-model splits:
  answers do not depend on the partition;
* ``adaptive`` -- an :class:`~repro.core.adaptive.AdaptiveGeoBlock`
  including its AggregateTrie (node + record regions, Figure 7), the
  accumulated query statistics, and the cache policy.

Writes are atomic: an archive lands in a temporary file beside its
destination and is renamed over it, so a save that dies partway leaves
the previous file intact.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile

import numpy as np

from repro.cells.curves import curve_by_name
from repro.cells.space import CellSpace
from repro.core.adaptive import AdaptiveGeoBlock
from repro.core.aggregates import CellAggregates
from repro.core.geoblock import GeoBlock
from repro.core.policy import CachePolicy
from repro.core.statistics import QueryStatistics
from repro.core.trie import AggregateTrie
from repro.errors import BuildError
from repro.geometry.bbox import BoundingBox
from repro.storage.schema import ColumnKind, ColumnSpec, Schema

#: Bumped whenever the on-disk layout changes.  Version 3 added the
#: sharded-block layout metadata (``layout`` and ``shard_splits``).
FORMAT_VERSION = 3

#: Versions this module can still read.
SUPPORTED_VERSIONS = (1, 2, 3)


def _block_meta(block: GeoBlock, kind: str) -> dict:
    aggregates = block.aggregates
    meta = {
        "version": FORMAT_VERSION,
        "kind": kind,
        "level": block.level,
        "curve": block.space.curve.name,
        "domain": [
            block.space.domain.min_x,
            block.space.domain.min_y,
            block.space.domain.max_x,
            block.space.domain.max_y,
        ],
        "schema": [[spec.name, spec.kind.value] for spec in aggregates.schema],
        "predicate": repr(block.predicate),
    }
    if block.kind == "sharded":
        meta["layout"] = "curve"
        # Full split-bounds array (JSON ints are exact well past 2**60),
        # so the loaded partition is byte-for-byte the one that was
        # saved, whatever machine opens the file.
        meta["shard_splits"] = [int(b) for b in block.splits]  # type: ignore[attr-defined]
    return meta


def _block_arrays(block: GeoBlock) -> dict[str, np.ndarray]:
    aggregates = block.aggregates
    arrays: dict[str, np.ndarray] = {
        "keys": aggregates.keys,
        "offsets": aggregates.offsets,
        "counts": aggregates.counts,
        "key_mins": aggregates.key_mins,
        "key_maxs": aggregates.key_maxs,
    }
    for spec in aggregates.schema:
        arrays[f"sum__{spec.name}"] = aggregates.sums[spec.name]
        arrays[f"min__{spec.name}"] = aggregates.mins[spec.name]
        arrays[f"max__{spec.name}"] = aggregates.maxs[spec.name]
    return arrays


def _write(path: str | pathlib.Path, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write the archive to a temporary file next to ``path`` and
    rename it into place: a crash mid-save never leaves a truncated
    file under the final name.  The final name follows numpy's rule
    (``.npz`` appended unless already there)."""
    final = os.fspath(path)
    if not final.endswith(".npz"):
        final += ".npz"
    handle, temporary = tempfile.mkstemp(
        dir=os.path.dirname(final) or ".", prefix=os.path.basename(final) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(handle, "wb") as stream:
            np.savez_compressed(
                stream,
                meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
                **arrays,
            )
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(temporary, final)
    except BaseException:
        os.unlink(temporary)
        raise


def write_archive(path: str | pathlib.Path, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write a meta-blob + arrays archive in this module's file idiom
    (shared by sidecar writers, e.g. :mod:`repro.materialize.persist`)."""
    _write(path, meta, arrays)


def read_archive_meta(archive) -> dict:  # noqa: ANN001 - NpzFile
    """Decode the JSON meta blob of an archive written by
    :func:`write_archive` (no version check -- sidecar formats version
    themselves)."""
    return json.loads(bytes(archive["meta"]).decode("utf-8"))


def save(block: GeoBlock | AdaptiveGeoBlock, path: str | pathlib.Path) -> None:
    """Persist any block to ``path`` (``.npz``), dispatching on kind.

    Plain and sharded blocks record their kind (and split points);
    adaptive blocks additionally persist the AggregateTrie, the
    accumulated query statistics, and the cache policy, so a later
    :func:`load` restores the cache exactly.
    """
    if isinstance(block, AdaptiveGeoBlock):
        inner = block.block
        meta = _block_meta(inner, "adaptive")
        meta["base_kind"] = inner.kind
        meta["policy"] = {
            "threshold": block.policy.threshold,
            "rebuild_every": block.policy.rebuild_every,
        }
        meta["queries_recorded"] = block.statistics.queries_recorded
        arrays = _block_arrays(inner)
        cells, hits = block.statistics.export_counts()
        arrays["stat_cells"] = cells
        arrays["stat_hits"] = hits
        trie = block.trie
        meta["has_trie"] = trie is not None
        if trie is not None:
            meta["trie_root_cell"] = trie.root_cell
            meta["trie_record_width"] = trie.record_width
            arrays["trie_nodes"] = trie.nodes
            arrays["trie_records"] = trie.records
        _write(path, meta, arrays)
        return
    _write(path, _block_meta(block, block.kind), _block_arrays(block))


def _read_meta(archive) -> dict:  # noqa: ANN001 - NpzFile
    meta = json.loads(bytes(archive["meta"]).decode("utf-8"))
    if meta.get("version") not in SUPPORTED_VERSIONS:
        raise BuildError(
            f"unsupported GeoBlock file version {meta.get('version')!r}; "
            f"expected one of {SUPPORTED_VERSIONS}"
        )
    return meta


def _read_block(archive, meta: dict, kind: str) -> GeoBlock:  # noqa: ANN001
    schema = Schema(
        [ColumnSpec(name, ColumnKind(kind_)) for name, kind_ in meta["schema"]]
    )
    aggregates = CellAggregates(
        schema=schema,
        keys=archive["keys"],
        offsets=archive["offsets"],
        counts=archive["counts"],
        key_mins=archive["key_mins"],
        key_maxs=archive["key_maxs"],
        sums={spec.name: archive[f"sum__{spec.name}"] for spec in schema},
        mins={spec.name: archive[f"min__{spec.name}"] for spec in schema},
        maxs={spec.name: archive[f"max__{spec.name}"] for spec in schema},
    )
    domain = BoundingBox(*meta["domain"])
    space = CellSpace(domain, curve=curve_by_name(meta["curve"]))
    if kind == "sharded":
        from repro.engine.shards import ShardedGeoBlock

        splits = meta.get("shard_splits")
        return ShardedGeoBlock(
            space,
            int(meta["level"]),
            aggregates,
            splits=None if splits is None else [int(b) for b in splits],
        )
    return GeoBlock(space, int(meta["level"]), aggregates)


def _read_adaptive(archive, meta: dict) -> AdaptiveGeoBlock:  # noqa: ANN001
    block = _read_block(archive, meta, meta.get("base_kind", "geoblock"))
    policy_meta = meta.get("policy", {})
    policy = CachePolicy(
        threshold=float(policy_meta.get("threshold", 0.05)),
        rebuild_every=policy_meta.get("rebuild_every"),
    )
    adaptive = AdaptiveGeoBlock(block, policy)
    adaptive._statistics = QueryStatistics.from_counts(
        archive["stat_cells"],
        archive["stat_hits"],
        int(meta.get("queries_recorded", 0)),
    )
    if meta.get("has_trie"):
        adaptive._trie = AggregateTrie(
            int(meta["trie_root_cell"]),
            archive["trie_nodes"],
            archive["trie_records"],
            int(meta["trie_record_width"]),
        )
    return adaptive


def load(path: str | pathlib.Path) -> GeoBlock | AdaptiveGeoBlock:
    """Load any block saved by :func:`save`, whatever its kind.

    Plain and sharded blocks restore their aggregates (the filter
    predicate comes back as its display string only -- it is metadata;
    the aggregates already reflect it).  Adaptive blocks restore the
    trie, statistics, and policy exactly: queries answered after the
    round-trip hit the same cache entries, and a later ``adapt()``
    continues from the persisted statistics.
    """
    with np.load(path) as archive:
        meta = _read_meta(archive)
        kind = meta.get("kind", "geoblock")
        if kind == "adaptive":
            return _read_adaptive(archive, meta)
        return _read_block(archive, meta, kind)
