"""GeoBlocks: a query-cache accelerated data structure for spatial
aggregation over polygons.

A from-scratch Python reproduction of the EDBT 2021 paper by Winter,
Kipf, Anneser, Tzirita Zacharatou, Neumann, and Kemper.  The package
implements the GeoBlock pre-aggregating index with its AggregateTrie
query cache, every substrate it depends on (an S2-like hierarchical
cell system with Hilbert enumeration, a region coverer, a computational
geometry kernel, a columnar storage engine), the paper's four baselines
(BinarySearch, B+-tree, PH-tree, aR-tree), synthetic stand-ins for its
datasets, an experiment harness regenerating every evaluation table
and figure -- and a serving layer (:mod:`repro.api`) exposing it all
behind named datasets and declarative queries, accelerated by a
process-wide tiered query cache (:mod:`repro.cache`): content-addressed
coverings shared by every block, plus a versioned result tier that
short-circuits repeat queries entirely.

Quickstart (the service API)::

    from repro import Dataset, EARTH, GeoService, PointTable, Schema, extract
    import numpy as np

    table = PointTable(
        Schema(["fare"]),
        xs=np.array([-73.99, -73.97]),
        ys=np.array([40.73, 40.75]),
        columns={"fare": np.array([12.5, 9.0])},
    )
    service = GeoService()
    service.register("taxi", Dataset.build(extract(table, EARTH), level=17))

    # Fluent:
    taxi = service.dataset("taxi")
    response = taxi.over({"bbox": [-74.0, 40.7, -73.9, 40.8]}).agg(
        "count", "sum:fare"
    ).run()

    # Or as a plain JSON dict (what an HTTP adapter would relay):
    envelope = service.run_dict({
        "v": 2,
        "dataset": "taxi",
        "region": {"type": "Polygon", "coordinates": [
            [[-74.0, 40.7], [-73.9, 40.7], [-73.9, 40.8], [-74.0, 40.8], [-74.0, 40.7]]
        ]},
        "aggregates": ["count", "sum:fare"],
    })

    # Query v2: filtered views ("where"), FeatureCollection group-by
    # ("group_by"), and appends ("op": "append") -- see repro.api.

Legacy quickstart (the direct block API, still fully supported)::

    from repro import AggSpec, GeoBlock, Polygon

    base = extract(table, EARTH)
    block = GeoBlock.build(base, level=17)
    region = Polygon([(-74.0, 40.7), (-73.9, 40.7), (-73.9, 40.8), (-74.0, 40.8)])
    result = block.select(region, [AggSpec("count"), AggSpec("sum", "fare")])
"""

from repro.api import (
    ApiError,
    AppendRequest,
    AppendResponse,
    Dataset,
    GeoService,
    GroupRow,
    QueryRequest,
    QueryResponse,
    QueryStats,
)
from repro.cache import CacheConfig, TieredCache, configure as configure_cache, get_cache
from repro.cells import (
    EARTH,
    MAX_LEVEL,
    CellSpace,
    CellUnion,
    RegionCoverer,
    level_for_max_diagonal,
)
from repro.core import (
    AdaptiveGeoBlock,
    AggSpec,
    BlockQC,
    CachePolicy,
    GeoBlock,
    QueryResult,
    build_incremental,
    build_isolated,
    load,
    prepare_base_data,
    save,
)
from repro.errors import (
    BuildError,
    CellError,
    GeometryError,
    QueryError,
    ReproError,
    SchemaError,
)
from repro.geometry import BoundingBox, MultiPolygon, Polygon
from repro.storage import (
    BaseData,
    CleaningRules,
    ColumnKind,
    ColumnSpec,
    PointTable,
    Schema,
    col,
    extract,
)

__version__ = "1.9.0"

__all__ = [
    "EARTH",
    "MAX_LEVEL",
    "AdaptiveGeoBlock",
    "AggSpec",
    "ApiError",
    "AppendRequest",
    "AppendResponse",
    "BaseData",
    "BlockQC",
    "BoundingBox",
    "BuildError",
    "CachePolicy",
    "CellError",
    "CellSpace",
    "CellUnion",
    "CleaningRules",
    "ColumnKind",
    "ColumnSpec",
    "Dataset",
    "GeoBlock",
    "GeoService",
    "GeometryError",
    "GroupRow",
    "MultiPolygon",
    "PointTable",
    "Polygon",
    "QueryError",
    "QueryRequest",
    "QueryResponse",
    "QueryResult",
    "QueryStats",
    "RegionCoverer",
    "ReproError",
    "Schema",
    "SchemaError",
    "build_incremental",
    "build_isolated",
    "col",
    "extract",
    "level_for_max_diagonal",
    "load",
    "prepare_base_data",
    "save",
]
