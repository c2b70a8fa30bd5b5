"""The paper's primary contribution: GeoBlocks and their query cache."""

from repro.core.adaptive import AdaptiveGeoBlock, BlockQC
from repro.core.aggregates import AGG_FUNCTIONS, Accumulator, AggSpec, CellAggregates
from repro.core.builder import (
    BuildReport,
    build_incremental,
    build_isolated,
    payoff_point,
    prepare_base_data,
)
from repro.core.geoblock import GeoBlock, QueryResult, common_ancestor
from repro.core.serialize import load, save
from repro.core.updates import apply_batch, apply_update, apply_update_adaptive
from repro.core.header import GlobalHeader
from repro.core.policy import CachePolicy
from repro.core.statistics import QueryStatistics, ScoredCell
from repro.core.trie import AggregateTrie, TrieBuilder, TrieProbe

__all__ = [
    "AGG_FUNCTIONS",
    "Accumulator",
    "AdaptiveGeoBlock",
    "AggSpec",
    "AggregateTrie",
    "BlockQC",
    "BuildReport",
    "CachePolicy",
    "CellAggregates",
    "GeoBlock",
    "GlobalHeader",
    "QueryResult",
    "QueryStatistics",
    "ScoredCell",
    "TrieBuilder",
    "TrieProbe",
    "apply_batch",
    "apply_update",
    "apply_update_adaptive",
    "load",
    "save",
    "build_incremental",
    "build_isolated",
    "common_ancestor",
    "payoff_point",
    "prepare_base_data",
]
