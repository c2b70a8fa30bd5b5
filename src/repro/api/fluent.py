"""Fluent query construction: ``ds.over(region).agg("avg:fare").run()``.

The builder is sugar over :class:`~repro.api.request.QueryRequest` --
every terminal call first materialises the equivalent declarative
request (:meth:`QueryBuilder.request`), so fluent and wire-format
queries go down exactly the same execution path.  Builders are
immutable: each step returns a new builder, so partial queries can be
shared and branched safely.

Query v2 steps: ``.where(...)`` filters through a per-predicate view,
``.group_by(features)`` answers a FeatureCollection per feature plus a
rollup (started via ``ds.group_by(...)`` or chained onto a filter), and
``.append(rows)`` is the write terminal::

    ds.where(col("distance") >= 4).group_by(fc).agg("sum:fare").run()
    ds.append([{"x": -73.98, "y": 40.75, "fare": 12.5, ...}])
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING

from repro.api.aggregates import parse_aggs
from repro.api.request import (
    DEFAULT_AGGREGATES,
    AppendResponse,
    QueryRequest,
    QueryResponse,
    parse_features,
    parse_region,
    parse_where,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.dataset import Dataset
    from repro.core.aggregates import AggSpec


class QueryBuilder:
    """An immutable, chainable query under construction."""

    __slots__ = ("_dataset", "_region", "_features", "_aggregates", "_cache", "_where")

    def __init__(
        self,
        dataset: "Dataset",
        region,  # noqa: ANN001 - region payload (object, GeoJSON dict, bbox) or None
        features=None,  # noqa: ANN001 - FeatureCollection / named regions or None
        aggregates: tuple["AggSpec", ...] = (),
        cache: bool = True,
        where=None,  # noqa: ANN001 - Predicate or wire dict or None
    ) -> None:
        self._dataset = dataset
        self._region = parse_region(region) if region is not None else None
        self._features = parse_features(features) if features is not None else None
        self._aggregates = aggregates
        self._cache = cache
        self._where = parse_where(where) if where is not None else None

    def _derive(self, **overrides) -> "QueryBuilder":  # noqa: ANN003
        state = {
            "features": self._features,
            "aggregates": self._aggregates,
            "cache": self._cache,
            "where": self._where,
        }
        state.update(overrides)
        return QueryBuilder(self._dataset, state.pop("region", self._region), **state)

    # -- chainable steps ---------------------------------------------------

    def agg(self, *specs) -> "QueryBuilder":  # noqa: ANN002 - spec strings/AggSpecs
        """Append output aggregates (``"sum:fare"`` strings or AggSpecs)."""
        return self._derive(aggregates=self._aggregates + parse_aggs(list(specs)))

    def cache(self, enabled: bool = True) -> "QueryBuilder":
        """Allow (default) or forbid answering from the query cache."""
        return self._derive(cache=enabled)

    def where(self, predicate) -> "QueryBuilder":  # noqa: ANN001 - Predicate or wire dict
        """Filter through the dataset's per-predicate view; repeated
        calls compose conjunctively."""
        parsed = parse_where(predicate)
        if self._where is not None:
            parsed = self._where & parsed
        return self._derive(where=parsed)

    def group_by(self, features) -> "QueryBuilder":  # noqa: ANN001 - features payload
        """Answer per feature of a FeatureCollection (or named-region
        list) plus a combined rollup, replacing any single region."""
        return self._derive(region=None, features=parse_features(features))

    # -- terminals ---------------------------------------------------------

    def request(self) -> QueryRequest:
        """The declarative request this builder denotes."""
        return QueryRequest(
            region=self._region,
            aggregates=self._aggregates or DEFAULT_AGGREGATES,
            dataset=self._dataset.name,
            cache=self._cache,
            where=self._where,
            group_by=self._features,
        )

    def run(self) -> QueryResponse:
        """Execute as a SELECT and return the response."""
        return self._dataset.query(self.request())

    def count(self) -> int:
        """Execute as a COUNT (Listing 2 fast path) and return the count."""
        request = QueryRequest(
            region=self._region,
            dataset=self._dataset.name,
            cache=self._cache,
            count_only=True,
            where=self._where,
            group_by=self._features,
        )
        return self._dataset.query(request).count

    def materialize(self, name: str | None = None) -> dict:
        """Pin this query as a materialized view on its dataset:
        ``ds.over(region).agg("avg:fare").materialize("hot-soho")``.

        From then on the identical query answers from the view --
        including right after appends, which refresh it incrementally.
        Returns the view's info row; rejected with ``unsupported_op``
        for grouped builders (they answer per feature, not as one
        pinnable answer).
        """
        return self._dataset.materialize(self.request(), name)

    def append(self, rows: Sequence[Mapping]) -> AppendResponse:
        """The write terminal: fold ``rows`` into the dataset's block.

        Rejected with ``unsupported_op`` on a filtered or grouped
        builder (without building the view a read would): an append is
        never scoped by query state -- silently writing the whole
        dataset would be worse than refusing -- so it goes through the
        dataset itself (``Dataset.append``), and matching rows
        propagate to views.
        """
        if self._where is not None or self._features is not None:
            from repro.api.errors import UNSUPPORTED_OP, ApiError

            scope = "filtered" if self._where is not None else "grouped"
            raise ApiError(
                UNSUPPORTED_OP,
                f"cannot append through a {scope} query; append to dataset "
                f"{self._dataset.name!r} itself (matching rows propagate to its views)",
            )
        return self._dataset.append(rows)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        shape = (
            f"features={len(self._features)}" if self._features is not None else "region"
        )
        return (
            f"QueryBuilder(dataset={self._dataset.name!r}, {shape}, "
            f"aggs={[spec.key for spec in self._aggregates]}, "
            f"where={self._where!r})"
        )
