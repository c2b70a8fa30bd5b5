"""Exception hierarchy for the repro library.

A single root (:class:`ReproError`) lets callers catch anything raised by
the library, while the subclasses distinguish user errors (bad geometry,
bad schema, bad query) from internal invariant violations.
"""

from __future__ import annotations


class ReproError(Exception):
    """Root of the library's exception hierarchy."""


class GeometryError(ReproError):
    """Raised for invalid geometric input (degenerate polygons, empty boxes).

    ``position`` is the index of the offending vertex when one vertex
    is to blame (a non-finite coordinate), else None.
    """

    def __init__(self, message: str, position: int | None = None) -> None:
        super().__init__(message)
        self.position = position


class CellError(ReproError):
    """Raised for invalid cell ids or out-of-range levels."""


class SchemaError(ReproError):
    """Raised for invalid schemas, unknown columns, or dtype mismatches."""


class QueryError(ReproError):
    """Raised for malformed aggregation queries."""


class BuildError(ReproError):
    """Raised when a GeoBlock or index cannot be built from its input."""
