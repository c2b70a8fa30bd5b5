"""The service API's unified error model.

Every failure crossing the :mod:`repro.api` boundary is an
:class:`ApiError`: a :class:`~repro.errors.ReproError` subclass carrying
a machine-readable ``code`` alongside the human-readable message, so a
transport layer can map errors onto its own status model (HTTP codes,
gRPC statuses) without parsing message strings.

The wire shape is the *error envelope*::

    {"ok": false, "error": {"code": "bad_region", "message": "..."}}

produced by :func:`error_envelope`.  Internal library errors
(:class:`~repro.errors.ReproError` subclasses raised below the API) are
wrapped with code ``internal`` rather than leaking their class names
into the protocol.
"""

from __future__ import annotations

from repro.errors import ReproError

#: Machine-readable error codes of the service API.
BAD_REQUEST = "bad_request"
BAD_REGION = "bad_region"
BAD_AGGREGATE = "bad_aggregate"
BAD_HINT = "bad_hint"
BAD_PREDICATE = "bad_predicate"
UNKNOWN_DATASET = "unknown_dataset"
UNKNOWN_COLUMN = "unknown_column"
UNSUPPORTED_OP = "unsupported_op"
UNKNOWN_VIEW = "unknown_view"
DUPLICATE_VIEW = "duplicate_view"
NOT_FOUND = "not_found"
INTERNAL = "internal"

#: The one table of error codes and their HTTP statuses, so the HTTP
#: tier and in-process callers agree on error semantics: client
#: mistakes are 4xx (missing resources 404), wrapped library errors
#: 500.  The body is always the standard ``{"ok": false}`` envelope --
#: the status line is *derived* from the code, never a second source
#: of truth.
HTTP_STATUS = {
    BAD_REQUEST: 400,  # malformed request dict / unknown keys
    BAD_REGION: 400,  # unparsable or unsupported region payload
    BAD_AGGREGATE: 400,  # unparsable aggregate spec string
    BAD_HINT: 400,  # unknown hint name or invalid hint value
    BAD_PREDICATE: 400,  # unparsable 'where' filter expression
    UNKNOWN_DATASET: 404,  # dataset name not in the registry
    UNKNOWN_COLUMN: 400,  # aggregate references a missing column
    UNSUPPORTED_OP: 400,  # operation the target cannot perform
    UNKNOWN_VIEW: 404,  # drop/inspect of a view that does not exist
    DUPLICATE_VIEW: 409,  # materialize of an already-pinned query/name
    NOT_FOUND: 404,  # no such resource (an HTTP route, for example)
    INTERNAL: 500,  # wrapped non-API library error
}

#: Every error code of the service API: the keys of the status table.
ERROR_CODES = tuple(HTTP_STATUS)


def http_status(code: str) -> int:
    """The HTTP status for an API error code (unknown codes -- a newer
    server's, say -- degrade to 500 rather than crash the adapter)."""
    return HTTP_STATUS.get(code, 500)


class ApiError(ReproError):
    """A failure at the service API boundary.

    ``code`` is one of :data:`ERROR_CODES`; ``details`` is an optional
    JSON-compatible dict with structured context (e.g. the offending
    key).  The exception is itself JSON-representable via
    :meth:`to_dict`, which is what the error envelope embeds.
    """

    def __init__(self, code: str, message: str, details: dict | None = None) -> None:
        if code not in ERROR_CODES:
            raise ValueError(f"unknown API error code {code!r}; use one of {ERROR_CODES}")
        super().__init__(message)
        self.code = code
        self.message = message
        self.details = dict(details) if details else {}

    def to_dict(self) -> dict:
        payload: dict = {"code": self.code, "message": self.message}
        if self.details:
            payload["details"] = self.details
        return payload

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ApiError(code={self.code!r}, message={self.message!r})"


def wrap_error(error: Exception) -> ApiError:
    """Normalise any exception into an :class:`ApiError`.

    API errors pass through; other library errors become ``internal``
    with the original class name preserved in the details.
    """
    if isinstance(error, ApiError):
        return error
    return ApiError(
        INTERNAL,
        str(error) or error.__class__.__name__,
        details={"exception": error.__class__.__name__},
    )


def error_envelope(error: Exception) -> dict:
    """The wire-format failure response for ``error``."""
    return {"ok": False, "error": wrap_error(error).to_dict()}
