"""A minimal stdlib HTTP client for the wire server.

One :class:`GeoClient` wraps one keep-alive
:class:`http.client.HTTPConnection` -- exactly what a load-harness
worker thread needs (socket reuse, so measured latency is request
handling, not TCP setup).  Not thread-safe by design: give each thread
its own client, the way each browser tab holds its own connection.

Every call returns a :class:`WireReply` -- status, parsed JSON body,
and the ``X-Cache`` header -- without raising on HTTP error statuses:
the error envelope in the body is the interesting part, and callers
(tests, benchmarks) assert on it directly.
"""

from __future__ import annotations

import http.client
import json
from dataclasses import dataclass, field
from collections.abc import Mapping, Sequence

_JSON_HEADERS = {"Content-Type": "application/json"}


@dataclass(frozen=True)
class WireReply:
    """One HTTP exchange, decoded."""

    status: int
    body: object  # parsed JSON: the envelope dict, or a list for batches
    headers: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        envelope = self.body
        if isinstance(envelope, list):
            return all(isinstance(member, Mapping) and member.get("ok") for member in envelope)
        return isinstance(envelope, Mapping) and bool(envelope.get("ok"))

    @property
    def x_cache(self) -> str | None:
        """The edge-cache disposition (``hit``/``stale``/``miss``/
        ``bypass``), or ``None`` when the server has no edge."""
        return self.headers.get("x-cache")


class GeoClient:
    """A keep-alive client for one server; use as a context manager or
    call :meth:`close` when done."""

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.host = host
        self.port = port
        self._conn = http.client.HTTPConnection(host, port, timeout=timeout)

    @classmethod
    def for_server(cls, server, timeout: float = 30.0) -> "GeoClient":  # noqa: ANN001
        """A client bound to a :class:`~repro.server.http.GeoHTTPServer`."""
        host, port = server.server_address[0], server.port
        return cls(host, port, timeout=timeout)

    def request(self, method: str, path: str, payload: object = None) -> WireReply:
        body = None if payload is None else json.dumps(payload).encode()
        headers = dict(_JSON_HEADERS) if body is not None else {}
        try:
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            raw = response.read()  # must drain before the next keep-alive request
        except (http.client.HTTPException, ConnectionError, OSError):
            # One reconnect: the server may have closed an idle
            # keep-alive socket between requests.
            self._conn.close()
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            raw = response.read()
        decoded = json.loads(raw) if raw else None
        return WireReply(
            status=response.status,
            body=decoded,
            headers={key.lower(): value for key, value in response.getheaders()},
        )

    # -- route helpers -----------------------------------------------------

    def query(self, payload: Mapping) -> WireReply:
        """POST one wire dict to ``/query``."""
        return self.request("POST", "/query", payload)

    def query_batch(self, payloads: Sequence[Mapping]) -> WireReply:
        """POST a list of wire dicts: one batched engine pass."""
        return self.request("POST", "/query", list(payloads))

    def append(self, rows: Sequence[Mapping], dataset: str | None = None) -> WireReply:
        payload: dict = {"rows": list(rows)}
        if dataset is not None:
            payload["dataset"] = dataset
        return self.request("POST", "/append", payload)

    def stats(self) -> WireReply:
        return self.request("GET", "/stats")

    def healthz(self) -> WireReply:
        return self.request("GET", "/healthz")

    def datasets(self) -> WireReply:
        return self.request("GET", "/datasets")

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "GeoClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"GeoClient({self.host}:{self.port})"
