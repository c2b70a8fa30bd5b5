"""The threaded HTTP wire server over :class:`~repro.api.GeoService`.

Everything heavy already exists one layer down -- ``run_dict`` is the
never-raises envelope entry point, ``ApiError`` codes carry their HTTP
statuses (:data:`repro.api.errors.HTTP_STATUS`), and the per-dataset
readers-writer lock makes concurrent query/append traffic safe -- so
the server is a deliberately thin stdlib adapter:
:class:`~http.server.ThreadingHTTPServer` plus a request handler that
parses JSON, routes seven endpoints, and replays edge-cached bodies.
The wire ops' own routes come from :data:`repro.api.service.WIRE_OPS`.

Routes (all bodies JSON, all errors the ``{"ok": false}`` envelope):

* ``POST /query`` -- a single v2 wire dict (queries *and* appends: the
  body's ``"op"`` dispatches, exactly like ``run_dict``), or a list of
  query dicts answered through the batched executor in one
  all-or-nothing engine pass.  Successful query responses are
  edge-cached (body-hash keyed; ``X-Cache: hit|stale|miss``); appends
  bypass (``X-Cache: bypass``).
* ``POST /append`` -- the explicit write route; ``{"v": 2, "op":
  "append"}`` are filled in so a client can POST just ``{"rows": ...,
  "dataset": ...}``.
* ``POST /materialize`` -- pin a query as a materialized view;
  ``{"v": 2, "op": "materialize"}`` are filled in the same way.
  Management ops (this one, and ``views``/``drop_view`` through the
  unified ``/query`` route) always bypass the edge cache: their
  responses change without a dataset-version bump.
* ``GET /views`` -- every cached view (filtered + materialized) of a
  dataset, with hit counts, versions, and staleness
  (``?dataset=name`` selects one; optional with a sole dataset).
* ``GET /stats`` -- server counters + edge-cache telemetry + the
  tiered-cache stats, the materialized-view tier's ``mv`` block, and
  per-dataset versions.
* ``GET /healthz`` -- liveness (always 200 once the socket is up).
* ``GET /datasets`` -- the catalog (every dataset's ``describe()``).

The server owns no query semantics: an HTTP answer is byte-identical to
the ``service.run_dict`` envelope for the same payload, which is what
``tests/server/test_concurrency.py`` gates under concurrent clients.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from collections.abc import Callable, Mapping
from urllib.parse import parse_qs

from repro.api.errors import (
    BAD_REQUEST,
    NOT_FOUND,
    ApiError,
    error_envelope,
    http_status,
)
from repro.api.request import WIRE_VERSION
from repro.api.service import WIRE_OPS, GeoService, WireOp
from repro.server.edge import EdgeCache, body_key

#: Largest accepted request body (a 1M-row append is ~100 MB of JSON;
#: anything bigger should arrive as several batches).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: The unified route: any op, or a list of queries as one batch.
QUERY_PATH = "/query"

#: The wire ops with a dedicated route, keyed by it (``"POST /append"``).
ROUTED_OPS: dict[str, WireOp] = {
    wire_op.route: wire_op for wire_op in WIRE_OPS.values() if wire_op.route
}

#: The server's own GET routes: path -> the 200 body it answers.
SERVER_ROUTES: dict[str, Callable[["GeoHTTPServer"], dict]] = {
    "/healthz": lambda server: {"ok": True, "status": "ok", "datasets": len(server.service)},
    "/stats": lambda server: server.stats_payload(),
    "/datasets": lambda server: dict(server.service.describe(), ok=True),
}

_JSON = "application/json"


class ServerCounters:
    """Thread-safe request counters surfaced by ``GET /stats``."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._started = time.monotonic()
        self.requests = 0
        self.errors = 0
        self.by_route: dict[str, int] = {}

    def record(self, route: str, status: int) -> None:
        with self._lock:
            self.requests += 1
            self.by_route[route] = self.by_route.get(route, 0) + 1
            if status >= 400:
                self.errors += 1

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "uptime_s": time.monotonic() - self._started,
                "requests": self.requests,
                "errors": self.errors,
                "by_route": dict(sorted(self.by_route.items())),
            }


class WireHandler(BaseHTTPRequestHandler):
    """One request: parse, route, respond with an envelope."""

    server: "GeoHTTPServer"
    protocol_version = "HTTP/1.1"  # keep-alive, so load clients reuse sockets

    # -- plumbing ----------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib name
        if self.server.verbose:  # pragma: no cover - log formatting
            super().log_message(format, *args)

    def _respond(
        self,
        status: int,
        payload: object = None,
        body: bytes | None = None,
        x_cache: str | None = None,
        route: str | None = None,
    ) -> None:
        if body is None:
            body = json.dumps(payload).encode()
        try:
            self.send_response(status)
            self.send_header("Content-Type", _JSON)
            self.send_header("Content-Length", str(len(body)))
            if x_cache is not None:
                self.send_header("X-Cache", x_cache)
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover - client gone
            self.close_connection = True
        if route is not None:
            self.server.counters.record(route, status)

    def _fail(self, status: int, code: str, message: str, route: str) -> None:
        # The transport's own failures (bad JSON, unknown route) travel
        # as the exact same envelope the service emits.
        self._respond(status, error_envelope(ApiError(code, message)), route=route)

    def _read_body(self) -> bytes | None:
        length = self.headers.get("Content-Length")
        if length is None:
            self._fail(400, BAD_REQUEST, "request needs a Content-Length body", "POST")
            return None
        try:
            size = int(length)
        except ValueError:
            size = -1
        if size < 0 or size > MAX_BODY_BYTES:
            # The body is left unread, so the socket cannot carry
            # another request: answer and close.
            self.close_connection = True
            message = (
                f"Content-Length {length!r} is not a non-negative integer"
                if size < 0
                else f"body of {size} bytes exceeds the {MAX_BODY_BYTES}-byte limit; "
                "split the payload into batches"
            )
            self._fail(400, BAD_REQUEST, message, "POST")
            return None
        return self.rfile.read(size)

    # -- routes ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        path, _, query = self.path.partition("?")
        path = path.rstrip("/") or "/"
        route = f"GET {path}"
        page = SERVER_ROUTES.get(path)
        if page is not None:
            self._respond(200, page(self.server), route=route)
            return
        wire_op = ROUTED_OPS.get(route)
        if wire_op is None:
            self._fail(404, NOT_FOUND, f"no route {route}", "GET <unknown>")
            return
        payload = {"v": WIRE_VERSION, "op": wire_op.name}
        name = parse_qs(query).get("dataset", [None])[0]
        if name:
            payload["dataset"] = name
        status, body, _ = self.server.execute(payload)
        self._respond(status, body=body, route=route)

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        path = self.path.split("?", 1)[0].rstrip("/")
        route = f"POST {path}"
        wire_op = ROUTED_OPS.get(route)
        if wire_op is None and path != QUERY_PATH:
            self._fail(404, NOT_FOUND, f"no route {route}", "POST <unknown>")
            return
        raw = self._read_body()
        if raw is None:
            return
        try:
            payload = json.loads(raw)
        except ValueError as error:
            self._fail(400, BAD_REQUEST, f"body is not valid JSON: {error}", route)
            return
        if wire_op is None:
            self._handle_query(payload, raw, route)
            return
        op = wire_op.name
        if not isinstance(payload, Mapping):
            self._fail(400, BAD_REQUEST, f"{op} body must be a JSON object", route)
            return
        # The route already says what the operation is; fill the
        # envelope fields in so curl bodies stay minimal.
        payload = {"v": WIRE_VERSION, "op": op, **payload}
        if payload["op"] != op:
            self._fail(400, BAD_REQUEST, f"{route} body cannot override 'op'", route)
            return
        status, body, _ = self.server.execute(payload)
        self._respond(status, body=body, x_cache="bypass", route=route)

    def _handle_query(self, payload: object, raw: bytes, route: str) -> None:
        if isinstance(payload, Mapping) and payload.get("op", "query") != "query":
            # Writes and view-management ops through the unified route
            # bypass the edge exactly like their dedicated routes: a
            # write response is nonsense to cache, and a views/drop_view
            # answer changes without any dataset-version bump (the edge
            # invalidates on versions alone).
            status, body, _ = self.server.execute(payload)
            self._respond(status, body=body, x_cache="bypass", route=route)
            return
        edge = self.server.edge
        if edge is None:
            status, body, _ = self.server.execute(payload)
            self._respond(status, body=body, route=route)
            return
        key = body_key(QUERY_PATH, raw)
        state, entry = edge.lookup(key, self.server.service.versions())
        if entry is not None:
            if state == "stale":
                self.server.kick_revalidation(key, payload)
            self._respond(entry.status, body=entry.body, x_cache=state, route=route)
            return
        status, body, cacheable = self.server.execute(payload)
        if cacheable:
            # Version snapshot from *before* execution: if an append
            # lands mid-flight the stored snapshot is already behind the
            # post-append registry and the entry self-invalidates on its
            # first lookup -- never the stale direction.
            edge.store(key, body, status, self.server.service.versions())
        self._respond(status, body=body, x_cache="miss", route=route)


class GeoHTTPServer(ThreadingHTTPServer):
    """The serving process: a :class:`GeoService` behind seven routes.

    ``port=0`` binds an ephemeral port (tests; read :attr:`port` after
    construction).  ``threads`` bounds *concurrent request handling*
    with a semaphore (connections above the bound queue inside the
    kernel accept backlog); ``None`` leaves it unbounded, the stdlib
    default.  ``edge`` is the response cache (``None`` disables edge
    caching entirely; every response is computed).

    Use :meth:`start`/:meth:`stop` for a background server (tests,
    examples, benchmarks) or :func:`serve` for a foreground
    process with signal handling.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        service: GeoService,
        host: str = "127.0.0.1",
        port: int = 0,
        edge: EdgeCache | None = None,
        threads: int | None = None,
        verbose: bool = False,
    ) -> None:
        super().__init__((host, port), WireHandler)
        self.service = service
        self.edge = edge
        self.verbose = verbose
        self.counters = ServerCounters()
        self._slots = threading.BoundedSemaphore(threads) if threads else None
        self._thread: threading.Thread | None = None

    # -- request execution (shared by handler + revalidation) ---------------

    def execute(self, payload: object) -> tuple[int, bytes, bool]:
        """Run one parsed ``/query``-shaped payload through the service;
        returns ``(status, body bytes, cacheable)``.

        A list is the batched form: every member answers through one
        ``run_batch_dict`` engine pass and the HTTP status is 200 with
        per-member envelopes.  The engine pass is all-or-nothing (a
        malformed member fails every sibling with an error envelope --
        ``run_batch_dict``'s retry-safety contract), and only fully
        successful responses are cacheable.
        """
        if isinstance(payload, (list, tuple)):
            envelopes = self.service.run_batch_dict(list(payload))
            ok = all(envelope.get("ok") for envelope in envelopes)
            return 200, json.dumps(envelopes).encode(), ok
        envelope = self.service.run_dict(payload)
        if envelope.get("ok"):
            return 200, json.dumps(envelope).encode(), True
        code = envelope.get("error", {}).get("code", "internal")
        return http_status(code), json.dumps(envelope).encode(), False

    def kick_revalidation(self, key: str, payload: object) -> None:
        """Stale-while-revalidate: replace ``key`` in the background
        with a freshly computed response (single-flight per key)."""
        edge = self.edge
        if edge is None:  # pragma: no cover - only called with an edge
            return

        def recompute() -> None:
            versions = self.service.versions()
            status, body, cacheable = self.execute(payload)
            if cacheable:
                edge.store(key, body, status, versions)

        edge.revalidate(key, recompute)

    def stats_payload(self) -> dict:
        """The ``GET /stats`` body: server counters, edge telemetry,
        tiered-cache stats, the materialized-view tier's counters,
        dataset versions."""
        service_stats = self.service.stats()
        return {
            "ok": True,
            "server": self.counters.snapshot(),
            "edge": self.edge.stats() if self.edge is not None else None,
            "cache": service_stats["cache"],
            "mv": service_stats["mv"],
            "datasets": service_stats["datasets"],
        }

    # -- concurrency bound ---------------------------------------------------

    def process_request_thread(self, request, client_address) -> None:  # noqa: ANN001
        if self._slots is None:
            super().process_request_thread(request, client_address)
            return
        with self._slots:
            super().process_request_thread(request, client_address)

    # -- lifecycle -----------------------------------------------------------

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def url(self) -> str:
        host = self.server_address[0]
        return f"http://{host}:{self.port}"

    def start(self) -> "GeoHTTPServer":
        """Serve on a background thread (returns immediately)."""
        if self._thread is not None:
            raise RuntimeError("server is already running")
        self._thread = threading.Thread(
            target=self.serve_forever, name=f"geoblocks-http-{self.port}", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Graceful shutdown: stop accepting, let in-flight handlers
        finish (they hold the dataset read/write locks, never the
        accept loop), close the socket."""
        self.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None
        self.server_close()

    def __enter__(self) -> "GeoHTTPServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve(
    service: GeoService,
    host: str = "127.0.0.1",
    port: int = 8080,
    edge: EdgeCache | None = None,
    threads: int | None = None,
    verbose: bool = True,
) -> None:
    """Run a foreground server until SIGINT/SIGTERM, then shut down
    gracefully (the ``python -m repro.server`` entry point)."""
    import signal

    server = GeoHTTPServer(
        service, host=host, port=port, edge=edge, threads=threads, verbose=verbose
    )

    def handle(signum, frame) -> None:  # noqa: ANN001 - signal signature
        print(f"\nrepro.server: received {signal.Signals(signum).name}, shutting down...")
        # shutdown() must not run on the serve_forever thread; hand it off.
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = {
        signal.SIGINT: signal.signal(signal.SIGINT, handle),
        signal.SIGTERM: signal.signal(signal.SIGTERM, handle),
    }
    try:
        print(f"repro.server: serving {len(service)} dataset(s) on {server.url}")
        server.serve_forever()
    finally:
        server.server_close()
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        print("repro.server: closed")
