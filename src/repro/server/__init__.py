"""The HTTP serving tier: a threaded wire server with an edge cache.

This package turns a :class:`~repro.api.GeoService` into a process that
listens on a socket -- the layer the GeoBlocks paper motivates with
interactive dashboards serving many concurrent users:

* :class:`GeoHTTPServer` -- stdlib :class:`~http.server.ThreadingHTTPServer`
  exposing the v2 wire protocol: ``POST /query`` (single dicts and
  batches through ``run_dict``/``run_batch_dict``), ``POST /append``,
  ``GET /stats``, ``GET /healthz``, ``GET /datasets``; ``ApiError``
  codes map onto HTTP statuses through one table
  (:data:`repro.api.errors.HTTP_STATUS`), and bodies are always the
  same envelopes in-process callers see;
* :class:`EdgeCache` -- the body-hash-keyed response cache in front of
  the service: TTL + stale-while-revalidate freshness, invalidated by
  the same dataset version bump that invalidates the result tier, with
  ``X-Cache: hit|stale|miss|bypass`` on every ``/query`` response;
* :class:`GeoClient` -- a keep-alive stdlib client (one per thread;
  the integration tests and geobench drive it);
* ``python -m repro.server`` -- the CLI: ``--port``, ``--datasets
  name=path``, ``--demo``, ``--cache-ttl``, ``--threads``, graceful
  SIGINT/SIGTERM shutdown.

Quickstart::

    from repro.api import Dataset, GeoService
    from repro.server import EdgeCache, GeoHTTPServer

    service = GeoService()
    service.register("taxi", Dataset.build(base, level=15))
    with GeoHTTPServer(service, port=8080, edge=EdgeCache(ttl=5.0)) as server:
        ...  # curl -XPOST localhost:8080/query -d '{"v":2,"region":...}'

Answers over HTTP are byte-identical to ``service.run_dict`` for the
same payload -- the server adds transport, caching, and telemetry, not
a second query semantics; ``tests/server/test_concurrency.py`` gates
exactly that at 1, 4 and 16 concurrent clients.
"""

from repro.server.client import GeoClient, WireReply
from repro.server.edge import EdgeCache, EdgeEntry, body_key
from repro.server.http import GeoHTTPServer, ServerCounters, WireHandler, serve

__all__ = [
    "EdgeCache",
    "EdgeEntry",
    "GeoClient",
    "GeoHTTPServer",
    "ServerCounters",
    "WireHandler",
    "WireReply",
    "body_key",
    "serve",
]
