"""repro.server — the HTTP serving layer over :class:`BoundService`.

The runtime subsystem's promise — "an HTTP front-end only needs to
JSON-decode requests into :class:`BoundQuery` objects and call
:meth:`BoundService.submit`" — made real, stdlib-only:

* :mod:`repro.server.protocol` — the versioned ``/v1`` JSON wire schema
  (shared by server and client, structured errors, graph refs as family
  specs / inline edge lists / fingerprints);
* :mod:`repro.server.app` — the WSGI application (``POST /v1/bounds``,
  ``GET /v1/stats``, ``GET /healthz``, ``GET /metrics``);
* :mod:`repro.server.runner` — the threaded stdlib server with admission
  control (bounded in-flight solves + queue, 429 on overload) and
  in-flight coalescing of identical queries, plus the pre-forked
  :class:`ServerFleet` (``--workers N``): shared-socket accept sharding,
  consistent-hash 307 routing to each graph's owning worker, and worker
  supervision/respawn;
* :mod:`repro.server.client` — a thin stdlib keep-alive client that
  follows shard redirects.

``python -m repro serve`` boots the whole stack from the CLI.
"""

from repro.obs.metrics import MetricsRegistry
from repro.server.app import BoundsApp, ServerOverloadedError
from repro.server.client import BoundsClient, ServerError
from repro.server.protocol import PROTOCOL_VERSION, GraphRegistry, ProtocolError
from repro.server.runner import (
    SERVE_WORKERS_ENV_VAR,
    AdmissionController,
    BoundServer,
    FleetConfig,
    QueryCoalescer,
    ServerFleet,
    ShardInfo,
    ShardRing,
)

__all__ = [
    "AdmissionController",
    "BoundServer",
    "BoundsApp",
    "BoundsClient",
    "FleetConfig",
    "GraphRegistry",
    "MetricsRegistry",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "QueryCoalescer",
    "SERVE_WORKERS_ENV_VAR",
    "ServerError",
    "ServerFleet",
    "ServerOverloadedError",
    "ShardInfo",
    "ShardRing",
]
