"""repro.server — the HTTP serving layer over :class:`BoundService`.

The runtime subsystem's promise — "an HTTP front-end only needs to
JSON-decode requests into :class:`BoundQuery` objects and call
:meth:`BoundService.submit`" — made real, stdlib-only:

* :mod:`repro.server.protocol` — the versioned ``/v1`` JSON wire schema
  (shared by server and client, structured errors, graph refs as family
  specs / inline edge lists / fingerprints);
* :mod:`repro.server.app` — the application: routing, structured errors
  and request metrics for ``POST /v1/bounds``, ``GET /v1/stats``,
  ``GET /v1/fleet/stats``, ``GET /healthz`` and ``GET /metrics``;
* :mod:`repro.server.runner` — the transport (one ``http.server`` handler,
  one threaded server class with a graceful drain) and
  :class:`BoundServer`, which adds admission control around the service's
  cold solves (bounded in-flight solves + queue, 429 on overload; warm
  answers never wait); plus the pre-forked :class:`ServerFleet`
  (``--workers N``), whose every worker is a :class:`BoundServer` on two
  sockets (the shared one all workers accept on, and its own direct one)
  answering whatever it accepts over the common store, with worker
  supervision/respawn;
* :mod:`repro.server.client` — a thin stdlib keep-alive client.

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
    ServerFleet,
    ShardInfo,
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
    "SERVE_WORKERS_ENV_VAR",
    "ServerError",
    "ServerFleet",
    "ServerOverloadedError",
    "ShardInfo",
]
