"""The HTTP application exposing :class:`BoundService`: routing, errors, metrics.

Endpoints (see :mod:`repro.server.protocol` for the ``/v1`` wire schema):

=======  ===================  ===============================================
method   path                 what it serves
=======  ===================  ===============================================
POST     ``/v1/bounds``       a batch of bound queries -> a batch of answers
GET      ``/v1/stats``        service/cache/admission counters
GET      ``/v1/fleet/stats``  per-worker rollup + fleet totals (fleet only)
GET      ``/healthz``         liveness: ``{"status": "ok", ...}``
GET      ``/metrics``         Prometheus text exposition; on a fleet's
                              *shared* port, the merged all-worker view
=======  ===================  ===============================================

:class:`BoundsApp` knows no sockets: :mod:`repro.server.runner`'s request
handler reads a request's method, path and body off the connection and
calls the app with them, and writes the ``(status, headers, body)`` it
returns.  A ``/v1/bounds`` batch is one
:meth:`~repro.runtime.service.BoundService.submit` call: admission gates
the service's cold solves, not requests, and the app only reports the
controller (duck-typed: ``stats()``, ``rejected``, ``in_flight``,
``queued``) and maps its :class:`ServerOverloadedError` to 429.
:class:`repro.server.runner.BoundServer` wires both together.

Error contract: every non-2xx response body is the structured error object
of :func:`repro.server.protocol.encode_error` — protocol violations map to
their declared status, an admission rejection (cold work only) maps to
429 with a ``Retry-After`` header, service-level ``ValueError`` (unknown
normalization/method, over-large ``k``) maps to 400, and anything
unexpected to 500.
"""

from __future__ import annotations

import json
import os
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro import obs
from repro.obs.metrics import (
    MetricsRegistry,
    global_registry,
    latency_quantiles,
    merge_expositions,
    parse_metric,
)
from repro.runtime.service import BoundService
from repro.server.client import BoundsClient, ServerError
from repro.server.protocol import (
    PROTOCOL_VERSION,
    GraphRegistry,
    ProtocolError,
    decode_bounds_request,
    encode_answers,
    encode_error,
)
from repro.utils.logging import get_logger

__all__ = [
    "BoundsApp",
    "ServerOverloadedError",
    "MAX_BODY_BYTES",
    "SLOW_QUERY_ENV_VAR",
    "FLEET_SCRAPE_TIMEOUT_SECONDS",
]

#: Per-sibling timeout when an aggregating worker scrapes the fleet's
#: direct ports; an unreachable worker is reported down, never waited on.
FLEET_SCRAPE_TIMEOUT_SECONDS = 2.0

#: Requests slower than this many seconds are logged (and counted in
#: ``repro_slow_queries_total``); unset/unparsable disables the log.
SLOW_QUERY_ENV_VAR = "REPRO_SLOW_QUERY_SECONDS"

_SLOW_QUERIES = global_registry().counter(
    "repro_slow_queries_total",
    "HTTP requests slower than the REPRO_SLOW_QUERY_SECONDS threshold.",
)


def _slow_query_threshold() -> Optional[float]:
    raw = os.environ.get(SLOW_QUERY_ENV_VAR)
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        return None
    return value if value >= 0 else None


def _metric_or_zero(text: str, name: str, **labels: str) -> float:
    """One summed metric from an exposition, 0 when absent.

    The fleet rollup reads each worker's fields with this: a worker that
    has not recorded a given metric yet (no lease activity, no slow query)
    contributes zero rather than failing the rollup.  Integral values
    come back as ``int`` for clean JSON.
    """
    try:
        value = parse_metric(text, name, **labels)
    except KeyError:
        return 0
    return int(value) if float(value).is_integer() else value


#: Request bodies beyond this are rejected before JSON parsing (an inline
#: edge list at this size is ~4M edges — send an .npz to the operator
#: instead of a JSON document to the server).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: The per-worker fields of ``/v1/fleet/stats``: (field, metric, labels).
_ROLLUP_FIELDS = (
    ("up", "repro_worker_up", {}),
    ("restarts", "repro_worker_restarts", {}),
    ("in_flight", "repro_in_flight_solves", {}),
    ("queued", "repro_queued_solves", {}),
    ("admission_rejections", "repro_admission_rejections_total", {}),
    ("eigensolves", "repro_eigensolves_total", {}),
    ("cache_hits", "repro_cache_hits_total", {}),
    ("lease_leaders", "repro_lease_total", {"role": "leader"}),
    ("lease_followers", "repro_lease_total", {"role": "follower"}),
    ("http_requests", "repro_http_requests_total", {}),
    ("slow_queries", "repro_slow_queries_total", {}),
)

#: Verbs allowed as metric label values; anything else (clients can send
#: arbitrary method tokens) is labelled "other" so request metrics cannot
#: grow one label series per invented verb.
_LABELLED_METHODS = frozenset(
    {"GET", "HEAD", "POST", "PUT", "DELETE", "OPTIONS", "PATCH"}
)


class ServerOverloadedError(RuntimeError):
    """Load shed by admission control; mapped to 429 + ``Retry-After``.

    Defined here (not in :mod:`repro.server.runner`, which raises it) so
    the app can translate it without importing the runner's policies.
    """

    def __init__(self, message: str, retry_after_seconds: float) -> None:
        super().__init__(message)
        self.retry_after_seconds = retry_after_seconds


class _Request(NamedTuple):
    """What a route handler sees of one request."""

    content_length: int
    body: bytes
    shared: bool


class BoundsApp:
    """The per-request entry point serving one :class:`BoundService`.

    Parameters
    ----------
    service:
        The bound service every ``/v1/bounds`` batch is submitted to.
    admission:
        The admission controller gating the service's cold solves; the app
        reports it in ``/v1/stats`` and ``/metrics``.
    sharding:
        Optional :class:`repro.server.runner.ShardInfo` (duck-typed:
        ``worker_id``, ``num_workers``, ``url_for(id)``, ``describe()``).
        When set, this app is one worker of a fleet: it stamps
        ``X-Repro-Worker`` on every response, and its shared socket
        answers ``/metrics`` and ``/v1/fleet/stats`` for the whole fleet.
        It answers every ``/v1/bounds`` batch it accepts itself.

    Request metrics and the service-counter passthroughs live in a private
    registry; ``{"fingerprint": ...}`` graph refs resolve against a
    private LRU of inline-submitted graphs.
    """

    def __init__(
        self,
        service: BoundService,
        admission,
        sharding=None,
    ) -> None:
        self._service = service
        self._metrics = MetricsRegistry()
        self._graphs = GraphRegistry()
        self._admission = admission
        self._sharding = sharding
        self._slow_query_seconds = _slow_query_threshold()
        self._slow_log = get_logger("server.slow")
        self._started = time.time()
        self._routes = {
            "/v1/bounds": ("bounds", self._handle_bounds, {"POST"}),
            "/v1/stats": ("stats", self._handle_stats, {"GET"}),
            "/v1/fleet/stats": ("fleet_stats", self._handle_fleet_stats, {"GET"}),
            "/healthz": ("healthz", self._handle_healthz, {"GET"}),
            "/metrics": ("metrics", self._handle_metrics, {"GET"}),
        }

        m = self._metrics
        self._requests_total = m.counter(
            "repro_http_requests_total",
            "HTTP requests served, by endpoint, method and status.",
            labelnames=("endpoint", "method", "status"),
        )
        self._request_seconds = m.histogram(
            "repro_http_request_seconds",
            "HTTP request latency in seconds, by endpoint.",
            labelnames=("endpoint",),
        )
        self._queries_total = m.counter(
            "repro_queries_total",
            "Bound queries received over HTTP, by method and normalization.",
            labelnames=("method", "normalization"),
        )
        counters: Callable[[], Dict[str, int]] = service.counters
        m.counter(
            "repro_eigensolves_total",
            "Eigensolves the service actually performed (cache misses); a "
            "warm store keeps this at 0.",
            callback=lambda: counters()["cache_misses"],
        )
        m.counter(
            "repro_flow_calls_total",
            "Max-flow solves the convex min-cut baseline actually "
            "performed; a warm cut store keeps this at 0.",
            callback=lambda: counters()["flow_calls"],
        )
        m.counter(
            "repro_cache_hits_total",
            "Spectrum lookups answered without an eigensolve.",
            callback=lambda: counters()["cache_hits"],
        )
        m.counter(
            "repro_store_hits_total",
            "Spectrum lookups answered from the persistent store tier.",
            callback=lambda: counters()["store_hits"],
        )
        m.counter(
            "repro_service_queries_total",
            "Queries answered by the underlying BoundService.",
            callback=lambda: counters()["queries_served"],
        )
        m.counter(
            "repro_batch_deduped_total",
            "Queries served for free by batch-level dedup in submit().",
            callback=lambda: counters()["deduped"],
        )
        m.counter(
            "repro_admission_rejections_total",
            "Cold solves shed with 429 by admission control.",
            callback=lambda: admission.rejected,
        )
        m.gauge(
            "repro_in_flight_solves",
            "Cold solves currently admitted.",
            callback=lambda: admission.in_flight,
        )
        m.gauge(
            "repro_queued_solves",
            "Cold solves waiting for an admission slot.",
            callback=lambda: admission.queued,
        )

    # ------------------------------------------------------------------
    # per-request entry point
    # ------------------------------------------------------------------
    def __call__(
        self,
        method: str,
        path: str,
        content_length: int,
        body: bytes,
        shared: bool = False,
    ) -> Tuple[int, List[Tuple[str, str]], bytes]:
        """Answer one request: ``(status, headers, body)``.

        ``path`` excludes the query string.  ``content_length`` is the
        declared ``Content-Length`` (-1 when unparsable); ``body`` is what
        the caller read of it, empty when the declaration was out of
        range.  ``shared`` marks arrival on a fleet's shared socket, where
        ``/metrics`` answers for the whole fleet.
        """
        start = time.perf_counter()
        request = _Request(content_length, body, shared)
        endpoint, handler, allowed = self._route(path)
        extra_headers: List[Tuple[str, str]] = []
        with obs.span("http_request", endpoint=endpoint, method=method) as request_span:
            if handler is None:
                status, content = 404, encode_error(f"no such endpoint: {path}", "not-found")
            elif method not in allowed:
                extra_headers.append(("Allow", ", ".join(sorted(allowed))))
                status, content = 405, encode_error(
                    f"{method} is not supported on {path}", "method-not-allowed"
                )
            else:
                try:
                    status, content, extra_headers = handler(request)
                except ProtocolError as exc:
                    status, content = exc.status, encode_error(exc.message, exc.code, exc.detail)
                except ServerOverloadedError as exc:
                    retry_after = max(1, int(round(exc.retry_after_seconds)))
                    extra_headers = [("Retry-After", str(retry_after))]
                    status, content = 429, encode_error(str(exc), "overloaded")
                except ValueError as exc:
                    status, content = 400, encode_error(str(exc), "invalid-query")
                except Exception as exc:  # noqa: BLE001 - the server must answer
                    status, content = 500, encode_error(
                        f"{type(exc).__name__}: {exc}", "internal-error"
                    )
            request_span.set_attr(status_code=status)
        if isinstance(content, (dict, list)):
            raw = json.dumps(content).encode("utf-8")
            content_type = "application/json"
        else:
            raw = content if isinstance(content, bytes) else str(content).encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        elapsed = time.perf_counter() - start
        method_label = method if method in _LABELLED_METHODS else "other"
        self._requests_total.inc(
            endpoint=endpoint, method=method_label, status=str(status)
        )
        self._request_seconds.observe(elapsed, endpoint=endpoint)
        headers = [
            ("Content-Type", content_type),
            ("Content-Length", str(len(raw))),
        ] + list(extra_headers)
        if self._sharding is not None:
            headers.append(("X-Repro-Worker", str(self._sharding.worker_id)))
        if request_span.trace_id is not None:
            headers.append(("X-Repro-Trace-Id", request_span.trace_id))
        if self._slow_query_seconds is not None and elapsed >= self._slow_query_seconds:
            _SLOW_QUERIES.inc()
            self._slow_log.warning(
                "slow query: %s %s -> %d in %.3fs (threshold %.3fs, trace_id=%s)",
                method,
                path,
                status,
                elapsed,
                self._slow_query_seconds,
                request_span.trace_id or "-",
            )
        return status, headers, raw

    def _route(self, path: str):
        return self._routes.get(path, ("unknown", None, set()))

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------
    def _handle_healthz(self, request: _Request):
        body = {
            "status": "ok",
            "protocol_version": PROTOCOL_VERSION,
            "uptime_seconds": round(time.time() - self._started, 3),
        }
        return 200, body, []

    def _handle_metrics(self, request: _Request):
        # On a fleet's *shared* socket, whichever worker wins the accept
        # answers for the whole fleet: its own exposition merged with a
        # scrape of every sibling's direct port.  Direct-port requests
        # always render locally — that is what the aggregation scrapes,
        # so recursion is structurally impossible.
        if request.shared:
            return 200, self._merged_metrics_text(), []
        return 200, self._local_metrics_text(), []

    def _local_metrics_text(self) -> str:
        # Per-server metrics (request counters, callback gauges) plus the
        # process-global registry (eigensolve/cache/flow instrumentation
        # from repro.obs) in one exposition.
        return self._metrics.render() + global_registry().render()

    def _handle_stats(self, request: _Request):
        body: Dict[str, object] = {
            "version": PROTOCOL_VERSION,
            "uptime_seconds": round(time.time() - self._started, 3),
            "graphs_registered": len(self._graphs),
            "service": self._service.stats(),
            "metrics": self._metrics.snapshot(),
            "latency_quantiles": latency_quantiles(),
            "admission": self._admission.stats(),
        }
        if self._sharding is not None:
            body["fleet"] = self._sharding.describe()
        return 200, body, []

    # ------------------------------------------------------------------
    # fleet aggregation
    # ------------------------------------------------------------------
    def _merged_metrics_text(self) -> str:
        """The merged all-worker exposition served on the shared port.

        The local worker renders in-process; each sibling's direct-port
        ``/metrics`` is scraped with :data:`FLEET_SCRAPE_TIMEOUT_SECONDS`
        to answer.  Every sample keeps its ``worker=<id>`` process label,
        so label-blind sums over the aggregate equal hand-summing the
        direct ports.  A worker that cannot be scraped contributes a
        synthetic ``repro_worker_up{worker="<id>"} 0`` sample instead of
        silently vanishing from the exposition.
        """
        texts: List[str] = []
        for worker_id in range(self._sharding.num_workers):
            if worker_id == self._sharding.worker_id:
                texts.append(self._local_metrics_text())
                continue
            # BoundsClient speaks plain http.client, which (unlike urllib)
            # never sends a loopback scrape through an ``http_proxy``.
            url = self._sharding.url_for(worker_id)
            try:
                with BoundsClient(url, timeout=FLEET_SCRAPE_TIMEOUT_SECONDS) as sibling:
                    texts.append(sibling.metrics_text())
            except (ServerError, ValueError):
                texts.append(
                    "# HELP repro_worker_up 1 for each live serving worker "
                    "process.\n"
                    "# TYPE repro_worker_up gauge\n"
                    f'repro_worker_up{{worker="{worker_id}"}} 0\n'
                )
        return merge_expositions(texts)

    def _handle_fleet_stats(self, request: _Request):
        """Per-worker rows and fleet totals, read off the merged exposition.

        Each worker's fields are its ``worker=<id>`` samples of the same
        text ``/metrics`` serves on the shared port, so the rollup cannot
        disagree with it; ``repro_worker_up == 0`` marks a worker that
        could not be scraped.
        """
        if self._sharding is None:
            raise ProtocolError(
                "this server is not part of a fleet; /v1/fleet/stats is "
                "only served by --workers N fleets",
                code="not-a-fleet",
                status=404,
            )
        text = self._merged_metrics_text()
        workers: List[Dict[str, object]] = []
        totals = {field: 0 for field, _, _ in _ROLLUP_FIELDS}
        for worker_id in range(self._sharding.num_workers):
            label = str(worker_id)
            reachable = _metric_or_zero(text, "repro_worker_up", worker=label) != 0
            entry: Dict[str, object] = {
                "worker": worker_id,
                "url": self._sharding.url_for(worker_id),
                "reachable": reachable,
            }
            if reachable:
                for field, metric, labels in _ROLLUP_FIELDS:
                    value = _metric_or_zero(text, metric, worker=label, **labels)
                    entry[field] = value
                    totals[field] += value
            workers.append(entry)
        body = {
            "num_workers": self._sharding.num_workers,
            "aggregated_by": self._sharding.worker_id,
            "workers": workers,
            "totals": totals,
            "unreachable": [
                entry["worker"] for entry in workers if not entry["reachable"]
            ],
        }
        return 200, body, []

    def _handle_bounds(self, request: _Request):
        payload = self._read_json_body(request)
        decoded = decode_bounds_request(payload, self._graphs)
        for item in decoded:
            self._queries_total.inc(
                method=item.query.method, normalization=item.query.normalization
            )
        answers = self._service.submit([item.query for item in decoded])
        body = encode_answers(answers, [item.fingerprint for item in decoded])
        return 200, body, []

    def _read_json_body(self, request: _Request) -> object:
        length = request.content_length
        if length < 0:
            raise ProtocolError("invalid Content-Length header")
        if length > MAX_BODY_BYTES:
            raise ProtocolError(
                f"request body of {length} bytes exceeds the {MAX_BODY_BYTES} "
                f"byte ceiling",
                code="body-too-large",
                status=413,
            )
        if not request.body:
            raise ProtocolError("request body is empty; send a JSON object")
        try:
            return json.loads(request.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"malformed JSON body: {exc}", code="malformed-json")
