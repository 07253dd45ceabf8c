"""Stdlib WSGI application exposing :class:`BoundService` over HTTP.

Endpoints (see :mod:`repro.server.protocol` for the ``/v1`` wire schema):

=======  ===================  ===============================================
method   path                 what it serves
=======  ===================  ===============================================
POST     ``/v1/bounds``       a batch of bound queries -> a batch of answers
GET      ``/v1/stats``        service/cache/admission/coalescing counters
GET      ``/v1/fleet/stats``  per-worker rollup + fleet totals (fleet only)
GET      ``/healthz``         liveness: ``{"status": "ok", ...}``
GET      ``/metrics``         Prometheus text exposition; on a fleet's
                              *shared* port, the merged all-worker view
=======  ===================  ===============================================

The app is a plain WSGI callable with **no** third-party dependencies and
no opinion about threading: hand it to any WSGI container.  The two
serving policies — admission control and in-flight coalescing — are
injected as duck-typed collaborators (``admission`` with
``slot()``/``stats()``, ``coalescer`` with ``claim``/``resolve``/``fail``/
``stats``); :class:`repro.server.runner.BoundServer` wires the stdlib
implementations in.  Keeping the app policy-free is what lets the test
suite drive overload and coalescing deterministically with stub services.

Error contract: every non-2xx response body is the structured error object
of :func:`repro.server.protocol.encode_error` — protocol violations map to
their declared status, an admission rejection maps to 429 with a
``Retry-After`` header, service-level ``ValueError`` (unknown
normalization/method, over-large ``k``) maps to 400, and anything
unexpected to 500.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
import urllib.request
from contextlib import nullcontext
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.obs.metrics import (
    MetricsRegistry,
    global_registry,
    latency_quantiles,
    merge_expositions,
)
from repro.runtime.service import BoundAnswer, BoundService
from repro.server.protocol import (
    PROTOCOL_VERSION,
    DecodedQuery,
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

_SHARD_REDIRECTS = global_registry().counter(
    "repro_shard_redirects_total",
    "Shared-socket batches redirected (307) to their owning worker.",
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

def _scrape_metric_or_zero(text: str, name: str, **labels: str) -> float:
    """One summed metric from an exposition, 0 when absent.

    The fleet rollup reads each worker's scrape with this: a worker that
    has not registered a given metric yet (no admission controller, no
    lease activity) contributes zero rather than failing the rollup.
    Integral values come back as ``int`` for clean JSON.
    """
    from repro.server.client import parse_metric

    try:
        value = parse_metric(text, name, **labels)
    except KeyError:
        return 0
    return int(value) if float(value).is_integer() else value


#: Request bodies beyond this are rejected before JSON parsing (an inline
#: edge list at this size is ~4M edges — send an .npz to the operator
#: instead of a JSON document to the server).
MAX_BODY_BYTES = 64 * 1024 * 1024

_REASONS = {
    200: "OK",
    307: "Temporary Redirect",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

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


class BoundsApp:
    """The WSGI callable serving one :class:`BoundService`.

    Parameters
    ----------
    service:
        The bound service every ``/v1/bounds`` batch is submitted to.
    metrics:
        Registry the request metrics (and the service-counter passthrough
        gauges) are registered in; defaults to a private one.
    graphs:
        Registry resolving ``{"fingerprint": ...}`` graph refs; defaults
        to a private LRU of inline-submitted graphs.
    admission:
        Optional admission controller; only ``POST /v1/bounds`` batches
        that must actually solve pass through it.
    coalescer:
        Optional in-flight coalescer for identical concurrent queries.
    sharding:
        Optional :class:`repro.server.runner.ShardInfo` (duck-typed:
        ``worker_id``, ``owner(key)``, ``url_for(id)``, ``describe()``).
        When set, this app is one worker of a fleet: it stamps
        ``X-Repro-Worker`` on every response, and shared-socket
        ``/v1/bounds`` batches wholly owned by a *different* worker are
        307-redirected to that worker's direct port so its memory tier
        stays hot for its shard.
    solve_timeout_seconds:
        Ceiling on waiting for another request's in-flight solve.
    """

    def __init__(
        self,
        service: BoundService,
        metrics: Optional[MetricsRegistry] = None,
        graphs: Optional[GraphRegistry] = None,
        admission=None,
        coalescer=None,
        sharding=None,
        solve_timeout_seconds: float = 300.0,
    ) -> None:
        self._service = service
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._graphs = graphs if graphs is not None else GraphRegistry()
        self._admission = admission
        self._coalescer = coalescer
        self._sharding = sharding
        self._solve_timeout = solve_timeout_seconds
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
        if admission is not None:
            m.counter(
                "repro_admission_rejections_total",
                "Requests shed with 429 by admission control.",
                callback=lambda: admission.rejected,
            )
            m.gauge(
                "repro_in_flight_solves",
                "Solve batches currently admitted.",
                callback=lambda: admission.in_flight,
            )
            m.gauge(
                "repro_queued_solves",
                "Solve batches waiting for an admission slot.",
                callback=lambda: admission.queued,
            )
        if coalescer is not None:
            m.counter(
                "repro_coalesced_queries_total",
                "Queries served by waiting on another request's identical "
                "in-flight solve.",
                callback=lambda: coalescer.coalesced,
            )
            m.counter(
                "repro_coalesce_leader_solves_total",
                "Queries that led a coalesced in-flight solve.",
                callback=lambda: coalescer.leaders,
            )

    # ------------------------------------------------------------------
    # WSGI entry point
    # ------------------------------------------------------------------
    def __call__(self, environ, start_response):
        method = environ.get("REQUEST_METHOD", "GET")
        path = environ.get("PATH_INFO", "/")
        start = time.perf_counter()
        endpoint, handler, allowed = self._route(path)
        extra_headers: List[Tuple[str, str]] = []
        with obs.span("http_request", endpoint=endpoint, method=method) as request_span:
            if handler is None:
                status, body = 404, encode_error(f"no such endpoint: {path}", "not-found")
            elif method not in allowed:
                extra_headers.append(("Allow", ", ".join(sorted(allowed))))
                status, body = 405, encode_error(
                    f"{method} is not supported on {path}", "method-not-allowed"
                )
            else:
                try:
                    status, body, extra_headers = handler(environ)
                except ProtocolError as exc:
                    status, body = exc.status, encode_error(exc.message, exc.code, exc.detail)
                except ServerOverloadedError as exc:
                    retry_after = max(1, int(round(exc.retry_after_seconds)))
                    extra_headers = [("Retry-After", str(retry_after))]
                    status, body = 429, encode_error(str(exc), "overloaded")
                except TimeoutError as exc:
                    status, body = 503, encode_error(str(exc), "solve-timeout")
                except ValueError as exc:
                    status, body = 400, encode_error(str(exc), "invalid-query")
                except Exception as exc:  # noqa: BLE001 - the server must answer
                    status, body = 500, encode_error(
                        f"{type(exc).__name__}: {exc}", "internal-error"
                    )
            request_span.set_attr(status_code=status)
        if isinstance(body, (dict, list)):
            raw = json.dumps(body).encode("utf-8")
            content_type = "application/json"
        else:
            raw = body if isinstance(body, bytes) else str(body).encode("utf-8")
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
        start_response(f"{status} {_REASONS.get(status, 'Unknown')}", headers)
        return [raw]

    def _route(self, path: str):
        return self._routes.get(path, ("unknown", None, set()))

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------
    def _handle_healthz(self, environ):
        body = {
            "status": "ok",
            "protocol_version": PROTOCOL_VERSION,
            "uptime_seconds": round(time.time() - self._started, 3),
        }
        return 200, body, []

    def _handle_metrics(self, environ):
        # On a fleet's *shared* socket (tagged ``repro.shard_redirect``
        # like the bounds redirects), whichever worker wins the accept
        # answers for the whole fleet: its own exposition merged with a
        # scrape of every sibling's direct port.  Direct-port requests
        # always render locally — that is what the aggregation scrapes,
        # so recursion is structurally impossible.
        if self._sharding is not None and environ.get("repro.shard_redirect"):
            return 200, self._fleet_metrics_text(), []
        return 200, self._local_metrics_text(), []

    def _local_metrics_text(self) -> str:
        # Per-server metrics (request counters, callback gauges) plus the
        # process-global registry (eigensolve/cache/flow instrumentation
        # from repro.obs) in one exposition.
        text = self._metrics.render()
        shared = global_registry()
        if shared is not self._metrics:
            text += shared.render()
        return text

    def _handle_stats(self, environ):
        body: Dict[str, object] = {
            "version": PROTOCOL_VERSION,
            "uptime_seconds": round(time.time() - self._started, 3),
            "graphs_registered": len(self._graphs),
            "service": self._service.stats(),
            "metrics": self._metrics.snapshot(),
            "latency_quantiles": latency_quantiles(),
        }
        if self._admission is not None:
            body["admission"] = self._admission.stats()
        if self._coalescer is not None:
            body["coalescing"] = self._coalescer.stats()
        if self._sharding is not None:
            body["fleet"] = self._sharding.describe()
        return 200, body, []

    # ------------------------------------------------------------------
    # fleet aggregation
    # ------------------------------------------------------------------
    def _scrape_fleet(self) -> List[Dict[str, object]]:
        """Every worker's direct-port ``/metrics`` text (``None`` if down).

        The local worker renders in-process instead of scraping itself
        over HTTP; siblings get :data:`FLEET_SCRAPE_TIMEOUT_SECONDS` each.
        """
        scrapes: List[Dict[str, object]] = []
        for worker_id in range(self._sharding.num_workers):
            url = self._sharding.url_for(worker_id)
            if worker_id == self._sharding.worker_id:
                text: Optional[str] = self._local_metrics_text()
            else:
                try:
                    with urllib.request.urlopen(
                        f"{url}/metrics", timeout=FLEET_SCRAPE_TIMEOUT_SECONDS
                    ) as response:
                        text = response.read().decode("utf-8")
                except (OSError, ValueError):
                    text = None
            scrapes.append({"worker": worker_id, "url": url, "text": text})
        return scrapes

    def _fleet_metrics_text(self) -> str:
        """The merged all-worker exposition served on the shared port.

        Every sample keeps its ``worker=<id>`` process label, so label-
        blind sums over the aggregate equal hand-summing the direct
        ports.  A worker that cannot be scraped contributes a synthetic
        ``repro_worker_up{worker="<id>"} 0`` sample instead of silently
        vanishing from the exposition.
        """
        texts: List[str] = []
        for scrape in self._scrape_fleet():
            if scrape["text"] is not None:
                texts.append(scrape["text"])
            else:
                texts.append(
                    "# HELP repro_worker_up 1 for each live serving worker "
                    "process.\n"
                    "# TYPE repro_worker_up gauge\n"
                    f'repro_worker_up{{worker="{scrape["worker"]}"}} 0\n'
                )
        return merge_expositions(texts)

    def _handle_fleet_stats(self, environ):
        if self._sharding is None:
            raise ProtocolError(
                "this server is not part of a fleet; /v1/fleet/stats is "
                "only served by --workers N fleets",
                code="not-a-fleet",
                status=404,
            )
        rollup_fields = (
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
            ("shard_redirects", "repro_shard_redirects_total", {}),
            ("slow_queries", "repro_slow_queries_total", {}),
        )
        workers: List[Dict[str, object]] = []
        totals = {field: 0 for field, _, _ in rollup_fields}
        for scrape in self._scrape_fleet():
            entry: Dict[str, object] = {
                "worker": scrape["worker"],
                "url": scrape["url"],
                "reachable": scrape["text"] is not None,
            }
            if scrape["text"] is not None:
                text = scrape["text"]
                for field, metric, labels in rollup_fields:
                    value = _scrape_metric_or_zero(text, metric, **labels)
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

    def _handle_bounds(self, environ):
        payload = self._read_json_body(environ)
        decoded = decode_bounds_request(payload, self._graphs)
        redirect = self._shard_redirect(environ, decoded)
        if redirect is not None:
            return redirect
        for item in decoded:
            self._queries_total.inc(
                method=item.query.method, normalization=item.query.normalization
            )
        answers = self._solve(decoded)
        body = encode_answers(answers, [item.fingerprint for item in decoded])
        return 200, body, []

    def _shard_redirect(self, environ, decoded: List[DecodedQuery]):
        """307 to the owning worker, or ``None`` to serve locally.

        Only batches arriving on the fleet's *shared* socket (tagged
        ``repro.shard_redirect`` by the worker runner) are eligible —
        direct-port traffic is served where it lands, which is what makes
        redirect loops structurally impossible.  A batch is bounced only
        when every query in it is owned by one single *other* worker;
        mixed-owner batches are served locally rather than split.
        """
        if self._sharding is None or not environ.get("repro.shard_redirect"):
            return None
        owners = {self._sharding.owner(item.routing_key) for item in decoded}
        if len(owners) != 1:
            return None
        owner = owners.pop()
        if owner == self._sharding.worker_id:
            return None
        _SHARD_REDIRECTS.inc()
        location = f"{self._sharding.url_for(owner)}/v1/bounds"
        body = {
            "redirect": location,
            "owner_worker": owner,
            "worker": self._sharding.worker_id,
        }
        return 307, body, [("Location", location)]

    def _read_json_body(self, environ) -> object:
        try:
            length = int(environ.get("CONTENT_LENGTH") or 0)
        except ValueError:
            raise ProtocolError("invalid Content-Length header")
        if length < 0:
            # read(-1) would block on the open socket until the client
            # hangs up, parking a handler thread per such request.
            raise ProtocolError("invalid Content-Length header")
        if length > MAX_BODY_BYTES:
            raise ProtocolError(
                f"request body of {length} bytes exceeds the {MAX_BODY_BYTES} "
                f"byte ceiling",
                code="body-too-large",
                status=413,
            )
        raw = environ["wsgi.input"].read(length) if length else b""
        if not raw:
            raise ProtocolError("request body is empty; send a JSON object")
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"malformed JSON body: {exc}", code="malformed-json")

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------
    def _solve(self, decoded: List[DecodedQuery]):
        """Answer a decoded batch through the coalescing + admission gates.

        Only *leader* solves (queries nobody else is currently computing)
        pass through admission control; followers just wait on the
        in-flight ticket, so a thundering herd of identical requests is
        served whole however small the admission window is.
        """
        if self._coalescer is None:
            with self._admission.slot() if self._admission else nullcontext():
                return self._service.submit([item.query for item in decoded])
        unique: Dict[Tuple, DecodedQuery] = {}
        for item in decoded:
            unique.setdefault(item.key, item)
        claims = {key: self._coalescer.claim(key) for key in unique}
        leader_keys = [key for key, (_, is_leader) in claims.items() if is_leader]
        if leader_keys:
            settled = set()
            try:
                with self._admission.slot() if self._admission else nullcontext():
                    for key in leader_keys:
                        ticket = claims[key][0]
                        # One submit per key (the keys are already unique,
                        # so a combined batch would dedupe nothing) and
                        # per-key error attribution: a bad query must fail
                        # only its own ticket, never a coalesced follower
                        # of a *different*, valid query in this request.
                        try:
                            [answer] = self._service.submit([unique[key].query])
                        except Exception as exc:
                            self._coalescer.fail(ticket, exc)
                        else:
                            self._coalescer.resolve(ticket, answer)
                        settled.add(key)
            except BaseException as exc:
                # Admission shed the request before (or between) solves, or
                # a system-exiting exception interrupted the loop: settle
                # every remaining ticket so followers see the failure
                # instead of hanging on an orphaned in-flight key.
                for key in leader_keys:
                    if key not in settled:
                        self._coalescer.fail(claims[key][0], exc)
                raise
        results = {}
        for key, (ticket, is_leader) in claims.items():
            answer = ticket.wait(self._solve_timeout)
            if not is_leader and isinstance(answer, BoundAnswer):
                # Followers rode the leader's in-flight solve: point at the
                # trace that actually did the work and zero the eigensolve
                # time so aggregating eig_elapsed_seconds over answers
                # counts each solve exactly once.
                answer = dataclasses.replace(
                    answer,
                    served_by_trace_id=answer.trace_id,
                    eig_elapsed_seconds=0.0,
                )
            results[key] = answer
        return [results[item.key] for item in decoded]
