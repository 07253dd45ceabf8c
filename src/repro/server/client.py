"""Thin stdlib HTTP client for the bounds server and its fleets.

:class:`BoundsClient` speaks the versioned ``/v1`` protocol of
:mod:`repro.server.protocol` over :mod:`http.client` — no third-party
dependencies, which is the point: the test suite and the load-generating
benchmark exercise the server exactly the way an external service would.

Transport properties that matter for measuring the server honestly:

* **keep-alive** — one :class:`http.client.HTTPConnection` per client
  thread, reused across requests, so a client thread pays the TCP
  handshake once per connection rather than once per request (the server
  side speaks HTTP/1.1 since :class:`repro.server.runner` grew persistent
  connections).  A connection that died while idle (server restart,
  idle timeout) is retried once on a fresh connection — only ever for
  *reused* connections, so a genuinely failing request still fails.
* **no proxies** — :mod:`http.client` connects straight to the server,
  whatever ``http_proxy`` says, so a client on the server's own host
  (a fleet worker scraping a sibling, say) never detours through a proxy.
* **typed errors** — any structured server error surfaces as
  :class:`ServerError` (``status``, ``code``, the 429 ``Retry-After``
  hint) instead of a bare exception.
"""

from __future__ import annotations

import contextlib
import json
import threading
from http.client import (
    BadStatusLine,
    HTTPConnection,
    HTTPException,
    RemoteDisconnected,
)
from typing import Dict, List, Optional, Sequence, Tuple, Union
from urllib.parse import urlsplit

from repro.obs.metrics import parse_metric
from repro.runtime.service import BoundAnswer, BoundQuery
from repro.server.protocol import decode_answers, encode_bounds_request

__all__ = ["BoundsClient", "ServerError", "parse_metric"]


class ServerError(RuntimeError):
    """A non-2xx response, carrying the structured protocol error."""

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        retry_after_seconds: Optional[float] = None,
    ) -> None:
        super().__init__(f"[{status}/{code}] {message}")
        self.status = status
        self.code = code
        self.message = message
        self.retry_after_seconds = retry_after_seconds


class BoundsClient:
    """Client for one bounds server, e.g. ``BoundsClient("http://host:port")``.

    Thread-safe; each thread keeps its own persistent connection, so
    concurrent benchmark threads do not serialise on one socket.  Use as a
    context manager (or call :meth:`close`) to drop the connections.
    """

    def __init__(self, base_url: str, timeout: float = 60.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        parts = urlsplit(self.base_url)
        self._netloc, self._prefix = parts.netloc, parts.path
        self._local = threading.local()
        self._lock = threading.Lock()
        self._all_connections: List[HTTPConnection] = []

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _connection(self) -> Tuple[HTTPConnection, bool]:
        """This thread's connection, and whether it is a reused one."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            return conn, True
        conn = self._local.conn = HTTPConnection(self._netloc, timeout=self.timeout)
        with self._lock:
            self._all_connections.append(conn)
        return conn, False

    def _discard(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            self._local.conn = None
            conn.close()
            with self._lock, contextlib.suppress(ValueError):
                self._all_connections.remove(conn)

    def _request(self, path: str, payload: Optional[dict] = None) -> bytes:
        body = json.dumps(payload).encode("utf-8") if payload is not None else None
        url = f"{self.base_url}{path}"
        target = self._prefix + path
        method = "POST" if body is not None else "GET"
        request_headers = {"Content-Type": "application/json"} if body else {}
        conn, reused = self._connection()
        try:
            conn.request(method, target, body=body, headers=request_headers)
            response = conn.getresponse()
            raw = response.read()
        except (RemoteDisconnected, BadStatusLine, BrokenPipeError,
                ConnectionResetError) as exc:
            # A *reused* connection may have been closed server-side while
            # idle (restart, keep-alive timeout); that is the one case a
            # transparent retry on a fresh connection is sound — the
            # request never reached a handler.  A fresh connection failing
            # the same way is a real error.
            self._discard()
            if not reused:
                raise ServerError(0, "unreachable", f"{url}: {exc}") from None
            conn, _ = self._connection()
            try:
                conn.request(method, target, body=body, headers=request_headers)
                response = conn.getresponse()
                raw = response.read()
            except (OSError, HTTPException) as retry_exc:
                self._discard()
                raise ServerError(0, "unreachable", f"{url}: {retry_exc}") from None
        except (OSError, HTTPException) as exc:
            self._discard()
            raise ServerError(0, "unreachable", f"{url}: {exc}") from None
        if response.will_close:
            self._discard()
        if 200 <= response.status < 300:
            return raw
        headers = {key: value for key, value in response.getheaders()}
        raise self._server_error(response.status, headers, raw)

    @staticmethod
    def _server_error(status: int, headers: Dict[str, str], raw: bytes) -> ServerError:
        code, message = "unknown", f"HTTP {status}"
        try:
            error = json.loads(raw.decode("utf-8")).get("error", {})
            code = error.get("code", code)
            message = error.get("message", message)
        except (ValueError, AttributeError):
            pass
        retry_after = headers.get("Retry-After")
        try:
            # RFC 9110 also allows an HTTP-date here (a proxy may shed load
            # with one); anything non-numeric degrades to "no hint".
            retry_after_seconds = float(retry_after) if retry_after is not None else None
        except ValueError:
            retry_after_seconds = None
        return ServerError(status, code, message, retry_after_seconds)

    def _get_json(self, path: str) -> dict:
        return json.loads(self._request(path).decode("utf-8"))

    def close(self) -> None:
        """Close every pooled connection (all threads)."""
        with self._lock:
            connections, self._all_connections = self._all_connections, []
        for conn in connections:
            conn.close()
        self._local = threading.local()

    def __enter__(self) -> "BoundsClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, object]:
        """``GET /healthz``."""
        return self._get_json("/healthz")

    def stats(self) -> Dict[str, object]:
        """``GET /v1/stats``."""
        return self._get_json("/v1/stats")

    def fleet_worker_urls(self) -> List[str]:
        """Direct per-worker base URLs, or ``[]`` off a plain server.

        From ``/v1/stats``'s ``fleet`` block; per-worker ``/metrics`` are
        scraped at these (each worker is its own process — the shared
        port would answer for whichever worker won the accept).
        """
        fleet = self.stats().get("fleet")
        if not isinstance(fleet, dict):
            return []
        return [str(url) for url in fleet.get("worker_urls", [])]

    def fleet_stats(self) -> Dict[str, object]:
        """``GET /v1/fleet/stats`` — per-worker rollup plus fleet totals.

        Only fleets serve it: point the client at the *shared* port of a
        ``--workers N`` deployment (any worker aggregates by scraping its
        siblings' direct ports).  A plain single-process server answers
        404 (``not-a-fleet``), surfaced as :class:`ServerError`.
        """
        return self._get_json("/v1/fleet/stats")

    def metrics_text(self) -> str:
        """``GET /metrics`` — the raw Prometheus exposition.

        Against a fleet's shared port this is every worker's samples in
        one scrape (``worker=<id>`` labels preserved), so ``parse_metric``
        over it equals hand-summing the direct ports.
        """
        return self._request("/metrics").decode("utf-8")

    def metric(self, name: str, **labels: str) -> float:
        """One metric's summed value, scraped from ``GET /metrics``."""
        return parse_metric(self.metrics_text(), name, **labels)

    def bounds(
        self, queries: Sequence[Union[BoundQuery, Dict[str, object]]]
    ) -> List[BoundAnswer]:
        """``POST /v1/bounds`` — answers in query order.

        Queries are :class:`BoundQuery` objects (family-spec or live-graph
        refs; live graphs are sent inline) or raw wire dicts (for
        fingerprint refs).  The returned answers are full
        :class:`BoundAnswer` instances, field-for-field what a direct
        :meth:`BoundService.submit` call would produce.
        """
        payload = encode_bounds_request(queries)
        raw = self._request("/v1/bounds", payload)
        return decode_answers(json.loads(raw.decode("utf-8")))

    def bounds_raw(self, payload: dict) -> dict:
        """``POST /v1/bounds`` with a caller-built body, returning raw JSON."""
        return json.loads(self._request("/v1/bounds", payload).decode("utf-8"))
