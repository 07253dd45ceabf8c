"""Server runners: one threaded process, or a pre-forked sharded fleet.

:class:`BoundServer` wraps the WSGI app of :mod:`repro.server.app` in a
stdlib threading HTTP server (``wsgiref`` + ``socketserver.ThreadingMixIn``
— one thread per connection, no third-party dependencies) and owns the two
concurrency policies the app itself stays agnostic of:

* **admission control** (:class:`AdmissionController`) — at most
  ``max_in_flight`` solve batches run concurrently and at most
  ``max_queue`` more may wait; beyond that the request is rejected
  *immediately* with HTTP 429 and a ``Retry-After`` hint, so an overloaded
  server degrades by shedding load instead of by stacking up threads until
  every client times out;
* **in-flight coalescing** (:class:`QueryCoalescer`) — identical
  ``(graph, M, p, normalization, k, method)`` queries that arrive while
  the first one is still solving wait for *that* solve instead of starting
  their own.  A thundering herd on one cold graph pays exactly one
  eigensolve; without this, concurrent misses race past the spectrum
  cache and solve redundantly.  This composes with (rather than replaces)
  the batch-level dedup inside
  :meth:`~repro.runtime.service.BoundService.submit` and the
  spectrum/cut cache tiers below it.

:class:`ServerFleet` (``python -m repro serve --workers N``) scales past
the GIL: a pre-forked fleet of shared-nothing worker processes, each a
full :class:`BoundServer`-style stack over the *same* on-disk stores.
The parent binds every socket before forking — one shared public socket
all workers accept on (classic pre-fork load balancing by the kernel)
plus one direct per-worker socket — then supervises and respawns dead
workers.  Requests are routed by consistent hashing on the graph
identity (:class:`ShardRing`): a worker that picks up a shared-socket
request wholly owned by a sibling answers ``307`` to that sibling's
direct port, so each worker's in-memory cache tier stays hot for its
shard.  Cross-process duplicate *solves* are collapsed one layer down by
the spectrum store's solve leases (see
:meth:`repro.runtime.store.SpectrumStore.acquire_lease`).
"""

from __future__ import annotations

import hashlib
import multiprocessing
import signal
import socket as socketlib
import threading
import time
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from socketserver import ThreadingMixIn
from typing import Dict, List, Optional, Sequence, Tuple
from wsgiref.simple_server import (
    ServerHandler,
    WSGIRequestHandler,
    WSGIServer,
    make_server,
)

from repro.obs.metrics import MetricsRegistry, global_registry, set_process_labels
from repro.runtime.service import BoundService
from repro.server.app import BoundsApp, ServerOverloadedError

__all__ = [
    "AdmissionController",
    "QueryCoalescer",
    "ServerOverloadedError",
    "SolveTicket",
    "BoundServer",
    "ShardRing",
    "ShardInfo",
    "FleetConfig",
    "ServerFleet",
    "SERVE_WORKERS_ENV_VAR",
]

DEFAULT_MAX_IN_FLIGHT = 4
DEFAULT_MAX_QUEUE = 16
DEFAULT_RETRY_AFTER_SECONDS = 1

#: Environment variable giving the default ``--workers`` count.
SERVE_WORKERS_ENV_VAR = "REPRO_SERVE_WORKERS"

_ADMISSION_WAIT_SECONDS = global_registry().histogram(
    "repro_admission_wait_seconds",
    "Time admitted solve batches spent waiting for an admission slot.",
)
_COALESCE_TOTAL = global_registry().counter(
    "repro_coalesce_total",
    "Coalescer claims by role: leaders run the solve, followers wait on it.",
    labelnames=("role",),
)


class AdmissionController:
    """Bounded-concurrency gate for solve batches.

    ``max_in_flight`` batches may run at once; up to ``max_queue`` more
    block waiting for a slot; any further arrival fails fast with
    :class:`ServerOverloadedError` (mapped to 429 + ``Retry-After``).
    """

    def __init__(
        self,
        max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
        max_queue: int = DEFAULT_MAX_QUEUE,
        retry_after_seconds: float = DEFAULT_RETRY_AFTER_SECONDS,
    ) -> None:
        if max_in_flight < 1:
            raise ValueError(f"max_in_flight must be positive, got {max_in_flight}")
        if max_queue < 0:
            raise ValueError(f"max_queue must be non-negative, got {max_queue}")
        self.max_in_flight = int(max_in_flight)
        self.max_queue = int(max_queue)
        self.retry_after_seconds = retry_after_seconds
        self._condition = threading.Condition()
        self._in_flight = 0
        self._queued = 0
        # Slots being handed directly from a releaser to a queued waiter
        # (see release(): the slot never becomes visibly free, so fresh
        # arrivals cannot barge past the queue).
        self._handoffs = 0
        self._admitted = 0
        self._rejected = 0

    @property
    def in_flight(self) -> int:
        return self._in_flight

    @property
    def queued(self) -> int:
        return self._queued

    @property
    def admitted(self) -> int:
        return self._admitted

    @property
    def rejected(self) -> int:
        return self._rejected

    def stats(self) -> Dict[str, int]:
        with self._condition:
            return {
                "max_in_flight": self.max_in_flight,
                "max_queue": self.max_queue,
                "in_flight": self._in_flight,
                "queued": self._queued,
                "admitted": self._admitted,
                "rejected": self._rejected,
            }

    def acquire(self) -> None:
        with self._condition:
            if (
                self._in_flight < self.max_in_flight
                and self._queued == 0
                and self._handoffs == 0
            ):
                self._in_flight += 1
                self._admitted += 1
                _ADMISSION_WAIT_SECONDS.observe(0.0)
                return
            if self._queued >= self.max_queue:
                self._rejected += 1
                raise ServerOverloadedError(
                    f"{self._in_flight} solves in flight and {self._queued} "
                    f"queued; retry after {self.retry_after_seconds}s",
                    self.retry_after_seconds,
                )
            wait_start = time.perf_counter()
            self._queued += 1
            try:
                while self._handoffs == 0 and self._in_flight >= self.max_in_flight:
                    self._condition.wait()
            finally:
                self._queued -= 1
            if self._handoffs:
                self._handoffs -= 1  # slot transferred; in_flight unchanged
            else:
                self._in_flight += 1
            self._admitted += 1
            _ADMISSION_WAIT_SECONDS.observe(time.perf_counter() - wait_start)

    def release(self) -> None:
        with self._condition:
            if self._queued > 0:
                # Hand the slot straight to a queued waiter instead of
                # freeing it: the slot is never visibly free, so a fresh
                # arrival can never barge past threads already waiting.
                self._handoffs += 1
            else:
                self._in_flight -= 1
            self._condition.notify()

    @contextmanager
    def slot(self):
        """``with admission.slot():`` around one admitted solve batch."""
        self.acquire()
        try:
            yield
        finally:
            self.release()


class SolveTicket:
    """One in-flight solve: the leader resolves it, followers wait on it."""

    def __init__(self, key: Tuple) -> None:
        self.key = key
        self._event = threading.Event()
        self._value = None
        self._error: Optional[BaseException] = None

    def resolve(self, value) -> None:
        self._value = value
        self._event.set()

    def fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()

    def wait(self, timeout: Optional[float] = None):
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"timed out after {timeout}s waiting for an in-flight solve"
            )
        if self._error is not None:
            raise self._error
        return self._value


class QueryCoalescer:
    """Share in-flight solves between requests asking the same question.

    :meth:`claim` either makes the caller the *leader* for a key (it must
    later :meth:`resolve`/:meth:`fail` the ticket, even on error) or hands
    back the existing in-flight ticket to wait on.  Once resolved, the key
    leaves the in-flight table — results are *not* cached here; the
    spectrum/cut stores below already answer warm repeats, this layer only
    collapses concurrent duplicates of one cold solve.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._in_flight: Dict[Tuple, SolveTicket] = {}
        self._leaders = 0
        self._coalesced = 0

    @property
    def leaders(self) -> int:
        """Claims that had to run the solve themselves."""
        return self._leaders

    @property
    def coalesced(self) -> int:
        """Claims served by somebody else's in-flight solve."""
        return self._coalesced

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "leaders": self._leaders,
                "coalesced": self._coalesced,
                "in_flight": len(self._in_flight),
            }

    def claim(self, key: Tuple) -> Tuple[SolveTicket, bool]:
        """Returns ``(ticket, is_leader)`` for one query key."""
        with self._lock:
            ticket = self._in_flight.get(key)
            if ticket is not None:
                self._coalesced += 1
                _COALESCE_TOTAL.inc(role="follower")
                return ticket, False
            ticket = SolveTicket(key)
            self._in_flight[key] = ticket
            self._leaders += 1
            _COALESCE_TOTAL.inc(role="leader")
            return ticket, True

    def resolve(self, ticket: SolveTicket, value) -> None:
        with self._lock:
            self._in_flight.pop(ticket.key, None)
        ticket.resolve(value)

    def fail(self, ticket: SolveTicket, error: BaseException) -> None:
        with self._lock:
            self._in_flight.pop(ticket.key, None)
        ticket.fail(error)


class _ThreadingWSGIServer(ThreadingMixIn, WSGIServer):
    daemon_threads = True
    allow_reuse_address = True


class _CountingInput:
    """Wraps ``wsgi.input`` to count the bytes the app actually consumed.

    Keep-alive correctness depends on it: a request body the app never
    read (a POST answered 404/405 before the read) would otherwise be
    parsed as the start of the *next* request on the connection.
    """

    def __init__(self, raw) -> None:
        self._raw = raw
        self.consumed = 0

    def read(self, size: int = -1) -> bytes:
        data = self._raw.read(size)
        self.consumed += len(data)
        return data

    def readline(self, limit: int = -1) -> bytes:
        data = self._raw.readline(limit)
        self.consumed += len(data)
        return data

    def __getattr__(self, name):
        return getattr(self._raw, name)

    def __iter__(self):
        return iter(self._raw)


class _QuietRequestHandler(WSGIRequestHandler):
    """Quiet, keep-alive-capable request handler.

    Per-request access logging is off (``/metrics`` is the observability),
    and unlike upstream ``WSGIRequestHandler`` — which hangs up after every
    response — this handler speaks HTTP/1.1 and serves a connection's
    requests in a loop, so :class:`~repro.server.client.BoundsClient` and
    any keep-alive client pay the TCP handshake once per connection
    instead of once per request.  Safe with wsgiref because the app always
    sets ``Content-Length`` (responses are self-delimiting).
    """

    protocol_version = "HTTP/1.1"

    # Socket timeout (socketserver applies it in setup()): a client that
    # declares a Content-Length it never sends would otherwise park a
    # handler thread in wsgi.input.read() forever — with this, the read
    # raises TimeoutError, the app answers 503, and the thread is freed.
    # On an *idle* kept-alive connection the same timeout simply closes it.
    timeout = 30

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    def handle(self) -> None:
        # Upstream's handle() serves exactly one request then returns
        # (closing the connection); loop handle_one_request the way
        # BaseHTTPRequestHandler does so keep-alive actually keeps alive.
        self.close_connection = True
        self.handle_one_request()
        while not self.close_connection:
            self.handle_one_request()

    def handle_one_request(self) -> None:
        try:
            self.raw_requestline = self.rfile.readline(65537)
        except (TimeoutError, OSError):
            self.close_connection = True
            return
        if len(self.raw_requestline) > 65536:
            self.requestline = ""
            self.request_version = ""
            self.command = ""
            self.send_error(414)
            self.close_connection = True
            return
        if not self.raw_requestline:
            self.close_connection = True
            return
        if not self.parse_request():
            return
        stdin = _CountingInput(self.rfile)
        handler = ServerHandler(
            stdin, self.wfile, self.get_stderr(), self.get_environ(),
            multithread=True,
        )
        handler.http_version = "1.1"
        handler.request_handler = self  # backpointer for logging
        handler.run(self.server.get_app())
        self._discard_unread_body(stdin)

    def _discard_unread_body(self, stdin: "_CountingInput") -> None:
        """Resynchronise the connection after an app that skipped the body.

        Routes that answer before reading ``wsgi.input`` (404, 405, 413)
        leave the declared body sitting in the socket; small remainders
        are drained so the connection stays usable, anything larger (or
        an unparsable declaration) just closes it.
        """
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            self.close_connection = True
            return
        leftover = length - stdin.consumed
        if leftover <= 0:
            return
        if leftover > 65536:
            self.close_connection = True
            return
        try:
            self.rfile.read(leftover)
        except (TimeoutError, OSError):
            self.close_connection = True


class BoundServer:
    """A :class:`~repro.runtime.service.BoundService` bound to a TCP port.

    Parameters
    ----------
    service:
        The service to expose (owns every cache tier).
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (tests do this).
    max_in_flight, max_queue, retry_after_seconds:
        Admission-control knobs (see :class:`AdmissionController`).
    metrics:
        Optional shared registry; by default the server owns a fresh one.
    coalesce:
        Set ``False`` to disable in-flight coalescing (benchmarks measure
        the difference; production keeps it on).

    Use either as a context manager around :meth:`start` (background
    thread, e.g. tests/benchmarks) or via :meth:`serve_forever` (the CLI).
    """

    def __init__(
        self,
        service: BoundService,
        host: str = "127.0.0.1",
        port: int = 0,
        max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
        max_queue: int = DEFAULT_MAX_QUEUE,
        retry_after_seconds: float = DEFAULT_RETRY_AFTER_SECONDS,
        metrics: Optional[MetricsRegistry] = None,
        coalesce: bool = True,
    ) -> None:
        self.service = service
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.admission = AdmissionController(
            max_in_flight=max_in_flight,
            max_queue=max_queue,
            retry_after_seconds=retry_after_seconds,
        )
        self.coalescer = QueryCoalescer() if coalesce else None
        self.app = BoundsApp(
            service,
            metrics=self.metrics,
            admission=self.admission,
            coalescer=self.coalescer,
        )
        self._httpd = make_server(
            host,
            port,
            self.app,
            server_class=_ThreadingWSGIServer,
            handler_class=_QuietRequestHandler,
        )
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "BoundServer":
        """Serve from a daemon thread; returns immediately."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name=f"repro-server:{self.port}",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted (the CLI path)."""
        self._httpd.serve_forever(poll_interval=0.5)

    def close(self) -> None:
        if self._thread is not None:
            self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "BoundServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# pre-forked sharded fleet
# ----------------------------------------------------------------------
class ShardRing:
    """Consistent-hash ring mapping graph routing keys to worker ids.

    ``replicas`` virtual points per worker (sha256-placed) keep the load
    split near-uniform, and — the property plain modulo hashing lacks —
    changing the worker count remaps only ``~1/N`` of the keys, so a
    resized fleet keeps most workers' memory tiers valid.
    """

    def __init__(self, num_workers: int, replicas: int = 64) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be positive, got {num_workers}")
        if replicas < 1:
            raise ValueError(f"replicas must be positive, got {replicas}")
        self.num_workers = int(num_workers)
        self.replicas = int(replicas)
        points: List[Tuple[int, int]] = []
        for worker_id in range(self.num_workers):
            for replica in range(self.replicas):
                digest = hashlib.sha256(
                    f"worker-{worker_id}:{replica}".encode()
                ).digest()
                points.append((int.from_bytes(digest[:8], "big"), worker_id))
        points.sort()
        self._hashes = [point for point, _ in points]
        self._owners = [owner for _, owner in points]

    def owner(self, key: str) -> int:
        """The worker id owning a routing key (first point clockwise)."""
        digest = hashlib.sha256(str(key).encode()).digest()
        point = int.from_bytes(digest[:8], "big")
        index = bisect_right(self._hashes, point) % len(self._hashes)
        return self._owners[index]


@dataclass(frozen=True)
class ShardInfo:
    """One worker's view of the fleet, injected into its :class:`BoundsApp`.

    ``worker_urls[i]`` is worker ``i``'s *direct* base URL — where shard
    redirects point and where per-worker ``/metrics`` are scraped.
    ``restarts`` is this worker's incarnation number: 0 for the original
    process, incremented by the parent's supervisor for each respawn, so
    a worker's own telemetry reveals it is a replacement.
    """

    worker_id: int
    worker_urls: Tuple[str, ...]
    ring: ShardRing
    restarts: int = 0

    @property
    def num_workers(self) -> int:
        return len(self.worker_urls)

    def owner(self, key: str) -> int:
        return self.ring.owner(key)

    def url_for(self, worker_id: int) -> str:
        return self.worker_urls[worker_id]

    def describe(self) -> Dict[str, object]:
        return {
            "worker_id": self.worker_id,
            "num_workers": self.num_workers,
            "worker_urls": list(self.worker_urls),
            "restarts": self.restarts,
        }


@dataclass(frozen=True)
class FleetConfig:
    """Everything a worker process needs to build its serving stack.

    Carried across ``fork()`` into :func:`_fleet_worker_main`; each worker
    builds its *own* :class:`BoundService` (shared-nothing memory tiers)
    over the common on-disk store root.
    """

    store_root: Optional[str] = None
    num_eigenvalues: int = 100
    eig_options: Optional[object] = None  # EigenSolverOptions (picklable)
    max_in_flight: int = DEFAULT_MAX_IN_FLIGHT
    max_queue: int = DEFAULT_MAX_QUEUE
    retry_after_seconds: float = DEFAULT_RETRY_AFTER_SECONDS
    coalesce: bool = True
    lease_ttl: Optional[float] = None
    trace_path: Optional[str] = None

    def build_service(self) -> BoundService:
        store = None
        if self.store_root is not None:
            from repro.runtime.store import SpectrumStore

            store = SpectrumStore(self.store_root, lease_ttl=self.lease_ttl)
        return BoundService(
            store=store,
            num_eigenvalues=self.num_eigenvalues,
            eig_options=self.eig_options,
        )


class _FleetWSGIServer(ThreadingMixIn, WSGIServer):
    """Threading WSGI server over a socket inherited from the pre-fork parent.

    ``daemon_threads=False`` + ``block_on_close`` make ``server_close()``
    join in-flight request threads — the graceful-drain half of worker
    shutdown (SIGTERM stops accepting, then outstanding solves finish).
    """

    daemon_threads = False
    block_on_close = True
    allow_reuse_address = True

    def __init__(self, sock: socketlib.socket, handler_class) -> None:
        # bind_and_activate=False: adopt the parent's already-listening
        # socket instead of binding a fresh one.
        super().__init__(
            sock.getsockname()[:2], handler_class, bind_and_activate=False
        )
        self.socket.close()  # the unbound one the base class created
        self.socket = sock
        host, port = sock.getsockname()[:2]
        self.server_name = socketlib.getfqdn(host)
        self.server_port = port
        self.setup_environ()  # normally done by server_bind()


def _tag_environ(app, **flags):
    """Wrap a WSGI app, stamping constant keys into every request environ.

    How a worker tells shared-socket arrivals (eligible for shard
    redirects) apart from direct-port arrivals (never redirected — that
    is what makes redirect loops impossible).
    """

    def tagged(environ, start_response):
        environ.update(flags)
        return app(environ, start_response)

    return tagged


def _fleet_worker_main(
    worker_id: int,
    shared_sock: socketlib.socket,
    direct_socks: Sequence[socketlib.socket],
    worker_urls: Tuple[str, ...],
    ring: ShardRing,
    config: FleetConfig,
    incarnation: int = 0,
) -> None:
    """One worker process: accept on the shared + own direct socket, drain on SIGTERM."""
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.set())
    # ^C goes to the whole foreground process group; the parent coordinates
    # shutdown and SIGTERMs us, so workers ignore the direct SIGINT.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # Close the siblings' direct sockets this fork inherited: holding them
    # open would make connections to a *dead* sibling's port sit unserved
    # in a queue nobody reads instead of failing over to the respawn.
    for index, sock in enumerate(direct_socks):
        if index != worker_id:
            sock.close()
    direct_sock = direct_socks[worker_id]

    set_process_labels(worker=str(worker_id))
    # The fork copied the parent's accumulated counters; this worker's
    # /metrics must only ever report work this worker did.
    global_registry().reset_values()
    global_registry().gauge(
        "repro_worker_up", "1 for each live serving worker process."
    ).set(1.0)
    # Incarnation as a gauge: the fleet rollup reads every worker's
    # respawn count off its own /metrics instead of asking the parent
    # (which serves no HTTP) — a respawned worker reports restarts >= 1.
    global_registry().gauge(
        "repro_worker_restarts",
        "Times this worker slot has been respawned (0 for the original).",
    ).set(float(incarnation))
    if config.trace_path is not None:
        from repro import obs

        obs.configure(f"{config.trace_path}.worker-{worker_id}.jsonl")

    service = config.build_service()
    admission = AdmissionController(
        max_in_flight=config.max_in_flight,
        max_queue=config.max_queue,
        retry_after_seconds=config.retry_after_seconds,
    )
    coalescer = QueryCoalescer() if config.coalesce else None
    app = BoundsApp(
        service,
        metrics=MetricsRegistry(),
        admission=admission,
        coalescer=coalescer,
        sharding=ShardInfo(worker_id, tuple(worker_urls), ring, restarts=incarnation),
    )
    shared_httpd = _FleetWSGIServer(shared_sock, _QuietRequestHandler)
    shared_httpd.set_app(_tag_environ(app, **{"repro.shard_redirect": True}))
    direct_httpd = _FleetWSGIServer(direct_sock, _QuietRequestHandler)
    direct_httpd.set_app(app)
    threads = [
        threading.Thread(
            target=httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name=f"repro-worker-{worker_id}-{kind}",
        )
        for kind, httpd in (("shared", shared_httpd), ("direct", direct_httpd))
    ]
    for thread in threads:
        thread.start()
    try:
        stop.wait()
    finally:
        shared_httpd.shutdown()
        direct_httpd.shutdown()
        for thread in threads:
            thread.join(timeout=10.0)
        # Joins in-flight request handlers (graceful drain), then closes
        # this process's copies of the socket fds.
        shared_httpd.server_close()
        direct_httpd.server_close()


class ServerFleet:
    """A pre-forked fleet of shared-nothing bound-serving workers.

    The parent creates every listening socket *before* forking — the
    shared public one (``host:port``) all workers accept on, plus one
    ephemeral direct socket per worker — so the shard map is fixed and a
    respawned worker reclaims its predecessor's exact ports.  A monitor
    thread restarts dead workers (counted in :attr:`restarts`);
    :meth:`close` SIGTERMs the fleet and reaps it.

    Workers are shared-nothing above the disk: each owns its service,
    caches and admission control.  What makes the fleet *coherent* is the
    on-disk store (every solve published once, readable by all) and its
    solve leases (concurrent cold misses collapse to one eigensolve
    fleet-wide).
    """

    def __init__(
        self,
        config: FleetConfig,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        replicas: int = 64,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        # fork (not spawn): children inherit the listening fds and the
        # warm imports; raises on platforms without fork, which is the
        # honest answer — the fleet is a POSIX design.
        self._ctx = multiprocessing.get_context("fork")
        self.config = config
        self.host = host
        self.num_workers = int(workers)
        self._shared_sock = self._listen(host, port)
        # Non-blocking: N workers race accept() on this socket; with a
        # blocking fd the kernel may wake several and park the losers in
        # accept() forever.  socketserver tolerates the EAGAIN of losing.
        self._shared_sock.setblocking(False)
        self.port = int(self._shared_sock.getsockname()[1])
        self._direct_socks = [self._listen(host, 0) for _ in range(self.num_workers)]
        self.worker_urls: Tuple[str, ...] = tuple(
            f"http://{host}:{sock.getsockname()[1]}" for sock in self._direct_socks
        )
        self.ring = ShardRing(self.num_workers, replicas=replicas)
        self._procs: List[Optional[multiprocessing.process.BaseProcess]] = [
            None
        ] * self.num_workers
        self._restarts = [0] * self.num_workers
        self._closing = threading.Event()
        self._monitor: Optional[threading.Thread] = None

    @staticmethod
    def _listen(host: str, port: int) -> socketlib.socket:
        sock = socketlib.socket(socketlib.AF_INET, socketlib.SOCK_STREAM)
        sock.setsockopt(socketlib.SOL_SOCKET, socketlib.SO_REUSEADDR, 1)
        sock.bind((host, port))
        sock.listen(128)
        return sock

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def restarts(self) -> List[int]:
        """Per-worker respawn counts (all zero in a healthy fleet)."""
        return list(self._restarts)

    def start(self) -> "ServerFleet":
        if self._monitor is not None:
            raise RuntimeError("fleet already started")
        for worker_id in range(self.num_workers):
            self._spawn(worker_id)
        self._monitor = threading.Thread(
            target=self._supervise, name="repro-fleet-monitor", daemon=True
        )
        self._monitor.start()
        return self

    def _spawn(self, worker_id: int) -> None:
        proc = self._ctx.Process(
            target=_fleet_worker_main,
            args=(
                worker_id,
                self._shared_sock,
                tuple(self._direct_socks),
                self.worker_urls,
                self.ring,
                self.config,
                self._restarts[worker_id],
            ),
            name=f"repro-worker-{worker_id}",
            daemon=True,
        )
        proc.start()
        self._procs[worker_id] = proc

    def _supervise(self) -> None:
        """Respawn dead workers until the fleet is closing.

        The parent keeps every socket open, so a replacement accepts on
        the exact fds (shared and direct) its predecessor served.
        """
        while not self._closing.wait(0.2):
            for worker_id, proc in enumerate(self._procs):
                if self._closing.is_set():
                    return
                if proc is not None and not proc.is_alive():
                    proc.join()
                    self._restarts[worker_id] += 1
                    self._spawn(worker_id)

    def serve_forever(self) -> None:
        """Block the calling thread until interrupted (the CLI path)."""
        while not self._closing.is_set():
            time.sleep(0.5)

    def close(self) -> None:
        """SIGTERM every worker (graceful drain), reap, close the sockets."""
        self._closing.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
            self._monitor = None
        procs = [proc for proc in self._procs if proc is not None]
        for proc in procs:
            if proc.is_alive():
                proc.terminate()  # SIGTERM: workers drain then exit
        deadline = time.monotonic() + 10.0
        for proc in procs:
            proc.join(timeout=max(0.1, deadline - time.monotonic()))
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=2.0)
        self._procs = [None] * self.num_workers
        self._shared_sock.close()
        for sock in self._direct_socks:
            sock.close()

    def __enter__(self) -> "ServerFleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
