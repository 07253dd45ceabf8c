"""Server runners: one threaded process, or a pre-forked fleet.

:class:`BoundServer` serves the app of :mod:`repro.server.app` over a
stdlib threading server (``socketserver.ThreadingMixIn`` — one thread per
keep-alive connection, no third-party dependencies) whose handler is a lean
HTTP/1.1 loop: per request it reads the request line and headers with
bounded ``readline`` calls, keeps only the four headers that frame a
request, and writes status line, headers and body in one ``sendall``.  It
owns **admission control** (:class:`AdmissionController`), which it hands
to the service: at most ``max_in_flight`` cold solves (eigensolves and
max-flow passes) run concurrently and at most ``max_queue`` more may wait;
beyond that the request needing the solve is rejected *immediately* with
HTTP 429 and a ``Retry-After`` hint, so an overloaded server degrades by
shedding cold work instead of by stacking up threads until every client
times out.  Warm answers never take a slot, so they never wait behind
cold ones.  Duplicate work is the service's business: concurrent misses
on one spectrum share one solve
(:class:`~repro.solvers.spectrum_cache.SpectrumCache`), and max-flow
passes over one graph take turns on its engine's lock, so a thundering
herd on one cold graph pays one solve and one slot.

:class:`ServerFleet` (``python -m repro serve --workers N``) scales past
the GIL: a pre-forked fleet of shared-nothing worker processes, each a
full :class:`BoundServer` over the *same* on-disk store.
The parent binds every socket before forking — one shared public socket
all workers accept on (classic pre-fork load balancing by the kernel)
plus one direct per-worker socket — then supervises and respawns dead
workers.  Every worker answers whatever it accepts.  The store is the
fleet's only shared state: a solve one worker published, any worker
reads, and cross-process duplicate *solves* — eigensolves and max-flow
passes alike — are collapsed by the store's solve leases (see
:meth:`repro.runtime.store.SpectrumStore.claim`).  A lease is a kernel
file lock, so a worker killed mid-solve frees its lease as it dies and a
sibling waiting on it solves in its place.  A traced fleet writes one
trace: each worker keeps the tracer it inherits over ``fork`` and appends
its spans to the parent's trace file.

Both share one drain: closing a server (``BoundServer.close()``, or SIGTERM
to ``python -m repro serve`` with one worker or many) stops accepting, lets
in-flight requests finish and answer, and ends idle keep-alive connections
at once.
"""

from __future__ import annotations

import json
import multiprocessing
import signal
import socket as socketlib
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from email.utils import formatdate
from http import HTTPStatus
from socketserver import BaseServer, StreamRequestHandler, TCPServer, ThreadingMixIn
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.obs.metrics import global_registry, set_process_labels
from repro.runtime.service import BoundService
from repro.server.app import MAX_BODY_BYTES, BoundsApp, ServerOverloadedError
from repro.server.protocol import ProtocolError, encode_error

__all__ = [
    "AdmissionController",
    "ServerOverloadedError",
    "BoundServer",
    "ShardInfo",
    "FleetConfig",
    "ServerFleet",
]

DEFAULT_MAX_IN_FLIGHT = 4
DEFAULT_MAX_QUEUE = 16
#: The ``Retry-After`` hint, in seconds, of every 429 admission sends.
RETRY_AFTER_SECONDS = 1

_ADMISSION_WAIT_SECONDS = global_registry().histogram(
    "repro_admission_wait_seconds",
    "Time admitted solves spent waiting for an admission slot.",
)


class AdmissionController:
    """Bounded-concurrency gate for cold solves.

    ``max_in_flight`` solves may run at once; up to ``max_queue`` more
    block waiting for a slot; any further arrival fails fast with
    :class:`ServerOverloadedError` (mapped to 429 + ``Retry-After``).
    """

    def __init__(
        self,
        max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
        max_queue: int = DEFAULT_MAX_QUEUE,
    ) -> None:
        if max_in_flight < 1:
            raise ValueError(f"max_in_flight must be positive, got {max_in_flight}")
        if max_queue < 0:
            raise ValueError(f"max_queue must be non-negative, got {max_queue}")
        self.max_in_flight = int(max_in_flight)
        self.max_queue = int(max_queue)
        self._condition = threading.Condition()
        self._in_flight = 0
        # One token per queued waiter, oldest first.  release() grants its
        # slot to the oldest waiter's token instead of freeing it: the slot
        # is never visibly free, and no later arrival can take it, so a
        # fresh arrival can never barge past threads already waiting.
        self._waiting: Deque[object] = deque()
        self._granted: Set[object] = set()
        self._admitted = 0
        self._rejected = 0

    @property
    def in_flight(self) -> int:
        return self._in_flight

    @property
    def queued(self) -> int:
        return len(self._waiting)

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
                "queued": len(self._waiting),
                "admitted": self._admitted,
                "rejected": self._rejected,
            }

    def acquire(self) -> None:
        with self._condition:
            if self._in_flight < self.max_in_flight and not self._waiting:
                self._in_flight += 1
                self._admitted += 1
                _ADMISSION_WAIT_SECONDS.observe(0.0)
                return
            if len(self._waiting) >= self.max_queue:
                self._rejected += 1
                raise ServerOverloadedError(
                    f"{self._in_flight} solves in flight and {len(self._waiting)} "
                    f"queued; retry after {RETRY_AFTER_SECONDS}s",
                    RETRY_AFTER_SECONDS,
                )
            wait_start = time.perf_counter()
            token = object()
            self._waiting.append(token)
            try:
                while token not in self._granted:
                    self._condition.wait()
            except BaseException:
                # Never strand the queue: pass on a slot already granted,
                # or give up the place in line.
                if token in self._granted:
                    self._granted.discard(token)
                    self.release()
                else:
                    self._waiting.remove(token)
                raise
            self._granted.discard(token)
            self._admitted += 1
            _ADMISSION_WAIT_SECONDS.observe(time.perf_counter() - wait_start)

    def release(self) -> None:
        with self._condition:
            if self._waiting:
                # The slot passes to the oldest waiter; in_flight is unchanged.
                self._granted.add(self._waiting.popleft())
                self._condition.notify_all()
            else:
                self._in_flight -= 1

    @contextmanager
    def slot(self):
        """``with admission.slot():`` around one admitted solve."""
        self.acquire()
        try:
            yield
        finally:
            self.release()


def _listen(host: str, port: int) -> socketlib.socket:
    sock = socketlib.socket(socketlib.AF_INET, socketlib.SOCK_STREAM)
    sock.setsockopt(socketlib.SOL_SOCKET, socketlib.SO_REUSEADDR, 1)
    sock.bind((host, port))
    sock.listen(128)
    return sock


#: The longest request or header line read, and the most header lines a
#: request may carry (``http.server``'s limits): beyond them the request
#: gets 414 or 431 and a hang-up.
_MAX_LINE = 64 * 1024
_MAX_HEADERS = 100
#: The only headers that frame a request; the loop reads past the rest.
_FRAMING_HEADERS = frozenset(
    {b"content-length", b"connection", b"transfer-encoding", b"expect"}
)
_REASONS = {status.value: status.phrase for status in HTTPStatus}
_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"


def _read_head(rfile, request_line: bytes) -> Tuple[str, str, int, bool, bool]:
    """Parse a request line and read its header block off ``rfile``.

    Returns ``(method, path, content_length, keep_alive, expects_continue)``:
    the path drops its query string, ``content_length`` is -1 when
    unparsable, and ``keep_alive`` holds for HTTP/1.1 without
    ``Connection: close``.  Raises :class:`~repro.server.protocol.ProtocolError`
    for a request the loop cannot frame, before any body is read.
    """
    if len(request_line) > _MAX_LINE:
        raise ProtocolError(f"the request line exceeds {_MAX_LINE} bytes",
                            "request-line-too-long", 414)
    words = request_line.split()
    if len(words) != 3:
        raise ProtocolError("a request line is METHOD TARGET HTTP-VERSION",
                            "malformed-request")
    method, target, version = words
    if version not in (b"HTTP/1.1", b"HTTP/1.0"):
        raise ProtocolError("this server speaks HTTP/1.1 and HTTP/1.0",
                            "malformed-request")
    headers: Dict[bytes, bytes] = {}
    for _ in range(_MAX_HEADERS + 1):
        line = rfile.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            raise ProtocolError(f"a header line exceeds {_MAX_LINE} bytes",
                                "header-too-large", 431)
        if line in (b"\r\n", b"\n", b""):
            break
        name, colon, value = line.partition(b":")
        if not colon:
            raise ProtocolError("a header line has no colon", "malformed-request")
        name = name.lower()
        if name in _FRAMING_HEADERS:
            headers[name] = value.strip()
    else:
        raise ProtocolError(f"a request carries at most {_MAX_HEADERS} header lines",
                            "too-many-headers", 431)
    # Only Content-Length bodies are read: a chunked body left unread would
    # be parsed as the next request.
    if b"transfer-encoding" in headers:
        raise ProtocolError("send the body with a Content-Length, not a Transfer-Encoding",
                            "length-required", 411)
    try:
        content_length = int(headers.get(b"content-length") or 0)
    except ValueError:
        content_length = -1
    http11 = version == b"HTTP/1.1"
    connection = headers.get(b"connection", b"").lower().split(b",")
    keep_alive = http11 and b"close" not in [token.strip() for token in connection]
    expects_continue = http11 and headers.get(b"expect", b"").lower() == b"100-continue"
    path = target.split(b"?", 1)[0].decode("latin-1")
    return method.decode("latin-1"), path, content_length, keep_alive, expects_continue


class _RequestHandler(StreamRequestHandler):
    """One keep-alive HTTP/1.1 connection; every request goes to the app.

    The loop reads each request's line and headers (:func:`_read_head`)
    and its ``Content-Length`` body, hands ``(method, path,
    content_length, body, shared)`` to the server's
    :class:`~repro.server.app.BoundsApp`, and writes the answer in one
    ``sendall``.  Every verb reaches the app, so an unknown verb gets the
    app's recorded 405; HEAD answers carry no body.  The connection closes
    after an HTTP/1.0 request, a ``Connection: close``, a body it cannot
    read, or once the server is closing.  A request it cannot frame gets an
    ``application/json`` :func:`~repro.server.protocol.encode_error` body
    from the loop and a hang-up: 400 (malformed, or not HTTP/1.x), 411 (a
    ``Transfer-Encoding``), and 414 or 431 (over the line and header
    limits).  Per-request access logging is off: ``/metrics`` is the
    observability.
    """

    # Without TCP_NODELAY each small response on a kept-alive connection
    # waits out Nagle's algorithm against the client's delayed ACK (~40 ms).
    disable_nagle_algorithm = True
    # Socket timeout: a client that idles, or declares a body it never
    # sends, frees its handler thread after this many seconds.
    timeout = 30

    def handle(self) -> None:
        try:
            while self._serve_one():
                pass
        except OSError:
            pass  # the client hung up or timed out: nobody is left to answer

    def _serve_one(self) -> bool:
        """Answer one request; False once the connection is done."""
        server = self.server
        server.idle(self.connection)
        request_line = self.rfile.readline(_MAX_LINE + 1)
        server.busy(self.connection)
        if not request_line:
            return False  # the client, or the drain, ended the connection
        try:
            method, path, length, keep_alive, expects_continue = _read_head(
                self.rfile, request_line
            )
        except ProtocolError as refusal:
            body = json.dumps(encode_error(refusal.message, refusal.code)).encode()
            headers = [("Content-Type", "application/json"),
                       ("Content-Length", str(len(body)))]
            self._send(refusal.status, headers, body, close=True)
            return False
        # A body left unread would be parsed as the next request, so an
        # out-of-range declaration gets the app's 400/413 and a hang-up.
        readable = 0 <= length <= MAX_BODY_BYTES
        if readable and length and expects_continue:
            self.connection.sendall(_CONTINUE)
        body = self.rfile.read(length) if readable else b""
        status, headers, raw = server.app(method, path, length, body, server.shared)
        close = not (readable and keep_alive) or server.closing
        self._send(status, headers, b"" if method == "HEAD" else raw, close)
        return not close

    def _send(self, status: int, headers, body: bytes, close: bool) -> None:
        """Status line, headers and body in one write."""
        head = [f"HTTP/1.1 {status} {_REASONS.get(status, '')}",
                f"Date: {self.server.date()}"]
        head += [f"{name}: {value}" for name, value in headers]
        if close:
            head.append("Connection: close")
        head.append("\r\n")
        self.connection.sendall("\r\n".join(head).encode("latin-1") + body)


class _HTTPServer(ThreadingMixIn, TCPServer):
    """A thread-per-connection server over an already-listening socket.

    ``shared`` marks a fleet's shared socket, where the app answers
    ``/metrics`` for the whole fleet.

    The drain: a connection counts as idle while its handler waits for
    the next request line.  :meth:`server_close` shuts idle connections
    for reading, so their handlers see EOF and return at once (a request
    already buffered is still served), lets in-flight requests finish and
    answer with ``Connection: close``, then joins every handler thread.
    """

    def __init__(self, sock: socketlib.socket, app: BoundsApp, shared: bool) -> None:
        # Not TCPServer.__init__, which would create a socket of its own.
        BaseServer.__init__(self, sock.getsockname()[:2], _RequestHandler)
        self.socket = sock
        self.app = app
        self.shared = shared
        self.closing = False
        self._lock = threading.Lock()
        self._idle: Set[socketlib.socket] = set()
        self._date = (0, "")

    def date(self) -> str:
        """The ``Date`` header's value, formatted once per second."""
        now = int(time.time())
        if now != self._date[0]:
            self._date = (now, formatdate(now, usegmt=True))
        return self._date[1]

    def idle(self, connection: socketlib.socket) -> None:
        with self._lock:
            self._idle.add(connection)
            if self.closing:
                self._shut_for_reading(connection)

    def busy(self, connection: socketlib.socket) -> None:
        with self._lock:
            self._idle.discard(connection)

    def shutdown_request(self, request: socketlib.socket) -> None:
        self.busy(request)
        super().shutdown_request(request)

    @staticmethod
    def _shut_for_reading(connection: socketlib.socket) -> None:
        try:
            connection.shutdown(socketlib.SHUT_RD)
        except OSError:
            pass  # already gone

    def server_close(self) -> None:
        with self._lock:
            self.closing = True
            for connection in self._idle:
                self._shut_for_reading(connection)
        # Closes the listening socket, then joins every handler thread.
        super().server_close()


class BoundServer:
    """A :class:`~repro.runtime.service.BoundService` bound to a TCP port.

    Parameters
    ----------
    service:
        The service to expose (owns every cache tier).
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (tests do this).
    max_in_flight, max_queue:
        Admission-control knobs (see :class:`AdmissionController`).  The
        controller is handed to the service (``service.admission``), which
        takes a slot only for its cold solves.

    Use either as a context manager around :meth:`start` (background
    threads, e.g. tests/benchmarks) or via :meth:`serve_forever` (the CLI).
    :meth:`close` drains: in-flight requests finish and answer, idle
    keep-alive connections close at once.
    """

    def __init__(
        self,
        service: BoundService,
        host: str = "127.0.0.1",
        port: int = 0,
        max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
        max_queue: int = DEFAULT_MAX_QUEUE,
    ) -> None:
        self._assemble(
            service, [(_listen(host, port), False)], None, max_in_flight, max_queue
        )

    @classmethod
    def _fleet_worker(
        cls,
        config: "FleetConfig",
        sharding: "ShardInfo",
        shared_sock: socketlib.socket,
        direct_sock: socketlib.socket,
    ) -> "BoundServer":
        """One fleet worker's server, over the sockets the parent bound."""
        server = cls.__new__(cls)
        server._assemble(
            config.build_service(), [(shared_sock, True), (direct_sock, False)],
            sharding, config.max_in_flight, config.max_queue,
        )
        return server

    def _assemble(self, service, sockets, sharding, max_in_flight, max_queue) -> None:
        self.service = service
        self.admission = AdmissionController(
            max_in_flight=max_in_flight, max_queue=max_queue
        )
        service.admission = self.admission
        self.app = BoundsApp(service, self.admission, sharding)
        self._httpds = [_HTTPServer(sock, self.app, shared) for sock, shared in sockets]
        self._threads: List[threading.Thread] = []

    @property
    def host(self) -> str:
        return self._httpds[0].server_address[0]

    @property
    def port(self) -> int:
        return self._httpds[0].server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "BoundServer":
        """Serve from daemon threads (one per socket); returns immediately."""
        if self._threads:
            raise RuntimeError("server already started")
        self._threads = [
            threading.Thread(
                target=httpd.serve_forever,
                kwargs={"poll_interval": 0.05},
                name=f"repro-server:{httpd.server_address[1]}",
                daemon=True,
            )
            for httpd in self._httpds
        ]
        for thread in self._threads:
            thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve until interrupted (the CLI path); the caller then closes."""
        self.start()
        threading.Event().wait()

    def close(self) -> None:
        """Stop accepting, finish in-flight requests, close idle connections."""
        if self._threads:
            for httpd in self._httpds:
                httpd.shutdown()
        for httpd in self._httpds:
            httpd.server_close()
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._threads = []

    def __enter__(self) -> "BoundServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# pre-forked fleet
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardInfo:
    """One worker's view of the fleet, injected into its :class:`BoundsApp`.

    ``worker_urls[i]`` is worker ``i``'s *direct* base URL, where its
    ``/metrics`` are scraped.  ``restarts`` is this worker's incarnation
    number: 0 for the original process, incremented by the parent's
    supervisor for each respawn, so a worker's own telemetry reveals it is
    a replacement.
    """

    worker_id: int
    worker_urls: Tuple[str, ...]
    restarts: int = 0

    @property
    def num_workers(self) -> int:
        return len(self.worker_urls)

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
    over the common on-disk store root, which a fleet cannot do without.
    """

    store_root: str
    num_eigenvalues: int = 100
    solver: str = "auto"
    max_in_flight: int = DEFAULT_MAX_IN_FLIGHT
    max_queue: int = DEFAULT_MAX_QUEUE

    def build_service(self) -> BoundService:
        from repro.runtime.store import SpectrumStore

        return BoundService(
            store=SpectrumStore(self.store_root),
            num_eigenvalues=self.num_eigenvalues,
            solver=self.solver,
        )


def _fleet_worker_main(
    worker_id: int,
    shared_sock: socketlib.socket,
    direct_socks: Sequence[socketlib.socket],
    worker_urls: Tuple[str, ...],
    config: FleetConfig,
    incarnation: int,
    ready,
) -> None:
    """One worker process: accept on the shared + own direct socket, drain on SIGTERM.

    ``ready`` (a ``multiprocessing`` event) is set once the worker serves.
    """
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
    # Tracing needs no setup here: this fork keeps the parent's tracer and
    # appends through its descriptor.  That is safe because the parent
    # writes no spans, so no held write lock crosses the fork.

    sharding = ShardInfo(worker_id, tuple(worker_urls), restarts=incarnation)
    server = BoundServer._fleet_worker(config, sharding, shared_sock, direct_sock)
    server.start()
    ready.set()
    try:
        stop.wait()
    finally:
        # The drain; it also closes this process's copies of the socket fds.
        server.close()


class ServerFleet:
    """A pre-forked fleet of shared-nothing bound-serving workers.

    The parent creates every listening socket *before* forking — the
    shared public one (``host:port``) all workers accept on, plus one
    ephemeral direct socket per worker — so a respawned worker reclaims
    its predecessor's exact ports.  :meth:`start` returns once every
    worker serves, and raises if one exits before it does; a monitor
    thread restarts dead workers (counted in :attr:`restarts`);
    :meth:`close` SIGTERMs the fleet and reaps it.

    Workers are shared-nothing above the disk: each owns its service,
    caches and admission control.  What makes the fleet *coherent* is the
    on-disk store (every solve published once, readable by all) and its
    solve leases (concurrent cold misses collapse to one eigensolve or
    max-flow pass fleet-wide).
    """

    def __init__(
        self,
        config: FleetConfig,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
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
        self._shared_sock = _listen(host, port)
        # Non-blocking: N workers race accept() on this socket; with a
        # blocking fd the kernel may wake several and park the losers in
        # accept() forever.  socketserver tolerates the EAGAIN of losing.
        self._shared_sock.setblocking(False)
        self.port = int(self._shared_sock.getsockname()[1])
        self._direct_socks = [_listen(host, 0) for _ in range(self.num_workers)]
        self.worker_urls: Tuple[str, ...] = tuple(
            f"http://{host}:{sock.getsockname()[1]}" for sock in self._direct_socks
        )
        self._procs: List[Optional[multiprocessing.process.BaseProcess]] = [
            None
        ] * self.num_workers
        self._restarts = [0] * self.num_workers
        self._closing = threading.Event()
        self._monitor: Optional[threading.Thread] = None

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
        ready = [self._spawn(worker_id) for worker_id in range(self.num_workers)]
        # Return once every worker serves.  Connections made earlier queue
        # on the shared socket for whichever worker starts first, and
        # keep-alive would pin them all to it while its siblings idle.  A
        # worker that dies first would die again on every respawn (a bad
        # config), so the fleet does not start at all.
        for worker_id, (proc, event) in enumerate(zip(self._procs, ready)):
            while not event.wait(0.05):
                if not proc.is_alive() and not event.is_set():
                    exitcode = proc.exitcode
                    self.close()
                    raise RuntimeError(
                        f"fleet worker {worker_id} exited with code {exitcode} "
                        f"before it served"
                    )
        self._monitor = threading.Thread(
            target=self._supervise, name="repro-fleet-monitor", daemon=True
        )
        self._monitor.start()
        return self

    def _spawn(self, worker_id: int):
        """Fork one worker; returns the event it sets once it serves."""
        ready = self._ctx.Event()
        proc = self._ctx.Process(
            target=_fleet_worker_main,
            args=(
                worker_id,
                self._shared_sock,
                tuple(self._direct_socks),
                self.worker_urls,
                self.config,
                self._restarts[worker_id],
                ready,
            ),
            name=f"repro-worker-{worker_id}",
            daemon=True,
        )
        proc.start()
        self._procs[worker_id] = proc
        return ready

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
