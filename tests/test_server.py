"""Tests for the ``repro.server`` HTTP serving layer.

Three layers are covered: the pure pieces (protocol codec, metrics
registry, admission controller) without any sockets; a live threaded
server hammered from many client threads, checked for exact parity with
direct :class:`BoundService` calls; and the serving policies driven
deterministically through a real service whose eigensolves are held
(concurrent misses must share one solve, warm answers must never wait,
overload must 429 without corrupting state).
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.graphs.generators import fft_graph, hypercube_graph
from repro.obs.metrics import MetricsRegistry
from repro.runtime.cli import build_parser, build_server_from_args
from repro.runtime.families import GraphSpec
from repro.runtime.service import BoundQuery, BoundService
from repro.runtime.store import CutStore, SpectrumStore
from repro.server.client import BoundsClient, ServerError, parse_metric
from repro.server.protocol import (
    MAX_QUERIES_PER_REQUEST,
    PROTOCOL_VERSION,
    GraphRegistry,
    ProtocolError,
    decode_answers,
    decode_bounds_request,
    encode_answers,
    encode_bounds_request,
)
from repro.server.runner import (
    AdmissionController,
    BoundServer,
    FleetConfig,
    ServerFleet,
    ServerOverloadedError,
)

NUM_EIGENVALUES = 20

#: The mixed workload the live-server tests replay: both normalisations,
#: the parallel bound, the convex min-cut baseline, two graph families.
MIXED_QUERIES = [
    BoundQuery(GraphSpec(family="fft", size_param=3), 2),
    BoundQuery(GraphSpec(family="fft", size_param=4), 4),
    BoundQuery(GraphSpec(family="fft", size_param=3), 2, normalization="unnormalized"),
    BoundQuery(GraphSpec(family="fft", size_param=3), 4, num_processors=2),
    BoundQuery(GraphSpec(family="hypercube", size_param=3), 2),
    BoundQuery(GraphSpec(family="fft", size_param=3), 2, method="convex-min-cut"),
    BoundQuery(GraphSpec(family="fft", size_param=4), 4, method="convex-min-cut"),
]


def wait_until(predicate, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(0.005)


def direct_answers(queries):
    """What a fresh, cache-cold BoundService answers for ``queries``."""
    return BoundService(num_eigenvalues=NUM_EIGENVALUES).submit(queries)


def assert_same_bounds(got, expected):
    assert len(got) == len(expected)
    for answer, reference in zip(got, expected):
        assert answer.graph == reference.graph
        assert answer.bound == reference.bound
        assert answer.raw_value == reference.raw_value
        assert answer.best_k == reference.best_k
        assert answer.num_vertices == reference.num_vertices
        assert answer.normalization == reference.normalization


@pytest.fixture
def live_server():
    service = BoundService(num_eigenvalues=NUM_EIGENVALUES)
    server = BoundServer(service, port=0).start()
    yield server
    server.close()


class TestProtocol:
    def test_family_request_roundtrip(self):
        queries = [
            BoundQuery(GraphSpec(family="fft", size_param=4), 8),
            BoundQuery(
                GraphSpec(family="fft", size_param=4), 8,
                normalization="unnormalized", num_processors=2, k=3,
                method="spectral",
            ),
        ]
        payload = encode_bounds_request(queries)
        assert payload["version"] == PROTOCOL_VERSION
        decoded = decode_bounds_request(payload)
        assert [item.query for item in decoded] == queries
        assert [item.fingerprint for item in decoded] == [None, None]

    def test_inline_graph_registers_and_fingerprint_resolves(self):
        registry = GraphRegistry()
        graph = fft_graph(3)
        payload = encode_bounds_request([BoundQuery(graph, 4)])
        decoded = decode_bounds_request(payload, registry)[0]
        assert decoded.fingerprint == graph.fingerprint()
        assert decoded.query.graph.num_vertices == graph.num_vertices
        by_handle = decode_bounds_request(
            {"queries": [{"graph": {"fingerprint": graph.fingerprint()},
                          "memory_size": 4}]},
            registry,
        )[0]
        # Same canonical instance -> the service reuses one warm engine.
        assert by_handle.query.graph is decoded.query.graph
        assert by_handle.fingerprint == decoded.fingerprint

    def test_unknown_fingerprint_is_404(self):
        with pytest.raises(ProtocolError) as info:
            decode_bounds_request(
                {"queries": [{"graph": {"fingerprint": "feed"}, "memory_size": 4}]},
                GraphRegistry(),
            )
        assert info.value.status == 404
        assert info.value.code == "unknown-graph"

    def test_registry_is_a_bounded_lru(self):
        registry = GraphRegistry(max_graphs=2)
        graphs = [fft_graph(2), fft_graph(3), hypercube_graph(2)]
        for graph in graphs:
            registry.register(graph)
        assert len(registry) == 2
        assert registry.get(graphs[0].fingerprint()) is None
        assert registry.get(graphs[2].fingerprint()) is not None

    @pytest.mark.parametrize(
        "payload, code",
        [
            ([], "bad-request"),
            ({"version": 99, "queries": []}, "unsupported-version"),
            ({"queries": []}, "bad-request"),
            ({"queries": [], "surprise": 1}, "bad-request"),
            ({"queries": [{"memory_size": 4}]}, "invalid-query"),
            ({"queries": [{"graph": {"family": "fft", "size": 3}}]}, "invalid-query"),
            ({"queries": [{"graph": {"family": "fft", "size": 3},
                           "memory_size": 4, "memory-size": 4}]}, "invalid-query"),
            ({"queries": [{"graph": {"family": "fft", "size": 3},
                           "memory_size": -1}]}, "invalid-query"),
            ({"queries": [{"graph": {"family": "fft", "size": 3},
                           "memory_size": True}]}, "invalid-query"),
            ({"queries": [{"graph": {"family": "nope", "size": 3},
                           "memory_size": 4}]}, "unknown-family"),
            ({"queries": [{"graph": {"family": "fft", "size": 3},
                           "memory_size": 4,
                           "normalization": "sideways"}]}, "invalid-query"),
            ({"queries": [{"graph": {"family": "fft", "size": 3},
                           "memory_size": 4,
                           "method": "magic"}]}, "invalid-query"),
            ({"queries": [{"graph": {"path": "/etc/passwd"},
                           "memory_size": 4}]}, "invalid-graph-ref"),
            ({"queries": [{"graph": {"num_vertices": 2, "edges": [[0, 1, 2]]},
                           "memory_size": 4}]}, "invalid-graph-ref"),
            ({"queries": [{"graph": {"num_vertices": 2, "edges": [[0, 2**63]]},
                           "memory_size": 4}]}, "invalid-graph-ref"),
            ({"queries": [{"graph": {"num_vertices": 10**9, "edges": []},
                           "memory_size": 4}]}, "graph-too-large"),
        ],
    )
    def test_schema_violations(self, payload, code):
        with pytest.raises(ProtocolError) as info:
            decode_bounds_request(payload, GraphRegistry())
        assert info.value.code == code

    def test_batch_ceiling(self):
        query = {"graph": {"family": "fft", "size": 3}, "memory_size": 4}
        with pytest.raises(ProtocolError) as info:
            decode_bounds_request(
                {"queries": [query] * (MAX_QUERIES_PER_REQUEST + 1)}
            )
        assert info.value.status == 413

    def test_answers_roundtrip(self):
        answers = direct_answers(MIXED_QUERIES[:2])
        payload = encode_answers(answers, ["ab12", None])
        assert payload["answers"][0]["fingerprint"] == "ab12"
        assert "fingerprint" not in payload["answers"][1]
        assert decode_answers(payload) == answers

    def test_answers_from_another_server_version_decode(self):
        # Servers before this protocol revision also sent
        # served_by_trace_id, and a later one may add a field; a client
        # skips fields it does not know, but still refuses an answer
        # missing one it needs.
        [answer] = direct_answers(MIXED_QUERIES[:1])
        payload = encode_answers([answer])
        payload["answers"][0].update(served_by_trace_id=None, added_later=1)
        assert decode_answers(payload) == [answer]
        del payload["answers"][0]["bound"]
        with pytest.raises(ProtocolError) as info:
            decode_answers(payload)
        assert info.value.code == "invalid-response"

    def test_path_specs_are_local_only(self):
        with pytest.raises(ProtocolError, match="local-only"):
            encode_bounds_request([BoundQuery(GraphSpec(path="g.npz"), 4)])


class TestMetricsRegistry:
    def test_counter_labels_and_totals(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits_total", "Hits.", labelnames=("kind",))
        counter.inc(kind="a")
        counter.inc(2, kind="b")
        assert counter.value(kind="a") == 1
        assert counter.total() == 3
        with pytest.raises(ValueError):
            counter.inc(-1, kind="a")
        with pytest.raises(ValueError):
            counter.inc(kind="a", extra="nope")

    def test_callback_counter_tracks_source(self):
        registry = MetricsRegistry()
        box = {"n": 0}
        counter = registry.counter("live_total", "Live.", callback=lambda: box["n"])
        assert counter.total() == 0
        box["n"] = 7
        assert counter.total() == 7
        assert "live_total 7" in registry.render()
        with pytest.raises(ValueError):
            counter.inc()

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "latency_seconds", "Latency.", buckets=(0.1, 1.0)
        )
        for value in (0.05, 0.1, 0.5, 3.0):
            histogram.observe(value)
        text = registry.render()
        assert 'latency_seconds_bucket{le="0.1"} 2' in text  # le is inclusive
        assert 'latency_seconds_bucket{le="1"} 3' in text
        assert 'latency_seconds_bucket{le="+Inf"} 4' in text
        assert "latency_seconds_count 4" in text
        assert histogram.count() == 4

    def test_render_and_parse_agree(self):
        registry = MetricsRegistry()
        counter = registry.counter("reqs_total", "Reqs.", labelnames=("status",))
        counter.inc(3, status="200")
        counter.inc(1, status="429")
        assert parse_metric(registry.render(), "reqs_total") == 4
        with pytest.raises(KeyError):
            parse_metric(registry.render(), "absent_total")

    def test_conflicting_reregistration_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "A.")
        assert registry.counter("a_total", "A.") is registry.get("a_total")
        with pytest.raises(ValueError):
            registry.counter("a_total", "A.", labelnames=("x",))
        with pytest.raises(ValueError):
            registry.gauge("a_total", "A.")


class TestAdmissionController:
    def test_fast_fail_beyond_queue(self):
        admission = AdmissionController(max_in_flight=1, max_queue=0)
        admission.acquire()
        with pytest.raises(ServerOverloadedError) as info:
            admission.acquire()
        assert info.value.retry_after_seconds == admission.retry_after_seconds
        assert admission.rejected == 1
        admission.release()
        admission.acquire()  # slot free again
        admission.release()
        assert admission.stats()["admitted"] == 2

    def test_fresh_arrivals_never_barge_past_queued_waiters(self):
        # A released slot is handed straight to a queued waiter; a request
        # arriving in that window must queue (or shed), never jump ahead.
        admission = AdmissionController(max_in_flight=1, max_queue=2)
        admission.acquire()
        events: list = []

        def enter(name: str):
            admission.acquire()
            events.append(name)

        waiter = threading.Thread(target=enter, args=("waiter",), daemon=True)
        waiter.start()
        wait_until(lambda: admission.queued == 1)
        admission.release()  # slot handed to the waiter, never visibly free
        barger = threading.Thread(target=enter, args=("barger",), daemon=True)
        barger.start()
        waiter.join(timeout=5)
        wait_until(lambda: len(events) >= 1)
        assert events[0] == "waiter"
        admission.release()  # the waiter's slot -> the barger
        barger.join(timeout=5)
        assert events == ["waiter", "barger"]
        admission.release()
        assert admission.in_flight == 0 and admission.queued == 0

    def test_queued_request_waits_for_slot(self):
        admission = AdmissionController(max_in_flight=1, max_queue=1)
        admission.acquire()
        acquired = threading.Event()

        def wait_for_slot():
            admission.acquire()
            acquired.set()

        thread = threading.Thread(target=wait_for_slot, daemon=True)
        thread.start()
        wait_until(lambda: admission.queued == 1)
        assert not acquired.is_set()
        admission.release()
        wait_until(acquired.is_set)
        admission.release()
        thread.join(timeout=5)
        assert admission.queued == 0 and admission.in_flight == 0


    def test_many_threads_never_exceed_the_window_or_lose_a_slot(self):
        import sys

        admission = AdmissionController(max_in_flight=2, max_queue=64)
        lock = threading.Lock()
        active = [0]
        peak = [0]

        def work():
            for _ in range(50):
                with admission.slot():
                    with lock:
                        active[0] += 1
                        peak[0] = max(peak[0], active[0])
                    with lock:
                        active[0] -= 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, daemon=True) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert peak[0] <= 2
        assert admission.in_flight == 0 and admission.queued == 0
        assert admission.admitted == 8 * 50


class TestEndpoints:
    def test_healthz(self, live_server):
        health = BoundsClient(live_server.url).health()
        assert health["status"] == "ok"
        assert health["protocol_version"] == PROTOCOL_VERSION

    def test_unknown_path_and_wrong_method(self, live_server):
        client = BoundsClient(live_server.url)
        with pytest.raises(ServerError) as info:
            client._request("/v2/bounds", {"queries": []})
        assert info.value.status == 404 and info.value.code == "not-found"
        with pytest.raises(ServerError) as info:
            client._request("/v1/bounds")  # GET
        assert info.value.status == 405 and info.value.code == "method-not-allowed"

    def test_bounds_match_direct_service(self, live_server):
        answers = BoundsClient(live_server.url).bounds(MIXED_QUERIES)
        assert_same_bounds(answers, direct_answers(MIXED_QUERIES))

    def test_inline_then_fingerprint_requery(self, live_server):
        client = BoundsClient(live_server.url)
        graph = fft_graph(3)
        [inline_answer] = client.bounds([BoundQuery(graph, 2)])
        raw = client.bounds_raw(
            {"queries": [{"graph": {"fingerprint": graph.fingerprint()},
                          "memory_size": 2}]}
        )
        assert raw["answers"][0]["fingerprint"] == graph.fingerprint()
        assert raw["answers"][0]["bound"] == inline_answer.bound
        [direct] = direct_answers([BoundQuery(fft_graph(3), 2)])
        assert inline_answer.bound == direct.bound
        # One engine, one spectrum: the re-query hit the registered graph.
        assert live_server.service.counters()["cache_misses"] == 1

    def test_non_json_body_is_a_structured_400(self, live_server):
        import http.client

        conn = http.client.HTTPConnection(
            live_server.host, live_server.port, timeout=10
        )
        try:
            conn.request(
                "POST", "/v1/bounds", body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            raw = response.read()
            error = BoundsClient._server_error(
                response.status, dict(response.getheaders()), raw
            )
        finally:
            conn.close()
        assert error.status == 400 and error.code == "malformed-json"

    def test_negative_content_length_is_rejected_not_hung(self, live_server):
        import socket

        with socket.create_connection(
            (live_server.host, live_server.port), timeout=5
        ) as sock:
            sock.sendall(
                b"POST /v1/bounds HTTP/1.1\r\nHost: test\r\n"
                b"Content-Length: -1\r\n\r\n"
            )
            status_line = sock.recv(4096).split(b"\r\n", 1)[0]
        assert b"400" in status_line  # not a handler thread parked on read(-1)

    def test_underfed_body_times_out_and_frees_the_thread(self, monkeypatch):
        # A declared-but-never-sent body (slowloris) must not park the
        # handler thread forever: the socket timeout turns the starved
        # read into a 503 (or a dropped connection) and the server lives.
        import socket

        from repro.server import runner as runner_module

        monkeypatch.setattr(runner_module._RequestHandler, "timeout", 0.5)
        service = BoundService(num_eigenvalues=NUM_EIGENVALUES)
        with BoundServer(service, port=0) as server:
            server.start()
            with socket.create_connection(
                (server.host, server.port), timeout=10
            ) as sock:
                sock.sendall(
                    b"POST /v1/bounds HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: 100000\r\n\r\n{\"queries\""
                )
                response = sock.recv(4096)  # raises on client timeout = bug
            assert response == b"" or b"503" in response.split(b"\r\n", 1)[0]
            assert BoundsClient(server.url).health()["status"] == "ok"

    def test_unknown_http_verbs_do_not_mint_metric_labels(self, live_server):
        import socket

        with socket.create_connection(
            (live_server.host, live_server.port), timeout=5
        ) as sock:
            sock.sendall(b"EVILVERB /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            sock.recv(4096)
        text = BoundsClient(live_server.url).metrics_text()
        assert "EVILVERB" not in text
        assert 'method="other"' in text

    def test_head_answer_has_no_body_and_keeps_the_connection_usable(self, live_server):
        import http.client

        conn = http.client.HTTPConnection(live_server.host, live_server.port, timeout=10)
        try:
            conn.request("HEAD", "/healthz")
            response = conn.getresponse()
            assert response.status == 405 and response.read() == b""
            conn.request("GET", "/healthz")  # a body sent after HEAD would garble this
            assert json.loads(conn.getresponse().read())["status"] == "ok"
        finally:
            conn.close()

    def test_malformed_payloads_are_structured_400s(self, live_server):
        client = BoundsClient(live_server.url)
        for payload in ({}, {"queries": "x"}, {"queries": [0]}):
            with pytest.raises(ServerError) as info:
                client.bounds_raw(payload)
            assert info.value.status == 400

    def test_service_value_errors_map_to_400(self, live_server):
        client = BoundsClient(live_server.url)
        with pytest.raises(ServerError) as info:
            client.bounds(
                [BoundQuery(GraphSpec(family="fft", size_param=3), 4,
                            normalization="sideways")]
            )
        assert info.value.status == 400 and info.value.code == "invalid-query"
        # The failure corrupted nothing: the same connection keeps serving.
        assert client.bounds(MIXED_QUERIES[:1])[0].graph == "fft:3"

    def test_out_of_float_range_memory_is_a_400_and_huge_p_answers(self, live_server):
        client = BoundsClient(live_server.url)
        for method in ("spectral", "convex-min-cut"):
            with pytest.raises(ServerError) as info:
                client.bounds_raw({"queries": [{
                    "graph": {"family": "fft", "size": 5},
                    "memory_size": 10**400, "method": method}]})
            assert info.value.status == 400 and info.value.code == "invalid-query"
        # floor(n / (k p)) is 0 for every k, so the best is k = 2, at
        # -2kM = -16; computing k p first would overflow an int64.
        raw = client.bounds_raw({"queries": [{
            "graph": {"family": "fft", "size": 5},
            "memory_size": 4, "num_processors": 10**20}]})
        answer = raw["answers"][0]
        assert (answer["bound"], answer["raw_value"], answer["best_k"]) == (0.0, -16.0, 2)
        assert answer["num_processors"] == 10**20

    def test_memory_size_is_capped_where_every_answer_is_json(self, live_server):
        """Up to 2**53 every integer M is an exact float and 2kM stays
        finite, so the body is strict JSON.  Above it the query is a 400:
        at 10**308, 2kM overflowed at every k and the answer carried
        ``-Infinity`` (with ``best_k`` 1)."""
        import http.client

        def strict(constant):
            raise ValueError(f"{constant} is not JSON")

        query = {"graph": {"family": "fft", "size": 4}, "memory_size": 2**53}
        conn = http.client.HTTPConnection(live_server.host, live_server.port, timeout=30)
        try:
            conn.request("POST", "/v1/bounds", body=json.dumps({"queries": [query]}),
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            body = response.read()
        finally:
            conn.close()
        assert response.status == 200
        [answer] = json.loads(body, parse_constant=strict)["answers"]
        assert answer["memory_size"] == 2**53 and answer["best_k"] == 2
        assert -float("inf") < answer["raw_value"] < 0.0 and answer["bound"] == 0.0
        client = BoundsClient(live_server.url)
        for memory_size in (2**53 + 1, 10**308):
            with pytest.raises(ServerError) as info:
                client.bounds_raw({"queries": [dict(query, memory_size=memory_size)]})
            assert info.value.status == 400 and info.value.code == "invalid-query"

    def test_rejected_values_never_reach_metric_labels(self, live_server):
        # method/normalization label repro_queries_total; unvalidated
        # client strings would grow the label cardinality without bound.
        client = BoundsClient(live_server.url)
        for field, value in (("normalization", "garbage-1"), ("method", "garbage-2")):
            with pytest.raises(ServerError):
                client.bounds_raw(
                    {"queries": [{"graph": {"family": "fft", "size": 3},
                                  "memory_size": 4, field: value}]}
                )
        assert "garbage" not in client.metrics_text()

    def test_stats_endpoint_shape(self, live_server):
        client = BoundsClient(live_server.url)
        client.bounds(MIXED_QUERIES[:2])
        stats = client.stats()
        assert stats["version"] == PROTOCOL_VERSION
        assert stats["service"]["queries_served"] == 2
        assert stats["admission"]["admitted"] == 2  # one slot per eigensolve
        assert "coalescing" not in stats
        assert stats["metrics"]["repro_http_requests_total"] >= 1
        client.bounds(MIXED_QUERIES[:2])
        assert client.stats()["admission"]["admitted"] == 2  # warm: no slot

    def test_metrics_endpoint(self, live_server):
        client = BoundsClient(live_server.url)
        client.bounds(MIXED_QUERIES)
        text = client.metrics_text()
        assert "# TYPE repro_http_requests_total counter" in text
        assert "# TYPE repro_http_request_seconds histogram" in text
        assert parse_metric(text, "repro_eigensolves_total") > 0
        assert parse_metric(text, "repro_flow_calls_total") > 0
        assert parse_metric(text, "repro_queries_total") == len(MIXED_QUERIES)
        assert parse_metric(client.metrics_text(), "repro_http_requests_total") >= 2


class TestConcurrentServing:
    THREADS = 8
    ROUNDS = 3

    def test_hammer_matches_direct_answers(self, live_server):
        expected = direct_answers(MIXED_QUERIES)
        client = BoundsClient(live_server.url)
        results: dict = {}
        errors: list = []

        def hammer(thread_index: int):
            try:
                for round_index in range(self.ROUNDS):
                    answers = client.bounds(MIXED_QUERIES)
                    results[(thread_index, round_index)] = answers
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(index,), daemon=True)
            for index in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert len(results) == self.THREADS * self.ROUNDS
        for answers in results.values():
            assert_same_bounds(answers, expected)
        stats = live_server.service.counters()
        assert stats["queries_served"] >= len(MIXED_QUERIES)
        # However the herd interleaved, concurrent misses on one spectrum
        # share one solve: one eigensolve per distinct (graph,
        # normalization) pair, even where different queries need it (fft:3
        # at M=2 and at M=4/p=2).
        assert stats["cache_misses"] == 4
        metrics = BoundsClient(live_server.url).metrics_text()
        assert parse_metric(metrics, "repro_eigensolves_total") == 4
        served = self.THREADS * self.ROUNDS * len(MIXED_QUERIES)
        assert parse_metric(metrics, "repro_queries_total") == served

    def test_warm_store_serves_http_with_zero_solves(self, tmp_path):
        store = tmp_path / "spectra"
        queries = MIXED_QUERIES
        cold_service = BoundService(store=store, num_eigenvalues=NUM_EIGENVALUES)
        with BoundServer(cold_service, port=0) as server:
            server.start()
            cold = BoundsClient(server.url).bounds(queries)
        warm_service = BoundService(store=store, num_eigenvalues=NUM_EIGENVALUES)
        with BoundServer(warm_service, port=0) as server:
            server.start()
            client = BoundsClient(server.url)
            warm = client.bounds(queries)
            assert client.metric("repro_eigensolves_total") == 0
            assert client.metric("repro_flow_calls_total") == 0
            assert client.metric("repro_store_hits_total") > 0
        assert_same_bounds(warm, cold)


class HeldSolves:
    """Holds every eigensolve of a real :class:`BoundService` until released.

    ``started`` lists the graphs whose solves began; ``fail_with`` makes a
    released solve raise instead of solving.
    """

    def __init__(self, service: BoundService, fail_with: Exception = None) -> None:
        self.release = threading.Event()
        self.started: list = []
        self.fail_with = fail_with
        solve = service.cache._solve

        def held(graph, *args):
            self.started.append(graph)
            if not self.release.wait(timeout=30):
                raise TimeoutError("held solve never released")
            if self.fail_with is not None:
                raise self.fail_with
            return solve(graph, *args)

        service.cache._solve = held


QUERY_A = {"graph": {"family": "fft", "size": 3}, "memory_size": 4}
QUERY_B = {"graph": {"family": "fft", "size": 4}, "memory_size": 4}


def expected_bound(payload: dict) -> float:
    """What a fresh service answers for one wire query."""
    [item] = decode_bounds_request({"queries": [payload]})
    return direct_answers([item.query])[0].bound


def post_in_thread(client: BoundsClient, payload: dict, outcomes: list):
    def run():
        try:
            outcomes.append(client.bounds_raw({"queries": [payload]}))
        except ServerError as exc:
            outcomes.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread


def held_server(fail_with: Exception = None, **server_kwargs):
    """A server over a real service whose eigensolves wait to be released."""
    service = BoundService(num_eigenvalues=NUM_EIGENVALUES)
    solves = HeldSolves(service, fail_with)
    return BoundServer(service, port=0, **server_kwargs), solves


class TestServingPolicies:
    def test_coalescing_fires_for_identical_inflight_queries(self):
        server, solves = held_server()
        with server:
            server.start()
            client = BoundsClient(server.url)
            outcomes: list = []
            leader = post_in_thread(client, QUERY_A, outcomes)
            wait_until(lambda: len(solves.started) == 1)  # leader is solving
            followers = [post_in_thread(client, QUERY_A, outcomes) for _ in range(3)]
            wait_until(lambda: client.metric("repro_queries_total") == 4)
            time.sleep(0.1)
            assert outcomes == []  # the followers wait on the leader's solve
            solves.release.set()
            for thread in [leader] + followers:
                thread.join(timeout=10)
            assert len(solves.started) == 1  # the herd paid one solve
            counters = server.service.counters()
            assert counters["cache_misses"] == 1 and counters["cache_hits"] == 3
            bounds = [o["answers"][0]["bound"] for o in outcomes]
            assert bounds == [expected_bound(QUERY_A)] * 4
            assert client.metric("repro_eigensolves_total") == 1

    def test_distinct_queries_do_not_coalesce(self):
        server, solves = held_server()
        solves.release.set()
        with server:
            server.start()
            client = BoundsClient(server.url)
            client.bounds_raw({"queries": [QUERY_A]})
            client.bounds_raw({"queries": [QUERY_B]})
            assert len(solves.started) == 2
            assert server.service.counters()["cache_misses"] == 2

    def test_overload_returns_429_without_corrupting_state(self):
        server, solves = held_server(max_in_flight=1, max_queue=0, retry_after_seconds=2)
        with server:
            server.start()
            client = BoundsClient(server.url)
            outcomes: list = []
            blocked = post_in_thread(client, QUERY_A, outcomes)
            wait_until(lambda: len(solves.started) == 1)
            # A cold query on another graph needs its own solve slot: shed.
            with pytest.raises(ServerError) as info:
                client.bounds_raw({"queries": [QUERY_B]})
            assert info.value.status == 429
            assert info.value.code == "overloaded"
            assert info.value.retry_after_seconds == 2
            assert server.admission.rejected == 1
            solves.release.set()
            blocked.join(timeout=10)
            assert outcomes[0]["answers"][0]["bound"] == expected_bound(QUERY_A)
            # The shed request corrupted nothing: the port keeps serving,
            # in-flight bookkeeping drained back to zero.
            assert client.bounds_raw({"queries": [QUERY_B]})["answers"]
            assert server.admission.in_flight == 0
            assert server.service.cache._flights == {}
            assert client.metric("repro_admission_rejections_total") == 1

    def test_followers_bypass_admission_control(self):
        server, solves = held_server(max_in_flight=1, max_queue=0)
        with server:
            server.start()
            client = BoundsClient(server.url)
            outcomes: list = []
            leader = post_in_thread(client, QUERY_A, outcomes)
            wait_until(lambda: len(solves.started) == 1)
            # Identical queries wait on the in-flight solve instead of
            # competing for the (full) admission window: a thundering herd
            # on one graph is served whole, never shed.
            followers = [post_in_thread(client, QUERY_A, outcomes) for _ in range(4)]
            wait_until(lambda: client.metric("repro_queries_total") == 5)
            assert server.admission.rejected == 0
            solves.release.set()
            for thread in [leader] + followers:
                thread.join(timeout=10)
            assert [o["answers"][0]["bound"] for o in outcomes] == [
                expected_bound(QUERY_A)
            ] * 5
            assert len(solves.started) == 1
            assert server.admission.stats()["admitted"] == 1
            assert server.admission.rejected == 0

    def test_bad_query_fails_only_its_own_key(self):
        """One client's invalid query must never fail another client's valid
        query that waits on the same solve."""
        good = {"graph": {"family": "fft", "size": 3}, "memory_size": 4}
        bad = {"graph": {"family": "fft", "size": 3}, "memory_size": 4, "k": 1000}
        server, solves = held_server()
        with server:
            server.start()
            client = BoundsClient(server.url)
            mixed_outcomes: list = []
            good_outcomes: list = []

            def post_mixed():
                try:
                    mixed_outcomes.append(
                        client.bounds_raw({"queries": [good, bad]})
                    )
                except ServerError as exc:
                    mixed_outcomes.append(exc)

            mixed = threading.Thread(target=post_mixed, daemon=True)
            mixed.start()
            wait_until(lambda: len(solves.started) == 1)  # leading the solve
            follower = post_in_thread(client, good, good_outcomes)
            wait_until(lambda: client.metric("repro_queries_total") == 3)
            solves.release.set()
            mixed.join(timeout=10)
            follower.join(timeout=10)
            # The mixed request fails (it owns the bad query)...
            assert isinstance(mixed_outcomes[0], ServerError)
            assert mixed_outcomes[0].status == 400
            # ...but the innocent follower gets its valid answer.
            assert not isinstance(good_outcomes[0], ServerError)
            assert good_outcomes[0]["answers"][0]["bound"] == expected_bound(good)
            assert len(solves.started) == 1

    def test_leader_failure_propagates_to_followers(self, flight_waiters):
        server, solves = held_server(fail_with=ValueError("solver exploded"))
        with server:
            server.start()
            client = BoundsClient(server.url)
            outcomes: list = []
            leader = post_in_thread(client, QUERY_A, outcomes)
            wait_until(lambda: len(solves.started) == 1)
            follower = post_in_thread(client, QUERY_A, outcomes)
            wait_until(lambda: len(flight_waiters) == 1)  # waits on the solve
            solves.release.set()
            leader.join(timeout=10)
            follower.join(timeout=10)
            assert all(isinstance(o, ServerError) for o in outcomes)
            assert {o.status for o in outcomes} == {400}
            assert len(solves.started) == 1
            # The failed solve left no flight or slot; a retry leads afresh.
            assert server.service.cache._flights == {}
            assert server.admission.in_flight == 0
            solves.fail_with = None
            answer = client.bounds_raw({"queries": [QUERY_A]})["answers"][0]
            assert answer["bound"] == expected_bound(QUERY_A)
            assert len(solves.started) == 2

    def test_warm_queries_never_wait_for_cold_solves(self):
        warm = {"graph": {"family": "hypercube", "size": 3}, "memory_size": 2}
        service = BoundService(num_eigenvalues=NUM_EIGENVALUES)
        with BoundServer(service, port=0, max_in_flight=2, max_queue=0) as server:
            server.start()
            client = BoundsClient(server.url)
            client.bounds_raw({"queries": [warm]})  # warms hypercube:3
            solves = HeldSolves(service)
            outcomes: list = []
            cold = [post_in_thread(client, query, outcomes) for query in (QUERY_A, QUERY_B)]
            wait_until(lambda: len(solves.started) == 2)
            assert server.admission.in_flight == 2  # every slot is held
            before = server.admission.stats()
            # A warm query, at another M, answers while both solves block...
            again = dict(warm, memory_size=3)
            [answer] = client.bounds_raw({"queries": [again]})["answers"]
            assert answer["bound"] == expected_bound(again)
            after = server.admission.stats()
            assert (after["admitted"], after["rejected"]) == (
                before["admitted"], before["rejected"]
            )
            # ...while cold work on a new graph is shed.
            with pytest.raises(ServerError) as info:
                client.bounds_raw({"queries": [{"graph": {"family": "fft", "size": 5},
                                                "memory_size": 4}]})
            assert info.value.status == 429 and info.value.retry_after_seconds == 1
            assert outcomes == []  # the cold solves are still held
            solves.release.set()
            for thread in cold:
                thread.join(timeout=10)
            assert sorted(o["answers"][0]["bound"] for o in outcomes) == sorted(
                [expected_bound(QUERY_A), expected_bound(QUERY_B)]
            )

    def test_a_max_flow_pass_takes_one_slot_and_a_warm_pass_none(self):
        service = BoundService(num_eigenvalues=NUM_EIGENVALUES)
        admission = AdmissionController(max_in_flight=1, max_queue=0)
        service.admission = admission
        cold = BoundQuery(GraphSpec(family="fft", size_param=4), 4, method="convex-min-cut")
        [answer] = service.submit([cold])
        assert answer.bound == direct_answers([cold])[0].bound
        assert service.counters()["flow_calls"] > 1  # many flows, one slot
        assert admission.admitted == 1
        admission.acquire()  # every slot taken
        try:
            # Warm passes, at any M, answer without one...
            service.submit([BoundQuery(cold.graph, 2, method="convex-min-cut")])
            assert admission.admitted == 2 and admission.rejected == 0
            # ...while a pass that needs a max-flow is shed.
            with pytest.raises(ServerOverloadedError):
                service.submit(
                    [BoundQuery(GraphSpec(family="fft", size_param=3), 4,
                                method="convex-min-cut")]
                )
            assert admission.rejected == 1
        finally:
            admission.release()
        assert admission.in_flight == 0

    def test_distinct_memory_sizes_share_one_solve(self, tmp_path, monkeypatch):
        # Eight cold queries that differ only in M need one spectrum: one
        # eigensolve, with or without a store, and no wait on the store's
        # lease (a waiter in the same process waits on the solve itself).
        lease_waits: list = []
        monkeypatch.setattr(
            SpectrumStore, "wait_for_lease",
            lambda *args, **kwargs: lease_waits.append(args) or "timeout",
        )
        spec = {"family": "fft", "size": 5}
        for store in (None, tmp_path / "store"):
            service = BoundService(num_eigenvalues=NUM_EIGENVALUES, store=store)
            solves = HeldSolves(service)
            with BoundServer(service, port=0) as server:
                server.start()
                client = BoundsClient(server.url)
                outcomes: list = []
                herd = [
                    post_in_thread(client, {"graph": spec, "memory_size": M}, outcomes)
                    for M in range(2, 10)
                ]
                wait_until(lambda: client.metric("repro_queries_total") == 8)
                solves.release.set()
                for thread in herd:
                    thread.join(timeout=10)
            assert len(outcomes) == 8
            assert len(solves.started) == 1
            counters = service.counters()
            assert counters["cache_misses"] == 1
            assert counters["lease_leaders"] == (0 if store is None else 1)
            assert counters["lease_followers"] == 0
            assert lease_waits == []


class TestDrain:
    def test_close_answers_in_flight_and_drops_idle_connections(self):
        before = set(threading.enumerate())
        server, solves = held_server()
        server.start()
        idle = BoundsClient(server.url)
        assert idle.health()["status"] == "ok"  # now idles on a kept-alive connection
        outcomes: list = []
        in_flight = post_in_thread(BoundsClient(server.url), QUERY_A, outcomes)
        wait_until(lambda: len(solves.started) == 1)
        closer = threading.Thread(target=server.close, daemon=True)
        closer.start()
        closer.join(timeout=0.3)
        assert closer.is_alive()  # close() waits for the in-flight request
        solves.release.set()
        closer.join(timeout=1.0)
        assert not closer.is_alive()  # ...but not for the idle connection
        in_flight.join(timeout=5)
        idle.close()
        assert outcomes[0]["answers"][0]["bound"] == expected_bound(QUERY_A)
        leftover = [t for t in threading.enumerate() if t not in before]
        assert leftover == []  # every handler and serving thread was joined

    def test_fleet_close_with_a_held_connection_exits_every_worker_cleanly(self, tmp_path):
        config = FleetConfig(store_root=str(tmp_path / "store"), num_eigenvalues=NUM_EIGENVALUES)
        with ServerFleet(config, workers=2) as fleet:
            fleet.start()
            TestServerFleet._wait_healthy((fleet.url,) + fleet.worker_urls)
            held = [BoundsClient(url) for url in (fleet.url,) + fleet.worker_urls]
            for client in held:
                assert client.health()["status"] == "ok"
            procs = list(fleet._procs)
            start = time.monotonic()
            fleet.close()
            elapsed = time.monotonic() - start
        for client in held:
            client.close()
        assert [proc.exitcode for proc in procs] == [0, 0]  # drained, not SIGKILLed
        assert elapsed < 2.0


class TestServeCLI:
    def test_serve_args_build_a_working_server(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--no-store", "--max-in-flight", "2",
             "--max-queue", "5", "--retry-after", "3.5", "--num-eigenvalues", "25"]
        )
        server = build_server_from_args(args)
        try:
            server.start()
            assert server.admission.max_in_flight == 2
            assert server.admission.max_queue == 5
            assert server.admission.retry_after_seconds == 3.5
            assert server.service.store is None
            client = BoundsClient(server.url)
            assert client.health()["status"] == "ok"
            [answer] = client.bounds(MIXED_QUERIES[:1])
            [expected] = direct_answers(MIXED_QUERIES[:1])
            assert answer.bound == expected.bound
        finally:
            server.close()

    def test_serve_banner_reports_an_active_empty_store(self, tmp_path, capsys, monkeypatch):
        from repro.runtime.cli import main
        from repro.server.runner import BoundServer

        monkeypatch.setattr(BoundServer, "serve_forever", lambda self: None)
        store_root = tmp_path / "fresh-store"
        assert main(["serve", "--port", "0", "--store", str(store_root)]) == 0
        banner = capsys.readouterr().out
        # An empty store is falsy (len() == 0) but very much enabled.
        assert str(store_root) in banner
        assert "disabled" not in banner

    def test_serve_store_and_no_coalesce_flags(self, tmp_path):
        argv = ["serve", "--port", "0", "--store", str(tmp_path / "s")]
        # --no-coalesce was a flag in older builds; coalescing is always on.
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv + ["--no-coalesce"])
        server = build_server_from_args(build_parser().parse_args(argv))
        try:
            assert server.service.admission is server.admission
            assert str(server.service.store.root) == str(tmp_path / "s")
        finally:
            server.close()

    def test_workers_flag_and_env_pick_the_worker_count(self, monkeypatch):
        from repro.runtime.cli import _serve_workers

        args = build_parser().parse_args(["serve", "--workers", "3"])
        assert _serve_workers(args) == 3
        args = build_parser().parse_args(["serve"])
        assert _serve_workers(args) == 1  # no flag, no env -> single server
        monkeypatch.setenv("REPRO_SERVE_WORKERS", "4")
        assert _serve_workers(args) == 4
        monkeypatch.setenv("REPRO_SERVE_WORKERS", "0")
        assert _serve_workers(args) == 1  # clamped, never a zero-worker fleet
        monkeypatch.setenv("REPRO_SERVE_WORKERS", "junk")
        assert _serve_workers(args) == 1

    def test_fleet_without_a_store_is_a_usage_error(self, capsys, monkeypatch):
        from repro.runtime.cli import main

        # The store is all a fleet's workers share.
        with pytest.raises(SystemExit) as info:
            main(["serve", "--port", "0", "--workers", "2", "--no-store"])
        assert info.value.code == 2
        assert "needs a store" in capsys.readouterr().err
        monkeypatch.setenv("REPRO_SERVE_WORKERS", "2")
        with pytest.raises(SystemExit) as info:
            main(["serve", "--port", "0", "--no-store"])
        assert info.value.code == 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--max-in-flight", "0"], "--max-in-flight must be at least 1"),
            (["--max-queue", "-1"], "--max-queue must be at least 0"),
            (["--workers", "2", "--max-in-flight", "0"], "--max-in-flight must be at least 1"),
        ],
    )
    def test_bad_admission_config_is_a_usage_error(self, flags, message, tmp_path, capsys):
        from repro.runtime.cli import main

        # Refused before a server binds or a fleet forks: a fleet worker
        # would otherwise die on it at every respawn.
        with pytest.raises(SystemExit) as info:
            main(["serve", "--port", "0", "--store", str(tmp_path / "s")] + flags)
        assert info.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_serve_args_build_the_fleet_config(self, tmp_path):
        from repro.runtime.cli import build_fleet_from_args

        args = build_parser().parse_args(
            ["serve", "--port", "0", "--workers", "3", "--store",
             str(tmp_path / "s"), "--lease-ttl", "7.5",
             "--num-eigenvalues", "25", "--max-in-flight", "2"]
        )
        fleet = build_fleet_from_args(args, 3)
        try:
            assert fleet.num_workers == 3
            assert len(fleet.worker_urls) == 3
            assert fleet.config.store_root == str(tmp_path / "s")
            assert fleet.config.lease_ttl == 7.5
            assert fleet.config.num_eigenvalues == 25
            assert fleet.config.max_in_flight == 2
        finally:
            fleet.close()  # never started: just releases the bound sockets


class TestParseMetric:
    EXPOSITION = "\n".join(
        [
            "# HELP repro_lease_total Cross-process solve-lease episodes.",
            "# TYPE repro_lease_total counter",
            'repro_lease_total{role="leader",worker="0"} 1',
            'repro_lease_total{role="follower",worker="0"} 2',
            'repro_lease_total{role="leader",worker="1"} 4',
            "repro_eigensolves_total 6",
        ]
    )

    def test_sums_across_samples(self):
        assert parse_metric(self.EXPOSITION, "repro_lease_total") == 7.0
        assert parse_metric(self.EXPOSITION, "repro_eigensolves_total") == 6.0

    def test_label_filter_is_a_subset_match(self):
        # role="leader" matches both workers' samples; the extra worker
        # label on each sample is ignored unless asked for.
        assert parse_metric(self.EXPOSITION, "repro_lease_total", role="leader") == 5.0
        assert parse_metric(
            self.EXPOSITION, "repro_lease_total", role="leader", worker="1"
        ) == 4.0

    def test_missing_metric_or_label_raises(self):
        with pytest.raises(KeyError):
            parse_metric(self.EXPOSITION, "repro_nope_total")
        with pytest.raises(KeyError):
            parse_metric(self.EXPOSITION, "repro_lease_total", role="bystander")


class TestClientKeepAlive:
    def test_connection_is_reused_across_requests(self, live_server):
        client = BoundsClient(live_server.url)
        assert client.health()["status"] == "ok"
        first = client._local.conn
        assert client.stats()["version"] == PROTOCOL_VERSION
        assert client._local.conn is first  # same HTTPConnection, no re-handshake
        client.close()
        assert getattr(client._local, "conn", None) is None
        # A closed client transparently reconnects on the next request.
        assert client.health()["status"] == "ok"

    def test_stale_pooled_connection_is_retried_once(self, live_server):
        client = BoundsClient(live_server.url)
        assert client.health()["status"] == "ok"
        # Simulate the server reaping an idle keep-alive connection: the
        # pooled socket is dead but the pool still hands it out.
        import socket

        client._local.conn.sock.shutdown(socket.SHUT_RDWR)
        assert client.health()["status"] == "ok"  # retried on a fresh conn

    def test_sequential_keep_alive_requests_do_not_stall(self, live_server):
        # Without TCP_NODELAY on the server, every small response on a
        # kept-alive connection waits ~40 ms for the client's delayed ACK
        # (20 requests took ~0.9 s); with it, a few milliseconds in all.
        client = BoundsClient(live_server.url)
        client.bounds(MIXED_QUERIES[:1])  # warm the spectrum cache
        for request in (client.health, lambda: client.bounds(MIXED_QUERIES[:1])):
            start = time.perf_counter()
            for _ in range(20):
                request()
            assert time.perf_counter() - start < 0.4
        client.close()


def _raw_post(base_url: str, payload: dict):
    """One POST on a fresh connection; returns (status, headers, body)."""
    import http.client
    from urllib.parse import urlsplit

    parts = urlsplit(base_url)
    conn = http.client.HTTPConnection(parts.netloc, timeout=30)
    try:
        conn.request(
            "POST", "/v1/bounds", body=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


class TestServerFleet:
    @staticmethod
    def _wait_healthy(urls, timeout: float = 30.0) -> None:
        def healthy(url):
            try:
                return BoundsClient(url, timeout=5.0).health()["status"] == "ok"
            except (ServerError, OSError):
                return False

        wait_until(lambda: all(healthy(url) for url in urls), timeout=timeout)

    def test_every_worker_answers_what_it_accepts(self, tmp_path):
        config = FleetConfig(
            store_root=str(tmp_path / "store"),
            num_eigenvalues=NUM_EIGENVALUES,
            lease_ttl=10.0,
        )
        with ServerFleet(config, workers=2) as fleet:
            fleet.start()
            self._wait_healthy((fleet.url,) + fleet.worker_urls)
            client = BoundsClient(fleet.url)
            # The shared port serves the full mixed workload bit-exactly.
            expected = direct_answers(MIXED_QUERIES)
            assert_same_bounds(client.bounds(MIXED_QUERIES), expected)
            assert client.fleet_worker_urls() == list(fleet.worker_urls)

            # Every POST, on a fresh connection each so either worker may
            # accept it, is answered by the worker that accepted it: 200,
            # never a redirect.
            payload = encode_bounds_request(MIXED_QUERIES)
            for url in (fleet.url,) * 8 + fleet.worker_urls:
                status, headers, body = _raw_post(url, payload)
                assert status == 200
                assert headers["X-Repro-Worker"] in ("0", "1")
                assert "Location" not in headers
                assert_same_bounds(decode_answers(json.loads(body)), expected)
            assert fleet.restarts == [0, 0]

    def test_cold_convex_herd_pays_one_max_flow_pass(self, tmp_path):
        # Eight clients, one cold graph, eight memory sizes (so neither the
        # coalescer nor batch dedup can help), all through the shared port
        # of two workers: the store's cut lease makes the fleet pay one
        # max-flow pass, the same 368 flows one BoundService pays.
        spec = GraphSpec(family="fft", size_param=6)
        herd = [BoundQuery(spec, M, method="convex-min-cut") for M in range(2, 18, 2)]
        reference = BoundService()
        expected = reference.submit(herd)
        assert reference.counters()["flow_calls"] == 368
        root = tmp_path / "store"
        config = FleetConfig(
            store_root=str(root), num_eigenvalues=NUM_EIGENVALUES, lease_ttl=10.0
        )
        with ServerFleet(config, workers=2) as fleet:
            fleet.start()
            self._wait_healthy((fleet.url,) + fleet.worker_urls)
            clients = [BoundsClient(fleet.url, timeout=120.0) for _ in herd]
            barrier = threading.Barrier(len(herd))
            answers = [None] * len(herd)

            def ask(index):
                barrier.wait(timeout=30.0)
                [answers[index]] = clients[index].bounds([herd[index]])

            threads = [threading.Thread(target=ask, args=(i,)) for i in range(len(herd))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
            assert not any(thread.is_alive() for thread in threads)
            assert_same_bounds(answers, expected)
            merged = BoundsClient(fleet.url).metrics_text()
        assert CutStore(root).stats()["flows_recorded"] == 368
        assert parse_metric(merged, "repro_flow_calls_total") == 368

    def test_sibling_scrape_ignores_http_proxy(self, tmp_path, monkeypatch):
        # A proxy that accepts nothing: a scrape sent through it would
        # report the healthy sibling unreachable.
        monkeypatch.setenv("http_proxy", "http://127.0.0.1:9")
        monkeypatch.delenv("no_proxy", raising=False)
        monkeypatch.delenv("NO_PROXY", raising=False)
        config = FleetConfig(store_root=str(tmp_path / "store"), num_eigenvalues=NUM_EIGENVALUES)
        with ServerFleet(config, workers=2) as fleet:
            fleet.start()
            self._wait_healthy((fleet.url,) + fleet.worker_urls)
            client = BoundsClient(fleet.url)
            assert client.fleet_stats()["unreachable"] == []
            assert parse_metric(client.metrics_text(), "repro_worker_up") == 2

    def test_start_returns_once_every_worker_serves(self, tmp_path, monkeypatch):
        # A client connecting before every worker serves would queue on the
        # shared socket for the first worker up and stay pinned there.
        build = FleetConfig.build_service

        def slow_build(config):
            time.sleep(0.5)
            return build(config)

        monkeypatch.setattr(FleetConfig, "build_service", slow_build)
        config = FleetConfig(store_root=str(tmp_path / "store"), num_eigenvalues=NUM_EIGENVALUES)
        with ServerFleet(config, workers=2) as fleet:
            start = time.monotonic()
            fleet.start()
            assert time.monotonic() - start >= 0.5
            for url in fleet.worker_urls:
                assert BoundsClient(url, timeout=5.0).health()["status"] == "ok"

    def test_killed_worker_is_respawned_on_its_ports(self, tmp_path):
        import os
        import signal

        config = FleetConfig(store_root=str(tmp_path / "store"), num_eigenvalues=NUM_EIGENVALUES)
        with ServerFleet(config, workers=2) as fleet:
            fleet.start()
            self._wait_healthy((fleet.url,) + fleet.worker_urls)
            victim = fleet._procs[0]
            os.kill(victim.pid, signal.SIGKILL)
            wait_until(lambda: fleet.restarts[0] >= 1, timeout=15.0)
            # The replacement accepts on the predecessor's exact direct
            # port (the parent kept the fd open across the respawn).
            self._wait_healthy((fleet.worker_urls[0],))
            health = BoundsClient(fleet.worker_urls[0]).health()
            assert health["status"] == "ok"
            assert fleet.restarts == [1, 0]

    def test_worker_count_is_validated(self, tmp_path):
        with pytest.raises(ValueError):
            ServerFleet(FleetConfig(store_root=str(tmp_path)), workers=0)

    def test_start_raises_when_a_worker_dies_before_serving(self, tmp_path):
        # Every worker raises building its admission controller; the fleet
        # must say so instead of respawning them forever.
        config = FleetConfig(store_root=str(tmp_path / "store"), max_in_flight=0)
        fleet = ServerFleet(config, workers=2)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="exited with code 1 before it served"):
            fleet.start()
        assert time.monotonic() - start < 10.0
        time.sleep(0.5)  # a monitor would have respawned by now
        assert fleet.restarts == [0, 0]
        assert all(proc is None for proc in fleet._procs)
        with pytest.raises(ServerError) as info:  # the ports are released
            BoundsClient(fleet.url, timeout=2.0).health()
        assert info.value.code == "unreachable"

    def test_herd_survives_the_lease_holder_being_killed_mid_solve(self, tmp_path):
        import os
        import signal

        # A cold fft:8 herd through both direct ports: one worker takes the
        # spectrum lease, the other's requests wait on it.  SIGKILL the
        # holder mid-solve; the survivor must take the lease over and
        # answer every request it holds, and the slot must respawn.
        root = tmp_path / "store"
        config = FleetConfig(store_root=str(root), num_eigenvalues=NUM_EIGENVALUES, lease_ttl=30.0)
        spec = GraphSpec(family="fft", size_param=8)
        herd = [BoundQuery(spec, M) for M in (2, 4, 6, 8)]
        expected = {a.memory_size: a.bound for a in direct_answers(herd)}
        store = SpectrumStore(root)
        with ServerFleet(config, workers=2) as fleet:
            fleet.start()
            self._wait_healthy(fleet.worker_urls)
            pids = [proc.pid for proc in fleet._procs]
            outcomes: dict = {}

            def ask(worker_id, query):
                client = BoundsClient(fleet.worker_urls[worker_id], timeout=120.0)
                try:
                    [answer] = client.bounds([query])
                    outcomes[(worker_id, query.memory_size)] = answer
                except (ServerError, OSError) as exc:
                    outcomes[(worker_id, query.memory_size)] = exc

            threads = [
                threading.Thread(target=ask, args=(worker_id, query), daemon=True)
                for worker_id in (0, 1)
                for query in herd
            ]
            for thread in threads:
                thread.start()
            held: list = []
            wait_until(lambda: held.extend(store.leases()) or held, timeout=30.0)
            [lease] = held
            victim = pids.index(lease["pid"])
            survivor = 1 - victim
            os.kill(lease["pid"], signal.SIGKILL)
            for thread in threads:
                thread.join(timeout=120.0)
            assert not any(thread.is_alive() for thread in threads)
            for memory_size, bound in expected.items():
                answer = outcomes[(survivor, memory_size)]
                assert not isinstance(answer, Exception), answer
                assert answer.bound == bound
            assert store.leases() == []
            assert len(store) == 1
            wait_until(lambda: fleet.restarts[victim] == 1, timeout=15.0)
            self._wait_healthy((fleet.worker_urls[victim],))
            assert fleet.restarts[survivor] == 0


class TestFleetObservability:
    """The aggregated fleet surfaces: merged ``/metrics`` and
    ``/v1/fleet/stats`` on the shared port, per-worker views on the
    direct ports, and the non-fleet 404."""

    def test_shared_port_aggregates_metrics_and_stats(self, tmp_path):
        config = FleetConfig(
            store_root=str(tmp_path / "store"),
            num_eigenvalues=NUM_EIGENVALUES,
            lease_ttl=10.0,
        )
        with ServerFleet(config, workers=2) as fleet:
            fleet.start()
            TestServerFleet._wait_healthy((fleet.url,) + fleet.worker_urls)
            client = BoundsClient(fleet.url)
            client.bounds(MIXED_QUERIES)

            # The shared port serves the union of every worker's samples,
            # worker labels intact — one scrape sees the whole fleet.
            merged = client.metrics_text()
            assert 'worker="0"' in merged
            assert 'worker="1"' in merged
            assert parse_metric(merged, "repro_worker_up") == 2
            assert parse_metric(merged, "repro_worker_restarts") == 0
            fleet_solves = parse_metric(merged, "repro_eigensolves_total")
            assert fleet_solves > 0
            per_worker = [
                parse_metric(merged, "repro_eigensolves_total", worker=str(i))
                for i in range(2)
            ]
            assert sum(per_worker) == fleet_solves

            # A direct port stays a single-worker view: its own label
            # only, no sibling samples.
            direct = BoundsClient(fleet.worker_urls[1]).metrics_text()
            assert 'worker="1"' in direct
            assert 'worker="0"' not in direct

            # The JSON rollup agrees with the merged exposition.
            stats = client.fleet_stats()
            assert stats["num_workers"] == 2
            assert stats["unreachable"] == []
            assert [w["worker"] for w in stats["workers"]] == [0, 1]
            for worker in stats["workers"]:
                assert worker["up"] == 1
                assert worker["restarts"] == 0
            assert stats["totals"]["eigensolves"] == fleet_solves
            assert stats["totals"]["up"] == 2
            assert stats["totals"]["http_requests"] > 0

            # Warm replay straight from the aggregate: the whole point of
            # the shared store is zero further eigensolves, and the shared
            # port can now prove it in one request.
            client.bounds(MIXED_QUERIES)
            warm = client.fleet_stats()
            assert warm["totals"]["eigensolves"] == fleet_solves

    def test_plain_server_has_no_fleet_stats(self, live_server):
        client = BoundsClient(live_server.url)
        with pytest.raises(ServerError) as info:
            client.fleet_stats()
        assert info.value.status == 404
        assert info.value.code == "not-a-fleet"
        # ...while its /metrics is the local exposition.
        assert "repro_http_requests_total" in client.metrics_text()

    def test_stats_reports_latency_quantiles(self, live_server):
        client = BoundsClient(live_server.url)
        client.bounds(MIXED_QUERIES[:2])
        quantiles = client.stats()["latency_quantiles"]
        solve = quantiles["repro_eigensolve_seconds"]
        assert set(solve) == {"p50", "p95", "p99"}
        assert solve["p50"] is not None
        assert solve["p50"] <= solve["p95"] <= solve["p99"]
        assert "repro_admission_wait_seconds" in quantiles
