"""Tests for the ``repro.server`` HTTP serving layer.

Three layers are covered: the pure pieces (protocol codec, metrics
registry, admission controller, coalescer) without any sockets; a live
threaded server hammered from many client threads, checked for exact
parity with direct :class:`BoundService` calls; and the serving policies
driven deterministically through a blocking stub service (coalescing must
fire, overload must 429 without corrupting state).
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
from repro.runtime.service import BoundAnswer, BoundQuery, BoundService
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
    QueryCoalescer,
    ServerFleet,
    ServerOverloadedError,
    ShardRing,
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
        # Identical queries -> identical coalescing keys; different -> not.
        assert decoded[0].key != decoded[1].key
        again = decode_bounds_request(encode_bounds_request([queries[0]] * 2))
        assert again[0].key == again[1].key

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
        assert by_handle.key == decoded.key

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


class TestQueryCoalescer:
    def test_follower_shares_leader_result(self):
        coalescer = QueryCoalescer()
        ticket, is_leader = coalescer.claim(("k",))
        assert is_leader
        follower, follower_leads = coalescer.claim(("k",))
        assert follower is ticket and not follower_leads
        coalescer.resolve(ticket, "answer")
        assert follower.wait(1.0) == "answer"
        assert coalescer.stats() == {"leaders": 1, "coalesced": 1, "in_flight": 0}

    def test_failure_propagates_and_key_clears(self):
        coalescer = QueryCoalescer()
        ticket, _ = coalescer.claim(("k",))
        follower, _ = coalescer.claim(("k",))
        coalescer.fail(ticket, ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            follower.wait(1.0)
        _, is_leader = coalescer.claim(("k",))
        assert is_leader  # resolved keys leave the in-flight table


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

        monkeypatch.setattr(runner_module._QuietRequestHandler, "timeout", 0.5)
        service = BlockingService()
        service.release.set()
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
        assert stats["admission"]["admitted"] >= 1
        assert stats["coalescing"]["leaders"] >= 2
        assert stats["metrics"]["repro_http_requests_total"] >= 1

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
        # However the herd interleaved, coalescing + the spectrum cache keep
        # eigensolves near the 4 distinct (graph, normalization) pairs.  One
        # duplicate solve is possible when two *different* query keys needing
        # the same spectrum (fft:3 at M=2 and at M=4/p=2) race their cold
        # cache misses, so the hard ceiling is 5 — never the 4 * THREADS *
        # ROUNDS an uncoalesced, uncached server would pay.
        assert stats["cache_misses"] <= 5
        metrics = BoundsClient(live_server.url).metrics_text()
        assert parse_metric(metrics, "repro_eigensolves_total") <= 5
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


def make_answer(query: BoundQuery, marker: float = 1.0) -> BoundAnswer:
    return BoundAnswer(
        graph="stub",
        memory_size=int(query.memory_size),
        num_processors=int(query.num_processors),
        normalization=query.normalization,
        bound=marker,
        raw_value=marker,
        best_k=None,
        num_vertices=0,
        elapsed_seconds=0.0,
        eig_elapsed_seconds=0.0,
    )


class BlockingService:
    """A BoundService stand-in whose submit() blocks until released.

    Lets the tests hold a solve "in flight" for as long as they need to
    arrange coalescing and overload scenarios deterministically.
    """

    def __init__(self, fail_with: Exception = None) -> None:
        self.release = threading.Event()
        self.calls: list = []
        self.fail_with = fail_with
        self._lock = threading.Lock()

    def submit(self, queries):
        with self._lock:
            self.calls.append(list(queries))
        if not self.release.wait(timeout=30):
            raise TimeoutError("BlockingService never released")
        if self.fail_with is not None:
            raise self.fail_with
        return [make_answer(query, marker=float(len(self.calls))) for query in queries]

    def counters(self):
        return {
            "queries_served": sum(len(call) for call in self.calls),
            "deduped": 0,
            "engines_cached": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "store_hits": 0,
            "mincut_engines_cached": 0,
            "flow_calls": 0,
        }

    def stats(self):
        return dict(self.counters())


QUERY_A = {"graph": {"family": "fft", "size": 3}, "memory_size": 4}
QUERY_B = {"graph": {"family": "fft", "size": 4}, "memory_size": 4}


def post_in_thread(client: BoundsClient, payload: dict, outcomes: list):
    def run():
        try:
            outcomes.append(client.bounds_raw({"queries": [payload]}))
        except ServerError as exc:
            outcomes.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread


class TestServingPolicies:
    def test_coalescing_fires_for_identical_inflight_queries(self):
        service = BlockingService()
        with BoundServer(service, port=0) as server:
            server.start()
            client = BoundsClient(server.url)
            outcomes: list = []
            leader = post_in_thread(client, QUERY_A, outcomes)
            wait_until(lambda: len(service.calls) == 1)  # leader is solving
            followers = [post_in_thread(client, QUERY_A, outcomes) for _ in range(3)]
            wait_until(lambda: server.coalescer.coalesced == 3)
            service.release.set()
            for thread in [leader] + followers:
                thread.join(timeout=10)
            assert len(service.calls) == 1  # the herd paid one solve
            bounds = sorted(o["answers"][0]["bound"] for o in outcomes)
            assert bounds == [1.0] * 4  # everyone got the leader's answer
            assert client.metric("repro_coalesced_queries_total") == 3
            assert client.metric("repro_coalesce_leader_solves_total") == 1

    def test_distinct_queries_do_not_coalesce(self):
        service = BlockingService()
        service.release.set()
        with BoundServer(service, port=0) as server:
            server.start()
            client = BoundsClient(server.url)
            client.bounds_raw({"queries": [QUERY_A]})
            client.bounds_raw({"queries": [QUERY_B]})
            assert server.coalescer.coalesced == 0
            assert len(service.calls) == 2

    def test_overload_returns_429_without_corrupting_state(self):
        service = BlockingService()
        with BoundServer(
            service, port=0, max_in_flight=1, max_queue=0, retry_after_seconds=2
        ) as server:
            server.start()
            client = BoundsClient(server.url)
            outcomes: list = []
            blocked = post_in_thread(client, QUERY_A, outcomes)
            wait_until(lambda: len(service.calls) == 1)
            # A *different* query needs its own solve slot: shed with 429.
            with pytest.raises(ServerError) as info:
                client.bounds_raw({"queries": [QUERY_B]})
            assert info.value.status == 429
            assert info.value.code == "overloaded"
            assert info.value.retry_after_seconds == 2
            assert server.admission.rejected == 1
            service.release.set()
            blocked.join(timeout=10)
            assert outcomes[0]["answers"][0]["bound"] == 1.0
            # The shed request corrupted nothing: the port keeps serving,
            # in-flight bookkeeping drained back to zero.
            assert client.bounds_raw({"queries": [QUERY_B]})["answers"]
            assert server.admission.in_flight == 0
            assert server.coalescer.stats()["in_flight"] == 0
            assert client.metric("repro_admission_rejections_total") == 1

    def test_followers_bypass_admission_control(self):
        service = BlockingService()
        with BoundServer(
            service, port=0, max_in_flight=1, max_queue=0
        ) as server:
            server.start()
            client = BoundsClient(server.url)
            outcomes: list = []
            leader = post_in_thread(client, QUERY_A, outcomes)
            wait_until(lambda: len(service.calls) == 1)
            # Identical queries ride the in-flight solve instead of competing
            # for the (full) admission window: a thundering herd on one graph
            # is served whole, never shed.
            followers = [post_in_thread(client, QUERY_A, outcomes) for _ in range(4)]
            wait_until(lambda: server.coalescer.coalesced == 4)
            assert server.admission.rejected == 0
            service.release.set()
            for thread in [leader] + followers:
                thread.join(timeout=10)
            assert [o["answers"][0]["bound"] for o in outcomes] == [1.0] * 5

    def test_bad_query_fails_only_its_own_key(self):
        """One client's invalid query must never 400 another client's valid
        query that coalesced onto the same request's leader."""

        class FussyBlockingService(BlockingService):
            BAD_MEMORY_SIZE = 13

            def submit(self, queries):
                answers = super().submit(queries)
                if any(q.memory_size == self.BAD_MEMORY_SIZE for q in queries):
                    raise ValueError("that memory size is cursed")
                return answers

        good = {"graph": {"family": "fft", "size": 3}, "memory_size": 4}
        bad = {"graph": {"family": "fft", "size": 3}, "memory_size": 13}
        service = FussyBlockingService()
        with BoundServer(service, port=0) as server:
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
            wait_until(lambda: len(service.calls) >= 1)  # leading both keys
            follower = post_in_thread(client, good, good_outcomes)
            wait_until(lambda: server.coalescer.coalesced == 1)
            service.release.set()
            mixed.join(timeout=10)
            follower.join(timeout=10)
            # The mixed request fails (it owns the cursed query)...
            assert isinstance(mixed_outcomes[0], ServerError)
            assert mixed_outcomes[0].status == 400
            # ...but the innocent follower gets its valid answer.
            assert not isinstance(good_outcomes[0], ServerError)
            assert good_outcomes[0]["answers"][0]["bound"] == 1.0

    def test_leader_failure_propagates_to_followers(self):
        service = BlockingService(fail_with=ValueError("solver exploded"))
        with BoundServer(service, port=0) as server:
            server.start()
            client = BoundsClient(server.url)
            outcomes: list = []
            leader = post_in_thread(client, QUERY_A, outcomes)
            wait_until(lambda: len(service.calls) == 1)
            follower = post_in_thread(client, QUERY_A, outcomes)
            wait_until(lambda: server.coalescer.coalesced == 1)
            service.release.set()
            leader.join(timeout=10)
            follower.join(timeout=10)
            assert all(isinstance(o, ServerError) for o in outcomes)
            assert {o.status for o in outcomes} == {400}
            # The failed key left the in-flight table; a retry leads afresh.
            assert server.coalescer.stats()["in_flight"] == 0


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
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--store", str(tmp_path / "s"), "--no-coalesce"]
        )
        server = build_server_from_args(args)
        try:
            assert server.coalescer is None
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

    def test_serve_args_build_the_fleet_config(self, tmp_path):
        from repro.runtime.cli import build_fleet_from_args

        args = build_parser().parse_args(
            ["serve", "--port", "0", "--workers", "3", "--store",
             str(tmp_path / "s"), "--lease-ttl", "7.5", "--no-coalesce",
             "--num-eigenvalues", "25", "--max-in-flight", "2"]
        )
        fleet = build_fleet_from_args(args, 3)
        try:
            assert fleet.num_workers == 3
            assert len(fleet.worker_urls) == 3
            assert fleet.config.store_root == str(tmp_path / "s")
            assert fleet.config.lease_ttl == 7.5
            assert fleet.config.coalesce is False
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


class TestShardRing:
    def test_owner_is_deterministic_and_in_range(self):
        ring = ShardRing(3)
        again = ShardRing(3)
        for key in ("spec:fft:3", "spec:hypercube:4", "a" * 64):
            assert 0 <= ring.owner(key) < 3
            assert ring.owner(key) == again.owner(key)

    def test_every_worker_owns_a_fair_share(self):
        ring = ShardRing(3)
        counts = [0, 0, 0]
        for index in range(1000):
            counts[ring.owner(f"key-{index}")] += 1
        # Near-uniform, not exact: each worker well clear of starvation.
        assert min(counts) > 150

    def test_resize_remaps_a_minority_of_keys(self):
        keys = [f"key-{index}" for index in range(1000)]
        before = ShardRing(3)
        after = ShardRing(4)
        moved = sum(1 for key in keys if before.owner(key) != after.owner(key))
        # Consistent hashing moves ~1/4 of keys for 3 -> 4 workers; plain
        # modulo hashing would move ~3/4.
        assert moved < 500

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardRing(0)
        with pytest.raises(ValueError):
            ShardRing(2, replicas=0)


class TestClientKeepAlive:
    def test_connection_is_reused_across_requests(self, live_server):
        client = BoundsClient(live_server.url)
        assert client.health()["status"] == "ok"
        [first] = list(client._pool().values())
        assert client.stats()["version"] == PROTOCOL_VERSION
        [second] = list(client._pool().values())
        assert second is first  # same pooled HTTPConnection, no re-handshake
        client.close()
        assert client._pool() == {}
        # A closed client transparently re-pools on the next request.
        assert client.health()["status"] == "ok"

    def test_stale_pooled_connection_is_retried_once(self, live_server):
        client = BoundsClient(live_server.url)
        assert client.health()["status"] == "ok"
        # Simulate the server reaping an idle keep-alive connection: the
        # pooled socket is dead but the pool still hands it out.
        import socket

        [conn] = list(client._pool().values())
        conn.sock.shutdown(socket.SHUT_RDWR)
        assert client.health()["status"] == "ok"  # retried on a fresh conn


def _raw_post(base_url: str, payload: dict):
    """One non-redirect-following POST; returns (status, headers, body)."""
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

    def test_fleet_serves_shards_and_redirects(self, tmp_path):
        config = FleetConfig(
            store_root=str(tmp_path / "store"),
            num_eigenvalues=NUM_EIGENVALUES,
            lease_ttl=10.0,
        )
        with ServerFleet(config, workers=2) as fleet:
            fleet.start()
            self._wait_healthy((fleet.url,) + fleet.worker_urls)
            client = BoundsClient(fleet.url)
            # The shared port serves the full mixed workload bit-exactly
            # (redirects followed transparently by the client).
            assert_same_bounds(
                client.bounds(MIXED_QUERIES), direct_answers(MIXED_QUERIES)
            )
            assert client.fleet_worker_urls() == list(fleet.worker_urls)

            # Shard affinity: a single-graph batch through the shared port
            # is always answered by its ring owner — either directly (the
            # owner won the accept) or via a 307 to the owner's direct port.
            owner = fleet.ring.owner("spec:fft:3")
            payload = encode_bounds_request(
                [BoundQuery(GraphSpec(family="fft", size_param=3), 2)]
            )
            for _ in range(8):
                status, headers, _body = _raw_post(fleet.url, payload)
                if status == 200:
                    assert headers["X-Repro-Worker"] == str(owner)
                else:
                    assert status == 307
                    assert headers["Location"].startswith(
                        fleet.worker_urls[owner]
                    )

            # Direct ports never redirect — that is what makes a redirect
            # loop impossible — even for a graph the worker does not own.
            non_owner = 1 - owner
            status, headers, _body = _raw_post(
                fleet.worker_urls[non_owner], payload
            )
            assert status == 200
            assert headers["X-Repro-Worker"] == str(non_owner)
            assert fleet.restarts == [0, 0]

    def test_killed_worker_is_respawned_on_its_ports(self):
        import os
        import signal

        config = FleetConfig(store_root=None, num_eigenvalues=NUM_EIGENVALUES)
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

    def test_worker_count_is_validated(self):
        with pytest.raises(ValueError):
            ServerFleet(FleetConfig(), workers=0)


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
            merged = client.fleet_metrics()
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
        # ...but fleet_metrics degrades to the local exposition.
        assert "repro_http_requests_total" in client.fleet_metrics()

    def test_stats_reports_latency_quantiles(self, live_server):
        client = BoundsClient(live_server.url)
        client.bounds(MIXED_QUERIES[:2])
        quantiles = client.stats()["latency_quantiles"]
        solve = quantiles["repro_eigensolve_seconds"]
        assert set(solve) == {"p50", "p95", "p99"}
        assert solve["p50"] is not None
        assert solve["p50"] <= solve["p95"] <= solve["p99"]
        assert "repro_admission_wait_seconds" in quantiles
