"""Multi-threaded load generation against the HTTP bounds server.

Serving-layer claims, measured end to end through real sockets and
recorded in ``BENCH_server.json``:

* **cold vs warm** — a query mix (both spectral normalisations + the
  convex min-cut baseline over the Figure 7 FFT family) served against a
  fresh :class:`SpectrumStore` pays the eigensolves/max-flow calls once;
  the same mix against a *new server process state* on the warm store
  answers every request without a single solve (asserted through
  ``/metrics``: ``repro_eigensolves_total`` and ``repro_flow_calls_total``
  stay 0) and with correspondingly higher throughput;
* **parity** — every HTTP answer equals the direct
  :meth:`BoundService.submit` answer for the same query, float for float;
* **thundering herd** — many threads requesting the same cold graph at
  once (released together by a barrier), each at its own memory size, pay
  exactly **one** eigensolve on a store-less server: concurrent misses on
  one spectrum wait on one solve (the spectrum cache's single flight);
* **multi-worker fleet** — the same warm mix through the shared port of
  a two-worker pre-forked :class:`ServerFleet` (each request answered by
  the worker that accepted it) still performs zero solves, and on a
  multi-core host outscores the single-process server; a *cold* herd
  fired at both workers' direct ports — different memory sizes, so batch
  dedup cannot help — pays exactly one eigensolve across both processes
  via the store's solve lease, with the lease leader/follower split
  recorded.

Defaults are CI-scale; ``REPRO_BENCH_LARGE=1`` lifts the FFT levels and
the thread count.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List, Sequence, Union

from benchmarks.common import bench_print, pick, run_once, write_perf_record
from repro.runtime.families import GraphSpec
from repro.runtime.service import BoundQuery, BoundService
from repro.runtime.store import SpectrumStore
from repro.server.client import BoundsClient
from repro.server.runner import BoundServer, FleetConfig, ServerFleet

LEVELS = pick([3, 4, 5], [6, 7, 8])
MEMORY_SIZES = [4, 8, 16, 32]
NUM_EIGENVALUES = 30
THREADS = pick(4, 8)
HERD_THREADS = pick(8, 32)
HERD_REQUESTS_PER_THREAD = 4
HERD_LEVEL = pick(5, 9)
FLEET_WORKERS = 2
FLEET_HERD_LEVEL = pick(6, 10)


def build_queries() -> List[BoundQuery]:
    queries = []
    for level in LEVELS:
        spec = GraphSpec(family="fft", size_param=level)
        for memory_size in MEMORY_SIZES:
            queries.append(BoundQuery(spec, memory_size))
            queries.append(BoundQuery(spec, memory_size, normalization="unnormalized"))
            queries.append(BoundQuery(spec, memory_size, method="convex-min-cut"))
    return queries


def replay(urls: Union[str, Sequence[str]], queries: List[BoundQuery], threads: int):
    """Fire every query as its own request from a thread pool.

    ``urls`` is one base URL or a list the threads round-robin over (how
    the fleet herd spans every worker's direct port).  All threads
    connect first and start together on a barrier, so the measured window
    (and a herd's cold-miss race) begins with every client already
    running.  Returns (answers in query order, elapsed seconds,
    per-request latency seconds).  Any request error propagates — the
    benchmark must fail loudly, not record a partially-served run.
    """
    if isinstance(urls, str):
        urls = [urls]
    answers: List = [None] * len(queries)
    latencies: List[float] = [0.0] * len(queries)
    errors: List[BaseException] = []
    barrier = threading.Barrier(threads + 1)

    def worker(worker_index: int) -> None:
        try:
            with BoundsClient(urls[worker_index % len(urls)]) as client:
                barrier.wait()
                for index in range(worker_index, len(queries), threads):
                    request_start = time.perf_counter()
                    [answers[index]] = client.bounds([queries[index]])
                    latencies[index] = time.perf_counter() - request_start
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)
            barrier.abort()

    pool = [
        threading.Thread(target=worker, args=(index,), daemon=True)
        for index in range(threads)
    ]
    for thread in pool:
        thread.start()
    try:
        barrier.wait()
    except threading.BrokenBarrierError:
        pass  # a worker already failed; fall through to the re-raise
    start = time.perf_counter()
    for thread in pool:
        thread.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    return answers, elapsed, latencies


def scrape_metric(url: str, name: str, **labels) -> float:
    """One endpoint's summed metric; 0 when the series was never touched."""
    with BoundsClient(url) as client:
        try:
            return client.metric(name, **labels)
        except KeyError:
            return 0.0


def serve_and_replay(store_root, queries: List[BoundQuery]) -> Dict[str, object]:
    """Boot a fresh server on ``store_root`` and replay the query mix."""
    service = BoundService(
        store=SpectrumStore(store_root), num_eigenvalues=NUM_EIGENVALUES
    )
    with BoundServer(service, port=0) as server:
        server.start()
        answers, elapsed, latencies = replay(server.url, queries, THREADS)
        eigensolves = scrape_metric(server.url, "repro_eigensolves_total")
        flow_calls = scrape_metric(server.url, "repro_flow_calls_total")
    ordered = sorted(latencies)
    return {
        "answers": answers,
        "seconds": elapsed,
        "rps": len(queries) / elapsed if elapsed > 0 else float("inf"),
        "latency_mean_ms": 1000.0 * sum(latencies) / len(latencies),
        "latency_p95_ms": 1000.0 * ordered[int(0.95 * (len(ordered) - 1))],
        "eigensolves": eigensolves,
        "flow_calls": flow_calls,
    }


def fleet_serve_and_replay(
    store_root, queries: List[BoundQuery]
) -> Dict[str, object]:
    """Boot a two-worker fleet on ``store_root`` and replay via the shared port."""
    config = FleetConfig(store_root=str(store_root), num_eigenvalues=NUM_EIGENVALUES)
    with ServerFleet(config, workers=FLEET_WORKERS) as fleet:
        fleet.start()
        with BoundsClient(fleet.url) as probe:
            probe.health()  # blocks until a worker is accepting
        answers, elapsed, latencies = replay(fleet.url, queries, THREADS)
        # One scrape of the shared port returns the merged all-worker
        # exposition (worker=<id> labels preserved), so the fleet-wide
        # eigensolve count no longer needs hand-summing the direct ports.
        eigensolves = scrape_metric(fleet.url, "repro_eigensolves_total")
    return {
        "answers": answers,
        "seconds": elapsed,
        "rps": len(queries) / elapsed if elapsed > 0 else float("inf"),
        "eigensolves": eigensolves,
    }


def fleet_cold_herd(store_root) -> Dict[str, object]:
    """A cold herd across both workers' direct ports, coalesced by the lease.

    Every query wants the same cold graph at a *different* memory size,
    fired at both workers' direct ports concurrently — four processes'
    worth of cold misses that only the store-level solve lease can
    collapse.  Exactly one eigensolve must happen fleet-wide.
    """
    spec = GraphSpec(family="fft", size_param=FLEET_HERD_LEVEL)
    # M-major order: with len(MEMORY_SIZES) threads striding the list, the
    # first concurrent wave is four *distinct* memory sizes — queries batch
    # dedup cannot collapse.
    herd_queries = [
        BoundQuery(spec, memory_size)
        for _ in range(HERD_REQUESTS_PER_THREAD)
        for memory_size in MEMORY_SIZES
    ]
    config = FleetConfig(store_root=str(store_root), num_eigenvalues=NUM_EIGENVALUES)
    with ServerFleet(config, workers=FLEET_WORKERS) as fleet:
        fleet.start()
        for url in fleet.worker_urls:
            with BoundsClient(url) as probe:
                probe.health()
        answers, elapsed, _ = replay(
            list(fleet.worker_urls), herd_queries, threads=len(MEMORY_SIZES)
        )
        # The shared-port exposition is the merged view of every worker,
        # so the lease leader/follower split is one scrape instead of a
        # per-direct-port sum.
        eigensolves = scrape_metric(fleet.url, "repro_eigensolves_total")
        leaders = scrape_metric(fleet.url, "repro_lease_total", role="leader")
        followers = scrape_metric(fleet.url, "repro_lease_total", role="follower")
    return {
        "queries": herd_queries,
        "answers": answers,
        "seconds": elapsed,
        "requests": len(herd_queries),
        "eigensolves": eigensolves,
        "lease_leaders": leaders,
        "lease_followers": followers,
    }


def test_server_cold_warm_and_herd(benchmark, tmp_path):
    queries = build_queries()
    store_root = tmp_path / "spectra"

    cold = serve_and_replay(store_root, queries)
    warm = serve_and_replay(store_root, queries)

    # Parity: the HTTP path answers exactly what direct submission answers.
    direct = BoundService(num_eigenvalues=NUM_EIGENVALUES).submit(queries)
    for via_http, reference in zip(cold["answers"], direct):
        assert via_http.bound == reference.bound
        assert via_http.raw_value == reference.raw_value
    assert [a.bound for a in warm["answers"]] == [a.bound for a in cold["answers"]]

    # The serving-layer cache contract, observed through /metrics alone.
    # Cold pays exactly one solve per (level, normalization): queries that
    # need one spectrum at different M share its solve however they race.
    assert cold["eigensolves"] == 2 * len(LEVELS)
    assert cold["flow_calls"] > 0
    assert warm["eigensolves"] == 0
    assert warm["flow_calls"] == 0

    # Thundering herd on one cold graph, each thread at its own memory size
    # (replay strides the list, so thread i sends M = 2 + i): one
    # eigensolve, shared by all, with no store to coordinate through.
    herd_spec = GraphSpec(family="fft", size_param=HERD_LEVEL)
    herd_queries = [
        BoundQuery(herd_spec, 2 + index % HERD_THREADS)
        for index in range(HERD_THREADS * HERD_REQUESTS_PER_THREAD)
    ]
    herd_service = BoundService(num_eigenvalues=NUM_EIGENVALUES)
    with BoundServer(herd_service, port=0) as server:
        server.start()
        herd_answers, herd_seconds, _ = replay(server.url, herd_queries, HERD_THREADS)
        herd_eigensolves = scrape_metric(server.url, "repro_eigensolves_total")
    assert herd_eigensolves == 1, "the herd must pay exactly one eigensolve"
    herd_direct = BoundService(num_eigenvalues=NUM_EIGENVALUES).submit(herd_queries)
    assert [a.bound for a in herd_answers] == [a.bound for a in herd_direct]

    # Multi-worker fleet: the warm mix through the shared port still
    # performs zero solves...
    fleet_warm = fleet_serve_and_replay(store_root, queries)
    assert fleet_warm["eigensolves"] == 0
    assert [a.bound for a in fleet_warm["answers"]] == [
        a.bound for a in cold["answers"]
    ]
    fleet_speedup = fleet_warm["rps"] / warm["rps"] if warm["rps"] > 0 else 0.0

    # ...and a cold cross-process herd pays exactly one eigensolve via the
    # store's solve lease — one leader fleet-wide, everyone else follows
    # or reads the published spectrum.
    fleet_herd = fleet_cold_herd(tmp_path / "fleet-herd")
    assert fleet_herd["eigensolves"] == 1, (
        f"cross-process herd paid {fleet_herd['eigensolves']:.0f} eigensolves; "
        f"the solve lease must collapse them to one"
    )
    assert fleet_herd["lease_leaders"] == 1
    # Lease followers read the *published* spectrum: every answer must
    # match a direct solve of the same query, whichever worker served it.
    fleet_herd_spec = GraphSpec(family="fft", size_param=FLEET_HERD_LEVEL)
    herd_reference = {
        memory_size: answer.bound
        for memory_size, answer in zip(
            MEMORY_SIZES,
            BoundService(num_eigenvalues=NUM_EIGENVALUES).submit(
                [BoundQuery(fleet_herd_spec, memory_size) for memory_size in MEMORY_SIZES]
            ),
        )
    }
    for query, answer in zip(fleet_herd["queries"], fleet_herd["answers"]):
        assert answer.bound == herd_reference[query.memory_size]

    warm_speedup = (
        cold["seconds"] / warm["seconds"] if warm["seconds"] > 0 else float("inf")
    )
    bench_print()
    bench_print("== HTTP bounds server: cold vs warm vs thundering herd ==")
    bench_print(
        f"  workload: fft {LEVELS} x M={MEMORY_SIZES} x "
        f"(spectral, unnormalized, convex-min-cut), {THREADS} client threads"
    )
    for label, phase in (("cold", cold), ("warm", warm)):
        bench_print(
            f"  {label}: {phase['seconds']:7.3f}s  {phase['rps']:7.1f} req/s  "
            f"mean {phase['latency_mean_ms']:6.2f}ms  p95 {phase['latency_p95_ms']:6.2f}ms  "
            f"({phase['eigensolves']:.0f} eigensolves, {phase['flow_calls']:.0f} flow calls)"
        )
    bench_print(f"  warm speedup: {warm_speedup:6.2f}x")
    bench_print(
        f"  herd: {len(herd_queries)} requests at {HERD_THREADS} memory sizes from "
        f"{HERD_THREADS} threads in {herd_seconds:.3f}s -> "
        f"{herd_eigensolves:.0f} eigensolve"
    )
    bench_print(
        f"  fleet ({FLEET_WORKERS} workers): warm {fleet_warm['seconds']:7.3f}s  "
        f"{fleet_warm['rps']:7.1f} req/s ({fleet_speedup:.2f}x single-process warm, "
        f"{fleet_warm['eigensolves']:.0f} eigensolves)"
    )
    bench_print(
        f"  fleet herd: {fleet_herd['requests']} cold requests across "
        f"{FLEET_WORKERS} workers' direct ports in {fleet_herd['seconds']:.3f}s -> "
        f"{fleet_herd['eigensolves']:.0f} eigensolve "
        f"({fleet_herd['lease_leaders']:.0f} lease leader, "
        f"{fleet_herd['lease_followers']:.0f} followers)"
    )

    path = write_perf_record(
        "BENCH_server.json",
        {
            "benchmark": "http_server_fft",
            "levels": LEVELS,
            "memory_sizes": MEMORY_SIZES,
            "num_eigenvalues": NUM_EIGENVALUES,
            "client_threads": THREADS,
            "requests_per_pass": len(queries),
            "cold_seconds": round(cold["seconds"], 4),
            "cold_rps": round(cold["rps"], 1),
            "cold_latency_mean_ms": round(cold["latency_mean_ms"], 3),
            "cold_latency_p95_ms": round(cold["latency_p95_ms"], 3),
            "cold_eigensolves": cold["eigensolves"],
            "cold_flow_calls": cold["flow_calls"],
            "warm_seconds": round(warm["seconds"], 4),
            "warm_rps": round(warm["rps"], 1),
            "warm_latency_mean_ms": round(warm["latency_mean_ms"], 3),
            "warm_latency_p95_ms": round(warm["latency_p95_ms"], 3),
            "warm_eigensolves": warm["eigensolves"],
            "warm_flow_calls": warm["flow_calls"],
            "warm_speedup": round(warm_speedup, 2),
            "herd_threads": HERD_THREADS,
            "herd_requests": len(herd_queries),
            "herd_level": HERD_LEVEL,
            "herd_seconds": round(herd_seconds, 4),
            "herd_eigensolves": herd_eigensolves,
            "fleet_workers": FLEET_WORKERS,
            "fleet_warm_seconds": round(fleet_warm["seconds"], 4),
            "fleet_warm_rps": round(fleet_warm["rps"], 1),
            "fleet_warm_eigensolves": fleet_warm["eigensolves"],
            "fleet_warm_speedup": round(fleet_speedup, 2),
            "fleet_herd_level": FLEET_HERD_LEVEL,
            "fleet_herd_requests": fleet_herd["requests"],
            "fleet_herd_seconds": round(fleet_herd["seconds"], 4),
            "fleet_herd_eigensolves": fleet_herd["eigensolves"],
            "fleet_herd_lease_leaders": fleet_herd["lease_leaders"],
            "fleet_herd_lease_followers": fleet_herd["lease_followers"],
        },
    )
    bench_print(f"[perf record written to {path}]")

    # Skipping every solve must be an end-to-end serving win; wall-clock
    # assertions can be disabled on noisy shared runners (the /metrics
    # counters above prove the cache behaviour deterministically).
    if os.environ.get("REPRO_BENCH_TIMING_ASSERT", "1") != "0":
        assert warm_speedup >= 1.5, f"warm serving only {warm_speedup:.2f}x faster"
        # Two workers beating one process needs two actual cores; the
        # solve-count assertions above hold regardless.
        if (os.cpu_count() or 1) >= 2:
            assert fleet_speedup >= 1.6, (
                f"2-worker fleet only {fleet_speedup:.2f}x single-process warm rps"
            )

    # Track the warm serving pass (fresh server state, warm disk) over time.
    def warm_pass():
        return serve_and_replay(store_root, queries)["seconds"]

    run_once(benchmark, warm_pass)
