"""Tests for the cross-process solve lease (`SpectrumStore.acquire_lease`).

The lease is what turns a fleet of shared-nothing worker processes into a
coherent serving tier: concurrent cold misses on one spectrum — across
threads, processes, or both — must pay exactly one eigensolve, concurrent
cold max-flow passes over one graph exactly one pass, and a leader that
dies mid-solve must hand its lease over instead of wedging its followers.
Three layers are covered: the on-disk lease mechanics
(acquire/heartbeat/release, staleness via ttl and dead pids), recovery
(a SIGKILLed leader process), and the end-to-end guarantee through
:class:`SpectrumCache` and :class:`MinCutEngine` in two genuinely separate
processes.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.baselines.convex_mincut import MinCutEngine
from repro.graphs.generators import fft_graph
from repro.obs.metrics import global_registry, parse_metric
from repro.runtime.catalog import spectrum_base
from repro.runtime.store import (
    _HOSTNAME,
    DEFAULT_LEASE_TTL_SECONDS,
    LEASE_TTL_ENV_VAR,
    CutStore,
    SpectrumStore,
    default_lease_ttl,
)
from repro.solvers.spectrum_cache import SpectrumCache

FINGERPRINT = "f" * 40
OTHER_FINGERPRINT = "0" * 40


@pytest.fixture
def store(tmp_path):
    return SpectrumStore(tmp_path / "spectra", lease_ttl=5.0)


def lease_key(fingerprint: str = FINGERPRINT) -> str:
    return spectrum_base(fingerprint, True, "dense")


def write_lease_row(store: SpectrumStore, **overrides) -> None:
    """Plant a lease row as some other holder would have written it."""
    now = time.time()
    row = {
        "base": lease_key(),
        "token": "planted-token",
        "pid": os.getpid(),
        "host": _HOSTNAME,
        "fingerprint": FINGERPRINT,
        "created_at": now,
        "heartbeat_at": now,
        "ttl": 30.0,
    }
    row.update(overrides)
    with store._catalog.write() as conn:
        conn.execute(
            f"INSERT OR REPLACE INTO leases ({', '.join(row)}) "
            f"VALUES ({', '.join('?' * len(row))})",
            tuple(row.values()),
        )


class TestLeaseTtlConfig:
    def test_env_var_parsing(self, monkeypatch):
        monkeypatch.delenv(LEASE_TTL_ENV_VAR, raising=False)
        assert default_lease_ttl() == DEFAULT_LEASE_TTL_SECONDS
        monkeypatch.setenv(LEASE_TTL_ENV_VAR, "12.5")
        assert default_lease_ttl() == 12.5
        monkeypatch.setenv(LEASE_TTL_ENV_VAR, "-3")
        assert default_lease_ttl() == 0.0  # disabled, not negative
        monkeypatch.setenv(LEASE_TTL_ENV_VAR, "junk")
        assert default_lease_ttl() == DEFAULT_LEASE_TTL_SECONDS

    def test_disabled_leasing_refuses_to_acquire(self, tmp_path):
        disabled = SpectrumStore(tmp_path / "s", lease_ttl=0)
        assert disabled.lease_ttl == 0.0
        with pytest.raises(ValueError):
            disabled.acquire_lease(FINGERPRINT)

    def test_store_stats_report_the_ttl_and_lease_counts(self, store):
        lease = store.acquire_lease(FINGERPRINT)
        stats = store.stats()
        assert stats["lease_ttl"] == 5.0
        assert stats["active_leases"] == 1
        assert stats["stale_leases"] == 0
        lease.release()
        assert store.stats()["active_leases"] == 0


class TestSolveLease:
    def test_acquire_is_exclusive_until_released(self, store):
        lease = store.acquire_lease(FINGERPRINT)
        assert lease is not None
        assert store.acquire_lease(FINGERPRINT) is None  # held
        # A different spectrum is a different lease.
        other = store.acquire_lease(OTHER_FINGERPRINT)
        assert other is not None
        [row_a, row_b] = sorted(store.leases(), key=lambda r: r["fingerprint"])
        assert {row_a["stale"], row_b["stale"]} == {False}
        lease.release()
        lease.release()  # idempotent
        other.release()
        assert store.leases() == []
        with store.acquire_lease(FINGERPRINT) as again:  # context-manager form
            assert again is not None
        assert store.leases() == []

    def test_truncation_is_not_part_of_the_lease_key(self, store):
        # Every h of one spectrum contends for a single lease, the base id
        # its rows share: that is what lets different-M queries on one
        # graph coalesce onto one solve.
        entry_id = store.put(FINGERPRINT, np.arange(3, dtype=float), 1.0)
        assert store._lease_key(FINGERPRINT) == lease_key() == entry_id.split("-h")[0]
        # ...but every other key ingredient splits it.
        for key in ({"normalized": False}, {"backend": "lobpcg"}):
            assert store._lease_key(FINGERPRINT, **key) != lease_key()

    def test_wait_returns_released_when_the_leader_publishes(self, store):
        lease = store.acquire_lease(FINGERPRINT)
        timer = threading.Timer(0.2, lease.release)
        timer.start()
        try:
            outcome = store.wait_for_lease(FINGERPRINT, timeout=10.0)
        finally:
            timer.cancel()
        assert outcome == "released"

    def test_wait_times_out_under_a_live_leader(self, store):
        with store.acquire_lease(FINGERPRINT):
            start = time.monotonic()
            outcome = store.wait_for_lease(FINGERPRINT, timeout=0.3)
            assert outcome == "timeout"
            assert time.monotonic() - start < 5.0

    def test_heartbeat_keeps_a_short_ttl_lease_alive(self, store):
        lease = store.acquire_lease(FINGERPRINT, ttl=0.3)
        try:
            time.sleep(1.0)  # several ttls; the heartbeat must carry it
            assert store.acquire_lease(FINGERPRINT, ttl=0.3) is None
            [row] = store.leases()
            assert row["stale"] is False
        finally:
            lease.release()

    def test_expired_heartbeat_is_taken_over(self, store):
        lease = store.acquire_lease(FINGERPRINT, ttl=0.2)
        # Stop the heartbeat without releasing: a leader that froze.
        lease._stop.set()
        lease._heartbeat.join(timeout=2.0)
        time.sleep(0.5)
        assert store.wait_for_lease(FINGERPRINT, timeout=5.0) == "stale"
        takeover = store.acquire_lease(FINGERPRINT)
        assert takeover is not None
        # The zombie's release must not clobber the new holder's lease.
        lease.release()
        [row] = store.leases()
        assert row["stale"] is False
        takeover.release()

    def test_dead_pid_on_this_host_is_stale_before_the_ttl(self, store):
        reaper = multiprocessing.get_context("fork").Process(target=lambda: None)
        reaper.start()
        reaper.join()
        write_lease_row(store, pid=reaper.pid, ttl=3600.0)
        start = time.monotonic()
        assert store.wait_for_lease(FINGERPRINT, timeout=30.0) == "stale"
        assert time.monotonic() - start < 5.0  # dead-pid path, not the ttl
        takeover = store.acquire_lease(FINGERPRINT)
        assert takeover is not None
        takeover.release()

    def test_corrupt_lease_file_is_taken_over(self, store):
        write_lease_row(store, heartbeat_at="{half a lease", ttl=None)
        assert store.wait_for_lease(FINGERPRINT, timeout=5.0) == "stale"
        takeover = store.acquire_lease(FINGERPRINT)
        assert takeover is not None
        takeover.release()

    def test_verify_reports_and_fix_removes_stale_leases(self, store):
        write_lease_row(store, heartbeat_at=time.time() - 3600.0, ttl=1.0)
        live = store.acquire_lease(OTHER_FINGERPRINT)
        report = store.verify()
        assert report["ok"] is False
        assert len(report["stale_leases"]) == 1
        assert report["active_leases"] == 1
        fixed = store.verify(fix=True)
        assert fixed["leases_removed"] == 1
        live.release()
        assert store.verify()["ok"] is True


def _hold_lease_until_killed(root, ready):
    """Child process: take the lease with a long ttl, then hang."""
    store = SpectrumStore(root, lease_ttl=30.0)
    lease = store.acquire_lease(FINGERPRINT)
    assert lease is not None
    ready.set()
    time.sleep(600)  # killed long before this returns


class TestKilledLeaderRecovery:
    def test_sigkilled_leader_hands_over_without_waiting_out_the_ttl(self, tmp_path):
        # The stale-lease satellite: a leader killed mid-solve must not
        # wedge its followers for the 30 s ttl — the dead-pid check hands
        # the lease over as soon as a follower looks.
        ctx = multiprocessing.get_context("fork")
        ready = ctx.Event()
        root = tmp_path / "spectra"
        leader = ctx.Process(target=_hold_lease_until_killed, args=(root, ready))
        leader.start()
        try:
            assert ready.wait(timeout=30.0)
            store = SpectrumStore(root, lease_ttl=30.0)
            assert store.acquire_lease(FINGERPRINT) is None  # genuinely held
            os.kill(leader.pid, signal.SIGKILL)
            leader.join(timeout=10.0)
            start = time.monotonic()
            outcome = store.wait_for_lease(FINGERPRINT, timeout=60.0)
            elapsed = time.monotonic() - start
            assert outcome == "stale"
            assert elapsed < 10.0  # nowhere near the 30 s ttl
            takeover = store.acquire_lease(FINGERPRINT)
            assert takeover is not None
            takeover.release()
        finally:
            if leader.is_alive():
                leader.kill()
                leader.join(timeout=5.0)


def _cold_solve_worker(root, barrier, results):
    """Child process: one cold spectrum lookup through its own cache."""
    store = SpectrumStore(root, lease_ttl=30.0)
    cache = SpectrumCache(store=store)
    graph = fft_graph(3)
    barrier.wait(timeout=60.0)
    spectrum = cache.spectrum(graph, 8)
    results.put(
        {
            "pid": os.getpid(),
            "eigenvalues": [float(v) for v in spectrum.eigenvalues],
            "misses": cache.misses,
            "leaders": cache.lease_leaders,
            "followers": cache.lease_followers,
        }
    )


class TestCrossProcessCoalescing:
    def test_two_processes_cold_solving_pay_one_eigensolve(self, tmp_path):
        # The cross-process satellite: two *processes* (not threads) race a
        # cold miss on the same fingerprint; the lease must collapse them
        # to exactly one eigensolve, both get the same answer, and the
        # store index survives uncorrupted.
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        results_queue = ctx.Queue()
        root = tmp_path / "spectra"
        workers = [
            ctx.Process(target=_cold_solve_worker, args=(root, barrier, results_queue))
            for _ in range(2)
        ]
        for proc in workers:
            proc.start()
        try:
            results = [results_queue.get(timeout=120.0) for _ in workers]
        finally:
            for proc in workers:
                proc.join(timeout=30.0)
                if proc.is_alive():
                    proc.kill()
        assert all(proc.exitcode == 0 for proc in workers)
        assert len({result["pid"] for result in results}) == 2

        # Exactly one eigensolve across both processes...
        assert sum(result["misses"] for result in results) == 1
        assert sum(result["leaders"] for result in results) <= 1
        store = SpectrumStore(root)
        assert store.stats()["solves_recorded"] == 1
        # ...both processes hold the identical spectrum...
        first, second = (np.asarray(result["eigenvalues"]) for result in results)
        assert first.shape == (8,)
        np.testing.assert_array_equal(first, second)
        # ...and the shared index is intact, with no lease left behind.
        report = store.verify()
        assert report["ok"] is True
        assert store.leases() == []

    def test_thread_local_caches_coalesce_through_the_store(self, tmp_path):
        # Same guarantee inside one process: two independent caches (as two
        # fleet workers would hold) over one store, racing a cold miss.
        store_a = SpectrumStore(tmp_path / "spectra", lease_ttl=30.0)
        store_b = SpectrumStore(tmp_path / "spectra", lease_ttl=30.0)
        caches = [SpectrumCache(store=store_a), SpectrumCache(store=store_b)]
        graph = fft_graph(3)
        barrier = threading.Barrier(2)
        outcomes = [None, None]

        def lookup(index):
            barrier.wait(timeout=30.0)
            outcomes[index] = caches[index].spectrum(graph, 8)

        threads = [
            threading.Thread(target=lookup, args=(index,)) for index in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert all(outcome is not None for outcome in outcomes)
        np.testing.assert_array_equal(
            outcomes[0].eigenvalues, outcomes[1].eigenvalues
        )
        assert sum(cache.misses for cache in caches) == 1
        assert sum(cache.lease_leaders for cache in caches) <= 1
        assert store_a.stats()["solves_recorded"] == 1
        assert store_a.leases() == []

    def test_disabled_leasing_still_solves(self, tmp_path):
        store = SpectrumStore(tmp_path / "spectra", lease_ttl=0)
        cache = SpectrumCache(store=store)
        spectrum = cache.spectrum(fft_graph(3), 8)
        assert spectrum.eigenvalues.shape == (8,)
        assert cache.misses == 1
        assert cache.lease_leaders == 0 and cache.lease_followers == 0


def _cold_max_cut_worker(root, barrier, results):
    """Child process: one cold max-flow pass through its own engine."""
    engine = MinCutEngine(fft_graph(5), store=CutStore(root, lease_ttl=30.0))
    barrier.wait(timeout=60.0)
    best_cut, _ = engine.max_cut()
    results.put({"pid": os.getpid(), "best_cut": best_cut, "flow_calls": engine.flow_calls})


def _cut_leases(role: str) -> float:
    try:
        return parse_metric(
            global_registry().render(), "repro_lease_total", store="cuts", role=role
        )
    except KeyError:
        return 0.0


class TestCutLease:
    def test_two_processes_cold_max_cut_pay_one_pass(self, tmp_path):
        reference = MinCutEngine(fft_graph(5))
        best_cut, _ = reference.max_cut()
        assert reference.flow_calls > 0
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        results_queue = ctx.Queue()
        root = tmp_path / "store"
        workers = [
            ctx.Process(target=_cold_max_cut_worker, args=(root, barrier, results_queue))
            for _ in range(2)
        ]
        for proc in workers:
            proc.start()
        try:
            results = [results_queue.get(timeout=120.0) for _ in workers]
        finally:
            for proc in workers:
                proc.join(timeout=30.0)
                if proc.is_alive():
                    proc.kill()
        assert all(proc.exitcode == 0 for proc in workers)
        assert len({result["pid"] for result in results}) == 2
        assert [result["best_cut"] for result in results] == [best_cut, best_cut]
        # One pass between them: the follower read the leader's table.
        assert sum(result["flow_calls"] for result in results) == reference.flow_calls
        assert CutStore(root).stats()["flows_recorded"] == reference.flow_calls
        assert SpectrumStore(root).leases() == []

    def test_disjoint_candidate_chunks_lead_at_once(self, tmp_path):
        graph = fft_graph(5)
        fingerprint = graph.fingerprint()
        chunks = [np.arange(0, graph.num_vertices, 2), np.arange(1, graph.num_vertices, 2)]
        store = CutStore(tmp_path / "store", lease_ttl=30.0)
        leases = [store.acquire_lease(fingerprint, candidates=chunk) for chunk in chunks]
        assert all(lease is not None for lease in leases)  # neither waits
        assert store.acquire_lease(fingerprint, candidates=chunks[0]) is None
        for lease in leases:
            lease.release()

        # Two engines racing one chunk each both lead, and the chunks'
        # maxima combine to the whole graph's.
        engines = [
            MinCutEngine(graph, store=CutStore(tmp_path / "store", lease_ttl=30.0))
            for _ in chunks
        ]
        leaders, followers = _cut_leases("leader"), _cut_leases("follower")
        barrier = threading.Barrier(len(chunks))
        maxima = [None] * len(chunks)

        def evaluate(index):
            barrier.wait(timeout=30.0)
            maxima[index] = engines[index].max_cut(chunks[index])[0]

        threads = [threading.Thread(target=evaluate, args=(i,)) for i in range(len(chunks))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert all(maximum is not None for maximum in maxima)
        assert _cut_leases("leader") - leaders == 2
        assert _cut_leases("follower") - followers == 0
        assert max(maxima) == MinCutEngine(graph).max_cut()[0]
        assert all(engine.flow_calls > 0 for engine in engines)
