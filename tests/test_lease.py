"""Tests for the cross-process solve lease (`SpectrumStore.acquire_lease`).

The lease is what turns a fleet of shared-nothing worker processes into a
coherent serving tier: concurrent cold misses on one spectrum — across
threads, processes, or both — must pay exactly one eigensolve, concurrent
cold max-flow passes over one graph exactly one pass, and a leader that
dies mid-solve must hand its lease over instead of wedging its followers.
Three layers are covered: the lease mechanics (an exclusive ``flock`` on
one file per lease: acquire, wait, release, handles and forked children),
recovery (a SIGKILLed leader process), and the end-to-end guarantee
through :class:`SpectrumCache` and :class:`MinCutEngine` in two genuinely
separate processes.
"""

from __future__ import annotations

import fcntl
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
from repro.runtime import store as store_module
from repro.runtime.catalog import spectrum_base
from repro.runtime.store import CutStore, SpectrumStore
from repro.solvers.spectrum_cache import SpectrumCache

FINGERPRINT = "f" * 40
OTHER_FINGERPRINT = "0" * 40


@pytest.fixture
def store(tmp_path):
    return SpectrumStore(tmp_path / "spectra")


def lease_key(fingerprint: str = FINGERPRINT) -> str:
    return spectrum_base(fingerprint, True, "dense")


def lock_files(store: SpectrumStore):
    return sorted(path.name for path in store.root.glob("*.lock"))


class TestLeaseTtlConfig:
    def test_store_stats_report_the_ttl_and_lease_counts(self, store):
        lease = store.acquire_lease(FINGERPRINT)
        assert store.stats()["active_leases"] == 1
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
        rows = store.leases()
        assert sorted(row["lease"] for row in rows) == sorted(
            [lease_key(), lease_key(OTHER_FINGERPRINT)]
        )
        assert {row["pid"] for row in rows} == {os.getpid()}
        assert lock_files(store) == sorted(f"{row['lease']}.lock" for row in rows)
        lease.release()
        lease.release()  # idempotent
        other.release()
        assert store.leases() == [] and lock_files(store) == []
        with store.acquire_lease(FINGERPRINT) as again:  # context-manager form
            assert again is not None
        assert store.leases() == [] and lock_files(store) == []

    def test_two_handles_in_one_process_exclude_each_other(self, store):
        other = SpectrumStore(store.root)
        lease = store.acquire_lease(FINGERPRINT)
        assert other.acquire_lease(FINGERPRINT) is None
        lease.release()
        with other.acquire_lease(FINGERPRINT) as taken:
            assert taken is not None
            assert store.acquire_lease(FINGERPRINT) is None

    def test_a_file_released_before_it_is_locked_does_not_lead(self, store, monkeypatch):
        # A contender opens the lease's file, then, before it locks it, the
        # holder releases (unlinking the file) and a newcomer leads on a
        # new one.  The contender's lock on the old file must not lead too.
        lease = store.acquire_lease(FINGERPRINT)
        newcomer = []
        flock = fcntl.flock

        def interposed(fd, operation):
            if not newcomer:
                newcomer.append(None)
                lease.release()
                newcomer[0] = SpectrumStore(store.root).acquire_lease(FINGERPRINT)
            return flock(fd, operation)

        monkeypatch.setattr(fcntl, "flock", interposed)
        assert store.acquire_lease(FINGERPRINT) is None
        assert newcomer[0] is not None
        newcomer[0].release()

    def test_a_child_forked_under_a_lease_does_not_hold_it(self, store):
        # The child shares the lease's open file, and with it the lock, but
        # the release unlinks that file: the next lease takes a new one.
        lease = store.acquire_lease(FINGERPRINT)
        child = multiprocessing.get_context("fork").Process(target=lambda: time.sleep(600))
        child.start()
        try:
            lease.release()
            taken = SpectrumStore(store.root).acquire_lease(FINGERPRINT)
            assert taken is not None
            taken.release()
        finally:
            child.kill()
            child.join(timeout=10.0)
        assert not child.is_alive()

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
            taken = store.wait_for_lease(FINGERPRINT)
        finally:
            timer.cancel()
        assert taken is not None
        assert store.acquire_lease(FINGERPRINT) is None  # the waiter holds it now
        taken.release()
        assert lock_files(store) == []

    def test_wait_times_out_under_a_live_leader(self, store, monkeypatch):
        monkeypatch.setattr(store_module, "LEASE_WAIT_SECONDS", 0.3)
        with store.acquire_lease(FINGERPRINT):
            start = time.monotonic()
            assert store.wait_for_lease(FINGERPRINT) is None
            assert time.monotonic() - start < 5.0
            # A follower that gives up re-reads the store, then solves
            # without a lease.
            fetched = []
            claim = store.claim(FINGERPRINT, lambda: fetched.append(1))
            assert (claim.found, claim.lease, claim.followed) == (None, None, True)
            assert fetched == [1]


def _hold_lease_until_killed(root, ready):
    """Child process: take the lease, then hang."""
    lease = SpectrumStore(root).acquire_lease(FINGERPRINT)
    assert lease is not None
    ready.set()
    time.sleep(600)  # killed long before this returns


class TestKilledLeaderRecovery:
    def test_sigkilled_leader_hands_over_without_waiting_out_the_ttl(self, tmp_path):
        # The kernel drops a killed leader's lock as the process exits, not
        # when its parent reaps it: the lease is free while it is a zombie.
        ctx = multiprocessing.get_context("fork")
        ready = ctx.Event()
        root = tmp_path / "spectra"
        leader = ctx.Process(target=_hold_lease_until_killed, args=(root, ready))
        leader.start()
        try:
            assert ready.wait(timeout=30.0)
            store = SpectrumStore(root)
            assert store.acquire_lease(FINGERPRINT) is None  # genuinely held
            assert [row["pid"] for row in store.leases()] == [leader.pid]
            os.kill(leader.pid, signal.SIGKILL)
            start = time.monotonic()
            takeover = store.wait_for_lease(FINGERPRINT)
            assert takeover is not None
            assert time.monotonic() - start < 2.0
            # The dead leader's file is taken over, and goes on release.
            assert [row["pid"] for row in store.leases()] == [os.getpid()]
            takeover.release()
            assert lock_files(store) == []
        finally:
            leader.kill()
            leader.join(timeout=10.0)
        assert leader.exitcode == -signal.SIGKILL


def _cold_solve_worker(root, barrier, results):
    """Child process: one cold spectrum lookup through its own cache."""
    store = SpectrumStore(root)
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


def _race(worker, root, count):
    """Run ``worker(root, barrier, results)`` in ``count`` forked processes
    released together; their results, once every one exited cleanly."""
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(count)
    results_queue = ctx.Queue()
    workers = [
        ctx.Process(target=worker, args=(root, barrier, results_queue))
        for _ in range(count)
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
    assert len({result["pid"] for result in results}) == count
    return results


class TestCrossProcessCoalescing:
    def test_two_processes_cold_solving_pay_one_eigensolve(self, tmp_path):
        # The cross-process satellite: two *processes* (not threads) race a
        # cold miss on the same fingerprint; the lease must collapse them
        # to exactly one eigensolve, both get the same answer, and the
        # store index survives uncorrupted.
        root = tmp_path / "spectra"
        results = _race(_cold_solve_worker, root, 2)

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

    def test_a_herd_of_processes_pays_one_eigensolve(self, tmp_path):
        # Three times as many processes as this host's two cores: each
        # follower in turn takes the lease, finds the spectrum and unlinks
        # the file, while the others still poll the path.
        root = tmp_path / "spectra"
        results = _race(_cold_solve_worker, root, 6)
        assert sum(result["misses"] for result in results) == 1
        assert sum(result["leaders"] for result in results) <= 1
        assert len({tuple(result["eigenvalues"]) for result in results}) == 1
        store = SpectrumStore(root)
        assert store.stats()["solves_recorded"] == 1
        assert store.leases() == [] and list(root.glob("*.lock")) == []

    def test_thread_local_caches_coalesce_through_the_store(self, tmp_path):
        # Same guarantee inside one process: two independent caches (as two
        # fleet workers would hold) over one store, racing a cold miss.
        store_a = SpectrumStore(tmp_path / "spectra")
        store_b = SpectrumStore(tmp_path / "spectra")
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


def _cold_max_cut_worker(root, barrier, results):
    """Child process: one cold max-flow pass through its own engine."""
    engine = MinCutEngine(fft_graph(5), store=CutStore(root))
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
        root = tmp_path / "store"
        results = _race(_cold_max_cut_worker, root, 2)
        assert [result["best_cut"] for result in results] == [best_cut, best_cut]
        # One pass between them: the follower read the leader's table.
        assert sum(result["flow_calls"] for result in results) == reference.flow_calls
        assert CutStore(root).stats()["flows_recorded"] == reference.flow_calls
        assert SpectrumStore(root).leases() == []

    def test_disjoint_candidate_chunks_lead_at_once(self, tmp_path):
        graph = fft_graph(5)
        fingerprint = graph.fingerprint()
        chunks = [np.arange(0, graph.num_vertices, 2), np.arange(1, graph.num_vertices, 2)]
        store = CutStore(tmp_path / "store")
        leases = [store.acquire_lease(fingerprint, candidates=chunk) for chunk in chunks]
        assert all(lease is not None for lease in leases)  # neither waits
        assert store.acquire_lease(fingerprint, candidates=chunks[0]) is None
        for lease in leases:
            lease.release()

        # Two engines racing one chunk each both lead, and the chunks'
        # maxima combine to the whole graph's.
        engines = [
            MinCutEngine(graph, store=CutStore(tmp_path / "store"))
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
