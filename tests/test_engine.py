"""Tests for BoundEngine and the SpectrumCache.

The contract under test: an engine computes each (graph, normalisation)
spectrum exactly once no matter how many bounds are evaluated, a shared
cache extends that guarantee across engines, and the engine's results are
numerically identical to the one-shot public functions.
"""

from __future__ import annotations

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro.solvers.spectrum_cache as spectrum_cache_module
from repro.core.bounds import (
    bound_spectrum,
    parallel_spectral_bound,
    spectral_bound,
    spectral_bound_unnormalized,
    spectral_bounds_for_memory_sizes,
)
from repro.core.engine import BoundEngine, SweepPoint
from repro.core.result import ParallelBoundResult, SpectralBoundResult
from repro.graphs.compgraph import ComputationGraph
from repro.graphs.generators import fft_graph, hypercube_graph
from repro.solvers.backends import EigenSolverOptions
from repro.solvers.spectrum_cache import SpectrumCache, default_spectrum_cache

MEMORY_SIZES = [4, 8, 16, 32]


class TestEngineMatchesPublicFunctions:
    def test_spectral(self):
        graph = fft_graph(5)
        engine = BoundEngine(graph, num_eigenvalues=30, cache=SpectrumCache())
        for M in MEMORY_SIZES:
            expected = spectral_bound(graph, M, num_eigenvalues=30)
            got = engine.spectral(M)
            assert got.raw_value == pytest.approx(expected.raw_value, rel=1e-9)
            assert got.best_k == expected.best_k
            assert got.normalized is True

    def test_unnormalized(self):
        graph = hypercube_graph(5)
        engine = BoundEngine(graph, num_eigenvalues=20, cache=SpectrumCache())
        expected = spectral_bound_unnormalized(graph, 4, num_eigenvalues=20)
        got = engine.unnormalized(4)
        assert got.raw_value == pytest.approx(expected.raw_value, rel=1e-9)
        assert got.normalized is False

    def test_parallel(self):
        graph = fft_graph(6)
        engine = BoundEngine(graph, num_eigenvalues=30, cache=SpectrumCache())
        for p in (1, 2, 4):
            expected = parallel_spectral_bound(
                graph, 4, num_processors=p, num_eigenvalues=30
            )
            got = engine.parallel(4, p)
            assert got.raw_value == pytest.approx(expected.raw_value, rel=1e-9)
            assert got.num_processors == p

    def test_parallel_p1_matches_sequential(self):
        engine = BoundEngine(fft_graph(5), num_eigenvalues=20, cache=SpectrumCache())
        seq = engine.spectral(8)
        par = engine.parallel(8, 1)
        assert par.raw_value == pytest.approx(seq.raw_value, rel=1e-12)

    def test_spectrum_matches_bound_spectrum(self):
        graph = fft_graph(4)
        engine = BoundEngine(graph, num_eigenvalues=15, cache=SpectrumCache())
        for normalized in (True, False):
            np.testing.assert_allclose(
                engine.spectrum(normalized=normalized),
                bound_spectrum(graph, num_eigenvalues=15, normalized=normalized),
                atol=1e-9,
            )

    def test_empty_graph(self):
        engine = BoundEngine(ComputationGraph(), cache=SpectrumCache())
        assert engine.spectral(4).value == 0.0
        assert engine.parallel(4, 2).value == 0.0
        assert engine.spectrum().shape == (0,)
        assert engine.num_eigensolves == 0

    def test_spectrum_rejects_nonpositive_truncation(self):
        engine = BoundEngine(fft_graph(3), cache=SpectrumCache())
        with pytest.raises(ValueError):
            engine.spectrum(num_eigenvalues=0)
        with pytest.raises(ValueError):
            engine.spectrum(num_eigenvalues=-5)

    def test_explicit_k(self):
        graph = fft_graph(5)
        engine = BoundEngine(graph, num_eigenvalues=20, cache=SpectrumCache())
        swept = engine.spectral(4)
        single = engine.spectral(4, k=swept.best_k)
        assert single.raw_value == pytest.approx(swept.per_k_values[swept.best_k])

    def test_default_cache_is_shared(self):
        graph = fft_graph(3)
        engine = BoundEngine(graph)
        assert engine.cache is default_spectrum_cache()


class TestOneEigensolvePerNormalization:
    def test_engine_counts_solves(self, monkeypatch):
        calls = {"n": 0}
        real = spectrum_cache_module.solve_smallest

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(spectrum_cache_module, "solve_smallest", counting)
        engine = BoundEngine(fft_graph(5), num_eigenvalues=25, cache=SpectrumCache())
        for M in MEMORY_SIZES:
            engine.spectral(M)
            engine.unnormalized(M)
            engine.parallel(M, 4)
        # 12 bound evaluations, but only two spectra: one per normalisation.
        assert calls["n"] == 2
        assert engine.num_eigensolves == 2
        assert engine.cache.hits == 3 * len(MEMORY_SIZES) - 2

    def test_sweep_fft_family_one_solve_per_graph_and_normalization(self):
        """The acceptance contract of the Figure 7 sweep, at test scale."""
        levels = [4, 5, 6]
        cache = SpectrumCache()
        total_points = 0
        for level in levels:
            engine = BoundEngine(fft_graph(level), num_eigenvalues=30, cache=cache)
            points = engine.sweep(
                MEMORY_SIZES, methods=("spectral", "spectral-unnormalized")
            )
            total_points += len(points)
            assert engine.num_eigensolves == 2
        assert cache.misses == 2 * len(levels)
        assert cache.hits == total_points - cache.misses
        assert total_points == len(levels) * 2 * len(MEMORY_SIZES)

    def test_second_engine_on_same_graph_hits(self):
        cache = SpectrumCache()
        graph = fft_graph(4)
        BoundEngine(graph, num_eigenvalues=10, cache=cache).spectral(4)
        second = BoundEngine(graph, num_eigenvalues=10, cache=cache)
        result = second.spectral(8)
        assert second.num_eigensolves == 0
        assert cache.hits >= 1
        assert result.value >= 0.0

    def test_structurally_equal_graphs_share_spectra(self):
        cache = SpectrumCache()
        BoundEngine(fft_graph(4), num_eigenvalues=10, cache=cache).spectral(4)
        other = BoundEngine(fft_graph(4), num_eigenvalues=10, cache=cache)
        other.spectral(4)
        assert cache.misses == 1  # same fingerprint, no second solve

    def test_mutated_graph_resolves(self):
        cache = SpectrumCache()
        graph = fft_graph(3)
        engine = BoundEngine(graph, num_eigenvalues=10, cache=cache)
        engine.spectral(4)
        graph.add_vertex()  # changes the fingerprint
        engine.spectral(4)
        assert cache.misses == 2


class TestSweep:
    def test_points_cover_combinations(self):
        engine = BoundEngine(fft_graph(4), num_eigenvalues=20, cache=SpectrumCache())
        points = engine.sweep(
            [4, 8], processors=(1, 4), methods=("spectral", "spectral-unnormalized")
        )
        combos = {(p.method, p.num_processors, p.memory_size) for p in points}
        assert len(combos) == 2 * 2 * 2
        for p in points:
            assert isinstance(p, SweepPoint)
            if p.num_processors == 1:
                assert isinstance(p.result, SpectralBoundResult)
            else:
                assert isinstance(p.result, ParallelBoundResult)
            assert p.bound == p.result.value

    def test_single_processor_int(self):
        engine = BoundEngine(fft_graph(3), num_eigenvalues=10, cache=SpectrumCache())
        points = engine.sweep([4], processors=2)
        assert len(points) == 1
        assert points[0].num_processors == 2

    def test_unknown_method_rejected(self):
        engine = BoundEngine(fft_graph(3), cache=SpectrumCache())
        with pytest.raises(ValueError, match="unknown method"):
            engine.sweep([4], methods=("bogus",))

    def test_sweep_matches_individual_calls(self):
        graph = hypercube_graph(5)
        engine = BoundEngine(graph, num_eigenvalues=20, cache=SpectrumCache())
        points = engine.sweep([4, 8], methods=("spectral",))
        for p in points:
            individual = spectral_bound(graph, p.memory_size, num_eigenvalues=20)
            assert p.result.raw_value == pytest.approx(individual.raw_value, rel=1e-9)


class TestTimingAttribution:
    def test_eig_cost_attributed_once_in_memory_sweep(self):
        graph = fft_graph(6)
        results = spectral_bounds_for_memory_sizes(
            graph, MEMORY_SIZES, num_eigenvalues=40
        )
        by_m = [results[M] for M in MEMORY_SIZES]
        # Every result reports the same shared eigensolve cost...
        eig_costs = {r.eig_elapsed_seconds for r in by_m}
        assert len(eig_costs) == 1
        eig_cost = eig_costs.pop()
        assert eig_cost > 0.0
        # ...but only the first call's elapsed time contains it: the other
        # calls are cache hits whose own elapsed time is far smaller.
        assert by_m[0].elapsed_seconds >= eig_cost
        # ``sum(elapsed)`` now counts the eigensolve once instead of |M| times.
        assert sum(r.elapsed_seconds for r in by_m) < 2 * by_m[0].elapsed_seconds

    def test_one_shot_bound_reports_eig_cost(self):
        result = spectral_bound(fft_graph(4), 4, num_eigenvalues=20)
        assert result.eig_elapsed_seconds > 0.0
        assert result.elapsed_seconds >= result.eig_elapsed_seconds


class TestSpectrumCache:
    def test_prefix_served_from_larger_entry(self):
        cache = SpectrumCache()
        graph = fft_graph(3)
        big = cache.spectrum(graph, 10)
        small = cache.spectrum(graph, 4)
        assert cache.misses == 1 and cache.hits == 1
        np.testing.assert_allclose(small.eigenvalues, big.eigenvalues[:4])
        assert small.cache_hit and not big.cache_hit

    def test_lru_eviction(self):
        cache = SpectrumCache(max_entries=1)
        g1, g2 = fft_graph(2), fft_graph(3)
        cache.spectrum(g1, 4)
        cache.spectrum(g2, 4)  # evicts g1
        cache.spectrum(g1, 4)  # must re-solve
        assert cache.misses == 3
        assert len(cache) == 1

    def test_normalization_and_options_key(self):
        cache = SpectrumCache()
        graph = fft_graph(3)
        cache.spectrum(graph, 5, normalized=True)
        cache.spectrum(graph, 5, normalized=False)
        cache.spectrum(graph, 5, eig_options=EigenSolverOptions(method="lobpcg"))
        assert cache.misses == 3

    def test_sparse_assembly_is_part_of_the_key(self):
        # The key holds the backend that solves: an explicit dense request
        # must never be served an ARPACK-solved spectrum (and vice versa).
        cache = SpectrumCache()
        graph = fft_graph(3)
        cache.spectrum(graph, 5, eig_options=EigenSolverOptions(method="sparse"))
        cache.spectrum(graph, 5, eig_options=EigenSolverOptions(method="dense"))
        assert cache.misses == 2
        # auto resolves to dense for this small graph and shares the dense
        # entry.
        cache.spectrum(graph, 5)
        assert cache.misses == 2 and cache.hits == 1

    def test_unnormalized_scaling_applied(self):
        graph = hypercube_graph(3)
        cache = SpectrumCache()
        got = cache.spectrum(graph, 5, normalized=False).eigenvalues
        np.testing.assert_allclose(
            got,
            bound_spectrum(graph, num_eigenvalues=5, normalized=False),
            atol=1e-9,
        )

    def test_clear_resets(self):
        cache = SpectrumCache()
        cache.spectrum(fft_graph(2), 3)
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0

    def test_returned_eigenvalues_read_only(self):
        cache = SpectrumCache()
        values = cache.spectrum(fft_graph(3), 5).eigenvalues
        with pytest.raises(ValueError):
            values[0] = 1.0

    def test_invalid_requests_rejected(self):
        cache = SpectrumCache()
        with pytest.raises(ValueError):
            cache.spectrum(fft_graph(2), -1)
        with pytest.raises(ValueError):
            cache.spectrum(fft_graph(2), 1000)
        with pytest.raises(ValueError):
            SpectrumCache(max_entries=0)

    def test_lru_eviction_order_respects_recency(self):
        # A hit refreshes an entry's recency, so the *least recently used*
        # entry is the one evicted — not the least recently inserted.
        cache = SpectrumCache(max_entries=2)
        g1, g2, g3 = fft_graph(2), fft_graph(3), fft_graph(4)
        cache.spectrum(g1, 4)  # miss: [g1]
        cache.spectrum(g2, 4)  # miss: [g1, g2]
        cache.spectrum(g1, 4)  # hit, g1 becomes MRU: [g2, g1]
        cache.spectrum(g3, 4)  # miss, evicts g2:     [g1, g3]
        assert cache.misses == 3
        cache.spectrum(g1, 4)  # still cached
        cache.spectrum(g3, 4)  # still cached
        assert cache.misses == 3 and cache.hits == 3
        cache.spectrum(g2, 4)  # evicted above: must re-solve
        assert cache.misses == 4

    def test_prefix_hit_refreshes_recency_of_large_entry(self):
        cache = SpectrumCache(max_entries=2)
        g1, g2, g3 = fft_graph(2), fft_graph(3), fft_graph(4)
        cache.spectrum(g1, 8)
        cache.spectrum(g2, 4)
        cache.spectrum(g1, 3)  # prefix hit refreshes g1's entry
        cache.spectrum(g3, 4)  # evicts g2, not g1
        cache.spectrum(g1, 8)
        assert cache.misses == 3 and len(cache) == 2

    def test_prefix_slices_match_full_spectrum(self):
        cache = SpectrumCache()
        graph = fft_graph(4)
        full = cache.spectrum(graph, 12).eigenvalues
        for h in (1, 5, 12):
            sliced = cache.spectrum(graph, h).eigenvalues
            assert sliced.shape == (h,)
            np.testing.assert_allclose(sliced, full[:h])
            with pytest.raises(ValueError):
                sliced[0] = -1.0  # served slices are read-only
        assert cache.misses == 1 and cache.hits == 3

    def test_concurrent_gets_are_thread_safe(self):
        # Warm entries must be served concurrently without corruption: every
        # lookup is a hit, all threads observe identical eigenvalues.
        cache = SpectrumCache()
        graphs = [fft_graph(2), fft_graph(3), fft_graph(4)]
        expected = [cache.spectrum(g, 6).eigenvalues.copy() for g in graphs]
        assert cache.misses == len(graphs)

        def lookup(i: int) -> bool:
            g = graphs[i % len(graphs)]
            got = cache.spectrum(g, 6).eigenvalues
            return bool(np.array_equal(got, expected[i % len(graphs)]))

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lookup, range(200)))
        assert all(results)
        assert cache.misses == len(graphs)  # warm-up only; no solve under load
        assert cache.hits == 200

    def test_concurrent_gets_with_eviction_churn(self):
        # A tiny budget forces constant eviction under concurrency; the cache
        # must stay within budget and keep returning correct prefixes.
        cache = SpectrumCache(max_entries=2)
        graphs = [fft_graph(2), fft_graph(3), fft_graph(4), fft_graph(5)]
        baselines = [
            SpectrumCache().spectrum(g, 4).eigenvalues.copy() for g in graphs
        ]

        def churn(i: int) -> bool:
            idx = i % len(graphs)
            got = cache.spectrum(graphs[idx], 4).eigenvalues
            return bool(np.allclose(got, baselines[idx]))

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(churn, range(80)))
        assert all(results)
        assert len(cache) <= 2
        assert cache.hits + cache.misses >= 80


def hold_solves(cache: SpectrumCache, fail_with: Exception = None):
    """Hold ``cache``'s eigensolves until the returned event is set; the
    returned list records each solve as it begins."""
    release = threading.Event()
    started: list = []
    solve = cache._solve

    def held(*args):
        started.append(args)
        assert release.wait(timeout=30)
        if fail_with is not None:
            raise fail_with
        return solve(*args)

    cache._solve = held
    return release, started


def wait_for(predicate, what: str) -> None:
    deadline = time.monotonic() + 10
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.005)


def in_thread(fn, *args):
    """Run ``fn(*args)`` in a thread; returns (thread, [result or error])."""
    outcome: list = []

    def run():
        try:
            outcome.append(fn(*args))
        except BaseException as exc:  # noqa: BLE001 - handed to the test
            outcome.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, outcome


class TestSingleFlight:
    """Concurrent misses on one spectrum share one lookup."""

    @staticmethod
    def lead_and_follow(cache, graph, leader_h, follower_h, started, waiters):
        """Start a leader, and once its solve is held, a follower that
        waits on its flight."""
        leader = in_thread(cache.spectrum, graph, leader_h)
        wait_for(lambda: started, "the leader's solve")
        follower = in_thread(cache.spectrum, graph, follower_h)
        wait_for(lambda: waiters, "a lookup waiting on the flight")
        return leader, follower

    def test_follower_shares_leader_result(self, flight_waiters):
        cache = SpectrumCache()
        graph = fft_graph(4)
        release, started = hold_solves(cache)
        (leader, led), (follower, followed) = self.lead_and_follow(
            cache, graph, 8, 5, started, flight_waiters
        )
        release.set()
        leader.join(timeout=30)
        follower.join(timeout=30)
        [led], [followed] = led, followed
        assert cache.misses == 1 and cache.hits == 1
        assert not led.cache_hit and followed.cache_hit
        np.testing.assert_array_equal(followed.eigenvalues, led.eigenvalues[:5])
        # An ordinary hit: it reports the solve it was served from.
        assert followed.solve_seconds == led.solve_seconds
        assert cache._flights == {}

    def test_failure_propagates_and_key_clears(self, flight_waiters):
        cache = SpectrumCache()
        graph = fft_graph(4)
        boom = RuntimeError("solver exploded")
        release, started = hold_solves(cache, fail_with=boom)
        (leader, led), (follower, followed) = self.lead_and_follow(
            cache, graph, 8, 8, started, flight_waiters
        )
        release.set()
        leader.join(timeout=30)
        follower.join(timeout=30)
        assert led == [boom] and followed == [boom]
        assert cache.misses == 0 and cache._flights == {}
        # The failed flight is gone: the next lookup leads afresh.
        del cache._solve  # solve for real again
        assert cache.spectrum(graph, 8).eigenvalues.shape == (8,)
        assert cache.misses == 1

    def test_longer_follower_leads_again(self, flight_waiters):
        cache = SpectrumCache()
        graph = fft_graph(4)
        release, started = hold_solves(cache)
        (leader, led), (follower, followed) = self.lead_and_follow(
            cache, graph, 4, 9, started, flight_waiters
        )
        release.set()
        leader.join(timeout=30)
        follower.join(timeout=30)
        [led], [followed] = led, followed
        assert led.eigenvalues.shape == (4,)
        # Never a short spectrum: the follower solved the longer one itself.
        assert followed.eigenvalues.shape == (9,) and not followed.cache_hit
        assert cache.misses == 2
        np.testing.assert_allclose(
            followed.eigenvalues, SpectrumCache().spectrum(graph, 9).eigenvalues
        )

    def test_many_threads_pay_one_solve_per_key(self):
        # More threads than cores, switching every microsecond: a lost
        # update on the flight table or the counters would show as a
        # second solve of a key, a lost lookup, or a flight left behind.
        graphs = [fft_graph(2), fft_graph(3), hypercube_graph(3)]
        expected = [SpectrumCache().spectrum(g, 6).eigenvalues for g in graphs]
        cache = SpectrumCache()
        rounds = 200
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=16) as pool:
                got = list(pool.map(
                    lambda i: cache.spectrum(graphs[i % 3], 6).eigenvalues, range(rounds)
                ))
        finally:
            sys.setswitchinterval(switch)
        for i, values in enumerate(got):
            np.testing.assert_array_equal(values, expected[i % 3])
        assert cache.misses == len(graphs)
        assert cache.hits == rounds - len(graphs)
        assert cache._flights == {}

    def test_shed_leader_fails_followers_and_leaves_nothing_behind(
        self, tmp_path, flight_waiters
    ):
        from repro.runtime.store import SpectrumStore
        from repro.server.runner import AdmissionController, ServerOverloadedError

        store = SpectrumStore(tmp_path / "store", lease_ttl=30.0)
        cache = SpectrumCache(store=store)
        cache.admission = AdmissionController(max_in_flight=1, max_queue=0)
        cache.admission.acquire()  # someone else's solve holds the only slot
        # Hold the leader between its lease and the gate, so that a
        # follower joins its flight before it is shed.
        claimed = threading.Event()
        shed = threading.Event()
        claim = store.claim

        def held_claim(*args, **kwargs):
            outcome = claim(*args, **kwargs)
            claimed.set()
            assert shed.wait(timeout=30)
            return outcome

        store.claim = held_claim
        graph = fft_graph(4)
        leader, led = in_thread(cache.spectrum, graph, 8)
        assert claimed.wait(timeout=30)
        follower, followed = in_thread(cache.spectrum, graph, 4)
        wait_for(lambda: flight_waiters, "a lookup waiting on the flight")
        shed.set()
        leader.join(timeout=30)
        follower.join(timeout=30)
        [led], [followed] = led, followed
        assert isinstance(led, ServerOverloadedError)
        assert followed is led  # the same 429, not a second shed
        assert cache.admission.rejected == 1
        assert cache._flights == {}
        assert store.leases() == []
        cache.admission.release()
        assert cache.admission.in_flight == 0
        assert cache.misses == 0 and len(store) == 0
