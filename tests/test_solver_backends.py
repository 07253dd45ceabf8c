"""Tests for the pluggable spectral-backend layer.

Covers the PR 3 contracts:

* every backend agrees with the *closed-form* hypercube and butterfly (FFT)
  spectra within tolerance, including at a size where the butterfly's
  repeated eigenvalues fill the requested block, and answers the same for
  an ndarray as for a sparse matrix,
* an unknown ``solver`` fails when the engine, service or orchestrator is
  built,
* :class:`SpectrumCache` and :class:`SpectrumStore` key a spectrum on the
  *resolved* backend: variants coexist, ``auto`` shares a spectrum with the
  backend it picks, and the answer never depends on which request or
  process came first,
* the store's size-capped LRU eviction and integrity verification,
* concurrent iterative solves leave the process's warning filters alone.
"""

from __future__ import annotations

import os
import sqlite3
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import repro
import repro.solvers.backends as backends_module
from repro.core.engine import BoundEngine
from repro.core.spectra import butterfly_spectrum_array, hypercube_spectrum_array
from repro.graphs.compgraph import ComputationGraph
from repro.graphs.generators import fft_graph, hypercube_graph
from repro.graphs.generators.random_graphs import random_dag
from repro.graphs.laplacian import laplacian
from repro.runtime.families import GraphSpec
from repro.runtime.orchestrator import SweepOrchestrator
from repro.runtime.service import BoundQuery, BoundService
from repro.runtime.store import SpectrumStore
from repro.solvers.backends import (
    SOLVER_BACKEND_ENV_VAR,
    available_backends,
    create_backend,
    solve_smallest,
)
from repro.solvers.spectrum_cache import SpectrumCache
from tests.inertia import count_below

H = 12
BACKENDS = ("dense", "lobpcg", "amg")
#: Backend ids older builds offered; they must now be rejected everywhere.
DELETED_BACKENDS = ("lanczos", "power", "sparse")


def fft_laplacian(levels: int, sparse: bool = True):
    return laplacian(fft_graph(levels), normalized=False, sparse=sparse)


class TestRegistry:
    def test_all_expected_backends_registered(self):
        assert set(BACKENDS) == set(available_backends())

    def test_create_backend_unknown_rejected(self):
        for name in ("nope",) + DELETED_BACKENDS:
            with pytest.raises(ValueError, match="unknown spectral backend"):
                create_backend(name)

    def test_options_validate_method_and_dtype(self, tmp_path):
        """An unknown ``solver`` fails at construction, before the store
        directory, a row or a lease exists."""
        root = tmp_path / "s"
        for solver in ("bogus",) + DELETED_BACKENDS:
            with pytest.raises(ValueError, match="solver"):
                BoundEngine(fft_graph(3), solver=solver, store=SpectrumStore(root))
            with pytest.raises(ValueError, match="solver"):
                BoundService(store=root, solver=solver)
            with pytest.raises(ValueError, match="solver"):
                SweepOrchestrator(store=root, solver=solver)
            with pytest.raises(ValueError, match="solver"):
                SpectrumCache(store=SpectrumStore(root)).spectrum(fft_graph(3), 4, solver=solver)
        assert not root.exists()
        for solver in ("auto",) + BACKENDS:
            BoundEngine(fft_graph(3), solver=solver)
            BoundService(store=root, solver=solver)
            SweepOrchestrator(store=root, solver=solver)


class TestClosedFormParity:
    """All backends must reproduce the paper's closed-form spectra."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_hypercube_parity(self, backend):
        # Unnormalized hypercube Laplacian: eigenvalues 2i, mult C(d, i).
        dimension = 5
        exact = hypercube_spectrum_array(dimension)[:H]
        lap = laplacian(hypercube_graph(dimension), normalized=False, sparse=True)
        values = solve_smallest(lap, H, backend).eigenvalues
        np.testing.assert_allclose(values, exact, atol=1e-5)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_butterfly_parity(self, backend):
        levels = 4
        exact = butterfly_spectrum_array(levels)[:H]
        lap = fft_laplacian(levels)
        values = solve_smallest(lap, H, backend).eigenvalues
        np.testing.assert_allclose(values, exact, atol=1e-5)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_butterfly_parity_with_repeated_eigenvalues(self, backend):
        """fft:7 (n=1,024) at h=30: the block ends inside an eigenvalue of
        high multiplicity, where single-vector Krylov iterations skip copies
        and return values that are too high (so a lower bound too high)."""
        levels, h = 7, 30
        exact = butterfly_spectrum_array(levels)[:h]
        assert np.unique(np.round(exact, 9)).size < h // 2  # repeats dominate
        values = solve_smallest(fft_laplacian(levels), h, backend).eigenvalues
        np.testing.assert_allclose(values, exact, atol=1e-5)

    @pytest.mark.parametrize("backend", ("amg", "lobpcg"))
    def test_butterfly_parity_to_1e9_at_fft10(self, backend):
        """fft:10 (n = 11,264) at h = 16, where the block is 4 columns
        wider than h and each backend stops at its own residual tolerance:
        the values must equal the closed form to 1e-9 absolute, 10^4
        tighter than the checks above, so a looser stop shows."""
        levels, h = 10, 16
        values = solve_smallest(fft_laplacian(levels), h, backend).eigenvalues
        np.testing.assert_allclose(
            values, butterfly_spectrum_array(levels)[:h], rtol=0, atol=1e-9
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_an_ndarray_answers_what_the_sparse_matrix_answers(self, backend):
        # fft:6 (n = 448) keeps lobpcg and amg above their size floor.
        lap = fft_laplacian(6)
        from_sparse = solve_smallest(lap, H, backend)
        from_array = solve_smallest(lap.toarray(), H, backend)
        assert from_sparse.backend == from_array.backend == backend
        np.testing.assert_array_equal(from_array.eigenvalues, from_sparse.eigenvalues)


class TestRepeatedEigenvaluesAboveTheDenseCutoff:
    """What ``auto`` sends above :data:`DENSE_CUTOFF` must not skip copies
    of a repeated eigenvalue: a skipped copy makes every later value too
    high, and so the paper's lower bound too high."""

    def test_auto_above_the_cutoff_reproduces_the_butterfly_spectrum(self, monkeypatch):
        # fft:8 (n = 2,304) stands in for the 6k-50k band at a tenth of
        # the cost; single-vector ARPACK overshoots its h = 100 block by
        # 0.14.
        monkeypatch.setattr(backends_module, "DENSE_CUTOFF", 1000)
        lap = fft_laplacian(8)
        result = solve_smallest(lap, 100)
        assert result.backend == "lobpcg"
        np.testing.assert_allclose(
            result.eigenvalues, butterfly_spectrum_array(8)[:100], rtol=0, atol=1e-9
        )

    def test_count_below_matches_a_dense_count(self):
        rng = np.random.default_rng(0)
        lap = fft_laplacian(4)
        spectrum = np.linalg.eigvalsh(lap.toarray())
        for shift in rng.uniform(-0.5, spectrum[-1] + 0.5, size=20):
            assert count_below(lap, shift) == np.count_nonzero(spectrum < shift)

    @given(
        component=st.tuples(
            st.integers(min_value=14, max_value=30),
            st.floats(min_value=0.05, max_value=0.6),
            st.integers(min_value=0, max_value=10_000),
        ),
        copies=st.integers(min_value=4, max_value=8),
        normalized=st.booleans(),
    )
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_planted_multiplicity(self, component, copies, normalized):
        """Disjoint copies of one random DAG repeat every eigenvalue
        ``copies`` times; lobpcg must return all of them, as dense does."""
        size, p, seed = component
        edges = random_dag(size, edge_probability=p, seed=seed).freeze().edges
        assume(edges.shape[0] > 0)
        graph = ComputationGraph(size * copies)
        graph.add_edges_array(np.concatenate([edges + c * size for c in range(copies)]))
        lap = laplacian(graph, normalized=normalized, sparse=True)
        # LOBPCG's block is h + oversample(h) <= h + 8 columns, so this h
        # keeps it above its size floor (5 * block <= n), and it iterates.
        h = graph.num_vertices // 5 - 8
        assume(h > copies)
        iterative = solve_smallest(lap, h, "lobpcg").eigenvalues
        dense = solve_smallest(lap, h, "dense").eigenvalues
        np.testing.assert_allclose(iterative, dense, rtol=0, atol=1e-8)
        # Every eigenvalue below (just under) the h-th returned one is there.
        shift = iterative[-1] - 1e-6 * max(1.0, iterative[-1])
        assume(np.min(np.abs(dense - shift)) > 1e-7)
        assert count_below(lap, shift) == np.count_nonzero(iterative < shift)


class TestCacheKeySegregation:
    def test_backend_variants_coexist_in_memory_cache(self):
        cache = SpectrumCache()
        graph = fft_graph(4)
        cache.spectrum(graph, 6, solver="dense")
        cache.spectrum(graph, 6, solver="lobpcg")
        assert cache.misses == 2

    def test_cached_spectrum_reports_backend(self):
        cache = SpectrumCache()
        fetched = cache.spectrum(fft_graph(4), 6, solver="lobpcg")
        assert fetched.backend == "lobpcg"

    def test_store_segregates_dtype_and_records_backend(self, tmp_path):
        store = SpectrumStore(tmp_path / "s")
        cache = SpectrumCache(store=store)
        graph = fft_graph(4)
        cache.spectrum(graph, 6, solver="lobpcg")
        assert len(store) == 1
        [entry] = store.entries()
        assert entry["backend"] == "lobpcg" and "dtype" not in entry
        # A fresh cache against the same store serves it from disk.
        warm = SpectrumCache(store=SpectrumStore(tmp_path / "s"))
        served = warm.spectrum(graph, 6, solver="lobpcg")
        assert served.cache_hit and warm.store_hits == 1
        assert served.backend == "lobpcg"


class TestOneKeyPerSpectrum:
    """Every tier keys on (fingerprint, normalisation, resolved backend), so
    an answer depends neither on how the backend was named nor on what was
    solved before it."""

    def test_auto_shares_the_spectrum_of_the_backend_it_picks(self, tmp_path):
        graph = fft_graph(6)  # auto resolves to dense
        store = SpectrumStore(tmp_path / "s")
        first = SpectrumCache(store=store)
        first.spectrum(graph, 10, solver="dense")
        second = SpectrumCache(store=store)
        served = second.spectrum(graph, 10)
        assert first.misses + second.misses == 1
        assert served.cache_hit and served.backend == "dense"
        assert store.stats()["solves_recorded"] == 1

    def test_a_forced_backend_never_serves_another_backends_spectrum(
        self, tmp_path, monkeypatch
    ):
        query = BoundQuery(GraphSpec(family="fft", size_param=7), 4)
        monkeypatch.setenv(SOLVER_BACKEND_ENV_VAR, "amg")
        BoundService(store=tmp_path / "s").submit([query])
        monkeypatch.delenv(SOLVER_BACKEND_ENV_VAR)
        [stored] = BoundService(store=tmp_path / "s").submit([query])
        [solved] = BoundService(store=None).submit([query])
        assert stored.raw_value == solved.raw_value
        assert stored.bound == solved.bound and stored.best_k == solved.best_k

    def test_growing_h_answers_what_a_fresh_cache_answers(self):
        graph = fft_graph(7)
        cache = SpectrumCache()
        cache.spectrum(graph, 20, solver="lobpcg", lineage="fft")
        grown = cache.spectrum(graph, 40, solver="lobpcg", lineage="fft")
        fresh = SpectrumCache().spectrum(graph, 40, solver="lobpcg", lineage="fft")
        assert cache.misses == 2
        np.testing.assert_array_equal(grown.eigenvalues, fresh.eigenvalues)

    def test_below_the_lobpcg_floor_iterative_backends_answer_dense(self):
        lap = fft_laplacian(4)  # n = 80 < 5 * (20 + 8)
        dense = solve_smallest(lap, 20, "dense").eigenvalues
        for backend in ("lobpcg", "amg"):
            result = solve_smallest(lap, 20, backend)
            assert result.backend == backend
            np.testing.assert_array_equal(result.eigenvalues, dense)


class TestStoreHygiene:
    def put_spectrum(self, store, fingerprint, h=32, lineage=None):
        values = np.linspace(0.0, 1.0, h)
        return store.put(
            fingerprint, values, 0.1, backend="dense", lineage=lineage
        )

    def test_max_bytes_evicts_least_recently_used(self, tmp_path):
        store = SpectrumStore(tmp_path / "s", max_bytes=1)  # everything over budget
        self.put_spectrum(store, "a" * 40)
        self.put_spectrum(store, "b" * 40)
        # The newest entry always survives; older ones are evicted.
        assert len(store) == 1
        assert store.entries()[0]["fingerprint"] == "b" * 12

    def test_unbounded_store_never_evicts(self, tmp_path):
        store = SpectrumStore(tmp_path / "s")
        for ch in "abcd":
            self.put_spectrum(store, ch * 40)
        assert len(store) == 4

    def test_max_bytes_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SPECTRUM_STORE_MAX_BYTES", "1")
        store = SpectrumStore(tmp_path / "s")
        assert store.max_bytes == 1
        monkeypatch.setenv("REPRO_SPECTRUM_STORE_MAX_BYTES", "")
        assert SpectrumStore(tmp_path / "s").max_bytes is None

    def test_verify_clean_store(self, tmp_path):
        store = SpectrumStore(tmp_path / "s")
        self.put_spectrum(store, "a" * 40)
        report = store.verify()
        assert report["ok"] and report["entries_checked"] == 1

    def test_verify_detects_and_fixes_corruption(self, tmp_path):
        store = SpectrumStore(tmp_path / "s")
        entries = {ch: self.put_spectrum(store, ch * 40) for ch in "abcd"}
        values = np.linspace(0.0, 1.0, 32)
        corrupted = {
            "a": values[:31],  # the wrong length
            "b": np.where(np.arange(32) == 5, np.nan, values),  # not finite
            "c": values[::-1],  # descending
        }
        conn = sqlite3.connect(tmp_path / "s" / "catalog.sqlite")
        with conn:
            for ch, bad in corrupted.items():
                conn.execute("UPDATE spectra SET eigenvalues = ? WHERE id = ?",
                             (bad.tobytes(), entries[ch]))
        conn.close()
        report = store.verify()
        assert not report["ok"]
        assert report["corrupt"] == sorted(entries[ch] for ch in corrupted)
        fixed = store.verify(fix=True)
        assert fixed["entries_removed"] == 3
        after = store.verify()
        assert after["ok"] and after["entries_checked"] == 1
        assert store.get("d" * 40, 32) is not None

    def test_clear_by_lineage_and_fingerprint(self, tmp_path):
        store = SpectrumStore(tmp_path / "s")
        self.put_spectrum(store, "a" * 40, lineage="fft")
        self.put_spectrum(store, "b" * 40, lineage="fft")
        self.put_spectrum(store, "c" * 40, lineage="matmul")
        assert store.clear(fingerprint_prefix="aaaa") == 1
        assert store.clear(lineage="fft") == 1  # only "b" left under fft
        assert store.clear(lineage="fft") == 0
        assert len(store) == 1
        assert store.clear() == 1  # unfiltered clear removes the rest


#: Concurrent ``lobpcg`` and ``amg`` solves on three threads, every one of
#: which makes SciPy's ``lobpcg`` warn that it stopped short of the
#: tolerance; prints whether ``warnings.filters`` came through unchanged.
_CONCURRENT_SOLVES = """
import warnings
from concurrent.futures import ThreadPoolExecutor

from repro.graphs.generators import fft_graph
from repro.graphs.laplacian import laplacian
from repro.solvers.backends import solve_smallest

laplacians = {
    7: laplacian(fft_graph(7), normalized=True, sparse=True),
    8: laplacian(fft_graph(8), normalized=False, sparse=True),
}
jobs = [(levels, backend) for levels in (7, 8, 8, 7) for backend in ("lobpcg", "amg")]
before = list(warnings.filters)
with ThreadPoolExecutor(3) as pool:
    solved = list(pool.map(lambda job: solve_smallest(laplacians[job[0]], 100, job[1]), jobs))
print(list(warnings.filters) == before, len(solved))
"""


class TestProcessGlobalState:
    def test_concurrent_solves_leave_the_warning_filters_alone(self):
        """No solve changes the process's warning filters, and the one
        import-time filter keeps SciPy's convergence warning off stderr.

        Runs in a fresh interpreter, outside pytest's own warning capture.
        A ``catch_warnings`` block around each solve, which saves and
        restores the process-wide filter list, failed this in 8 of 10 runs.
        """
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            OPENBLAS_NUM_THREADS="1",
        )
        result = subprocess.run(
            [sys.executable, "-c", _CONCURRENT_SOLVES],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["True", "8"]
        assert result.stderr == ""
