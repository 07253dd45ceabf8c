"""Tests for the pluggable spectral-backend layer.

Covers the PR 3 contracts:

* every backend agrees with the *closed-form* hypercube and butterfly (FFT)
  spectra within tolerance (float32 with a looser one), including at a size
  where the butterfly's repeated eigenvalues fill the requested block,
* warm-started solves produce the same eigenvalues as cold solves,
* :class:`SpectrumCache` and :class:`SpectrumStore` keys segregate dtype and
  backend variants (mixed-precision spectra coexist),
* the store's size-capped LRU eviction and integrity verification.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core.spectra import butterfly_spectrum_array, hypercube_spectrum_array
from repro.graphs.generators import fft_graph, hypercube_graph
from repro.graphs.laplacian import laplacian
from repro.runtime.store import SpectrumStore
from repro.solvers.backend import EigenSolverOptions
from repro.solvers.backends import (
    WarmStartContext,
    adapt_subspace,
    available_backends,
    create_backend,
    solve_smallest,
)
from repro.solvers.spectrum_cache import SpectrumCache

H = 12
BACKENDS = ("dense", "sparse", "lobpcg", "amg")
#: Backend ids older builds offered; they must now be rejected everywhere.
DELETED_BACKENDS = ("lanczos", "power")


def fft_laplacian(levels: int, sparse: bool = True):
    return laplacian(fft_graph(levels), normalized=False, sparse=sparse)


class TestRegistry:
    def test_all_expected_backends_registered(self):
        assert set(BACKENDS) == set(available_backends())

    def test_create_backend_unknown_rejected(self):
        for name in ("nope",) + DELETED_BACKENDS:
            with pytest.raises(ValueError, match="unknown spectral backend"):
                create_backend(name, EigenSolverOptions())

    def test_options_validate_method_and_dtype(self):
        for method in ("bogus",) + DELETED_BACKENDS:
            with pytest.raises(ValueError, match="method"):
                EigenSolverOptions(method=method)
        with pytest.raises(ValueError, match="dtype"):
            EigenSolverOptions(dtype="float16")
        assert EigenSolverOptions(method="lobpcg", dtype="float32").dtype == "float32"


class TestClosedFormParity:
    """All backends must reproduce the paper's closed-form spectra."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_hypercube_parity(self, backend):
        # Unnormalized hypercube Laplacian: eigenvalues 2i, mult C(d, i).
        dimension = 5
        exact = hypercube_spectrum_array(dimension)[:H]
        lap = laplacian(hypercube_graph(dimension), normalized=False, sparse=True)
        values = solve_smallest(lap, H, EigenSolverOptions(method=backend)).eigenvalues
        np.testing.assert_allclose(values, exact, atol=1e-5)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_butterfly_parity(self, backend):
        levels = 4
        exact = butterfly_spectrum_array(levels)[:H]
        lap = fft_laplacian(levels)
        values = solve_smallest(lap, H, EigenSolverOptions(method=backend)).eigenvalues
        np.testing.assert_allclose(values, exact, atol=1e-5)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_butterfly_parity_with_repeated_eigenvalues(self, backend):
        """fft:7 (n=1,024) at h=30: the block ends inside an eigenvalue of
        high multiplicity, where single-vector Krylov iterations skip copies
        and return values that are too high (so a lower bound too high)."""
        levels, h = 7, 30
        exact = butterfly_spectrum_array(levels)[:h]
        assert np.unique(np.round(exact, 9)).size < h // 2  # repeats dominate
        options = EigenSolverOptions(method=backend)
        values = solve_smallest(fft_laplacian(levels), h, options).eigenvalues
        np.testing.assert_allclose(values, exact, atol=1e-5)

    @pytest.mark.parametrize("backend", ("dense", "lobpcg", "amg"))
    def test_float32_parity_loose_tolerance(self, backend):
        levels = 4
        exact = butterfly_spectrum_array(levels)[:H]
        lap = fft_laplacian(levels)
        options = EigenSolverOptions(method=backend, dtype="float32")
        values = solve_smallest(lap, H, options).eigenvalues
        assert values.dtype == np.float64  # results are always upcast
        np.testing.assert_allclose(values, exact, atol=1e-3)


class TestWarmStart:
    def test_warm_resolve_matches_cold_solve(self):
        """A warm-started LOBPCG re-solve reproduces the cold eigenvalues."""
        options = EigenSolverOptions(method="lobpcg")
        context = WarmStartContext()
        lap = fft_laplacian(6)
        cold = solve_smallest(lap, H, options, warm_start=context, lineage="fft")
        assert not cold.warm_started  # nothing to seed from yet
        warm = solve_smallest(lap, H, options, warm_start=context, lineage="fft")
        assert warm.warm_started
        assert context.seeds_served >= 1
        np.testing.assert_allclose(warm.eigenvalues, cold.eigenvalues, atol=1e-6)

    def test_dimension_mismatch_is_never_seeded(self):
        """Consecutive family levels have different sizes: no prolongation."""
        options = EigenSolverOptions(method="lobpcg")
        context = WarmStartContext()
        solve_smallest(fft_laplacian(5), H, options, warm_start=context, lineage="fft")
        bigger = solve_smallest(
            fft_laplacian(6), H, options, warm_start=context, lineage="fft"
        )
        assert not bigger.warm_started

    def test_contexts_segregate_normalization_and_options(self):
        context = WarmStartContext()
        opts = EigenSolverOptions(method="lobpcg")
        context.update(WarmStartContext.key("fft", True, opts), np.eye(8))
        assert context.get(WarmStartContext.key("fft", False, opts)) is None
        assert context.get(WarmStartContext.key("fft", True, opts)) is not None
        other = EigenSolverOptions(method="lobpcg", dtype="float32")
        assert context.get(WarmStartContext.key("fft", True, other)) is None

    def test_adapt_subspace_adjusts_columns_and_orthonormalizes(self):
        rng = np.random.default_rng(0)
        prev = rng.standard_normal((32, 4))
        adapted = adapt_subspace(prev, 32, 6, rng)
        assert adapted.shape == (32, 6)
        np.testing.assert_allclose(adapted.T @ adapted, np.eye(6), atol=1e-10)
        assert adapt_subspace(None, 32, 6, rng) is None
        # Cross-dimension seeds are rejected (prolongation measured harmful).
        assert adapt_subspace(prev, 64, 6, rng) is None

    def test_backends_without_warm_support_ignore_context(self):
        context = WarmStartContext()
        lap = fft_laplacian(3, sparse=False)
        result = solve_smallest(
            lap, 5, EigenSolverOptions(method="dense"), warm_start=context, lineage="x"
        )
        assert not result.warm_started
        assert len(context) == 0  # dense produces no vectors to stash


class TestCacheKeySegregation:
    def test_dtype_variants_coexist_in_memory_cache(self):
        cache = SpectrumCache()
        graph = fft_graph(4)
        f64 = cache.spectrum(graph, 6, eig_options=EigenSolverOptions(method="dense"))
        f32 = cache.spectrum(
            graph, 6, eig_options=EigenSolverOptions(method="dense", dtype="float32")
        )
        assert cache.misses == 2  # distinct keys -> two solves
        assert not f64.cache_hit and not f32.cache_hit
        assert f64.dtype == "float64" and f32.dtype == "float32"
        again = cache.spectrum(
            graph, 6, eig_options=EigenSolverOptions(method="dense", dtype="float32")
        )
        assert again.cache_hit

    def test_backend_variants_coexist_in_memory_cache(self):
        cache = SpectrumCache()
        graph = fft_graph(4)
        cache.spectrum(graph, 6, eig_options=EigenSolverOptions(method="dense"))
        cache.spectrum(graph, 6, eig_options=EigenSolverOptions(method="lobpcg"))
        assert cache.misses == 2

    def test_cached_spectrum_reports_backend(self):
        cache = SpectrumCache()
        fetched = cache.spectrum(
            fft_graph(4), 6, eig_options=EigenSolverOptions(method="lobpcg")
        )
        assert fetched.backend == "lobpcg"

    def test_store_segregates_dtype_and_records_backend(self, tmp_path):
        store = SpectrumStore(tmp_path / "s")
        cache = SpectrumCache(store=store)
        graph = fft_graph(4)
        cache.spectrum(graph, 6, eig_options=EigenSolverOptions(method="lobpcg"))
        cache.spectrum(
            graph, 6, eig_options=EigenSolverOptions(method="lobpcg", dtype="float32")
        )
        assert len(store) == 2
        entries = store.entries()
        assert {e["dtype"] for e in entries} == {"float64", "float32"}
        assert {e["backend"] for e in entries} == {"lobpcg"}
        # A fresh cache against the same store serves both variants from disk.
        warm = SpectrumCache(store=SpectrumStore(tmp_path / "s"))
        f32 = warm.spectrum(
            graph, 6, eig_options=EigenSolverOptions(method="lobpcg", dtype="float32")
        )
        assert f32.cache_hit and warm.store_hits == 1
        assert f32.backend == "lobpcg"


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
        entry_a = self.put_spectrum(store, "a" * 40)
        entry_b = self.put_spectrum(store, "b" * 40)
        blob_dir = tmp_path / "s" / "blobs"
        (blob_dir / f"{entry_a}.npz").write_bytes(b"not a zipfile")  # corrupt
        (blob_dir / f"{entry_b}.npz").unlink()  # missing
        (blob_dir / "orphan.npz").write_bytes(b"stray")  # orphaned
        # Age the orphan past verify's young-blob grace period (a fresh blob
        # could be a concurrent put that has not indexed its entry yet).
        old = time.time() - 120
        os.utime(blob_dir / "orphan.npz", (old, old))
        report = store.verify()
        assert not report["ok"]
        assert report["corrupt"] == [entry_a]
        assert report["missing"] == [entry_b]
        assert report["orphaned_blobs"] == ["orphan.npz"]
        fixed = store.verify(fix=True)
        assert fixed["entries_removed"] == 2
        after = store.verify()
        assert after["ok"] and after["entries_checked"] == 0
        assert not (blob_dir / "orphan.npz").exists()

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
