"""Tests for the paper-scale spectral engine (PR 6).

Covers the three tentpole layers and their contracts:

* the pure-SciPy smoothed-aggregation AMG machinery (aggregation covers
  every vertex, the V-cycle contracts residuals, block application matches
  column-wise matvecs) and the ``amg`` backend's closed-form parity on
  hypercube/butterfly spectra — cold and warm, float64 and float32 — at
  sizes that exercise the *real* multigrid path, not the dense fallback;
* matrix-free :class:`~repro.graphs.laplacian.LaplacianOperator` inputs
  (including sharded row blocks) agreeing with assembled-CSR solves, and
  ``resolve_method`` auto-routing (dense / sparse / amg by size, the
  ``$REPRO_SOLVER_BACKEND`` escape hatch, resolved ids recorded everywhere
  an ``"auto"`` could previously leak);
* ``method="spectral-coarse"``, an alias of ``spectral``: one
  eigensolve serves both, and the alias answers the exact bound as the
  zero-width interval ``bound_lo == bound_hi == bound``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.engine import BoundEngine
from repro.core.spectra import butterfly_spectrum_array, hypercube_spectrum_array
from repro.graphs.generators import fft_graph, hypercube_graph
from repro.graphs.laplacian import LaplacianOperator, laplacian, laplacian_operator
from repro.runtime.families import GraphSpec
from repro.runtime.service import BoundQuery, BoundService
from repro.runtime.store import SpectrumStore
from repro.solvers.amg import (
    SmoothedAggregationPreconditioner,
    aggregate_vertices,
    smoothed_aggregation_preconditioner,
    strength_graph,
)
from repro.solvers.backend import EigenSolverOptions, smallest_eigenvalues
from repro.solvers.backends import (
    AMG_AUTO_CUTOFF,
    SOLVER_BACKEND_ENV_VAR,
    WarmStartContext,
    available_backends,
    resolve_method,
    solve_smallest,
)
from repro.solvers.spectrum_cache import SpectrumCache

H = 12


def shifted_fft_laplacian(levels: int) -> sp.csr_matrix:
    lap = laplacian(fft_graph(levels), normalized=False, sparse=True).tocsr()
    return (lap + 1e-2 * sp.identity(lap.shape[0], format="csr")).tocsr()


class TestAmgMachinery:
    """The pure-SciPy smoothed-aggregation building blocks."""

    def test_aggregation_labels_every_vertex(self):
        matrix = shifted_fft_laplacian(6)
        labels = aggregate_vertices(strength_graph(matrix))
        assert labels.shape == (matrix.shape[0],)
        assert labels.min() >= 0
        # Aggregate ids are contiguous 0..num_aggregates-1.
        assert set(np.unique(labels)) == set(range(labels.max() + 1))
        assert labels.max() + 1 < matrix.shape[0]  # actually coarsens

    def test_hierarchy_has_multiple_levels(self):
        matrix = shifted_fft_laplacian(6)  # n = 448
        precond = SmoothedAggregationPreconditioner(matrix, coarse_size=50)
        assert precond.num_levels >= 2
        assert precond.operator_complexity() >= 1.0

    def test_vcycle_contracts_residual(self):
        matrix = shifted_fft_laplacian(6)
        precond = smoothed_aggregation_preconditioner(matrix)
        rng = np.random.default_rng(0)
        rhs = rng.standard_normal(matrix.shape[0])
        x = precond @ rhs
        assert np.linalg.norm(rhs - matrix @ x) < 0.5 * np.linalg.norm(rhs)

    def test_block_application_matches_columnwise(self):
        matrix = shifted_fft_laplacian(5)
        precond = smoothed_aggregation_preconditioner(matrix)
        rng = np.random.default_rng(1)
        block = rng.standard_normal((matrix.shape[0], 4))
        stacked = np.stack([precond @ block[:, j] for j in range(4)], axis=1)
        np.testing.assert_allclose(precond @ block, stacked, atol=1e-12)


class TestAmgBackendParity:
    """Closed-form parity at sizes where the real multigrid path runs.

    The amg backend falls back to dense below ``5 * (k + 8)`` vertices, so
    these tests use n >= 256 to guarantee LOBPCG + AMG actually executes.
    """

    def test_hypercube_parity_cold(self):
        dimension = 8  # n = 256
        exact = hypercube_spectrum_array(dimension)[:H]
        lap = laplacian(hypercube_graph(dimension), normalized=False, sparse=True)
        values = smallest_eigenvalues(lap, H, EigenSolverOptions(method="amg"))
        np.testing.assert_allclose(values, exact, atol=1e-5)

    def test_butterfly_parity_cold(self):
        levels = 6  # n = 448
        exact = butterfly_spectrum_array(levels)[:H]
        lap = laplacian(fft_graph(levels), normalized=False, sparse=True)
        values = smallest_eigenvalues(lap, H, EigenSolverOptions(method="amg"))
        np.testing.assert_allclose(values, exact, atol=1e-5)

    def test_butterfly_parity_float32(self):
        levels = 6
        exact = butterfly_spectrum_array(levels)[:H]
        lap = laplacian(fft_graph(levels), normalized=False, sparse=True)
        options = EigenSolverOptions(method="amg", dtype="float32")
        values = smallest_eigenvalues(lap, H, options)
        assert values.dtype == np.float64  # results are always upcast
        np.testing.assert_allclose(values, exact, atol=1e-3)

    @pytest.mark.parametrize("dtype", ("float64", "float32"))
    def test_warm_resolve_matches_cold(self, dtype):
        options = EigenSolverOptions(method="amg", dtype=dtype)
        context = WarmStartContext()
        lap = laplacian(fft_graph(6), normalized=False, sparse=True)
        cold = solve_smallest(lap, H, options, warm_start=context, lineage="fft")
        assert not cold.warm_started
        assert cold.backend == "amg"
        warm = solve_smallest(lap, H, options, warm_start=context, lineage="fft")
        assert warm.warm_started
        atol = 1e-3 if dtype == "float32" else 1e-6
        np.testing.assert_allclose(warm.eigenvalues, cold.eigenvalues, atol=atol)

    def test_operator_input_matches_csr(self):
        graph = fft_graph(6)
        csr = laplacian(graph, normalized=False, sparse=True)
        operator = laplacian_operator(graph, normalized=False)
        options = EigenSolverOptions(method="amg")
        from_csr = smallest_eigenvalues(csr, H, options)
        from_op = smallest_eigenvalues(operator, H, options)
        np.testing.assert_allclose(from_op, from_csr, atol=1e-7)


class TestLaplacianOperator:
    def test_matvec_matches_assembled_matrix(self):
        graph = fft_graph(5)
        dense = laplacian(graph, normalized=False, sparse=False)
        operator = laplacian_operator(graph, normalized=False)
        rng = np.random.default_rng(2)
        x = rng.standard_normal(graph.num_vertices)
        np.testing.assert_allclose(operator @ x, dense @ x, atol=1e-10)
        np.testing.assert_allclose(operator.tocsr().toarray(), dense, atol=1e-12)
        np.testing.assert_allclose(operator.diagonal(), np.diag(dense), atol=1e-12)

    def test_sharded_row_blocks_match(self):
        graph = hypercube_graph(7)
        full = laplacian_operator(graph, normalized=True)
        sharded = laplacian_operator(graph, normalized=True, block_rows=17)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(graph.num_vertices)
        block = rng.standard_normal((graph.num_vertices, 3))
        np.testing.assert_allclose(sharded @ x, full @ x, atol=1e-12)
        np.testing.assert_allclose(sharded @ block, full @ block, atol=1e-12)

    def test_astype_roundtrip(self):
        operator = laplacian_operator(fft_graph(4), normalized=False)
        assert operator.astype(np.float64) is operator
        f32 = operator.astype(np.float32)
        assert isinstance(f32, LaplacianOperator)
        assert f32.dtype == np.float32

    def test_rejects_bad_block_rows(self):
        with pytest.raises(ValueError, match="block_rows"):
            laplacian_operator(fft_graph(4), block_rows=0)


class TestResolveMethod:
    def test_explicit_method_always_wins(self):
        options = EigenSolverOptions(method="power")
        assert resolve_method("power", 10**6, 5, options) == "power"

    def test_auto_routes_by_size(self):
        options = EigenSolverOptions()
        assert resolve_method("auto", 100, 5, options) == "dense"
        assert resolve_method("auto", 10_000, 5, options) == "sparse"
        assert resolve_method("auto", AMG_AUTO_CUTOFF + 1, 5, options) == "amg"

    def test_auto_never_dense_above_cutoff(self):
        # Full-spectrum requests (k >= n-1) go dense only below the cap.
        options = EigenSolverOptions()
        assert resolve_method("auto", 20_000, 19_999, options) == "dense"
        n = 60_000
        assert resolve_method("auto", n, n - 1, options) == "amg"

    def test_env_var_forces_auto_solves(self, monkeypatch):
        options = EigenSolverOptions()
        monkeypatch.setenv(SOLVER_BACKEND_ENV_VAR, "lanczos")
        assert resolve_method("auto", 100, 5, options) == "lanczos"
        assert resolve_method("auto", 10**6, 5, options) == "lanczos"
        # Explicit methods ignore the escape hatch.
        assert resolve_method("dense", 100, 5, options) == "dense"

    def test_env_var_invalid_value_rejected(self, monkeypatch):
        monkeypatch.setenv(SOLVER_BACKEND_ENV_VAR, "bogus")
        with pytest.raises(ValueError, match=SOLVER_BACKEND_ENV_VAR):
            resolve_method("auto", 100, 5, EigenSolverOptions())

    def test_env_var_applies_end_to_end(self, monkeypatch):
        monkeypatch.setenv(SOLVER_BACKEND_ENV_VAR, "lobpcg")
        lap = laplacian(fft_graph(4), normalized=False, sparse=True)
        result = solve_smallest(lap, 6, EigenSolverOptions())
        assert result.backend == "lobpcg"  # auto would have picked dense


class TestResolvedBackendRecording:
    """No surface may record the literal string "auto" as a backend id."""

    def test_solve_smallest_records_resolved_id(self):
        lap = laplacian(fft_graph(4), normalized=False, sparse=True)
        result = solve_smallest(lap, 6, EigenSolverOptions())
        assert result.backend in available_backends()

    def test_zero_eigenvalue_request_resolves_backend(self):
        lap = laplacian(fft_graph(4), normalized=False, sparse=True)
        result = solve_smallest(lap, 0, EigenSolverOptions())
        assert result.backend in available_backends()
        assert result.eigenvalues.shape == (0,)

    def test_cache_and_store_record_resolved_id(self, tmp_path):
        store = SpectrumStore(tmp_path / "s")
        cache = SpectrumCache(store=store)
        fetched = cache.spectrum(fft_graph(4), 6)  # default options: auto
        assert fetched.backend in available_backends()
        assert store.entries()[0]["backend"] in available_backends()

    def test_engine_solve_log_records_resolved_id(self):
        engine = BoundEngine(fft_graph(4), num_eigenvalues=6, cache=SpectrumCache())
        engine.spectral(M=4)
        assert all(r.backend in available_backends() for r in engine.solve_log)


class TestEngineAndServiceIntervals:
    """``spectral-coarse`` is an alias of ``spectral`` at every layer."""

    def test_engine_interval_brackets_exact_bound(self):
        # The engine alias is the exact bound: a zero-width bracket.
        engine = BoundEngine(hypercube_graph(7), num_eigenvalues=10, cache=SpectrumCache())
        alias, exact = engine.spectral_interval(8), engine.spectral(8)
        assert replace(alias, elapsed_seconds=0.0) == replace(exact, elapsed_seconds=0.0)

    def test_engine_interval_is_cached(self):
        engine = BoundEngine(hypercube_graph(7), num_eigenvalues=10, cache=SpectrumCache())
        engine.spectral(8)
        engine.spectral_interval(16)  # same spectrum, different M
        assert engine.num_eigensolves == 1

    def test_cache_alias_shares_exact_entries(self):
        cache = SpectrumCache()
        exact = cache.spectrum(hypercube_graph(7), 8)
        alias = cache.interval_spectrum(hypercube_graph(7), 8)
        assert alias.cache_hit and cache.misses == 1
        np.testing.assert_array_equal(alias.eigenvalues, exact.eigenvalues)

    def test_sweep_rejects_spectral_coarse(self):
        engine = BoundEngine(hypercube_graph(4), num_eigenvalues=10, cache=SpectrumCache())
        with pytest.raises(ValueError, match="unknown method"):
            engine.sweep([4, 8], methods=("spectral-coarse",))

    def test_service_routes_spectral_coarse(self):
        service = BoundService(store=None, num_eigenvalues=100)
        ignored = dict(elapsed_seconds=0.0, bound_lo=None, bound_hi=None)
        cases = [("fft", 8, 4, 1, "normalized")] + [
            ("hypercube", 7, 8, processors, normalization)
            for normalization in ("normalized", "unnormalized")
            for processors in (1, 2)
        ]
        for family, size, M, processors, normalization in cases:
            spec = GraphSpec(family=family, size_param=size)
            exact, alias = service.submit([
                BoundQuery(spec, M, processors, normalization, method=method)
                for method in ("spectral", "spectral-coarse")
            ])
            # Field for field the exact answer, but for the zero-width interval.
            assert alias.bound_lo == alias.bound_hi == alias.bound
            assert exact.bound_lo is None and exact.bound_hi is None
            assert replace(alias, **ignored) == replace(exact, **ignored)
            if family == "fft":
                # A cold batch of both methods pays one eigensolve, and the
                # bound is the independent dense-Laplacian oracle's value.
                assert service.stats()["cache_misses"] == 1
                assert exact.bound == pytest.approx(32.40394228294514, rel=1e-9)

    def test_service_rejects_unknown_method(self):
        service = BoundService(store=None, num_eigenvalues=10)
        spec = GraphSpec(family="hypercube", size_param=4)
        with pytest.raises(ValueError, match="unknown method"):
            service.submit([BoundQuery(graph=spec, memory_size=8, method="nope")])
