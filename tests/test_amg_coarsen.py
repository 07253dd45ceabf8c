"""Tests for the paper-scale spectral engine (PR 6).

Covers the three tentpole layers and their contracts:

* the pure-SciPy smoothed-aggregation AMG machinery (aggregation covers
  every vertex, the V-cycle contracts residuals, block application matches
  column-wise matvecs) and the ``amg`` backend's closed-form parity on
  hypercube/butterfly spectra at sizes that exercise the *real* multigrid
  path, not the dense fallback;
* ``resolve_method`` auto-routing (dense / lobpcg / amg by size, the
  ``$REPRO_SOLVER_BACKEND`` escape hatch, resolved ids recorded everywhere
  an ``"auto"`` could previously leak);
* ``method="spectral-coarse"``, an alias of ``spectral``: one
  eigensolve serves both, and the alias answers the exact bound as the
  zero-width interval ``bound_lo == bound_hi == bound``.
"""

from __future__ import annotations

import importlib.util
import sys
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.engine import BoundEngine
from repro.core.spectra import butterfly_spectrum_array, hypercube_spectrum_array
from repro.graphs.generators import fft_graph, hypercube_graph
from repro.graphs.laplacian import laplacian
from repro.runtime.families import GraphSpec
from repro.runtime.service import BoundQuery, BoundService
from repro.runtime.store import SpectrumStore
from repro.solvers.amg import (
    SmoothedAggregationPreconditioner,
    aggregate_vertices,
    smoothed_aggregation_preconditioner,
    strength_graph,
)
from repro.solvers.backends import (
    AMG_AUTO_CUTOFF,
    SOLVER_BACKEND_ENV_VAR,
    available_backends,
    resolve_method,
    solve_smallest,
)
from repro.solvers.spectrum_cache import SpectrumCache

H = 12


def shifted_fft_laplacian(levels: int) -> sp.csr_matrix:
    lap = laplacian(fft_graph(levels), normalized=False, sparse=True).tocsr()
    return (lap + 1e-2 * sp.identity(lap.shape[0], format="csr")).tocsr()


def reference_aggregation(strength: sp.csr_matrix) -> np.ndarray:
    """The three greedy aggregation passes written with per-vertex NumPy
    calls: the reference :func:`aggregate_vertices` must match label for
    label."""
    n = strength.shape[0]
    indptr, indices = strength.indptr, strength.indices
    labels = np.full(n, -1, dtype=np.int64)
    next_label = 0
    for v in range(n):
        if labels[v] != -1:
            continue
        neighbours = indices[indptr[v] : indptr[v + 1]]
        if neighbours.size and np.any(labels[neighbours] != -1):
            continue
        labels[v] = next_label
        labels[neighbours] = next_label
        next_label += 1
    for v in range(n):
        if labels[v] != -1:
            continue
        neighbours = indices[indptr[v] : indptr[v + 1]]
        tagged = neighbours[labels[neighbours] != -1]
        if tagged.size:
            labels[v] = labels[tagged[0]]
    for v in range(n):
        if labels[v] == -1:
            labels[v] = next_label
            next_label += 1
    return labels


class TestAmgMachinery:
    """The pure-SciPy smoothed-aggregation building blocks."""

    @pytest.mark.parametrize(
        "family,size", [("fft", 7), ("matmul", 6), ("bhk", 8), ("hypercube", 6)]
    )
    def test_aggregation_matches_the_reference(self, family, size):
        lap = laplacian(GraphSpec(family=family, size_param=size).build(), sparse=True)
        strength = strength_graph(lap)
        labels = aggregate_vertices(strength)
        assert labels.dtype == np.int64
        np.testing.assert_array_equal(labels, reference_aggregation(strength))

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
        precond = SmoothedAggregationPreconditioner(matrix)
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

    def test_an_installed_pyamg_is_not_used(self, monkeypatch):
        # The in-package hierarchy is the only preconditioner, so an amg
        # spectrum has the same digits on hosts with and without pyamg.
        sentinel = object()
        stub = types.ModuleType("pyamg")
        stub.smoothed_aggregation_solver = lambda *args, **kwargs: (
            types.SimpleNamespace(aspreconditioner=lambda *a, **k: sentinel)
        )
        monkeypatch.setitem(sys.modules, "pyamg", stub)
        precond = smoothed_aggregation_preconditioner(shifted_fft_laplacian(5))
        assert isinstance(precond, SmoothedAggregationPreconditioner)


class TestAmgBackendParity:
    """Closed-form parity at sizes where the real multigrid path runs.

    The amg backend falls back to dense below ``5 * (k + oversample(k))``
    vertices (``5 * (12 + 3) = 75`` here), so these tests use n >= 256 to
    guarantee LOBPCG + AMG actually executes.
    """

    def test_hypercube_parity_cold(self):
        dimension = 8  # n = 256
        exact = hypercube_spectrum_array(dimension)[:H]
        lap = laplacian(hypercube_graph(dimension), normalized=False, sparse=True)
        values = solve_smallest(lap, H, "amg").eigenvalues
        np.testing.assert_allclose(values, exact, atol=1e-5)

    def test_butterfly_parity_cold(self):
        levels = 6  # n = 448
        exact = butterfly_spectrum_array(levels)[:H]
        lap = laplacian(fft_graph(levels), normalized=False, sparse=True)
        values = solve_smallest(lap, H, "amg").eigenvalues
        np.testing.assert_allclose(values, exact, atol=1e-5)


class TestResolveMethod:
    def test_explicit_method_always_wins(self):
        assert resolve_method("lobpcg", 10**6, 5) == "lobpcg"

    def test_auto_routes_by_size(self):
        assert resolve_method("auto", 100, 5) == "dense"
        assert resolve_method("auto", 10_000, 5) == "lobpcg"
        assert resolve_method("auto", AMG_AUTO_CUTOFF + 1, 5) == "amg"

    def test_auto_never_dense_above_cutoff(self):
        # Full-spectrum requests (k >= n-1) go dense only below the cap.
        assert resolve_method("auto", 20_000, 19_999) == "dense"
        n = 60_000
        assert resolve_method("auto", n, n - 1) == "amg"

    def test_env_var_forces_auto_solves(self, monkeypatch):
        monkeypatch.setenv(SOLVER_BACKEND_ENV_VAR, "lobpcg")
        assert resolve_method("auto", 100, 5) == "lobpcg"
        assert resolve_method("auto", 10**6, 5) == "lobpcg"
        # Explicit methods ignore the escape hatch.
        assert resolve_method("dense", 100, 5) == "dense"

    def test_env_var_invalid_value_rejected(self, monkeypatch):
        # lanczos, power and sparse were backends in older builds.
        for value in ("bogus", "lanczos", "power", "sparse"):
            monkeypatch.setenv(SOLVER_BACKEND_ENV_VAR, value)
            with pytest.raises(ValueError, match=SOLVER_BACKEND_ENV_VAR):
                resolve_method("auto", 100, 5)

    def test_env_var_applies_end_to_end(self, monkeypatch):
        monkeypatch.setenv(SOLVER_BACKEND_ENV_VAR, "lobpcg")
        lap = laplacian(fft_graph(4), normalized=False, sparse=True)
        result = solve_smallest(lap, 6)
        assert result.backend == "lobpcg"  # auto would have picked dense


class TestResolvedBackendRecording:
    """No surface may record the literal string "auto" as a backend id."""

    def test_solve_smallest_records_resolved_id(self):
        lap = laplacian(fft_graph(4), normalized=False, sparse=True)
        result = solve_smallest(lap, 6)
        assert result.backend in available_backends()

    def test_zero_eigenvalue_request_resolves_backend(self):
        lap = laplacian(fft_graph(4), normalized=False, sparse=True)
        result = solve_smallest(lap, 0)
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
        assert engine.backend is None
        engine.spectral(M=4)
        assert engine.backend in available_backends()
        assert engine.num_eigensolves == 1 and engine.eigensolve_seconds > 0.0


class TestStageTimerTargets:
    def test_every_perfbench_target_resolves(self):
        # perfbench's traced runs wrap these names, the one-line aliases
        # among them, and crash on the first one that is missing.
        path = Path(__file__).resolve().parents[1] / "perfbench" / "stages.py"
        spec = importlib.util.spec_from_file_location("perfbench_stages", path)
        stages = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(stages)
        for module_name, target, _ in stages.TARGETS:
            owner, attr = stages._resolve(module_name, target)
            assert callable(getattr(owner, attr)), (module_name, target)


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
