"""Tests for the dense eigensolver and the backend entry point."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graphs.generators import fft_graph
from repro.graphs.laplacian import laplacian
from repro.solvers.backend import EigenSolverOptions
from repro.solvers.backends import solve_smallest
from repro.solvers.dense import dense_smallest_eigenvalues, dense_spectrum


def example_laplacian(levels: int = 3, normalized: bool = True) -> np.ndarray:
    return laplacian(fft_graph(levels), normalized=normalized)


class TestDense:
    def test_full_spectrum_sorted(self):
        spec = dense_spectrum(example_laplacian())
        assert np.all(np.diff(spec) >= -1e-12)

    def test_smallest_subset(self):
        L = example_laplacian()
        np.testing.assert_allclose(
            dense_smallest_eigenvalues(L, 5), dense_spectrum(L)[:5]
        )

    def test_accepts_sparse(self):
        L = laplacian(fft_graph(3), normalized=True, sparse=True)
        spec = dense_spectrum(L)
        assert spec.shape[0] == L.shape[0]

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            dense_spectrum(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            dense_spectrum(np.zeros((2, 3)))

    def test_too_many_eigenvalues_rejected(self):
        with pytest.raises(ValueError):
            dense_smallest_eigenvalues(np.eye(3), 4)

    def test_empty_matrix(self):
        assert dense_spectrum(np.zeros((0, 0))).shape == (0,)


class TestBackend:
    def test_dense_and_sparse_agree(self):
        L_dense = example_laplacian(4)
        L_sparse = sp.csr_matrix(L_dense)
        a = solve_smallest(L_dense, 10, EigenSolverOptions(method="dense")).eigenvalues
        b = solve_smallest(L_sparse, 10, EigenSolverOptions(method="sparse")).eigenvalues
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_auto_uses_dense_for_small(self):
        L = example_laplacian(2)
        values = solve_smallest(L, 3, EigenSolverOptions()).eigenvalues
        np.testing.assert_allclose(values, dense_spectrum(L)[:3], atol=1e-9)

    def test_clamps_negative_noise(self):
        values = solve_smallest(example_laplacian(3), 3, EigenSolverOptions()).eigenvalues
        assert np.all(values >= 0.0)

    def test_k_zero_and_errors(self):
        L = example_laplacian(2)
        assert solve_smallest(L, 0, EigenSolverOptions()).eigenvalues.shape == (0,)
        with pytest.raises(ValueError):
            solve_smallest(L, -1, EigenSolverOptions())
        with pytest.raises(ValueError):
            solve_smallest(L, L.shape[0] + 1, EigenSolverOptions())

    def test_invalid_method_rejected(self):
        with pytest.raises(ValueError):
            EigenSolverOptions(method="bogus")
