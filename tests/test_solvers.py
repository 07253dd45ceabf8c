"""Tests for the dense eigensolver and the backend entry point."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graphs.generators import fft_graph
from repro.graphs.laplacian import laplacian
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

    def test_sparse_symmetry_check_decides_as_allclose(self):
        """A sparse input is checked in O(nnz), with the dense rule's
        verdict: ``np.allclose(A, A.T, atol=1e-8)``.  Near-symmetric inputs
        straddle both of its tolerances, with duplicate entries, mirror
        entries missing and non-finite values among them."""
        rng = np.random.default_rng(0)
        verdicts = set()
        for _ in range(3000):
            n = int(rng.integers(1, 7))
            count = int(rng.integers(0, 2 * n * n))
            rows = rng.integers(0, n, size=count)
            cols = rng.integers(0, n, size=count)
            values = rng.choice([-1.0, 1.0], size=count) * 10.0 ** rng.uniform(-10, 3, count)
            values[rng.random(count) < 0.01] = rng.choice([np.inf, -np.inf, np.nan])
            # Mirror most entries, each with a relative or absolute wobble
            # around the tolerances (rtol 1e-5, atol 1e-8).
            mirrored = rng.random(count) < 0.9
            wobble = np.where(
                rng.random(count) < 0.5,
                values * rng.choice([-1.0, 1.0], size=count) * 10.0 ** rng.uniform(-7, -3, count),
                rng.choice([-1.0, 1.0], size=count) * 10.0 ** rng.uniform(-10, -6, count),
            )
            wobble[rng.random(count) < 0.5] = 0.0
            with np.errstate(invalid="ignore"):
                matrix = sp.coo_matrix(
                    (
                        np.concatenate([values, (values + wobble)[mirrored]]),
                        (
                            np.concatenate([rows, cols[mirrored]]),
                            np.concatenate([cols, rows[mirrored]]),
                        ),
                    ),
                    shape=(n, n),
                )
                dense = matrix.toarray()
                expected = np.allclose(dense, dense.T, atol=1e-8)
            try:
                with np.errstate(invalid="ignore"):
                    dense_spectrum(matrix.tocsr())
                accepted = True
            except np.linalg.LinAlgError:
                accepted = True  # symmetric, but LAPACK rejects inf/nan
            except ValueError as exc:
                assert "symmetric" in str(exc)
                accepted = False
            assert accepted == expected, matrix.toarray()
            verdicts.add(expected)
        assert verdicts == {True, False}

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
        L_dense = example_laplacian(5)  # n = 192: lobpcg iterates at k = 10
        L_sparse = sp.csr_matrix(L_dense)
        a = solve_smallest(L_dense, 10, "dense").eigenvalues
        b = solve_smallest(L_sparse, 10, "lobpcg").eigenvalues
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_auto_uses_dense_for_small(self):
        L = example_laplacian(2)
        values = solve_smallest(L, 3).eigenvalues
        np.testing.assert_allclose(values, dense_spectrum(L)[:3], atol=1e-9)

    def test_clamps_negative_noise(self):
        values = solve_smallest(example_laplacian(3), 3).eigenvalues
        assert np.all(values >= 0.0)

    def test_k_zero_and_errors(self):
        L = example_laplacian(2)
        assert solve_smallest(L, 0).eigenvalues.shape == (0,)
        with pytest.raises(ValueError):
            solve_smallest(L, -1)
        with pytest.raises(ValueError):
            solve_smallest(L, L.shape[0] + 1)

    def test_invalid_method_rejected(self):
        with pytest.raises(ValueError, match="solver"):
            solve_smallest(example_laplacian(2), 3, "bogus")
