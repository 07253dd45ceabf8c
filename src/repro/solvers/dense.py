"""Dense (LAPACK) eigenvalue computation.

The reference backend: exact to machine precision, ``O(n^3)`` time and
``O(n^2)`` memory, hence only sensible for graphs up to a few thousand
vertices.  All other solvers are validated against this one in the tests.

From :data:`TWO_STAGE_MIN` vertices the spectrum comes from LAPACK's
two-stage ``dsyevr_2stage`` (:mod:`repro.solvers.openblas`), computed in
place on the one array densification made; below it, or where no loaded
OpenBLAS exports that routine, from ``numpy.linalg.eigvalsh``.  Both
compute every eigenvalue, so a prefix never depends on how many values
were asked for.
"""

from __future__ import annotations

from typing import Union

import numpy as np
import scipy.sparse as sp

from repro.solvers.openblas import syevr_2stage

__all__ = ["TWO_STAGE_MIN", "dense_spectrum", "dense_smallest_eigenvalues"]

MatrixLike = Union[np.ndarray, sp.spmatrix]

#: From this dimension the two-stage reduction is used.  Measured with one
#: BLAS thread against ``eigvalsh``: it lost or tied below (0.64-0.76x on
#: fft:6, bhk:9 and matmul:6, n = 448-512; 0.77-1.06x on matmul:7 and on
#: random sparse Laplacians, n = 640-960) and won from 1,024 vertices on
#: (1.3x on fft:7, bhk:10 and matmul:8; 1.5-1.9x from 1,539 vertices).
TWO_STAGE_MIN = 1000


def _to_dense_symmetric(matrix: MatrixLike) -> np.ndarray:
    """Densify and validate a symmetric matrix into a new C-ordered array.

    Both forms are held to ``np.allclose(A, A.T, atol=1e-8)``.  A sparse
    matrix is checked only where ``A - A.T`` is nonzero, in O(nnz), and
    then densified once; everywhere else its entries equal their mirror
    images, which that rule accepts.  A caller's ndarray is copied, so the
    result is always the callee's to overwrite.
    """
    if sp.issparse(matrix):
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
        csr = sp.csr_matrix(matrix, dtype=np.float64)
        differ = (csr - csr.T).tocoo()
        # The pattern of A - A.T is symmetric, so checking A[i, j] against
        # A[j, i] at each of its entries applies the rule both ways round.
        if differ.nnz:
            upper = np.asarray(csr[differ.row, differ.col]).ravel()
            lower = np.asarray(csr[differ.col, differ.row]).ravel()
            if not np.allclose(upper, lower, atol=1e-8):
                raise ValueError("matrix must be symmetric")
        return csr.toarray()
    dense = np.array(matrix, dtype=np.float64, order="C")
    if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {dense.shape}")
    if not np.allclose(dense, dense.T, atol=1e-8):
        raise ValueError("matrix must be symmetric")
    return dense


def dense_spectrum(matrix: MatrixLike) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, in increasing order."""
    dense = _to_dense_symmetric(matrix)
    if dense.shape[0] == 0:
        return np.zeros(0, dtype=np.float64)
    if dense.shape[0] >= TWO_STAGE_MIN:
        # In place: no second n x n copy, which eigvalsh would make.
        values = syevr_2stage(dense)
        if values is not None:
            return values
    return np.linalg.eigvalsh(dense)


def dense_smallest_eigenvalues(matrix: MatrixLike, k: int) -> np.ndarray:
    """The ``k`` smallest eigenvalues of a symmetric matrix (increasing)."""
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    spectrum = dense_spectrum(matrix)
    if k > spectrum.shape[0]:
        raise ValueError(
            f"requested {k} eigenvalues from a {spectrum.shape[0]}-dimensional matrix"
        )
    return spectrum[:k]
