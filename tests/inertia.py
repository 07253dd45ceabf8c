"""Sylvester inertia count: the test suite's oracle for skipped eigenvalues.

An iterative eigensolver that skips copies of a repeated eigenvalue returns
values that are too high, and nothing in its output shows it.  Sylvester's
law of inertia does: for a symmetric ``A`` and a shift ``s``, factor
``P (A - s I) P^T = L D L^T`` with a symmetric permutation ``P``; the number
of negative entries of ``D`` is the number of eigenvalues of ``A`` below
``s``.  So a spectrum is complete below ``s`` exactly when it holds that
many values below ``s``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


def count_below(matrix, shift: float) -> int:
    """Number of eigenvalues of the symmetric ``matrix`` below ``shift``.

    SuperLU in symmetric mode with diagonal pivots (threshold 0) factors
    ``P (A - s I) P^T = L U`` with ``U = D L^T``, so ``U``'s diagonal is
    ``D``.  A zero pivot would force an off-diagonal one and break the
    symmetry; the row and column permutations are checked to be equal.
    """
    n = matrix.shape[0]
    shifted = (sp.csc_matrix(matrix) - shift * sp.identity(n, format="csc")).tocsc()
    lu = spla.splu(
        shifted,
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise AssertionError(f"the factorisation at shift {shift} pivoted off the diagonal")
    return int(np.count_nonzero(lu.U.diagonal() < 0.0))
