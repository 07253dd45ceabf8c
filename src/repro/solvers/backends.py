"""Spectral backends: protocol, implementations, and dispatch.

The solver layer is a small set of first-class objects.  Backends

* are looked up by id (``dense``, ``lobpcg``, ``amg``); a caller names one,
  or ``auto``, with a plain ``solver`` string, and nothing else is
  configurable: the size cutoffs and seed are the module constants below,
  and each iterative backend's block size, residual tolerance and
  iteration cap are constants of its class,
* take the Laplacian as an ndarray or a sparse matrix and solve it in
  float64.

Every cache tier keys a spectrum on the *resolved* backend id
(:func:`resolve_method`), never on ``auto``: two requests share a spectrum
exactly when the same backend would compute it.

The paper computes the bound "by power iteration" or Lanczos.  The
butterfly and hypercube spectra it bounds repeat eigenvalues many times,
and single-vector Krylov iterations (ARPACK included) skip copies of them,
returning eigenvalues that are too high and so a lower bound that is too
high.  The iterative backends here are therefore the *block* form of that
iteration: LOBPCG, shift-inverted (``lobpcg``) or multigrid-preconditioned
(``amg``).  ``auto`` picks ``dense`` up to :data:`DENSE_CUTOFF` vertices,
``lobpcg`` up to :data:`AMG_AUTO_CUTOFF` and ``amg`` beyond.

All backends return eigenvalues in increasing order, clamped at zero: graph
Laplacians are positive semi-definite, so tiny negative values are numerical
noise and would otherwise leak into the bound.
"""

from __future__ import annotations

import os
import re
import warnings
from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple, Type, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.obs.metrics import global_registry
from repro.solvers.amg import smoothed_aggregation_preconditioner
from repro.solvers.dense import dense_smallest_eigenvalues

__all__ = [
    "BackendSolveResult",
    "SpectralBackend",
    "SOLVER_BACKEND_ENV_VAR",
    "available_backends",
    "check_solver",
    "create_backend",
    "resolve_method",
    "solve_smallest",
]

MatrixLike = Union[np.ndarray, sp.spmatrix]

_BACKEND_SOLVES = global_registry().counter(
    "repro_backend_solves_total",
    "Backend-level eigensolves by resolved backend id.",
    labelnames=("backend",),
)

#: Environment escape hatch: when set (and the caller asked for ``auto``),
#: every solve routes to this backend id.
SOLVER_BACKEND_ENV_VAR = "REPRO_SOLVER_BACKEND"

#: Up to this dimension ``auto`` uses the dense solver, which is exact.  The
#: crossover to ``lobpcg`` depends on the graph family, not only on its size
#: (h = 100, one BLAS thread, two-stage dense): on fft:9 (n = 5,120) dense
#: takes 9.1-12.2 s (``eigvalsh`` 18-20 s on the same host) and ``lobpcg``
#: 2.6 s, but on the normalised bhk:12 (n = 4,096) ``lobpcg`` runs into its
#: iteration cap at 18.6-19.2 s where dense takes 5.2-5.3 s.  A size-only
#: cutoff cannot serve both, so it stays where no family loses badly.
DENSE_CUTOFF = 6000

#: Seed of the iterative backends' random start blocks and AMG setup.
SEED = 0

#: The message SciPy's ``lobpcg`` warns with whenever a block stops short of
#: its backend's ``tolerance``, which the solves below routinely do on
#: clustered spectra; the parity tests bound their accuracy, and each solve
#: reports its largest final residual instead (``max_residual``, on the
#: ``eigensolve`` span).  One narrow filter, installed once at import,
#: silences it for calls from this module only: a filter set around each
#: solve (``catch_warnings``) is process-global and not thread-safe, and
#: concurrent solves left it behind or dropped it.
SHORTFALL_WARNING = r"(Exited|Failed) (at iteration \d+|postprocessing) with accuracies"
warnings.filterwarnings(
    "ignore", message=SHORTFALL_WARNING, category=UserWarning, module=re.escape(__name__)
)

#: Above this size ``auto`` prefers the AMG-preconditioned backend over
#: shift-inverted LOBPCG: the sparse-LU fill of shift-invert grows
#: superlinearly on expander-ish computation graphs while the AMG V-cycle
#: stays O(m).
AMG_AUTO_CUTOFF = 50_000

#: ``auto`` never routes to ``dense`` above this size, whatever ``k`` — the
#: dense matrix alone would be tens of GB.
DENSE_AUTO_CAP = 50_000


@dataclass(frozen=True)
class BackendSolveResult:
    """The outcome of one backend solve.

    Attributes
    ----------
    eigenvalues:
        The ``k`` requested smallest eigenvalues, ascending, float64, *not
        yet* clamped — postprocessing is the caller's job
        (:func:`solve_smallest` does it).
    backend:
        Resolved backend id (``"auto"`` never appears here).
    iterations:
        LOBPCG iterations the returned block took; ``None`` for an exact
        (dense) solve, including an iterative backend's dense fallback.
    max_residual:
        The largest residual norm of the returned block after LOBPCG's
        final Rayleigh-Ritz step, in the units of the matrix the backend
        iterated on; ``None`` when ``iterations`` is.
    """

    eigenvalues: np.ndarray
    backend: str
    iterations: Optional[int] = None
    max_residual: Optional[float] = None


# ----------------------------------------------------------------------
# protocol
# ----------------------------------------------------------------------
class SpectralBackend(ABC):
    """One way of computing the ``k`` smallest eigenvalues of a PSD matrix."""

    #: Backend id; subclasses must override.
    id: str = ""

    @abstractmethod
    def solve(self, matrix: MatrixLike, k: int) -> BackendSolveResult:
        """Return the ``k`` smallest eigenvalues (ascending, float64) of an
        ndarray or a sparse matrix."""


# ----------------------------------------------------------------------
# implementations
# ----------------------------------------------------------------------
class DenseBackend(SpectralBackend):
    """Exact LAPACK solve — the reference backend, ``O(n^3)``."""

    id = "dense"

    def solve(self, matrix, k):
        # Sparse entries go to dense.py as they are: it checks their
        # symmetry in O(nnz) and densifies them once.
        values = dense_smallest_eigenvalues(matrix, k)
        return BackendSolveResult(np.asarray(values, dtype=np.float64), self.id)


class LobpcgBackend(SpectralBackend):
    """Shift-inverted blocked LOBPCG — ``auto``'s backend from
    :data:`DENSE_CUTOFF` to :data:`AMG_AUTO_CUTOFF` vertices.

    Runs ``scipy.sparse.linalg.lobpcg`` on the operator ``(L + sigma I)^{-1}``
    (one sparse LU factorisation, PD because ``L`` is PSD and ``sigma > 0``),
    asking for the *largest* eigenvalues of the inverse — the spectral
    transformation of ARPACK shift-invert, but as a blocked iteration over a
    ``k + oversample(k)`` subspace (Knyazev 2001), which does not skip copies
    of a repeated eigenvalue.  The transform matters: plain LOBPCG needs
    hundreds of iterations on the heavily clustered butterfly/hypercube
    spectra, shift-inverted it converges in ~20.

    The factorisation uses a symmetric fill-reducing ordering (minimum
    degree on ``A^T + A``) with diagonal pivots, which is stable because
    ``L + sigma I`` is positive definite.  SuperLU's default COLAMD column
    ordering ignores the symmetry: on matmul:15 (n = 6,975) its factor held
    3.29M nonzeros against 241k, and a 108-column solve took 270 ms against
    34 ms.

    Small problems (where LOBPCG's requirement ``5 * block < n`` fails) fall
    back to the dense backend, so they answer exactly what ``dense``
    answers.
    """

    id = "lobpcg"

    #: Iteration cap.
    maxiter = 200
    #: Residual tolerance.  The residual here is that of ``(L + sigma I)^-1``,
    #: whose eigenvalues ``1 / (lambda + sigma)`` carry ``lambda``'s error
    #: scaled by ``(lambda + sigma)^2``, so it does not measure eigenvalue
    #: error the way :class:`AmgBackend`'s does: at 1e-6 bhk:13's
    #: unnormalised eigenvalues (h = 100) were up to 2.1e-10 off dense's,
    #: at 1e-8 up to 2.8e-13.
    tolerance = 1e-8
    #: Relative shift: ``sigma = shift_scale * max_diagonal`` (clamped).
    shift_scale = 1e-3
    #: Largest dimension the *failure* path may densify (an n x n float64
    #: array); beyond it a failed sparse solve re-raises instead of OOMing.
    dense_fallback_cap = 5000

    @staticmethod
    def oversample(k: int) -> int:
        """Block columns beyond ``k``: headroom for a cluster of repeated
        eigenvalues that runs past the ``k``-th.

        LOBPCG's block algebra grows with the square of the block, so the
        headroom scales with ``k``: 4 columns at ``k = 16``, and 8 from
        ``k = 32`` on, so ``auto``'s default h = 100 keeps 108 columns.
        """
        return min(8, max(2, k // 4))

    def _below_floor(self, n: int, k: int) -> bool:
        """Whether ``n`` is too small for LOBPCG's ``k + oversample(k)``
        column block, which needs ``5 * block <= n``; such matrices go
        dense."""
        return n < max(5 * (k + self.oversample(k)), 32)

    def solve(self, matrix, k):
        n = matrix.shape[0]
        if self._below_floor(n, k):
            return self._dense_fallback(matrix, k)
        block = k + self.oversample(k)
        mat = sp.csc_matrix(matrix, dtype=np.float64)
        # Shift keeps L + sigma I comfortably positive definite; scaling by
        # the largest diagonal entry makes it dimensionless (the normalized
        # and unnormalized Laplacians differ by ~max degree).
        sigma = float(max(self.shift_scale * mat.diagonal().max(), 1e-8))
        x = np.random.default_rng(SEED).standard_normal((n, block))
        try:
            lu = spla.splu(
                mat + sigma * sp.identity(n, dtype=mat.dtype, format="csc"),
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )
            operator = spla.LinearOperator(
                (n, n),
                matvec=lu.solve,
                matmat=lambda V: lu.solve(np.ascontiguousarray(V)),
                dtype=mat.dtype,
            )
            inverse_values, _, residuals = spla.lobpcg(
                operator, x, largest=True, tol=self.tolerance,
                maxiter=self.maxiter, retResidualNormsHistory=True,
            )
        except Exception:
            if n > self.dense_fallback_cap:
                raise
            return self._dense_fallback(matrix, k)
        if not np.all(np.isfinite(inverse_values)) or np.any(inverse_values == 0.0):
            if n > self.dense_fallback_cap:
                raise RuntimeError(
                    f"lobpcg produced a degenerate spectrum for n={n} and the "
                    f"matrix is too large to densify; retry with method='amg'"
                )
            return self._dense_fallback(matrix, k)
        values = np.sort(1.0 / np.asarray(inverse_values, dtype=np.float64) - sigma)
        return self._iterated(values[:k], residuals)

    def _iterated(self, values: np.ndarray, residuals) -> BackendSolveResult:
        """A LOBPCG answer and what its residual-norm history says.  Row
        ``i`` of the history holds the block's residuals after ``i``
        iterations, up to the block LOBPCG returns; the last row holds them
        after its final Rayleigh-Ritz step."""
        return BackendSolveResult(
            values, self.id, iterations=len(residuals) - 2,
            max_residual=float(np.max(residuals[-1])),
        )

    def _dense_fallback(self, matrix: MatrixLike, k: int) -> BackendSolveResult:
        """The dense backend's answer, recorded under this backend's id."""
        return BackendSolveResult(DenseBackend().solve(matrix, k).eigenvalues, self.id)


class AmgBackend(LobpcgBackend):
    """LOBPCG preconditioned by an algebraic-multigrid V-cycle.

    The paper-scale backend: where :class:`LobpcgBackend` pays one sparse LU
    factorisation of ``L + sigma I`` (whose fill grows superlinearly on
    expander-ish computation graphs — at n ~ 100k the factor dwarfs the
    matrix), this backend builds a smoothed-aggregation hierarchy
    (:mod:`repro.solvers.amg`) in O(m) memory and runs *un*-transformed
    LOBPCG on ``A = L + sigma I`` with the V-cycle as the preconditioner
    ``M ~= A^{-1}``.  Per iteration that is a handful
    of SpMVs instead of triangular solves against a dense-ish factor, and
    setup is linear — the combination is what unlocks n >> 50k on one core.

    The LOBPCG matvecs run on the shifted CSR the hierarchy setup builds
    anyway (10 ms per 24-column apply at fft:13, against 33-37 ms through a
    matrix-free Laplacian plus the shift).

    Small problems (LOBPCG needs ``5 * block < n``) fall back to the dense
    backend, as for :class:`LobpcgBackend`.
    """

    id = "amg"

    #: Iteration cap; preconditioned LOBPCG converges in a few dozen
    #: iterations on Laplacian spectra.
    maxiter = 300
    #: Residual tolerance.  LOBPCG iterates on ``L + sigma I`` itself here,
    #: so an eigenvalue's error is about its residual squared over the gap
    #: to the rest of the spectrum: at fft:13 (h = 16), 1e-6 left every
    #: eigenvalue within 1.1e-12 of the closed form in 24 iterations,
    #: where 1e-8 took 32.
    tolerance = 1e-6

    def solve(self, matrix, k):
        n = matrix.shape[0]
        if self._below_floor(n, k):
            return self._dense_fallback(matrix, k)
        block = k + self.oversample(k)
        csr = sp.csr_matrix(matrix, dtype=np.float64)
        sigma = float(max(self.shift_scale * csr.diagonal().max(), 1e-8))
        shifted = (csr + sigma * sp.identity(n, dtype=csr.dtype, format="csr")).tocsr()
        x = np.random.default_rng(SEED).standard_normal((n, block))
        try:
            preconditioner = smoothed_aggregation_preconditioner(
                shifted, seed=SEED
            )
            values, _, residuals = spla.lobpcg(
                shifted,
                x,
                M=preconditioner,
                largest=False,
                tol=self.tolerance,
                maxiter=self.maxiter,
                retResidualNormsHistory=True,
            )
        except Exception:
            if n > self.dense_fallback_cap:
                raise
            return self._dense_fallback(matrix, k)
        if not np.all(np.isfinite(values)):
            if n > self.dense_fallback_cap:
                raise RuntimeError(
                    f"amg-preconditioned lobpcg diverged for n={n} and the "
                    f"matrix is too large to densify; retry with method='lobpcg'"
                )
            return self._dense_fallback(matrix, k)
        values = np.sort(np.asarray(values, dtype=np.float64) - sigma)
        return self._iterated(values[:k], residuals)


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------
_BACKENDS: Dict[str, Type[SpectralBackend]] = {
    cls.id: cls for cls in (DenseBackend, LobpcgBackend, AmgBackend)
}


def available_backends() -> Tuple[str, ...]:
    """Backend ids, sorted (``auto`` is a dispatch, not a backend)."""
    return tuple(sorted(_BACKENDS))


def check_solver(solver: str) -> str:
    """``solver`` if it names ``auto`` or a backend id; else ``ValueError``.

    Constructors taking a ``solver`` call it, so a typo fails before any
    store row or lease is written.
    """
    solvers = ("auto", *available_backends())
    if solver not in solvers:
        raise ValueError(f"solver must be one of {sorted(solvers)}, got {solver!r}")
    return solver


def create_backend(name: str) -> SpectralBackend:
    """Instantiate the backend with id ``name``."""
    try:
        cls = _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown spectral backend {name!r}; known: {available_backends()}"
        )
    return cls()


def resolve_method(method: str, n: int, k: int) -> str:
    """Map ``"auto"`` to a concrete backend id.

    Resolution order: an explicit ``method`` always wins (an unknown one
    raises :class:`ValueError`, see :func:`check_solver`); then the
    ``REPRO_SOLVER_BACKEND`` environment variable (validated against the
    backend ids) overrides the size heuristic; then the heuristic picks
    ``dense`` for small problems (n up to :data:`DENSE_CUTOFF`, or
    near-full spectra of moderate size), ``lobpcg`` (shift-inverted block
    LOBPCG) up to :data:`AMG_AUTO_CUTOFF`, and ``amg`` beyond — ``auto``
    never densifies above :data:`DENSE_AUTO_CAP`.  No route leads to a
    single-vector Krylov solver: those skip copies of repeated eigenvalues
    and overstate the bound.
    """
    if method != "auto":
        return check_solver(method)
    forced = os.environ.get(SOLVER_BACKEND_ENV_VAR, "").strip()
    if forced:
        if forced not in _BACKENDS:
            raise ValueError(
                f"{SOLVER_BACKEND_ENV_VAR}={forced!r} is not a spectral "
                f"backend; known: {available_backends()}"
            )
        return forced
    if n <= DENSE_CUTOFF or (k >= n - 1 and n <= DENSE_AUTO_CAP):
        return "dense"
    return "lobpcg" if n <= AMG_AUTO_CUTOFF else "amg"


# ----------------------------------------------------------------------
# high-level solve
# ----------------------------------------------------------------------
def solve_smallest(matrix: MatrixLike, k: int, solver: str = "auto") -> BackendSolveResult:
    """Resolve ``solver`` (``auto`` or a backend id) and solve.

    The returned eigenvalues are postprocessed the way every caller expects:
    ascending, float64, with numerical noise around zero clamped (graph
    Laplacians are PSD, so small negative values are noise).
    """
    n = matrix.shape[0]
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if k > n:
        raise ValueError(f"requested {k} eigenvalues from an n={n} matrix")
    method = resolve_method(solver, n, k)
    if k == 0:
        # Even the trivial solve reports the *resolved* backend id so records
        # and store entries never show "auto".
        return BackendSolveResult(np.zeros(0), method)

    result = create_backend(method).solve(matrix, k)
    values = np.asarray(result.eigenvalues, dtype=np.float64).copy()
    # float64 arithmetic leaves noise around 1e-12.
    values[np.abs(values) < 1e-10] = 0.0
    values[values < 0.0] = 0.0
    values = np.sort(values)
    _BACKEND_SOLVES.inc(backend=result.backend)
    return replace(result, eigenvalues=values)
