"""Spectral backends: protocol, implementations, and dispatch.

The solver layer is a small set of first-class objects.  Backends

* are looked up by id (``dense``, ``sparse``, ``lobpcg``, ``amg``) and
  constructed from :class:`~repro.solvers.backend.EigenSolverOptions`,
* carry **state across solves** — iterative backends accept an initial
  subspace, and :class:`WarmStartContext` threads the Ritz vectors of one
  solve into the next solve of the same *lineage* (e.g. consecutive FFT
  family levels, whose low-frequency eigenvectors are close after embedding),
* run in **mixed precision** — ``EigenSolverOptions.dtype`` selects the
  arithmetic (``float64`` exact-ish, ``float32`` roughly twice the matvec
  throughput); results are always returned as float64 so downstream bound
  code is unchanged, and caches key on the dtype so variants coexist.

The paper computes the bound "by power iteration" or Lanczos.  The
butterfly and hypercube spectra it bounds repeat eigenvalues many times,
and single-vector Krylov iterations skip copies of them, so the iterative
backends here are the *block* form of that iteration: LOBPCG, shift-inverted
(``lobpcg``) or multigrid-preconditioned (``amg``).
"""

from __future__ import annotations

import os
import threading
import warnings
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Type, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import LinAlgWarning

from repro.obs.metrics import global_registry
from repro.solvers.amg import smoothed_aggregation_preconditioner
from repro.solvers.dense import dense_smallest_eigenvalues

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.solvers.backend import EigenSolverOptions

__all__ = [
    "BackendSolveResult",
    "SpectralBackend",
    "WarmStartContext",
    "SOLVER_BACKEND_ENV_VAR",
    "available_backends",
    "create_backend",
    "resolve_method",
    "solve_smallest",
    "default_warm_start_context",
]

MatrixLike = Union[np.ndarray, sp.spmatrix, spla.LinearOperator]

_BACKEND_SOLVES = global_registry().counter(
    "repro_backend_solves_total",
    "Backend-level eigensolves by resolved backend id and warm-start use.",
    labelnames=("backend", "warm"),
)

#: Environment escape hatch: when set (and the caller asked for ``auto``),
#: every solve routes to this backend id.
SOLVER_BACKEND_ENV_VAR = "REPRO_SOLVER_BACKEND"

#: Above this size ``auto`` prefers the AMG-preconditioned backend over
#: ARPACK shift-invert: the sparse-LU fill of shift-invert grows
#: superlinearly on expander-ish computation graphs while the AMG V-cycle
#: stays O(m).
AMG_AUTO_CUTOFF = 50_000

#: ``auto`` never routes to ``dense`` above this size, whatever ``k`` — the
#: dense matrix alone would be tens of GB.
DENSE_AUTO_CAP = 50_000

#: Supported floating-point precisions (option value -> numpy dtype).
DTYPES: Dict[str, np.dtype] = {
    "float64": np.dtype(np.float64),
    "float32": np.dtype(np.float32),
}


@dataclass(frozen=True)
class BackendSolveResult:
    """The outcome of one backend solve.

    Attributes
    ----------
    eigenvalues:
        The ``k`` requested smallest eigenvalues, ascending, float64 (after
        any mixed-precision arithmetic), *not yet* clamped — postprocessing
        is the caller's job (:func:`solve_smallest` does it).
    eigenvectors:
        ``(n, m)`` Ritz vectors when the backend produced them (``m >= k``
        possible with oversampling), else ``None``.  These feed warm starts.
    backend:
        Resolved backend id (``"auto"`` never appears here).
    warm_started:
        True when the solve was seeded from a previous subspace.
    """

    eigenvalues: np.ndarray
    eigenvectors: Optional[np.ndarray]
    backend: str
    warm_started: bool = False


def _is_operator(matrix: MatrixLike) -> bool:
    """True for abstract linear operators (matrix-free), not sparse matrices."""
    return isinstance(matrix, spla.LinearOperator) and not sp.issparse(matrix)


def _cast_matrix(matrix: MatrixLike, dtype: np.dtype) -> MatrixLike:
    """Cast a dense/sparse/operator matrix to the solve dtype."""
    if sp.issparse(matrix):
        return matrix if matrix.dtype == dtype else matrix.astype(dtype)
    if _is_operator(matrix):
        if matrix.dtype == dtype:
            return matrix
        astype = getattr(matrix, "astype", None)
        # Operators without a cast (rare; ours have one) run in their native
        # dtype — results are float64 downstream either way.
        return astype(dtype) if callable(astype) else matrix
    arr = np.asarray(matrix)
    return arr if arr.dtype == dtype else arr.astype(dtype)


def _as_sparse(matrix: MatrixLike) -> sp.spmatrix:
    """A sparse view of ``matrix`` for backends needing explicit entries.

    Matrix-free operators must expose ``tocsr()``
    (:class:`~repro.graphs.laplacian.LaplacianOperator` does, at O(m) cost);
    a fully abstract operator cannot be factorised and is rejected.
    """
    if sp.issparse(matrix):
        return matrix
    if _is_operator(matrix):
        tocsr = getattr(matrix, "tocsr", None)
        if not callable(tocsr):
            raise TypeError(
                f"{type(matrix).__name__} is matrix-free with no tocsr(); every "
                f"backend needs explicit entries (pass a sparse matrix instead)"
            )
        return tocsr()
    return sp.csr_matrix(np.asarray(matrix))


def _densify(matrix: MatrixLike) -> np.ndarray:
    """A dense array view of ``matrix`` (for dense solves/fallbacks)."""
    if sp.issparse(matrix):
        return np.asarray(matrix.todense())
    if _is_operator(matrix):
        return np.asarray(_as_sparse(matrix).todense())
    return np.asarray(matrix)


def adapt_subspace(
    previous: Optional[np.ndarray],
    n: int,
    block: int,
    rng: np.random.Generator,
) -> Optional[np.ndarray]:
    """Fit a previous Ritz block to a new block width, same dimension only.

    Column count is adapted (extra directions are random, missing ones are
    dropped) and the result orthonormalised with a whiff of noise so the
    seed is not *exactly* invariant (which stalls LOBPCG's basis expansion).

    Dimension mismatches return ``None`` — i.e. only re-solves of the same
    graph are seeded.  We measured the tempting alternative (prolongating a
    smaller level's vectors into a larger level of the FFT family, by
    zero-padding, index-stretching, or butterfly-structured mapping) and it
    *hurts*: the paper's butterfly eigenvectors live on per-level path
    decompositions whose supports move between levels, so the prolonged
    block overlaps the new eigenspace no better than random while its
    near-invariant directions trigger SciPy LOBPCG's ill-conditioned slow
    path (2-5x slower than a cold solve).  Same-dimension reseeding, by
    contrast, reliably halves the iteration count or better.
    """
    if previous is None or previous.size == 0 or n == 0 or block == 0:
        return None
    prev = np.asarray(previous, dtype=np.float64)
    if prev.ndim != 2 or prev.shape[0] != n:
        return None
    cols = min(prev.shape[1], block)
    seeded = rng.standard_normal((n, block)) * 1e-6
    seeded[:, :cols] += prev[:, :cols]
    # Orthonormalise; a rank-deficient seed falls back to cold start.
    q, r = np.linalg.qr(seeded)
    if not np.all(np.isfinite(q)) or min(q.shape) < block:
        return None
    return q[:, :block]


class WarmStartContext:
    """Carries Ritz vectors between solves of the same graph lineage.

    Keys are ``(lineage, normalized, options)``: two solves share warm-start
    state only when they belong to the same family lineage (the caller's
    string, e.g. ``"fft"``), the same normalisation, and identical solver
    options.  The context is a cheap "second chance" tier: one Ritz block
    per lineage (bounded memory — entries are overwritten by each newer
    solve), surviving after the far bigger spectrum caches have evicted an
    entry.  Re-solving a graph whose block is still here converges in a
    fraction of the cold iteration count; seeds whose dimension does not
    match the new solve are ignored (see :func:`adapt_subspace` for why
    cross-level prolongation is deliberately not attempted).

    Thread-safe.
    """

    def __init__(self) -> None:
        self._state: Dict[Tuple, np.ndarray] = {}
        self._lock = threading.Lock()
        self._seeded = 0
        self._updates = 0

    @staticmethod
    def key(lineage: str, normalized: bool, options: "EigenSolverOptions") -> Tuple:
        return (str(lineage), bool(normalized), options)

    def get(self, key: Tuple) -> Optional[np.ndarray]:
        with self._lock:
            found = self._state.get(key)
            if found is not None:
                self._seeded += 1
            return found

    def update(self, key: Tuple, eigenvectors: Optional[np.ndarray]) -> None:
        if eigenvectors is None or eigenvectors.size == 0:
            return
        block = np.ascontiguousarray(eigenvectors, dtype=np.float64)
        block.flags.writeable = False
        with self._lock:
            self._state[key] = block
            self._updates += 1

    @property
    def seeds_served(self) -> int:
        """How many solves were seeded from this context."""
        return self._seeded

    def __len__(self) -> int:
        return len(self._state)

    def clear(self) -> None:
        with self._lock:
            self._state.clear()


_DEFAULT_WARM_CONTEXT = WarmStartContext()


def default_warm_start_context() -> WarmStartContext:
    """Process-wide warm-start context (per pool worker when forked)."""
    return _DEFAULT_WARM_CONTEXT


# ----------------------------------------------------------------------
# protocol
# ----------------------------------------------------------------------
class SpectralBackend(ABC):
    """One way of computing the ``k`` smallest eigenvalues of a PSD matrix.

    Backends are constructed from an :class:`EigenSolverOptions` and may hold
    per-instance state.  ``supports_warm_start`` advertises whether
    ``initial_subspace`` is honoured by :meth:`solve`.
    """

    #: Backend id; subclasses must override.
    id: str = ""
    #: Whether :meth:`solve` can use an initial subspace.
    supports_warm_start: bool = False

    def __init__(self, options: "EigenSolverOptions") -> None:
        self.options = options

    @property
    def dtype(self) -> np.dtype:
        return DTYPES[self.options.dtype]

    @abstractmethod
    def solve(
        self,
        matrix: MatrixLike,
        k: int,
        initial_subspace: Optional[np.ndarray] = None,
    ) -> BackendSolveResult:
        """Return the ``k`` smallest eigenvalues (ascending, float64)."""


# ----------------------------------------------------------------------
# implementations
# ----------------------------------------------------------------------
class DenseBackend(SpectralBackend):
    """Exact LAPACK solve — the reference backend, ``O(n^3)``."""

    id = "dense"

    def solve(self, matrix, k, initial_subspace=None):
        mat = _cast_matrix(_densify(matrix), self.dtype)
        values = dense_smallest_eigenvalues(mat, k)
        return BackendSolveResult(np.asarray(values, dtype=np.float64), None, self.id)


class SparseBackend(SpectralBackend):
    """ARPACK shift-invert with a robust fallback chain.

    Shift-invert around a small negative shift is fast and accurate for PSD
    Laplacians (``L + eps I`` is positive definite); plain ``which='SA'`` is
    the fallback, and the dense solver the last resort for moderate sizes.
    ARPACK is double-precision internally, so ``dtype`` only affects the
    input matrix (and therefore the matvec accuracy), not the iteration.
    """

    id = "sparse"

    def solve(self, matrix, k, initial_subspace=None):
        n = matrix.shape[0]
        options = self.options
        if k >= n - 1 or n <= 2:
            values = dense_smallest_eigenvalues(
                _cast_matrix(_densify(matrix), self.dtype), k
            )
            return BackendSolveResult(np.asarray(values, dtype=np.float64), None, self.id)
        mat = _cast_matrix(_as_sparse(matrix).tocsc(), self.dtype)
        # Graph Laplacians of symmetric graphs have heavily clustered
        # spectra; a generous Lanczos basis (ncv) is needed for ARPACK to
        # resolve whole clusters instead of returning a too-large value from
        # the middle of one.
        ncv = min(n - 1, max(4 * k + 1, 120))
        try:
            values = spla.eigsh(
                mat,
                k=k,
                sigma=-1e-6,
                which="LM",
                return_eigenvectors=False,
                tol=options.tolerance,
                ncv=ncv,
            )
            return BackendSolveResult(np.asarray(values, dtype=np.float64), None, self.id)
        except Exception:  # pragma: no cover - exercised only on ARPACK failures
            pass
        try:
            values = spla.eigsh(
                mat,
                k=k,
                which="SA",
                return_eigenvectors=False,
                tol=max(options.tolerance, 1e-6),
                maxiter=options.max_iterations or n * 20,
                ncv=ncv,
            )
            return BackendSolveResult(np.asarray(values, dtype=np.float64), None, self.id)
        except Exception:  # pragma: no cover
            if n <= 5000:
                values = dense_smallest_eigenvalues(mat, k)
                return BackendSolveResult(
                    np.asarray(values, dtype=np.float64), None, self.id
                )
            raise


class LobpcgBackend(SpectralBackend):
    """Shift-inverted blocked LOBPCG with warm starts.

    Runs ``scipy.sparse.linalg.lobpcg`` on the operator ``(L + sigma I)^{-1}``
    (one sparse LU factorisation, PD because ``L`` is PSD and ``sigma > 0``),
    asking for the *largest* eigenvalues of the inverse — the same spectral
    transformation ARPACK shift-invert uses, but as a blocked iteration whose
    whole ``k + oversample`` subspace can be seeded.  The transform matters:
    plain LOBPCG needs hundreds of iterations on the heavily clustered
    butterfly/hypercube spectra, shift-inverted it converges in ~20 cold and
    in a fraction of that when warm-started from previous Ritz vectors of
    the same lineage.  Small problems (where LOBPCG's requirement
    ``5 * block < n`` fails) fall back to a dense solve whose eigenvectors
    still feed the warm-start chain.
    """

    id = "lobpcg"
    supports_warm_start = True

    #: Extra Ritz directions beyond ``k`` — headroom for clustered spectra.
    oversample = 8
    #: Iteration cap when ``options.max_iterations`` is unset.
    default_iterations = 200
    #: Relative shift: ``sigma = shift_scale * max_diagonal`` (clamped).
    shift_scale = 1e-3
    #: Largest dimension the *failure* path may densify (an n x n float64
    #: array); beyond it a failed sparse solve re-raises instead of OOMing.
    dense_fallback_cap = 5000

    def solve(self, matrix, k, initial_subspace=None):
        n = matrix.shape[0]
        block = min(n, k + self.oversample)
        rng = np.random.default_rng(self.options.seed)
        if n < max(5 * block, 32):
            return self._dense_fallback(matrix, k)
        mat = _cast_matrix(_as_sparse(matrix).tocsc(), self.dtype)
        # Shift keeps L + sigma I comfortably positive definite; scaling by
        # the largest diagonal entry makes it dimensionless (the normalized
        # and unnormalized Laplacians differ by ~max degree).
        sigma = float(max(self.shift_scale * mat.diagonal().max(), 1e-8))
        x = adapt_subspace(initial_subspace, n, block, rng)
        warm = x is not None
        if x is None:
            x = rng.standard_normal((n, block))
        x = np.ascontiguousarray(x, dtype=self.dtype)
        maxiter = self.options.max_iterations or self.default_iterations
        tol = max(self.options.tolerance, 1e-6 if self.options.dtype == "float32" else 0.0)
        try:
            lu = spla.splu(mat + sigma * sp.identity(n, dtype=mat.dtype, format="csc"))
            operator = spla.LinearOperator(
                (n, n),
                matvec=lu.solve,
                matmat=lambda V: lu.solve(np.ascontiguousarray(V)),
                dtype=mat.dtype,
            )
            with warnings.catch_warnings():
                # LOBPCG warns when it stops short of the requested tolerance;
                # the achieved residuals are recorded in the result, and the
                # parity tests bound the actual accuracy — the warning is
                # noise at our tolerances.
                warnings.simplefilter("ignore", UserWarning)
                warnings.simplefilter("ignore", LinAlgWarning)
                inverse_values, vectors = spla.lobpcg(
                    operator, x, largest=True, tol=tol or None, maxiter=maxiter
                )
        except Exception:
            if n > self.dense_fallback_cap:
                raise
            return self._dense_fallback(matrix, k)
        if not np.all(np.isfinite(inverse_values)) or np.any(inverse_values == 0.0):
            if n > self.dense_fallback_cap:
                raise RuntimeError(
                    f"lobpcg produced a degenerate spectrum for n={n} and the "
                    f"matrix is too large to densify; retry with method='sparse'"
                )
            return self._dense_fallback(matrix, k)
        values = 1.0 / np.asarray(inverse_values, dtype=np.float64) - sigma
        order = np.argsort(values)
        values = values[order]
        vectors = np.asarray(vectors, dtype=np.float64)[:, order]
        return BackendSolveResult(values[:k], vectors, self.id, warm)

    def _dense_fallback(self, matrix: MatrixLike, k: int) -> BackendSolveResult:
        dense = np.asarray(_cast_matrix(_densify(matrix), self.dtype), dtype=np.float64)
        values, vectors = np.linalg.eigh(dense)
        return BackendSolveResult(values[:k], vectors[:, : max(k, 1)], self.id)


class AmgBackend(LobpcgBackend):
    """LOBPCG preconditioned by an algebraic-multigrid V-cycle.

    The paper-scale backend: where :class:`LobpcgBackend` pays one sparse LU
    factorisation of ``L + sigma I`` (whose fill grows superlinearly on
    expander-ish computation graphs — at n ~ 100k the factor dwarfs the
    matrix), this backend builds a smoothed-aggregation hierarchy
    (:mod:`repro.solvers.amg`, or ``pyamg`` when installed) in O(m) memory
    and runs *un*-transformed LOBPCG on ``A = L + sigma I`` with the V-cycle
    as the preconditioner ``M ~= A^{-1}``.  Per iteration that is a handful
    of SpMVs instead of triangular solves against a dense-ish factor, and
    setup is linear — the combination is what unlocks n >> 50k on one core.

    Matrix-free inputs (:func:`repro.graphs.laplacian.laplacian_operator`)
    are used directly for the LOBPCG matvecs (preserving any row-block
    sharding); explicit entries are materialised only for the hierarchy
    setup, which needs them.

    Warm starts work exactly as for :class:`LobpcgBackend`: the whole
    ``k + oversample`` block is reseeded from the lineage's previous Ritz
    vectors.  Small problems (LOBPCG needs ``5 * block < n``) fall back to a
    dense solve whose eigenvectors still feed the warm-start chain.
    """

    id = "amg"
    supports_warm_start = True

    #: Iteration cap when ``options.max_iterations`` is unset; preconditioned
    #: LOBPCG converges in a few dozen iterations on Laplacian spectra.
    default_iterations = 300

    def solve(self, matrix, k, initial_subspace=None):
        n = matrix.shape[0]
        block = min(n, k + self.oversample)
        rng = np.random.default_rng(self.options.seed)
        if n < max(5 * block, 32):
            return self._dense_fallback(matrix, k)
        csr = _cast_matrix(_as_sparse(matrix).tocsr(), self.dtype)
        sigma = float(max(self.shift_scale * csr.diagonal().max(), 1e-8))
        shifted = (csr + sigma * sp.identity(n, dtype=csr.dtype, format="csr")).tocsr()
        x = adapt_subspace(initial_subspace, n, block, rng)
        warm = x is not None
        if x is None:
            x = rng.standard_normal((n, block))
        x = np.ascontiguousarray(x, dtype=self.dtype)
        maxiter = self.options.max_iterations or self.default_iterations
        tol = max(self.options.tolerance, 1e-6 if self.options.dtype == "float32" else 0.0)
        try:
            preconditioner = smoothed_aggregation_preconditioner(
                shifted, seed=self.options.seed
            )
            if _is_operator(matrix):
                # Keep the caller's matrix-free application (row-block
                # sharding and all); only the +sigma shift is added here.
                base = _cast_matrix(matrix, self.dtype)
                operator = spla.LinearOperator(
                    (n, n),
                    matvec=lambda v: base @ v + sigma * v,
                    matmat=lambda V: base @ V + sigma * V,
                    dtype=shifted.dtype,
                )
            else:
                operator = shifted
            with warnings.catch_warnings():
                # Same rationale as LobpcgBackend: the convergence warning is
                # noise at our tolerances; parity tests bound the accuracy.
                warnings.simplefilter("ignore", UserWarning)
                warnings.simplefilter("ignore", LinAlgWarning)
                values, vectors = spla.lobpcg(
                    operator,
                    x,
                    M=preconditioner,
                    largest=False,
                    tol=tol or None,
                    maxiter=maxiter,
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
        values = np.asarray(values, dtype=np.float64) - sigma
        order = np.argsort(values)
        values = values[order]
        vectors = np.asarray(vectors, dtype=np.float64)[:, order]
        return BackendSolveResult(values[:k], vectors, self.id, warm)


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------
_BACKENDS: Dict[str, Type[SpectralBackend]] = {
    cls.id: cls for cls in (DenseBackend, SparseBackend, LobpcgBackend, AmgBackend)
}


def available_backends() -> Tuple[str, ...]:
    """Backend ids, sorted (``auto`` is a dispatch, not a backend)."""
    return tuple(sorted(_BACKENDS))


def create_backend(name: str, options: "EigenSolverOptions") -> SpectralBackend:
    """Instantiate the backend with id ``name``."""
    try:
        cls = _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown spectral backend {name!r}; known: {available_backends()}"
        )
    return cls(options)


def resolve_method(method: str, n: int, k: int, options: "EigenSolverOptions") -> str:
    """Map ``"auto"`` to a concrete backend id.

    Resolution order: an explicit ``method`` always wins; then the
    ``REPRO_SOLVER_BACKEND`` environment variable (validated against the
    backend ids) overrides the size heuristic; then the heuristic picks
    ``dense`` for small problems (n below ``options.dense_cutoff``, or
    near-full spectra of moderate size), ``sparse`` (ARPACK shift-invert) up
    to :data:`AMG_AUTO_CUTOFF`, and ``amg`` beyond — ``auto`` never densifies
    above :data:`DENSE_AUTO_CAP`.
    """
    if method != "auto":
        return method
    forced = os.environ.get(SOLVER_BACKEND_ENV_VAR, "").strip()
    if forced:
        if forced not in _BACKENDS:
            raise ValueError(
                f"{SOLVER_BACKEND_ENV_VAR}={forced!r} is not a spectral "
                f"backend; known: {available_backends()}"
            )
        return forced
    if n <= options.dense_cutoff or (k >= n - 1 and n <= DENSE_AUTO_CAP):
        return "dense"
    return "sparse" if n <= AMG_AUTO_CUTOFF else "amg"


# ----------------------------------------------------------------------
# high-level solve
# ----------------------------------------------------------------------
def solve_smallest(
    matrix: MatrixLike,
    k: int,
    options: "EigenSolverOptions",
    warm_start: Optional[WarmStartContext] = None,
    lineage: Optional[str] = None,
    normalized: bool = True,
) -> BackendSolveResult:
    """Resolve ``options.method`` and solve, with optional warm starts.

    The returned eigenvalues are postprocessed the way every caller expects:
    ascending, float64, with numerical noise around zero clamped (graph
    Laplacians are PSD, so small negative values are noise).  When both
    ``warm_start`` and ``lineage`` are given and the resolved backend
    supports it, the solve is seeded from the lineage's previous Ritz block
    and the context is updated with this solve's vectors afterwards.
    """
    n = matrix.shape[0]
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if k > n:
        raise ValueError(f"requested {k} eigenvalues from an n={n} matrix")
    if k == 0:
        # Even the trivial solve reports the *resolved* backend id so records
        # and store entries never show "auto".
        return BackendSolveResult(
            np.zeros(0), None, resolve_method(options.method, n, k, options)
        )

    method = resolve_method(options.method, n, k, options)
    backend = create_backend(method, options)

    seed_block = None
    context_key = None
    if warm_start is not None and lineage is not None and backend.supports_warm_start:
        context_key = WarmStartContext.key(lineage, normalized, options)
        seed_block = warm_start.get(context_key)

    result = backend.solve(matrix, k, initial_subspace=seed_block)

    if context_key is not None:
        warm_start.update(context_key, result.eigenvectors)

    values = np.asarray(result.eigenvalues, dtype=np.float64).copy()
    # float32 arithmetic leaves noise around 1e-7; float64 around 1e-12.
    clamp = 1e-6 if options.dtype == "float32" else 1e-10
    values[np.abs(values) < clamp] = 0.0
    values[values < 0.0] = 0.0
    values = np.sort(values)
    _BACKEND_SOLVES.inc(
        backend=result.backend, warm="yes" if result.warm_started else "no"
    )
    return BackendSolveResult(
        values, result.eigenvectors, result.backend, result.warm_started
    )
