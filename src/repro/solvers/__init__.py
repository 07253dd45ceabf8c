"""Eigenvalue solvers for graph Laplacians.

The spectral bound of Theorem 4 needs the ``h`` smallest eigenvalues of a
symmetric positive semi-definite Laplacian.  The paper notes the bound "is not
only efficiently computable by power iteration" and costs ``O(h n^2)`` with
Lanczos-Arnoldi; this subpackage therefore provides

* :mod:`backends` — the :class:`SpectralBackend` protocol and registry
  (``dense``, ``sparse``, ``lanczos``, ``power``, ``lobpcg``, ``amg``), plus
  :class:`WarmStartContext` for seeding consecutive family solves with the
  previous level's Ritz vectors,
* :mod:`amg` — a pure-SciPy smoothed-aggregation multigrid V-cycle (the
  ``amg`` backend's preconditioner when ``pyamg`` is not installed),
* :mod:`backend` — :class:`EigenSolverOptions` (method/dtype/tolerance, the
  hashable object all cache tiers key on) and the legacy entry point
  :func:`smallest_eigenvalues`,
* :mod:`dense` — exact dense spectra via LAPACK (``numpy.linalg.eigvalsh``),
* :mod:`lanczos` — an in-package Lanczos iteration with full
  reorthogonalisation (matrix-free, works with dense and sparse operators),
* :mod:`power_iteration` — shifted power iteration with deflation (the
  slowest option, included because it is the simplest building block the
  paper's efficiency claim refers to),
* :mod:`spectrum_cache` — an LRU cache of eigensolves keyed by the graph's
  structural fingerprint, shared by all bound computations so repeated
  bounds on the same graph solve once.
"""

from repro.solvers.backend import EigenSolverOptions, smallest_eigenvalues
from repro.solvers.backends import (
    SOLVER_BACKEND_ENV_VAR,
    BackendSolveResult,
    SpectralBackend,
    WarmStartContext,
    available_backends,
    create_backend,
    default_warm_start_context,
    register_backend,
    resolve_method,
    solve_smallest,
)
from repro.solvers.dense import dense_spectrum, dense_smallest_eigenvalues
from repro.solvers.power_iteration import power_iteration_largest_eigenvalue
from repro.solvers.spectrum_cache import (
    CachedSpectrum,
    SpectrumCache,
    default_spectrum_cache,
)

__all__ = [
    "smallest_eigenvalues",
    "solve_smallest",
    "resolve_method",
    "EigenSolverOptions",
    "BackendSolveResult",
    "SpectralBackend",
    "WarmStartContext",
    "SOLVER_BACKEND_ENV_VAR",
    "available_backends",
    "create_backend",
    "register_backend",
    "default_warm_start_context",
    "CachedSpectrum",
    "SpectrumCache",
    "default_spectrum_cache",
    "dense_spectrum",
    "dense_smallest_eigenvalues",
    "power_iteration_largest_eigenvalue",
]
