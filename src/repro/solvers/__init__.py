"""Eigenvalue solvers for graph Laplacians.

The spectral bound of Theorem 4 needs the ``h`` smallest eigenvalues of a
symmetric positive semi-definite Laplacian.  The paper notes the bound "is not
only efficiently computable by power iteration" and costs ``O(h n^2)`` with
Lanczos-Arnoldi.  Its graphs repeat eigenvalues many times, which calls for
the block form of that iteration (LOBPCG); this subpackage provides

* :mod:`backends` — the :class:`SpectralBackend` protocol, the four backends
  (``dense``, ``sparse``, ``lobpcg``, ``amg``) and :func:`solve_smallest`,
  plus :class:`WarmStartContext` for seeding re-solves of a graph with its
  previous Ritz vectors,
* :mod:`amg` — a pure-SciPy smoothed-aggregation multigrid V-cycle (the
  ``amg`` backend's preconditioner when ``pyamg`` is not installed),
* :mod:`backend` — :class:`EigenSolverOptions` (method/dtype/tolerance, the
  hashable object all cache tiers key on),
* :mod:`dense` — exact dense spectra via LAPACK (``numpy.linalg.eigvalsh``),
* :mod:`spectrum_cache` — an LRU cache of eigensolves keyed by the graph's
  structural fingerprint, shared by all bound computations so repeated
  bounds on the same graph solve once.
"""

from repro.solvers.backend import EigenSolverOptions
from repro.solvers.backends import (
    SOLVER_BACKEND_ENV_VAR,
    BackendSolveResult,
    SpectralBackend,
    WarmStartContext,
    available_backends,
    create_backend,
    default_warm_start_context,
    resolve_method,
    solve_smallest,
)
from repro.solvers.dense import dense_spectrum, dense_smallest_eigenvalues
from repro.solvers.spectrum_cache import (
    CachedSpectrum,
    SpectrumCache,
    default_spectrum_cache,
)

__all__ = [
    "solve_smallest",
    "resolve_method",
    "EigenSolverOptions",
    "BackendSolveResult",
    "SpectralBackend",
    "WarmStartContext",
    "SOLVER_BACKEND_ENV_VAR",
    "available_backends",
    "create_backend",
    "default_warm_start_context",
    "CachedSpectrum",
    "SpectrumCache",
    "default_spectrum_cache",
    "dense_spectrum",
    "dense_smallest_eigenvalues",
]
