"""Eigenvalue solvers for graph Laplacians.

The spectral bound of Theorem 4 needs the ``h`` smallest eigenvalues of a
symmetric positive semi-definite Laplacian.  The paper notes the bound "is not
only efficiently computable by power iteration" and costs ``O(h n^2)`` with
Lanczos-Arnoldi.  Its graphs repeat eigenvalues many times, which calls for
the block form of that iteration (LOBPCG); this subpackage provides

* :mod:`backends` — the :class:`SpectralBackend` protocol, the three
  backends (``dense``, ``lobpcg``, ``amg``), :func:`check_solver` (which
  accepts ``auto`` or a backend id), :func:`resolve_method` (which maps
  ``auto`` to one of them by size) and :func:`solve_smallest`,
* :mod:`amg` — a pure-SciPy smoothed-aggregation multigrid V-cycle (the
  ``amg`` backend's preconditioner),
* :mod:`dense` — exact dense spectra via LAPACK: the two-stage
  ``dsyevr_2stage`` from 1,000 vertices, ``numpy.linalg.eigvalsh`` below,
* :mod:`openblas` — the LAPACK routine NumPy and SciPy do not wrap
  (``dsyevr_2stage``), looked up in an OpenBLAS the process already loaded,
* :mod:`spectrum_cache` — an LRU cache of eigensolves keyed by (graph
  fingerprint, normalisation, resolved backend), shared by all bound
  computations so repeated bounds on the same graph solve once.
"""

from repro.solvers.backends import (
    SOLVER_BACKEND_ENV_VAR,
    BackendSolveResult,
    SpectralBackend,
    available_backends,
    check_solver,
    create_backend,
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
    "check_solver",
    "BackendSolveResult",
    "SpectralBackend",
    "SOLVER_BACKEND_ENV_VAR",
    "available_backends",
    "create_backend",
    "CachedSpectrum",
    "SpectrumCache",
    "default_spectrum_cache",
    "dense_spectrum",
    "dense_smallest_eigenvalues",
]
