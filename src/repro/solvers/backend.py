"""Solver options: what every cache tier keys an eigensolve on.

The solver implementations live in :mod:`repro.solvers.backends` (``dense``,
``sparse``, ``lobpcg``, ``amg``); callers solve through
:func:`repro.solvers.backends.solve_smallest`.  This module keeps
:class:`EigenSolverOptions`, the frozen, hashable configuration object that
caches and the persistent store key on.

All backends return eigenvalues in increasing order, clamped at zero: graph
Laplacians are positive semi-definite, so tiny negative values are numerical
noise and would otherwise leak into the bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.solvers.backends import available_backends

__all__ = ["EigenSolverOptions", "DENSE_CUTOFF"]

#: Below this dimension the dense solver is both faster and exact.  LAPACK's
#: blocked ``syevd`` on a few-thousand-dimensional Laplacian takes a couple of
#: seconds, which in practice beats ARPACK shift-invert (and avoids ARPACK's
#: accuracy issues on the highly clustered spectra of hypercubes/butterflies).
DENSE_CUTOFF = 6000

_VALID_METHODS = frozenset({"auto", *available_backends()})
_VALID_DTYPES = frozenset({"float64", "float32"})


@dataclass(frozen=True)
class EigenSolverOptions:
    """Options controlling eigenvalue computation.

    Attributes
    ----------
    method:
        One of ``"auto"``, ``"dense"``, ``"sparse"``, ``"lobpcg"``,
        ``"amg"``.
    dense_cutoff:
        Matrix dimension below which ``"auto"`` uses the dense backend.
    tolerance:
        Convergence tolerance forwarded to iterative backends.
    max_iterations:
        Iteration cap forwarded to iterative backends (``None`` = defaults).
    seed:
        Seed for backends that use random start vectors.
    dtype:
        Arithmetic precision: ``"float64"`` (default) or ``"float32"``
        (roughly twice the matvec throughput, ~1e-6 accuracy).  Results are
        always returned as float64 arrays; caches and the persistent store
        key on this field, so mixed-precision spectra coexist.
    """

    method: str = "auto"
    dense_cutoff: int = DENSE_CUTOFF
    tolerance: float = 1e-8
    max_iterations: int | None = None
    seed: int = 0
    dtype: str = "float64"

    def __post_init__(self) -> None:
        if self.method not in _VALID_METHODS:
            raise ValueError(
                f"method must be one of {sorted(_VALID_METHODS)}, got {self.method!r}"
            )
        if self.dtype not in _VALID_DTYPES:
            raise ValueError(
                f"dtype must be one of {sorted(_VALID_DTYPES)}, got {self.dtype!r}"
            )

