"""The Theorem 4/5/6 bound expression, separated from orchestration.

This module holds the pure arithmetic shared by
:mod:`repro.core.bounds` (the stable public API) and
:mod:`repro.core.engine` (the cached execution engine): resolving which ``k``
values to sweep, and evaluating

    floor(n / (k p)) * sum_{i=1..k} lambda_i  -  2 k M

over those candidates.  Keeping it dependency-free avoids an import cycle
between the engine and the public wrappers.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.utils.validation import check_memory_size, check_positive_int

__all__ = [
    "DEFAULT_NUM_EIGENVALUES",
    "resolve_k_candidates",
    "k_sweep",
    "evaluate_bound_formula",
]

#: The paper computes "up to the first 100 values of the graph Laplacian" and
#: optimises k over {2 .. h} (§6.1); empirically the best k is far below 100.
DEFAULT_NUM_EIGENVALUES = 100

_NO_KS = np.zeros(0, dtype=np.int64)
_NO_VALUES = np.zeros(0)


def resolve_k_candidates(
    n: int, num_eigenvalues: int, k: Optional[Union[int, Sequence[int]]]
) -> Tuple[int, Iterable[int]]:
    """Resolve the ``k`` sweep and how many eigenvalues are needed.

    Returns ``(h, candidates)`` where ``h`` is the number of smallest
    eigenvalues to compute and ``candidates`` the k values to evaluate.  The
    default sweep follows §6.1 of the paper and covers ``k = 2 .. h``:
    ``k = 1`` is excluded because ``lambda_1 = 0`` for every graph Laplacian,
    so the ``k = 1`` expression is ``-2M`` and can never be the best bound.
    An explicit ``k`` (int or sequence) is honoured as given, including
    ``k = 1``.  (:func:`k_sweep` falls back to the ``k`` values the
    supplied spectrum supports when fewer than two eigenvalues are
    available.)
    """
    if n == 0:
        return 0, []
    if k is None:
        h = min(max(2, num_eigenvalues), n)
        return h, range(2, h + 1)
    if isinstance(k, (int, np.integer)):
        check_positive_int(int(k), "k")
        if k > n:
            raise ValueError(f"k={k} exceeds the number of vertices n={n}")
        return int(k), [int(k)]
    ks = [int(x) for x in k]
    for x in ks:
        check_positive_int(x, "k")
        if x > n:
            raise ValueError(f"k={x} exceeds the number of vertices n={n}")
    return max(ks), sorted(set(ks))


def k_sweep(
    eigenvalues: Sequence[float],
    num_vertices: int,
    M: int,
    k: Optional[Union[int, Sequence[int]]] = None,
    num_processors: int = 1,
) -> Tuple[float, int, np.ndarray, np.ndarray]:
    """The Theorem 4/6 expression at every swept ``k``, in one NumPy pass.

    Returns ``(best_value, best_k, ks, values)``: ``values[i]`` is the
    expression at ``k = ks[i]``, and ``best_value`` its raw (un-clamped)
    maximum at the first ``k`` attaining it.  When no ``k`` can be swept the
    result is ``(0.0, 1)`` with empty arrays; when every value is ``-inf``
    (``2kM`` overflows a float) it is ``(-inf, 1)``.
    """
    check_memory_size(M)
    check_positive_int(num_processors, "num_processors")
    if isinstance(eigenvalues, np.ndarray):
        lam = eigenvalues.astype(np.float64, copy=False).ravel()
    else:
        lam = np.asarray(list(eigenvalues), dtype=np.float64)
    n = num_vertices
    if n == 0 or lam.shape[0] == 0:
        return 0.0, 1, _NO_KS, _NO_VALUES
    candidates = None if k is None else resolve_k_candidates(n, lam.shape[0], k)[1]
    return _k_sweep(lam, n, M, candidates, num_processors)


def _k_sweep(
    lam: np.ndarray,
    n: int,
    M: int,
    candidates: Optional[Iterable[int]],
    num_processors: int,
) -> Tuple[float, int, np.ndarray, np.ndarray]:
    """:func:`k_sweep` on checked arguments: a non-empty float64 spectrum
    ``lam`` of an ``n > 0`` vertex graph, and the explicit ``k`` values
    :func:`resolve_k_candidates` resolved, or ``None`` for the default
    sweep."""
    if candidates is None:
        # The default sweep is 2..min(h, n).  With fewer than two eigenvalues
        # (a length-1 spectrum, or n = 1) that range is empty, so fall back
        # to the k values the spectrum supports rather than report 0.
        top = min(lam.shape[0], n)
        ks = np.arange(2 if top >= 2 else 1, top + 1)
    else:
        ks = np.array([kk for kk in candidates if kk <= lam.shape[0]], dtype=np.int64)
        if ks.shape[0] == 0:
            return 0.0, 1, _NO_KS, _NO_VALUES
    # floor(n / (k p)) as (n // p) // k: equal for positive integers, and
    # n // p stays an int64 however large p is.  A 2kM beyond the float
    # range makes that k's value -inf, silently, as scalar floats do.
    with np.errstate(over="ignore"):
        values = ((n // num_processors) // ks) * np.cumsum(lam)[ks - 1] - 2.0 * ks * float(M)
    best = int(values.argmax())
    if not values[best] > -np.inf:
        return -np.inf, 1, ks, values
    return float(values[best]), int(ks[best]), ks, values


def evaluate_bound_formula(
    eigenvalues: Sequence[float],
    num_vertices: int,
    M: int,
    k: Optional[Union[int, Sequence[int]]] = None,
    num_processors: int = 1,
) -> Tuple[float, int, Dict[int, float]]:
    """Evaluate the Theorem 4/6 expression given precomputed eigenvalues.

    Returns ``(best_value, best_k, per_k_values)`` where ``best_value`` is the
    raw (un-clamped) maximum over the swept ``k`` (see :func:`k_sweep`); see
    :func:`repro.core.bounds.spectral_bound_from_eigenvalues` for the
    documented public entry point.
    """
    best_value, best_k, ks, values = k_sweep(
        eigenvalues, num_vertices, M, k=k, num_processors=num_processors
    )
    return best_value, best_k, dict(zip(ks.tolist(), values.tolist()))
