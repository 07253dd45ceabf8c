"""The NumPy k-sweep against the per-k loop it replaced.

:func:`loop_reference` is that loop, kept verbatim as the reference:
``evaluate_bound_formula`` must return the same best value, the same best
``k`` (the first maximum on ties) and the same value at every swept ``k``,
bit for bit.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.formula import evaluate_bound_formula, resolve_k_candidates
from repro.utils.validation import check_memory_size, check_positive_int


def loop_reference(
    eigenvalues: Sequence[float],
    num_vertices: int,
    M: int,
    k: Optional[Union[int, Sequence[int]]] = None,
    num_processors: int = 1,
) -> Tuple[float, int, Dict[int, float]]:
    check_memory_size(M)
    check_positive_int(num_processors, "num_processors")
    if isinstance(eigenvalues, np.ndarray):
        lam = eigenvalues.astype(np.float64, copy=False).ravel()
    else:
        lam = np.asarray(list(eigenvalues), dtype=np.float64)
    n = num_vertices
    if n == 0 or lam.shape[0] == 0:
        return 0.0, 1, {}
    _, candidates = resolve_k_candidates(n, lam.shape[0], k)
    candidates = [kk for kk in candidates if kk <= lam.shape[0]]
    if not candidates and k is None:
        # Degenerate default sweep: fewer than two eigenvalues are available
        # (a length-1 spectrum, or n = 1), so the preferred 2..h range is
        # empty.  Fall back to the k values the spectrum can support rather
        # than silently reporting an uninformative 0.
        candidates = list(range(1, min(lam.shape[0], n) + 1))
    prefix = np.concatenate([[0.0], np.cumsum(lam)])
    per_k: Dict[int, float] = {}
    best_value = -np.inf
    best_k = 1
    for kk in candidates:
        value = (n // (kk * num_processors)) * prefix[kk] - 2.0 * kk * M
        per_k[kk] = float(value)
        if value > best_value:
            best_value = float(value)
            best_k = kk
    if not per_k:
        return 0.0, 1, {}
    return best_value, best_k, per_k


def bits(value: float) -> bytes:
    return np.float64(value).tobytes()


def assert_identical(got, want) -> None:
    (got_best, got_k, got_per_k), (want_best, want_k, want_per_k) = got, want
    assert type(got_best) is float and bits(got_best) == bits(want_best)
    assert got_k == want_k
    assert list(got_per_k) == list(want_per_k)
    assert all(type(v) is float for v in got_per_k.values())
    assert [bits(v) for v in got_per_k.values()] == [bits(v) for v in want_per_k.values()]


@st.composite
def tied_sweeps(draw):
    """A planted tie at the maximum: with n = 6mp, lambda = (0, 2, 2, ...)
    and M = m, both k = 2 and k = 3 give 2m, and no other k does as well."""
    m = draw(st.integers(1, 1_000))
    p = draw(st.integers(1, 8))
    n = 6 * m * p
    h = min(draw(st.integers(3, 120)), n)
    lam = np.array([0.0] + [2.0] * (h - 1))
    k = draw(st.one_of(
        st.none(),
        st.lists(st.integers(1, h), max_size=10).map(lambda ks: ks + [3, 2]),
    ))
    return lam, n, m, k, p


@st.composite
def random_sweeps(draw):
    h = draw(st.integers(min_value=1, max_value=120))
    n = draw(st.integers(min_value=h, max_value=h + 5_000))
    if draw(st.booleans()):
        # Half-integer spectra: many k share one value.
        raw = draw(st.lists(st.integers(0, 4), min_size=h, max_size=h))
        lam = np.sort(np.asarray(raw, dtype=np.float64) / 2.0)
    else:
        raw = draw(st.lists(st.floats(0.0, 4.0), min_size=h, max_size=h))
        lam = np.sort(np.asarray(raw, dtype=np.float64))
    M = draw(st.one_of(st.integers(1, 10**6), st.sampled_from([10**300, 10**306, 10**308])))
    p = draw(st.one_of(st.integers(1, 8), st.just(10**20)))
    k = draw(st.one_of(
        st.none(),
        st.integers(1, n),
        st.lists(st.integers(1, n), min_size=1, max_size=12),
    ))
    return lam, n, M, k, p


@st.composite
def sweeps(draw):
    lam, n, M, k, p = draw(st.one_of(random_sweeps(), tied_sweeps()))
    eigenvalues = lam if draw(st.booleans()) else lam.tolist()
    return eigenvalues, n, M, k, p


@given(case=sweeps())
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_numpy_sweep_equals_the_loop(case):
    eigenvalues, n, M, k, p = case
    assert_identical(
        evaluate_bound_formula(eigenvalues, n, M, k=k, num_processors=p),
        loop_reference(eigenvalues, n, M, k=k, num_processors=p),
    )


@pytest.mark.parametrize(
    "eigenvalues, n, M, k, p",
    [
        # k = 2 and k = 3 both give 2.0: the first maximum wins.
        ([0.0, 1.0, 1.0, 1.0], 12, 1, None, 1),
        ([0.0, 1.0, 1.0, 1.0], 12, 1, [3, 2, 4], 1),
        # Length-1 spectra and n = 1 fall back to k = 1.
        ([5.0], 10, 1, None, 1),
        ([0.0], 1, 2, None, 1),
        ([0.0, 2.0, 3.0], 1, 2, None, 1),
        # No k the spectrum supports; an empty spectrum; an empty graph.
        ([0.0, 1.0], 10, 1, 5, 1),
        ([], 10, 1, None, 1),
        ([], 0, 4, None, 1),
        # Every 2kM overflows a float: no k beats the loop's start.
        ([0.0, 1.0, 2.0], 10, 10**308, None, 1),
        ([0.0, 1.0, 2.0], 10, 1, None, 10**20),
    ],
)
def test_edge_cases_equal_the_loop(eigenvalues, n, M, k, p):
    assert_identical(
        evaluate_bound_formula(eigenvalues, n, M, k=k, num_processors=p),
        loop_reference(eigenvalues, n, M, k=k, num_processors=p),
    )


@pytest.mark.parametrize(
    "M, k, p, error",
    [
        (0, None, 1, ValueError),
        (1, None, 0, ValueError),
        (1, 11, 1, ValueError),
        (1, [2, 0], 1, ValueError),
        (10**400, None, 1, OverflowError),
    ],
)
def test_invalid_inputs_raise_as_the_loop_did(M, k, p, error):
    for evaluate in (evaluate_bound_formula, loop_reference):
        with pytest.raises(error):
            evaluate([0.0, 1.0, 2.0], 10, M, k=k, num_processors=p)
