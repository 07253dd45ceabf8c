"""Ablation — eigensolver backends.

§4.3 notes the bound needs only the ``h`` smallest Laplacian eigenvalues and
can be computed "by power iteration" or "Lanczos-Arnoldi" in ``O(h n^2)``
instead of a full ``O(n^3)`` eigendecomposition.  The butterfly Laplacian
repeats eigenvalues many times, and single-vector iterations skip copies of
them: LOBPCG is the block form of power iteration that such spectra need.
This bench times the four backends (``dense`` LAPACK, ``sparse`` ARPACK
shift-invert, shift-inverted ``lobpcg``, multigrid-preconditioned ``amg``)
on the same butterfly Laplacian and checks they agree on the bound they
produce.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchmarks.common import print_dict_rows, pick, run_once
from repro.core.bounds import spectral_bound_from_eigenvalues
from repro.graphs.generators import fft_graph
from repro.graphs.laplacian import laplacian
from repro.solvers.backend import EigenSolverOptions
from repro.solvers.backends import solve_smallest

LEVELS = pick(7, 9)
NUM_EIGENVALUES = 30
M = 4
BACKENDS = ["dense", "sparse", "lobpcg", "amg"]


def smallest(matrix, backend: str) -> np.ndarray:
    options = EigenSolverOptions(method=backend)
    return solve_smallest(matrix, NUM_EIGENVALUES, options).eigenvalues


@pytest.fixture(scope="module")
def solver_rows():
    graph = fft_graph(LEVELS)
    lap_dense = laplacian(graph, normalized=True, sparse=False)
    lap_sparse = laplacian(graph, normalized=True, sparse=True)
    rows = []
    for backend in BACKENDS:
        matrix = lap_dense if backend == "dense" else lap_sparse
        start = time.perf_counter()
        eigenvalues = smallest(matrix, backend)
        elapsed = time.perf_counter() - start
        bound, best_k, _ = spectral_bound_from_eigenvalues(
            eigenvalues, graph.num_vertices, M
        )
        rows.append(
            {
                "backend": backend,
                "n": graph.num_vertices,
                "h": NUM_EIGENVALUES,
                "seconds": round(elapsed, 4),
                "lambda_2": float(eigenvalues[1]),
                "lambda_h": float(eigenvalues[-1]),
                "resulting_bound": max(0.0, bound),
                "best_k": best_k,
            }
        )
    return rows


def test_eigensolver_backends_agree(benchmark, solver_rows):
    rows = solver_rows
    graph = fft_graph(LEVELS)
    lap = laplacian(graph, normalized=True, sparse=True)
    run_once(benchmark, lambda: smallest(lap, "lobpcg"))

    print_dict_rows("Eigensolver backend comparison (butterfly Laplacian)", rows)

    reference = next(r for r in rows if r["backend"] == "dense")
    for row in rows:
        assert np.isclose(row["lambda_2"], reference["lambda_2"], atol=1e-3)
        assert np.isclose(
            row["resulting_bound"], reference["resulting_bound"], rtol=0.05, atol=1.0
        )
