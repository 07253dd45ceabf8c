"""Laplacian and adjacency matrices of computation graphs.

Section 4.2 of the paper transforms the directed computation graph ``G`` into
a weighted undirected graph ``G~``: each directed edge ``(u, v)`` becomes an
undirected edge of weight ``1 / d_out(u)``.  The spectral bound of Theorem 4
uses the Laplacian ``L~ = D~ - A~`` of that weighted graph; the looser bound
of Theorem 5 uses the ordinary (unweighted, undirected) Laplacian
``L = D - A`` divided by the maximum out-degree.

This module builds both, in dense (:class:`numpy.ndarray`) or sparse
(:class:`scipy.sparse.csr_matrix`) form.  All constructions are fully
vectorized over the graph's frozen edge array
(:meth:`repro.graphs.compgraph.ComputationGraph.freeze`): there are no
per-edge Python loops, so assembling the Laplacian of a ~53k-vertex 12-level
FFT butterfly costs milliseconds, not seconds.
"""

from __future__ import annotations

from typing import Dict, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.graphs.compgraph import ComputationGraph
from repro.graphs.csr import pack_edge_keys, unpack_edge_key

__all__ = [
    "undirected_weights",
    "adjacency_matrix",
    "degree_vector",
    "laplacian",
    "normalized_laplacian",
    "laplacian_quadratic_form",
]

MatrixLike = Union[np.ndarray, sp.csr_matrix]


def _edge_weights(view, normalized: bool) -> np.ndarray:
    """Per-directed-edge weights: ``1/d_out(u)`` if normalized else 1."""
    if not normalized:
        return np.ones(view.num_edges, dtype=np.float64)
    # Every edge (u, v) implies d_out(u) >= 1, so the division is safe.
    return 1.0 / view.out_degrees[view.edges[:, 0]].astype(np.float64)


def undirected_weights(
    graph: ComputationGraph, normalized: bool = True
) -> Dict[Tuple[int, int], float]:
    """Weights of the undirected graph ``G~`` derived from ``graph``.

    Each directed edge ``(u, v)`` contributes weight ``1 / d_out(u)`` (or 1 if
    ``normalized`` is False) to the undirected pair ``{u, v}``.  If both
    ``(u, v)`` and ``(v, u)`` existed the weights would accumulate, but a
    valid computation graph is acyclic so this cannot happen; the accumulation
    logic is kept for robustness.

    Returns
    -------
    dict
        Mapping from ordered pairs ``(min(u, v), max(u, v))`` to weights.
    """
    view = graph.freeze()
    if view.num_edges == 0:
        return {}
    w = _edge_weights(view, normalized)
    u, v = view.edge_endpoints()
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    keys = pack_edge_keys(lo, hi)
    unique_keys, inverse = np.unique(keys, return_inverse=True)
    sums = np.bincount(inverse, weights=w, minlength=unique_keys.shape[0])
    return {
        unpack_edge_key(key): weight
        for key, weight in zip(unique_keys.tolist(), sums.tolist())
    }


def adjacency_matrix(
    graph: ComputationGraph,
    normalized: bool = False,
    sparse: bool = False,
    directed: bool = False,
) -> MatrixLike:
    """Adjacency matrix of ``graph``.

    Parameters
    ----------
    graph:
        The computation graph.
    normalized:
        If True, build the adjacency of the out-degree-normalised undirected
        graph ``G~`` (weight ``1/d_out(u)`` per directed edge); otherwise the
        unweighted adjacency.
    sparse:
        Return a CSR matrix instead of a dense array.
    directed:
        If True, return the directed adjacency ``A[u, v] = w(u -> v)``;
        otherwise symmetrise (each directed edge contributes to both ``(u, v)``
        and ``(v, u)``), which is the adjacency of ``G~`` used by the bounds.
    """
    view = graph.freeze()
    n = view.num_vertices
    u, v = view.edge_endpoints()
    w = _edge_weights(view, normalized)
    if directed:
        rows, cols, vals = u, v, w
    else:
        rows = np.concatenate([u, v])
        cols = np.concatenate([v, u])
        vals = np.concatenate([w, w])
    mat = sp.coo_matrix((vals, (rows, cols)), shape=(n, n), dtype=np.float64)
    # Duplicate entries (possible only in non-DAG inputs) are summed by COO->CSR.
    csr = mat.tocsr()
    if sparse:
        return csr
    return np.asarray(csr.todense())


def degree_vector(graph: ComputationGraph, normalized: bool = False) -> np.ndarray:
    """Weighted degree vector of the undirected graph ``G~`` (or of ``G``'s
    undirected version when ``normalized`` is False).

    For ``normalized=True`` the degree of vertex ``x`` is
    ``sum over incident directed edges (u, v) with x in {u, v} of 1/d_out(u)``.
    """
    view = graph.freeze()
    n = view.num_vertices
    u, v = view.edge_endpoints()
    w = _edge_weights(view, normalized)
    return np.bincount(u, weights=w, minlength=n) + np.bincount(
        v, weights=w, minlength=n
    )


def laplacian(
    graph: ComputationGraph, normalized: bool = True, sparse: bool = False
) -> MatrixLike:
    """Graph Laplacian ``L = D - A`` of the undirected (optionally
    out-degree-normalised) version of ``graph``.

    ``normalized=True`` yields ``L~`` (Theorem 4); ``normalized=False`` yields
    the ordinary Laplacian ``L`` (Theorem 5).  The result is symmetric
    positive semi-definite with row sums equal to zero.
    """
    adj = adjacency_matrix(graph, normalized=normalized, sparse=True, directed=False)
    deg = np.asarray(adj.sum(axis=1)).ravel()
    lap = sp.diags(deg, format="csr") - adj
    lap = lap.tocsr()
    if sparse:
        return lap
    return np.asarray(lap.todense())


def normalized_laplacian(graph: ComputationGraph, sparse: bool = False) -> MatrixLike:
    """Convenience alias for the out-degree-normalised Laplacian ``L~``."""
    return laplacian(graph, normalized=True, sparse=sparse)


def laplacian_quadratic_form(lap: MatrixLike, x: np.ndarray) -> float:
    """Evaluate ``x^T L x`` for a dense or sparse Laplacian.

    For an indicator vector ``x`` of a vertex subset ``S`` this equals the
    weighted edge boundary of ``S`` (Equation 3 of the paper), which is what
    the partition bound counts.
    """
    x = np.asarray(x, dtype=np.float64)
    if sp.issparse(lap):
        return float(x @ (lap @ x))
    return float(x @ np.asarray(lap) @ x)
