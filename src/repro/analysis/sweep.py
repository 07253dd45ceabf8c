"""Parameter sweeps over graph families, memory sizes and bound methods.

A sweep evaluates one or more lower-bound methods on a *graph family* — a
callable mapping a size parameter to a computation graph — for every
combination of size parameter and fast-memory size.  The output is a flat
list of :class:`SweepRow` records that the reporting and figure helpers
consume; each benchmark file then simply declares its family, sizes and
memory sizes (matching one of the paper's figures) and prints/saves the rows.

Following §6.4, combinations where the graph's maximum in-degree exceeds
``M - 1`` are skipped (the computation could not even hold one operation's
operands in fast memory), mirroring "we do not display points where the
maximum in-degree is greater than M".

Spectral methods are executed through one :class:`repro.core.engine
.BoundEngine` per graph, all sharing a per-sweep spectrum cache: a figure
sweep performs exactly one eigensolve per (graph, normalisation), no matter
how many memory sizes or methods it covers.

Execution is delegated to :class:`repro.runtime.orchestrator
.SweepOrchestrator`: ``processes > 1`` fans the family out over a process
pool, and ``store`` plugs a persistent :class:`repro.runtime.store
.SpectrumStore` under every engine so repeated sweeps (across processes and
runs) skip eigensolves entirely.  :func:`evaluate_graph_rows` is the
single-graph kernel both the serial path and the pool workers execute.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, asdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.baselines.convex_mincut import MinCutEngine
from repro.core.engine import BoundEngine, SolveRecord
from repro.graphs.compgraph import ComputationGraph
from repro.solvers.backend import EigenSolverOptions
from repro.solvers.spectrum_cache import SpectrumCache

__all__ = [
    "SweepRow",
    "sweep",
    "evaluate_graph_rows",
    "convex_candidates",
    "METHODS",
]

#: Methods understood by :func:`sweep`.
METHODS = ("spectral", "spectral-unnormalized", "convex-min-cut")


@dataclass(frozen=True)
class SweepRow:
    """One (graph size, memory size, method) evaluation."""

    family: str
    size_param: int
    num_vertices: int
    num_edges: int
    max_in_degree: int
    memory_size: int
    method: str
    bound: float
    best_k: Optional[int]
    elapsed_seconds: float

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


def _evaluate_spectral(
    method: str,
    engine: BoundEngine,
    memory_sizes: Sequence[int],
) -> Dict[int, tuple[float, Optional[int], float]]:
    """Evaluate a spectral method for all memory sizes with one eigensolve.

    The engine's spectrum cache guarantees the eigensolve runs once per
    (graph, normalisation); its cost lands in the ``elapsed_seconds`` of the
    point that triggered it, so summing row times never overcounts it.
    """
    points = engine.sweep(memory_sizes, methods=(method,))
    return {
        p.memory_size: (p.result.value, p.result.best_k, p.result.elapsed_seconds)
        for p in points
    }


def convex_candidates(
    graph: ComputationGraph,
    convex_vertex_cap: Optional[int],
    chunk: Optional[Tuple[int, int]] = None,
) -> Optional[List[int]]:
    """The candidate vertices the convex min-cut baseline examines.

    ``None`` means "all vertices".  With a ``convex_vertex_cap`` smaller than
    the graph, a deterministic strided sub-sample keeps the ``O(n)`` max-flow
    calls affordable (the result remains a valid bound).  ``chunk=(i, k)``
    takes the ``i``-th of ``k`` strided slices of the candidate list — the
    unit the orchestrator schedules across pool workers; the union over all
    chunks is exactly the unchunked candidate set.
    """
    vertices: Optional[List[int]] = None
    if convex_vertex_cap is not None and graph.num_vertices > convex_vertex_cap:
        stride = max(1, graph.num_vertices // convex_vertex_cap)
        vertices = list(range(0, graph.num_vertices, stride))
    if chunk is not None:
        index, total = chunk
        if not 0 <= index < total:
            raise ValueError(f"chunk index {index} out of range for {total} chunks")
        if total > 1:
            if vertices is None:
                vertices = list(range(graph.num_vertices))
            vertices = vertices[index::total]
    return vertices


def _evaluate_convex(
    graph: ComputationGraph,
    memory_sizes: Sequence[int],
    convex_vertex_cap: Optional[int],
    engine: MinCutEngine,
    chunk: Optional[Tuple[int, int]] = None,
) -> Dict[int, tuple[float, Optional[int], float]]:
    """Run the convex min-cut baseline for all memory sizes.

    The expensive part (``max_v C(v, G)``) is independent of ``M``, so the
    per-vertex max-flow computations run once and the per-``M`` bounds follow
    arithmetically (the recorded elapsed time is the shared cost).  The
    engine carries the backend choice, the persistent cut table, and the
    pruning logic.
    """
    start = time.perf_counter()
    vertices = convex_candidates(graph, convex_vertex_cap, chunk)
    max_cut, _ = engine.max_cut(vertices)
    elapsed = time.perf_counter() - start
    return {
        M: (max(0.0, 2.0 * (max_cut - M)), None, elapsed) for M in memory_sizes
    }


def evaluate_graph_rows(
    family: str,
    size_param: int,
    graph: ComputationGraph,
    memory_sizes: Sequence[int],
    methods: Sequence[str] = ("spectral",),
    num_eigenvalues: int = 100,
    skip_infeasible: bool = True,
    convex_vertex_cap: Optional[int] = None,
    max_vertices: Optional[Dict[str, int]] = None,
    cache: Optional[SpectrumCache] = None,
    eig_options: Optional[EigenSolverOptions] = None,
    lineage: Optional[str] = None,
    cut_store=None,
    convex_chunk: Optional[Tuple[int, int]] = None,
) -> Tuple[List[SweepRow], int, List[SolveRecord], Optional[Dict[str, object]]]:
    """Evaluate every (method, M) combination on one graph.

    This is the per-graph kernel of :func:`sweep`: the serial path calls it
    in a loop with a shared cache, and the orchestrator's pool workers call
    it once per task with a store-backed private cache.  ``eig_options``
    selects the spectral backend/precision, and ``lineage`` tags solves for
    warm starting (defaults to the family name).  ``cut_store`` is the
    convex min-cut baseline's persistent
    :class:`~repro.runtime.store.CutStore`; ``convex_chunk``
    restricts the baseline to the ``(index, total)``-th strided slice of its
    candidate vertices (see :func:`convex_candidates`).

    Returns
    -------
    (rows, num_eigensolves, solve_records, cut_stats)
        The sweep rows, the number of eigensolves actually performed (0 when
        every spectrum came from a cache tier), one
        :class:`~repro.core.engine.SolveRecord` per spectrum fetch (empty
        for purely combinatorial methods), and the convex baseline's
        :meth:`~repro.baselines.convex_mincut.MinCutEngine.stats` (``None``
        when the method did not run).
    """
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    max_vertices = max_vertices or {}
    memory_sizes = list(memory_sizes)
    engine = BoundEngine(
        graph,
        num_eigenvalues=num_eigenvalues,
        cache=cache,
        eig_options=eig_options,
        lineage=lineage if lineage is not None else family,
    )
    cut_stats: Optional[Dict[str, object]] = None
    max_in = graph.max_in_degree
    feasible_ms = [
        M for M in memory_sizes if not (skip_infeasible and max_in + 1 > M)
    ]
    rows: List[SweepRow] = []
    if not feasible_ms:
        return rows, 0, [], cut_stats

    def emit(method: str, M: int, bound: float, best_k: Optional[int], elapsed: float) -> None:
        rows.append(
            SweepRow(
                family=family,
                size_param=size_param,
                num_vertices=graph.num_vertices,
                num_edges=graph.num_edges,
                max_in_degree=max_in,
                memory_size=M,
                method=method,
                bound=float(bound),
                best_k=best_k,
                elapsed_seconds=elapsed,
            )
        )

    for method in methods:
        cap = max_vertices.get(method)
        if cap is not None and graph.num_vertices > cap:
            continue
        if method in ("spectral", "spectral-unnormalized"):
            per_m = _evaluate_spectral(method, engine, feasible_ms)
        else:  # convex-min-cut
            mincut_engine = MinCutEngine(
                graph,
                store=cut_store,
                lineage=lineage if lineage is not None else family,
            )
            per_m = _evaluate_convex(
                graph, feasible_ms, convex_vertex_cap, mincut_engine, convex_chunk
            )
            cut_stats = mincut_engine.stats()
        for M in feasible_ms:
            bound, best_k, elapsed = per_m[M]
            emit(method, M, bound, best_k, elapsed)
    return rows, engine.num_eigensolves, engine.solve_log, cut_stats


def sweep(
    family: str,
    graph_builder: Callable[[int], ComputationGraph],
    size_params: Iterable[int],
    memory_sizes: Iterable[int],
    methods: Sequence[str] = ("spectral",),
    num_eigenvalues: int = 100,
    skip_infeasible: bool = True,
    convex_vertex_cap: Optional[int] = None,
    max_vertices: Optional[Dict[str, int]] = None,
    processes: int = 1,
    store=None,
    solver: Optional[str] = None,
    dtype: Optional[str] = None,
    eig_options: Optional[EigenSolverOptions] = None,
) -> List[SweepRow]:
    """Evaluate ``methods`` over a graph family.

    Parameters
    ----------
    family:
        Name recorded in every row (e.g. ``"fft"``).
    graph_builder:
        Callable mapping the size parameter to a computation graph.  Must be
        picklable (e.g. a module-level generator) when ``processes > 1``.
    size_params:
        Size parameters to sweep (``l`` for FFT/BHK, ``n`` for matmul).
    memory_sizes:
        Fast-memory sizes ``M`` to sweep.
    methods:
        Bound methods (subset of :data:`METHODS`).
    num_eigenvalues:
        The ``h`` truncation for the spectral methods.
    skip_infeasible:
        Skip (graph, M) combinations whose maximum in-degree exceeds ``M - 1``
        (as in the paper's figures).
    convex_vertex_cap:
        If set, the convex min-cut method only examines roughly this many
        candidate vertices on larger graphs (still a valid lower bound).
    max_vertices:
        Optional per-method cap ``{method: n_max}``: graphs larger than the
        cap are skipped for that method (used to keep the ``O(n^5)`` baseline
        within the benchmark time budget, mirroring the paper's 1-day cutoff).
    processes:
        Number of worker processes; ``1`` (default) runs serially in-process,
        ``None`` uses one worker per CPU.
    store:
        Optional persistent :class:`~repro.runtime.store.SpectrumStore` (or
        its root path) shared by all engines/workers of the sweep.
    solver, dtype:
        Shorthand for ``eig_options``: backend id (``auto``/``dense``/
        ``sparse``/``lobpcg``/``amg``) and precision
        (``float64``/``float32``).  ``auto`` honours the
        ``REPRO_SOLVER_BACKEND`` environment variable.  Mutually exclusive
        with ``eig_options``.
    eig_options:
        Full :class:`~repro.solvers.backend.EigenSolverOptions` forwarded to
        every engine/worker of the sweep.

    Returns
    -------
    list[SweepRow]
        One row per (size, M, method) combination actually evaluated.
    """
    # Imported here: the orchestrator imports this module for the per-graph
    # kernel, so a top-level import would be circular.
    from repro.runtime.orchestrator import SweepOrchestrator

    if eig_options is not None and (solver is not None or dtype is not None):
        raise ValueError("pass either eig_options or solver/dtype, not both")
    if eig_options is None and (solver is not None or dtype is not None):
        eig_options = EigenSolverOptions(
            method=solver or "auto", dtype=dtype or "float64"
        )
    orchestrator = SweepOrchestrator(
        store=store,
        processes=processes,
        num_eigenvalues=num_eigenvalues,
        skip_infeasible=skip_infeasible,
        convex_vertex_cap=convex_vertex_cap,
        max_vertices=max_vertices,
        eig_options=eig_options,
    )
    report = orchestrator.run_family(
        family, graph_builder, size_params, memory_sizes, methods=methods
    )
    return report.rows
