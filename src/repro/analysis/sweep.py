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
.BoundEngine` per (graph, method), over the sweep's spectrum cache: a figure
sweep performs exactly one eigensolve per (graph, normalisation), no matter
how many memory sizes it covers.

Execution is delegated to :class:`repro.runtime.orchestrator
.SweepOrchestrator`: ``processes > 1`` fans the family out over a process
pool, and ``store`` plugs a persistent :class:`repro.runtime.store
.SpectrumStore` under every engine so repeated sweeps (across processes and
runs) skip eigensolves entirely.  :func:`evaluate_graph_rows` is the
per-(graph, method) kernel every sweep task runs, serially or pooled.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, asdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.baselines.convex_mincut import MinCutEngine
from repro.core.engine import BoundEngine
from repro.graphs.compgraph import ComputationGraph
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
    method: str,
    num_eigenvalues: int = 100,
    skip_infeasible: bool = True,
    convex_vertex_cap: Optional[int] = None,
    max_vertices: Optional[Dict[str, int]] = None,
    cache: Optional[SpectrumCache] = None,
    solver: str = "auto",
    cut_store=None,
    convex_chunk: Optional[Tuple[int, int]] = None,
) -> Tuple[List[SweepRow], Dict[str, object]]:
    """Evaluate one method at every memory size on one graph.

    This is the kernel of every sweep task: the orchestrator runs it once
    per (graph, method) task, serially with a cache shared by the whole
    sweep or in a pool worker with a store-backed private cache.
    ``solver`` selects the spectral backend (``auto`` or an id), and the
    stores record ``family`` as each entry's lineage.  ``cut_store`` is the
    convex min-cut baseline's persistent
    :class:`~repro.runtime.store.CutStore`; ``convex_chunk`` restricts the
    baseline to the ``(index, total)``-th strided slice of its candidate
    vertices (see :func:`convex_candidates`).

    Returns
    -------
    (rows, counters)
        The sweep rows, and the task's work as
        :class:`~repro.runtime.orchestrator.TaskRecord` fields:
        ``num_eigensolves`` (0 when every spectrum came from a cache tier),
        the resolved ``backend`` (``"-"`` when no spectrum was fetched) and
        the ``solve_seconds`` of those eigensolves, plus the convex
        baseline's ``flow_calls`` and ``cut_seconds`` when it ran.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    max_in = graph.max_in_degree
    feasible_ms = [
        M for M in memory_sizes if not (skip_infeasible and max_in + 1 > M)
    ]
    counters: Dict[str, object] = {"num_eigensolves": 0, "backend": "-", "solve_seconds": 0.0}
    cap = (max_vertices or {}).get(method)
    if not feasible_ms or (cap is not None and graph.num_vertices > cap):
        return [], counters
    if method == "convex-min-cut":
        mincut_engine = MinCutEngine(graph, store=cut_store, lineage=family)
        per_m = _evaluate_convex(
            graph, feasible_ms, convex_vertex_cap, mincut_engine, convex_chunk
        )
        cut_stats = mincut_engine.stats()
        counters["flow_calls"] = int(cut_stats["flow_calls"])
        counters["cut_seconds"] = float(cut_stats["cut_seconds"])
    else:
        engine = BoundEngine(
            graph,
            num_eigenvalues=num_eigenvalues,
            cache=cache,
            solver=solver,
            lineage=family,
        )
        per_m = _evaluate_spectral(method, engine, feasible_ms)
        counters["num_eigensolves"] = engine.num_eigensolves
        counters["backend"] = engine.backend or "-"
        counters["solve_seconds"] = engine.eigensolve_seconds
    rows = [
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
        for M in feasible_ms
        for bound, best_k, elapsed in [per_m[M]]
    ]
    return rows, counters


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
    solver: str = "auto",
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
    solver:
        ``"auto"`` or a backend id, forwarded to every engine/worker of the
        sweep.  ``auto`` honours the ``REPRO_SOLVER_BACKEND`` environment
        variable.

    Returns
    -------
    list[SweepRow]
        One row per (size, M, method) combination actually evaluated.
    """
    # Imported here: the orchestrator imports this module for the sweep task
    # kernel, so a top-level import would be circular.
    from repro.runtime.orchestrator import SweepOrchestrator

    orchestrator = SweepOrchestrator(
        store=store,
        processes=processes,
        num_eigenvalues=num_eigenvalues,
        skip_infeasible=skip_infeasible,
        convex_vertex_cap=convex_vertex_cap,
        max_vertices=max_vertices,
        solver=solver,
    )
    report = orchestrator.run_family(
        family, graph_builder, size_params, memory_sizes, methods=methods
    )
    return report.rows
