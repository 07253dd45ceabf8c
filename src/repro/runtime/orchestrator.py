"""Process-pool orchestration of bound sweeps over graph families.

The paper's figures are *family sweeps*: the same spectral bound evaluated on
every graph of a family for many ``(M, p)`` points.  Each graph's work is
eigensolve-dominated and — because the two normalisations (Theorem 4 vs
Theorem 5) are *independent* eigensolves — the natural unit of parallelism is
one **(graph, method)** pair, not one graph: :class:`SweepOrchestrator`
expands every (family, size) into per-method :class:`SolveTask` objects, each
carrying a cheap vertex-count estimate, and fans them out over a
``concurrent.futures.ProcessPoolExecutor`` **largest-first**.  Scheduling the
dominant task (the family's largest level) before the small fry keeps the
pool busy instead of idling behind it; rows are reassembled in task order, so
the output is identical to the serial sweep.

The convex min-cut baseline gets the same treatment at a finer grain: its
work is ``O(n)`` *independent* per-vertex max-flow calls, so each graph's
``convex-min-cut`` task further splits into candidate-vertex **chunks** (one
per worker by default) that the pool interleaves with the eigensolve tasks;
chunk rows are max-merged on reassembly, which is exact because ``max_v``
over a union of candidate sets is the max of per-chunk maxima.

Workers never receive a live graph.  A task carries either a picklable
builder callable (the generators are module-level functions) or a
:class:`~repro.runtime.families.GraphSpec`; the worker rehydrates the graph
locally, evaluates every ``M`` through the shared per-graph kernel
:func:`repro.analysis.sweep.evaluate_graph_rows`, and — when the
orchestrator was given a persistent :class:`~repro.runtime.store
.SpectrumStore` — publishes every fresh eigensolve (and, through the
sibling :class:`~repro.runtime.store.CutStore`, every fresh min-cut value)
back through the store, so concurrent workers and *future runs* share
results even though each worker process has its own memory cache.  Pool
workers pin BLAS threading to one thread each (see
:func:`pin_worker_blas_threads`), so ``p`` workers consume ``p`` cores
instead of ``p * blas_threads``.

With ``processes=1`` the orchestrator degenerates to the serial loop the
analysis harness always ran: tasks execute in submission order (which also
lets warm-start-capable backends seed consecutive family levels from each
other), one shared in-memory cache across the whole sweep (plus the optional
store tier), zero pickling.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import dataclasses

from repro import obs
from repro.analysis.sweep import METHODS, SweepRow, evaluate_graph_rows
from repro.core.engine import SolveRecord
from repro.graphs.compgraph import ComputationGraph
from repro.runtime.families import GraphSpec, estimate_num_vertices, family_builder
from repro.runtime.store import CutStore, SpectrumStore
from repro.solvers.backend import EigenSolverOptions
from repro.solvers.spectrum_cache import SpectrumCache

__all__ = [
    "SweepTask",
    "SolveTask",
    "TaskRecord",
    "SweepReport",
    "SweepOrchestrator",
    "BLAS_THREAD_ENV_VARS",
    "pin_worker_blas_threads",
]

#: Threading knobs of the BLAS/LAPACK stacks numpy/scipy may link against.
#: Pool workers pin them all to 1: each worker is one schedulable unit, and a
#: worker-level eigensolve that fans out over every core oversubscribes the
#: host as soon as two workers run (p workers x c BLAS threads on c cores).
BLAS_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def pin_worker_blas_threads() -> None:
    """``ProcessPoolExecutor`` initializer: single-threaded BLAS per worker.

    ``setdefault`` keeps explicit operator overrides (e.g. a deliberate
    ``OMP_NUM_THREADS=2``) in force; only unset knobs are pinned.  The env
    vars fully configure spawn-started workers (they import numpy/scipy
    after the initializer) and the lazily initialised OpenMP regions of
    fork-started ones; a BLAS thread pool already *sized* in the parent
    before the fork ignores them, so when :mod:`threadpoolctl` is importable
    it is used as well — its limits apply to already-loaded libraries.
    """
    for name in BLAS_THREAD_ENV_VARS:
        os.environ.setdefault(name, "1")
    try:
        import threadpoolctl
    except ImportError:
        return
    try:
        threadpoolctl.threadpool_limits(1)
    except Exception:  # pragma: no cover - diagnostics-only safety net
        pass


@dataclass(frozen=True)
class SweepTask:
    """One graph's worth of sweep work, in rehydratable form.

    Either ``builder`` (a picklable callable applied to ``size_param``) or
    ``spec`` identifies the graph.  This is the user-facing unit; the
    orchestrator expands it into per-method :class:`SolveTask` units.
    """

    family: str
    size_param: int
    builder: Optional[Callable[[int], ComputationGraph]] = None
    spec: Optional[GraphSpec] = None

    def __post_init__(self) -> None:
        if (self.builder is None) == (self.spec is None):
            raise ValueError("SweepTask needs exactly one of builder or spec")

    def build_graph(self) -> ComputationGraph:
        if self.builder is not None:
            return self.builder(self.size_param)
        return self.spec.build()

    def estimate_num_vertices(self) -> int:
        """Vertex-count estimate without building the graph (see families)."""
        if self.spec is not None:
            return self.spec.estimate_num_vertices()
        return estimate_num_vertices(self.family, self.size_param)


@dataclass(frozen=True)
class SolveTask:
    """The schedulable unit: one (graph, method[, candidate-chunk]) evaluation.

    ``methods`` usually holds a single method — per-normalisation splitting
    is what lets the pool schedule the two eigensolves of one graph on
    different workers — but carries the whole method tuple when splitting is
    disabled.  ``size_estimate`` orders the queue largest-first;
    ``order_index`` restores row order on reassembly.

    The convex min-cut baseline additionally splits *within* a graph:
    ``(chunk_index, num_chunks)`` restricts the task to one strided slice of
    the candidate vertices (see :func:`repro.analysis.sweep
    .convex_candidates`), so one graph's ``O(n)`` flow calls interleave with
    spectral solve tasks across the pool.  Chunk rows are max-merged on
    reassembly — ``max_v`` over a union is the max of per-slice maxima.
    """

    task: SweepTask
    methods: Tuple[str, ...]
    size_estimate: int
    order_index: int
    chunk_index: int = 0
    num_chunks: int = 1


@dataclass(frozen=True)
class TaskRecord:
    """Per solve-task observability record (surfaces in CLI JSON output).

    Spectral tasks fill ``backend``/``dtype``/``solve_seconds``; convex
    min-cut tasks fill ``flow_calls``/``cut_seconds`` (and
    their chunk coordinates when the orchestrator split the per-vertex flow
    calls across workers).
    """

    family: str
    size_param: int
    methods: Tuple[str, ...]
    size_estimate: int
    schedule_rank: int
    seconds: float
    num_eigensolves: int
    backend: str
    dtype: str
    solve_seconds: float
    flow_calls: int = 0
    cut_seconds: float = 0.0
    chunk_index: int = 0
    num_chunks: int = 1
    #: Trace linkage: the id pair of this task's span when the sweep ran
    #: with tracing enabled (``--trace``), ``None`` otherwise.  JSON output
    #: links into the trace tree instead of duplicating timing fields.
    trace_id: Optional[str] = None
    span_id: Optional[str] = None

    def as_dict(self) -> Dict[str, object]:
        data = asdict(self)
        data["methods"] = list(self.methods)
        return data


@dataclass
class SweepReport:
    """The outcome of one orchestrated sweep."""

    rows: List[SweepRow]
    num_eigensolves: int
    elapsed_seconds: float
    processes: int
    store_root: Optional[str] = None
    per_task_seconds: List[float] = field(default_factory=list)
    tasks: List[TaskRecord] = field(default_factory=list)
    num_flow_calls: int = 0

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def summary(self) -> Dict[str, object]:
        """JSON-friendly summary (what the CLI prints/saves)."""
        return {
            "num_rows": self.num_rows,
            "num_eigensolves": self.num_eigensolves,
            "num_flow_calls": self.num_flow_calls,
            "elapsed_seconds": round(self.elapsed_seconds, 4),
            "processes": self.processes,
            "store_root": self.store_root,
        }


# Worker payload: everything a pool worker needs, all picklable.  The trace
# element carries the sweep span's context plus the shard base path workers
# write their span shards next to; ``None`` keeps workers fully silent (the
# zero-cost-when-disabled guarantee holds across the pool).
_TaskPayload = Tuple[
    SolveTask,
    Tuple[int, ...],  # memory sizes
    int,  # num_eigenvalues
    bool,  # skip_infeasible
    Optional[int],  # convex_vertex_cap
    Optional[Dict[str, int]],  # max_vertices
    Optional[str],  # store root
    Optional[EigenSolverOptions],
    Optional[Tuple[obs.TraceContext, Optional[str]]],  # trace ctx + shard base
]

# Rows, eigensolves, seconds, solve records, cut stats, task span id pair.
_TaskOutcome = Tuple[
    List[SweepRow],
    int,
    float,
    List[SolveRecord],
    Optional[Dict[str, object]],
    Optional[Tuple[str, str]],
]


def _task_tag(solve_task: SolveTask) -> str:
    """Filesystem-safe identity for per-task profile artefacts."""
    task = solve_task.task
    tag = f"{task.family}-{task.size_param}-{'+'.join(solve_task.methods)}"
    if solve_task.num_chunks > 1:
        tag += f"-c{solve_task.chunk_index}"
    return "".join(c if c.isalnum() or c in "-+_." else "_" for c in tag)


def _execute_task(payload: _TaskPayload) -> _TaskOutcome:
    """Run one solve task in a pool worker and time it.

    Each invocation builds its own store handles and memory cache: handles
    are not picklable/fork-safe, but the store *directory* is shared, which
    is how workers publish spectra and cut tables to each other and to later
    runs.  Tracing is reconfigured per call: the inherited parent tracer is
    always replaced (fork would share its open file), either with a per-pid
    shard tracer re-rooted under the shipped sweep context or with nothing.
    """
    (
        solve_task,
        memory_sizes,
        num_eigenvalues,
        skip_infeasible,
        convex_vertex_cap,
        max_vertices,
        store_root,
        eig_options,
        trace,
    ) = payload
    parent_context, shard_base = trace if trace is not None else (None, None)
    obs.worker_configure(parent_context, shard_base)
    start = time.perf_counter()
    task = solve_task.task
    with obs.span(
        "task",
        family=task.family,
        size_param=task.size_param,
        methods=list(solve_task.methods),
        chunk_index=solve_task.chunk_index,
        num_chunks=solve_task.num_chunks,
    ) as task_span, obs.maybe_profile(shard_base, _task_tag(solve_task)):
        graph = task.build_graph()
        store = SpectrumStore(store_root) if store_root else None
        cache = SpectrumCache(store=store)
        cut_store = CutStore(store_root) if store_root else None
        chunk = (
            (solve_task.chunk_index, solve_task.num_chunks)
            if solve_task.num_chunks > 1
            else None
        )
        rows, eigensolves, records, cut_stats = evaluate_graph_rows(
            task.family,
            task.size_param,
            graph,
            memory_sizes,
            methods=solve_task.methods,
            num_eigenvalues=num_eigenvalues,
            skip_infeasible=skip_infeasible,
            convex_vertex_cap=convex_vertex_cap,
            max_vertices=max_vertices,
            cache=cache,
            eig_options=eig_options,
            cut_store=cut_store,
            convex_chunk=chunk,
        )
    span_ids = (
        (task_span.trace_id, task_span.span_id)
        if task_span.trace_id is not None
        else None
    )
    return rows, eigensolves, time.perf_counter() - start, records, cut_stats, span_ids


def _task_record(
    solve_task: SolveTask,
    schedule_rank: int,
    outcome: _TaskOutcome,
    eig_options: Optional[EigenSolverOptions],
) -> TaskRecord:
    _, eigensolves, seconds, records, cut_stats, span_ids = outcome
    solved = [r for r in records if not r.cache_hit]
    reference = solved[0] if solved else (records[0] if records else None)
    options = eig_options or EigenSolverOptions()
    return TaskRecord(
        family=solve_task.task.family,
        size_param=solve_task.task.size_param,
        methods=solve_task.methods,
        size_estimate=solve_task.size_estimate,
        schedule_rank=schedule_rank,
        seconds=seconds,
        num_eigensolves=eigensolves,
        backend=reference.backend if reference is not None else "-",
        dtype=reference.dtype if reference is not None else options.dtype,
        solve_seconds=sum(r.solve_seconds for r in solved),
        flow_calls=int(cut_stats["flow_calls"]) if cut_stats else 0,
        cut_seconds=float(cut_stats["cut_seconds"]) if cut_stats else 0.0,
        chunk_index=solve_task.chunk_index,
        num_chunks=solve_task.num_chunks,
        trace_id=span_ids[0] if span_ids else None,
        span_id=span_ids[1] if span_ids else None,
    )


def _merge_chunk_rows(chunk_rows: List[List[SweepRow]]) -> List[SweepRow]:
    """Combine the rows of one graph's convex chunk tasks.

    Every chunk evaluates the same (method, M) grid over a disjoint slice of
    the candidate vertices, so the merged bound at each grid point is the
    maximum over chunks (``max_v`` over a union of candidate sets); elapsed
    time sums (it is real work done, split across workers).
    """
    reference = chunk_rows[0]
    for other in chunk_rows[1:]:
        if len(other) != len(reference):  # pragma: no cover - expansion invariant
            raise AssertionError("convex chunk tasks produced mismatched row grids")
    merged: List[SweepRow] = []
    for position, row in enumerate(reference):
        siblings = [rows[position] for rows in chunk_rows]
        merged.append(
            dataclasses.replace(
                row,
                bound=max(r.bound for r in siblings),
                elapsed_seconds=sum(r.elapsed_seconds for r in siblings),
            )
        )
    return merged


class SweepOrchestrator:
    """Fan a family sweep out over processes with shared persistent spectra.

    Parameters
    ----------
    store:
        Persistent spectrum store shared by every engine/worker: a
        :class:`SpectrumStore`, a root path, or ``None`` (no persistence).
    processes:
        Worker processes.  ``1`` runs serially in-process; ``None`` uses
        ``os.cpu_count()``.
    num_eigenvalues, skip_infeasible, convex_vertex_cap, max_vertices:
        Forwarded to :func:`repro.analysis.sweep.evaluate_graph_rows`.
    eig_options:
        Solver backend/precision configuration forwarded to every engine
        and worker (``--solver``/``--dtype`` on the CLI).
    split_methods:
        Expand each graph into per-method solve tasks (the default).  Off,
        the task unit is a whole graph with all methods — the pre-split
        behaviour, kept as a baseline for the scheduling benchmarks.
    largest_first:
        Schedule pooled tasks by descending size estimate (the default) so
        the dominant eigensolve starts first.  Serial execution always runs
        in submission order (warm starts chain through ascending levels).
    convex_chunks:
        Number of candidate-vertex chunks each graph's convex min-cut task
        splits into (``None`` = one chunk per worker process when pooled,
        no chunking serially).  Chunks are scheduled like any other solve
        task, so per-vertex flow calls interleave with eigensolves.
    pin_blas:
        Pin BLAS threading to 1 in pool workers (the default) so ``p``
        workers use ``p`` cores instead of ``p * blas_threads``.
    """

    def __init__(
        self,
        store: Union[SpectrumStore, str, Path, None] = None,
        processes: Optional[int] = 1,
        num_eigenvalues: int = 100,
        skip_infeasible: bool = True,
        convex_vertex_cap: Optional[int] = None,
        max_vertices: Optional[Dict[str, int]] = None,
        eig_options: Optional[EigenSolverOptions] = None,
        split_methods: bool = True,
        largest_first: bool = True,
        convex_chunks: Optional[int] = None,
        pin_blas: bool = True,
    ) -> None:
        if isinstance(store, (str, Path)):
            store = SpectrumStore(store)
        self._store = store
        self._cut_store = CutStore(store.root) if store is not None else None
        if processes is None:
            processes = os.cpu_count() or 1
        if processes < 1:
            raise ValueError(f"processes must be positive, got {processes}")
        if convex_chunks is not None and convex_chunks < 1:
            raise ValueError(f"convex_chunks must be positive, got {convex_chunks}")
        self._processes = int(processes)
        self._num_eigenvalues = int(num_eigenvalues)
        self._skip_infeasible = bool(skip_infeasible)
        self._convex_vertex_cap = convex_vertex_cap
        self._max_vertices = max_vertices
        self._eig_options = eig_options
        self._split_methods = bool(split_methods)
        self._largest_first = bool(largest_first)
        self._convex_chunks = convex_chunks
        self._pin_blas = bool(pin_blas)

    @property
    def store(self) -> Optional[SpectrumStore]:
        return self._store

    @property
    def processes(self) -> int:
        return self._processes

    @property
    def eig_options(self) -> Optional[EigenSolverOptions]:
        return self._eig_options

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------
    def run_family(
        self,
        family: str,
        graph_builder: Optional[Callable[[int], ComputationGraph]],
        size_params: Iterable[int],
        memory_sizes: Iterable[int],
        methods: Sequence[str] = ("spectral",),
    ) -> SweepReport:
        """Sweep one named family over its size parameters.

        ``graph_builder=None`` resolves the builder from the family registry
        (:data:`repro.runtime.families.FAMILY_BUILDERS`).
        """
        builder = graph_builder if graph_builder is not None else family_builder(family)
        tasks = [
            SweepTask(family=family, size_param=int(size), builder=builder)
            for size in size_params
        ]
        return self.run(tasks, memory_sizes, methods=methods)

    def run_specs(
        self,
        specs: Sequence[GraphSpec],
        memory_sizes: Iterable[int],
        methods: Sequence[str] = ("spectral",),
    ) -> SweepReport:
        """Sweep explicit graph specs (generator refs or serialized graphs)."""
        tasks = [
            SweepTask(
                family=spec.describe(),
                size_param=spec.size_param if spec.size_param is not None else 0,
                spec=spec,
            )
            for spec in specs
        ]
        return self.run(tasks, memory_sizes, methods=methods)

    def run(
        self,
        tasks: Sequence[SweepTask],
        memory_sizes: Iterable[int],
        methods: Sequence[str] = ("spectral",),
    ) -> SweepReport:
        """Execute ``tasks`` and return all rows in task order.

        Rows come out grouped by graph (in ``tasks`` order), then by method
        (in ``methods`` order) — exactly the serial harness's order — no
        matter how the pool interleaved the underlying solve tasks.
        """
        memory_tuple = tuple(int(M) for M in memory_sizes)
        method_tuple = tuple(methods)
        # Validate eagerly: a typo'd method must fail before any graph is
        # built (and before it would surface as a pickled pool exception).
        for method in method_tuple:
            if method not in METHODS:
                raise ValueError(
                    f"unknown method {method!r}; expected one of {METHODS}"
                )
        store_root = str(self._store.root) if self._store is not None else None
        start = time.perf_counter()
        solve_tasks = self._expand(tasks, method_tuple)
        with obs.span(
            "sweep",
            num_tasks=len(solve_tasks),
            num_graphs=len(tasks),
            methods=list(method_tuple),
            processes=self._processes,
        ):
            if self._processes == 1 or len(solve_tasks) <= 1:
                outcomes = self._run_serial(solve_tasks, memory_tuple)
                ranks = list(range(len(solve_tasks)))
            else:
                outcomes, ranks = self._run_pooled(
                    solve_tasks, memory_tuple, store_root
                )
        rows: List[SweepRow] = []
        eigensolves = 0
        flow_calls = 0
        per_task_seconds: List[float] = []
        task_records: List[TaskRecord] = []
        index = 0
        while index < len(solve_tasks):
            # Chunked convex tasks of one graph are adjacent by construction;
            # their rows merge into one logical row group.
            group = range(index, index + max(1, solve_tasks[index].num_chunks))
            for j in group:
                _, task_solves, seconds, _, cut_stats, _ = outcomes[j]
                eigensolves += task_solves
                per_task_seconds.append(seconds)
                if cut_stats is not None:
                    flow_calls += int(cut_stats["flow_calls"])
                task_records.append(
                    _task_record(solve_tasks[j], ranks[j], outcomes[j], self._eig_options)
                )
            if len(group) == 1:
                rows.extend(outcomes[index][0])
            else:
                rows.extend(_merge_chunk_rows([outcomes[j][0] for j in group]))
            index = group.stop
        return SweepReport(
            rows=rows,
            num_eigensolves=eigensolves,
            elapsed_seconds=time.perf_counter() - start,
            processes=self._processes,
            store_root=store_root,
            per_task_seconds=per_task_seconds,
            tasks=task_records,
            num_flow_calls=flow_calls,
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _expand(
        self, tasks: Sequence[SweepTask], methods: Tuple[str, ...]
    ) -> List[SolveTask]:
        """Expand graph tasks into schedulable solve tasks, in row order.

        Convex min-cut tasks additionally split into candidate-vertex chunks
        (one per worker by default when pooled) so a single graph's ``O(n)``
        flow calls spread across the pool instead of serialising on one
        worker while eigensolves run elsewhere.
        """
        chunks = self._convex_chunks
        if chunks is None:
            chunks = self._processes if self._processes > 1 else 1
        solve_tasks: List[SolveTask] = []
        for task in tasks:
            estimate = task.estimate_num_vertices()
            if self._split_methods and len(methods) > 1:
                method_groups: List[Tuple[str, ...]] = [(m,) for m in methods]
            else:
                method_groups = [methods]
            for group in method_groups:
                if group == ("convex-min-cut",) and chunks > 1:
                    for chunk_index in range(chunks):
                        solve_tasks.append(
                            SolveTask(
                                task,
                                group,
                                max(1, estimate // chunks),
                                len(solve_tasks),
                                chunk_index=chunk_index,
                                num_chunks=chunks,
                            )
                        )
                else:
                    solve_tasks.append(
                        SolveTask(task, group, estimate, len(solve_tasks))
                    )
        return solve_tasks

    def _payload(
        self,
        solve_task: SolveTask,
        memory_sizes: Tuple[int, ...],
        store_root: Optional[str],
        trace: Optional[Tuple[obs.TraceContext, Optional[str]]],
    ) -> _TaskPayload:
        return (
            solve_task,
            memory_sizes,
            self._num_eigenvalues,
            self._skip_infeasible,
            self._convex_vertex_cap,
            self._max_vertices,
            store_root,
            self._eig_options,
            trace,
        )

    def _run_pooled(
        self,
        solve_tasks: Sequence[SolveTask],
        memory_sizes: Tuple[int, ...],
        store_root: Optional[str],
    ) -> Tuple[List[_TaskOutcome], List[int]]:
        """Largest-first pooled execution; outcomes returned in task order.

        Submission order is the schedule: ``ProcessPoolExecutor`` hands
        queued work to workers FIFO, so submitting by descending size
        estimate makes the dominant solve start first instead of last —
        the difference between ``max(longest task, total/p)`` and a pool
        that idles behind the largest FFT level it started at the end.
        """
        order = list(range(len(solve_tasks)))
        if self._largest_first:
            order.sort(key=lambda i: (-solve_tasks[i].size_estimate, i))
        ranks = [0] * len(solve_tasks)
        for rank, index in enumerate(order):
            ranks[index] = rank
        workers = min(self._processes, len(solve_tasks))
        outcomes: List[Optional[_TaskOutcome]] = [None] * len(solve_tasks)
        initializer = pin_worker_blas_threads if self._pin_blas else None
        # Ship the sweep span's context so workers re-root under it; after
        # the pool drains (even on task failure), fold the per-pid span
        # shards into the main trace file so one sweep reads as one tree.
        tracer = obs.get_tracer()
        context = obs.current_context()
        trace = (context, tracer.path) if tracer is not None and context else None
        try:
            with ProcessPoolExecutor(
                max_workers=workers, initializer=initializer
            ) as pool:
                futures = {
                    index: pool.submit(
                        _execute_task,
                        self._payload(
                            solve_tasks[index], memory_sizes, store_root, trace
                        ),
                    )
                    for index in order
                }
                for index, future in futures.items():
                    outcomes[index] = future.result()
        finally:
            if trace is not None and trace[1] is not None:
                obs.merge_shards(trace[1], trace[1])
        return outcomes, ranks

    def _run_serial(
        self,
        solve_tasks: Sequence[SolveTask],
        memory_sizes: Tuple[int, ...],
    ) -> List[_TaskOutcome]:
        """In-process execution with one cache shared across the whole sweep.

        This preserves the serial harness's strongest guarantee: one
        eigensolve per (graph, normalisation) for the *entire* sweep, even
        when size parameters repeat.  Tasks run in submission order, so
        warm-start-capable backends chain consecutive family levels.
        """
        cache = SpectrumCache(
            max_entries=max(8, 2 * len(solve_tasks)), store=self._store
        )
        outcomes: List[_TaskOutcome] = []
        built: Tuple[Optional[SweepTask], Optional[ComputationGraph]] = (None, None)
        tracer = obs.get_tracer()
        profile_base = tracer.path if tracer is not None else None
        for solve_task in solve_tasks:
            start = time.perf_counter()
            task = solve_task.task
            with obs.span(
                "task",
                family=task.family,
                size_param=task.size_param,
                methods=list(solve_task.methods),
                chunk_index=solve_task.chunk_index,
                num_chunks=solve_task.num_chunks,
            ) as task_span, obs.maybe_profile(profile_base, _task_tag(solve_task)):
                # Method-split tasks of one graph are adjacent (expansion
                # order): build the graph once and reuse it for its siblings.
                if built[0] is task:
                    graph = built[1]
                else:
                    graph = task.build_graph()
                    built = (task, graph)
                chunk = (
                    (solve_task.chunk_index, solve_task.num_chunks)
                    if solve_task.num_chunks > 1
                    else None
                )
                rows, solves, records, cut_stats = evaluate_graph_rows(
                    task.family,
                    task.size_param,
                    graph,
                    memory_sizes,
                    methods=solve_task.methods,
                    num_eigenvalues=self._num_eigenvalues,
                    skip_infeasible=self._skip_infeasible,
                    convex_vertex_cap=self._convex_vertex_cap,
                    max_vertices=self._max_vertices,
                    cache=cache,
                    eig_options=self._eig_options,
                    cut_store=self._cut_store,
                    convex_chunk=chunk,
                )
            span_ids = (
                (task_span.trace_id, task_span.span_id)
                if task_span.trace_id is not None
                else None
            )
            outcomes.append(
                (rows, solves, time.perf_counter() - start, records, cut_stats, span_ids)
            )
        return outcomes
