"""Process-pool orchestration of bound sweeps over graph families.

The paper's figures are *family sweeps*: the same spectral bound evaluated on
every graph of a family for many ``(M, p)`` points.  Each graph's work is
eigensolve-dominated and — because the two normalisations (Theorem 4 vs
Theorem 5) are *independent* eigensolves — the unit of work is one
**(graph, method)** pair, not one graph: :class:`SweepOrchestrator` expands
every (family, size) into one :class:`SolveTask` per method, and one
function runs each of them, in-process for a serial sweep or in a
``concurrent.futures.ProcessPoolExecutor`` worker for a pooled one.

A pooled sweep submits its tasks **largest-first** by a cheap vertex-count
estimate: the dominant task (the family's largest level) starts first
instead of leaving the pool idle behind it.  The convex min-cut baseline's
work is ``O(n)`` *independent* per-vertex max-flow calls, so a pooled
sweep also splits each graph's ``convex-min-cut`` task into one
candidate-vertex **chunk** per worker, scheduled like any other task; chunk
rows are max-merged on reassembly, which is exact because ``max_v`` over a
union of candidate sets is the max of per-chunk maxima.  Rows are
reassembled in task order, so a pooled sweep returns the serial sweep's rows.
The first task that fails stops a pooled sweep: queued tasks are cancelled,
the workers terminated and joined, and that task's exception raised.

Workers never receive a live graph.  A task carries either a picklable
builder callable (the generators are module-level functions) or a
:class:`~repro.runtime.families.GraphSpec`; the worker rehydrates the graph
locally, evaluates every ``M`` through the shared kernel
:func:`repro.analysis.sweep.evaluate_graph_rows`, and — when the
orchestrator was given a persistent :class:`~repro.runtime.store
.SpectrumStore` — publishes every fresh eigensolve (and, through the
sibling :class:`~repro.runtime.store.CutStore`, every fresh min-cut value)
back through the store, so concurrent workers and *future runs* share
results even though each worker process has its own memory cache.

Pool workers start with :func:`pin_worker_blas_threads`, which sets the
BLAS threading variables to 1.  A fork-started worker inherits the OpenBLAS
its parent already loaded, which those variables no longer reach, so each
worker runs as many BLAS threads as the parent: export
``OPENBLAS_NUM_THREADS=1`` before a pooled sweep, or ``p`` workers share the
cores with ``p`` times the BLAS threads.

With ``processes=1`` the orchestrator runs the serial loop the analysis
harness always ran: tasks execute in submission order, one in-memory cache
serves the whole sweep (plus the optional store tier), the tasks of one
graph share its build, and nothing is pickled.
"""

from __future__ import annotations

import ctypes
import os
import time
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.analysis.sweep import METHODS, SweepRow, evaluate_graph_rows
from repro.graphs.compgraph import ComputationGraph
from repro.runtime.families import GraphSpec, estimate_num_vertices, family_builder
from repro.runtime.store import CutStore, SpectrumStore
from repro.solvers.backends import check_solver
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
#: Pool workers set them all to 1: each worker is one schedulable unit, and a
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
    """``ProcessPoolExecutor`` initializer: ask for single-threaded BLAS.

    Sets every unset variable of :data:`BLAS_THREAD_ENV_VARS` to ``1``
    (``setdefault`` keeps an explicit override such as
    ``OMP_NUM_THREADS=2``) and, when :mod:`threadpoolctl` is importable,
    limits the already-loaded libraries through it.  The variables configure
    only a library loaded after they are set: a fork-started worker inherits
    the OpenBLAS its parent loaded and sized at import, so without
    :mod:`threadpoolctl` the worker keeps the parent's thread count.  Export
    ``OPENBLAS_NUM_THREADS=1`` before a pooled sweep to get one BLAS thread
    per worker.
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
    orchestrator expands it into one :class:`SolveTask` per method.
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
    """The schedulable unit: one (graph, method) evaluation.

    ``size_estimate`` orders the pooled queue largest-first.  A pooled
    ``convex-min-cut`` evaluation splits further: ``(chunk_index,
    num_chunks)`` restricts the task to one strided slice of the candidate
    vertices (see :func:`repro.analysis.sweep.convex_candidates`), so one
    graph's ``O(n)`` flow calls interleave with spectral tasks across the
    pool.
    """

    task: SweepTask
    method: str
    size_estimate: int
    chunk_index: int = 0
    num_chunks: int = 1


@dataclass(frozen=True)
class TaskRecord:
    """Per solve-task observability record (surfaces in CLI JSON output).

    Spectral tasks fill ``backend``/``solve_seconds``; convex min-cut tasks
    fill ``flow_calls``/``cut_seconds`` and, when the pool split the
    per-vertex flow calls, their chunk coordinates.
    """

    family: str
    size_param: int
    method: str
    size_estimate: int
    schedule_rank: int
    seconds: float
    num_eigensolves: int
    backend: str
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
        return asdict(self)


@dataclass
class SweepReport:
    """The outcome of one orchestrated sweep."""

    rows: List[SweepRow]
    num_eigensolves: int
    elapsed_seconds: float
    processes: int
    store_root: Optional[str] = None
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


_TaskResult = Tuple[List[SweepRow], TaskRecord]


def _task_tag(solve_task: SolveTask) -> str:
    """Filesystem-safe identity for per-task profile artefacts."""
    task = solve_task.task
    tag = f"{task.family}-{task.size_param}-{solve_task.method}"
    if solve_task.num_chunks > 1:
        tag += f"-c{solve_task.chunk_index}"
    return "".join(c if c.isalnum() or c in "-+_." else "_" for c in tag)


def _run_task(
    solve_task: SolveTask,
    schedule_rank: int,
    options: Dict[str, object],
    cache: SpectrumCache,
    cut_store: Optional[CutStore],
    build_graph: Callable[[SweepTask], ComputationGraph] = SweepTask.build_graph,
    profile_base: Optional[str] = None,
) -> _TaskResult:
    """Run one solve task, timed and traced; return its rows and record.

    ``options`` are the keyword arguments every task of a sweep passes to
    :func:`~repro.analysis.sweep.evaluate_graph_rows` (the memory sizes,
    ``h``, the solver, ...).  The serial loop and the pool worker differ
    only in what else they pass: a cache shared by the whole sweep and a
    builder that reuses the graph of the previous task, or a fresh cache
    and store handles per task.
    """
    start = time.perf_counter()
    task = solve_task.task
    chunk = (
        (solve_task.chunk_index, solve_task.num_chunks)
        if solve_task.num_chunks > 1
        else None
    )
    with obs.span(
        "task",
        family=task.family,
        size_param=task.size_param,
        method=solve_task.method,
        chunk_index=solve_task.chunk_index,
        num_chunks=solve_task.num_chunks,
    ) as task_span, obs.maybe_profile(profile_base, _task_tag(solve_task)):
        rows, eigensolves, records, cut_stats = evaluate_graph_rows(
            task.family,
            task.size_param,
            build_graph(task),
            method=solve_task.method,
            cache=cache,
            cut_store=cut_store,
            convex_chunk=chunk,
            **options,
        )
    seconds = time.perf_counter() - start
    solved = [r for r in records if not r.cache_hit]
    reference = solved[0] if solved else (records[0] if records else None)
    return rows, TaskRecord(
        family=task.family,
        size_param=task.size_param,
        method=solve_task.method,
        size_estimate=solve_task.size_estimate,
        schedule_rank=schedule_rank,
        seconds=seconds,
        num_eigensolves=eigensolves,
        backend=reference.backend if reference is not None else "-",
        solve_seconds=sum(r.solve_seconds for r in solved),
        flow_calls=int(cut_stats["flow_calls"]) if cut_stats else 0,
        cut_seconds=float(cut_stats["cut_seconds"]) if cut_stats else 0.0,
        chunk_index=solve_task.chunk_index,
        num_chunks=solve_task.num_chunks,
        trace_id=task_span.trace_id,
        span_id=task_span.span_id,
    )


def _run_in_worker(
    solve_task: SolveTask,
    schedule_rank: int,
    options: Dict[str, object],
    store_root: Optional[str],
    trace: Optional[Tuple[obs.TraceContext, Optional[str]]],
) -> _TaskResult:
    """Pool-worker entry point: :func:`_run_task` with handles of its own.

    Store handles are not picklable or fork-safe, so each task opens its
    own; the store *directory* is shared, which is how workers publish
    spectra and cut tables to each other and to later runs.  The inherited
    parent tracer is always replaced (fork would share its open file),
    either with a per-pid shard tracer re-rooted under the shipped sweep
    context or with nothing.
    """
    parent_context, shard_base = trace if trace is not None else (None, None)
    obs.worker_configure(parent_context, shard_base)
    store = SpectrumStore(store_root) if store_root else None
    cut_store = CutStore(store_root) if store_root else None
    try:
        return _run_task(
            solve_task,
            schedule_rank,
            options,
            SpectrumCache(store=store),
            cut_store,
            profile_base=shard_base,
        )
    finally:
        _return_freed_heap()


def _return_freed_heap() -> None:
    """Give the heap a finished task freed back to the OS.

    glibc keeps freed memory in the process's heap: after a ``lobpcg``
    task a worker held 89-120 MB instead of 65 MB, and its next dense task
    peaked on top of that.  ``malloc_trim(0)`` returns it; where the C
    library has no such call this does nothing.
    """
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    trim(0)


def _stop_workers(pool: ProcessPoolExecutor, futures: Iterable) -> None:
    """Cancel ``futures`` still queued, then terminate and join the workers.

    Python 3.10-3.13 have no public call that stops a running worker (3.14
    adds ``terminate_workers()``, which does not join), so this is the one
    place that reads the executor's process table, ``_processes``.  Each
    worker is joined, not only signalled: an unreaped zombie still answers
    ``kill(pid, 0)``, and the store's same-host dead-pid check reclaims a
    lease only once that pid is gone.
    """
    for future in futures:
        future.cancel()
    workers = list((pool._processes or {}).values())
    for worker in workers:
        worker.terminate()
    for worker in workers:
        worker.join()


def _merge_chunk_rows(chunk_rows: List[List[SweepRow]]) -> List[SweepRow]:
    """Combine the rows of one (graph, method)'s tasks: a pooled convex
    task's chunks, or a single task, whose rows keep their values.

    Every chunk evaluates the same ``M`` grid over a disjoint slice of the
    candidate vertices, so the merged bound at each grid point is the
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
            replace(
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
        ``os.cpu_count()``.  A pooled sweep submits its tasks largest-first
        and splits each graph's convex min-cut task into one chunk per
        worker.
    num_eigenvalues, skip_infeasible, convex_vertex_cap, max_vertices:
        Forwarded to :func:`repro.analysis.sweep.evaluate_graph_rows`.
    solver:
        ``"auto"`` or a backend id, forwarded to every engine and worker
        (``--solver`` on the CLI); anything else raises
        :class:`ValueError` here.

    Pool workers start with :func:`pin_worker_blas_threads`, which does
    not reach the OpenBLAS a fork-started worker inherits: export
    ``OPENBLAS_NUM_THREADS=1`` before a pooled sweep.
    """

    def __init__(
        self,
        store: Union[SpectrumStore, str, Path, None] = None,
        processes: Optional[int] = 1,
        num_eigenvalues: int = 100,
        skip_infeasible: bool = True,
        convex_vertex_cap: Optional[int] = None,
        max_vertices: Optional[Dict[str, int]] = None,
        solver: str = "auto",
    ) -> None:
        self._solver = check_solver(solver)
        if isinstance(store, (str, Path)):
            store = SpectrumStore(store)
        self._store = store
        self._cut_store = CutStore(store.root) if store is not None else None
        if processes is None:
            processes = os.cpu_count() or 1
        if processes < 1:
            raise ValueError(f"processes must be positive, got {processes}")
        self._processes = int(processes)
        self._num_eigenvalues = int(num_eigenvalues)
        self._skip_infeasible = bool(skip_infeasible)
        self._convex_vertex_cap = convex_vertex_cap
        self._max_vertices = max_vertices

    @property
    def store(self) -> Optional[SpectrumStore]:
        return self._store

    @property
    def processes(self) -> int:
        return self._processes

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
        method_tuple = tuple(methods)
        # Validate eagerly: a typo'd method must fail before any graph is
        # built (and before it would surface as a pickled pool exception).
        for method in method_tuple:
            if method not in METHODS:
                raise ValueError(
                    f"unknown method {method!r}; expected one of {METHODS}"
                )
        options = dict(
            memory_sizes=tuple(int(M) for M in memory_sizes),
            num_eigenvalues=self._num_eigenvalues,
            skip_infeasible=self._skip_infeasible,
            convex_vertex_cap=self._convex_vertex_cap,
            max_vertices=self._max_vertices,
            solver=self._solver,
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
                results = self._run_serial(solve_tasks, options)
            else:
                results = self._run_pooled(solve_tasks, options, store_root)
        rows: List[SweepRow] = []
        index = 0
        while index < len(results):
            # A pooled convex task's chunks are adjacent by construction;
            # their rows merge into one row group.
            stop = index + solve_tasks[index].num_chunks
            rows.extend(_merge_chunk_rows([r for r, _ in results[index:stop]]))
            index = stop
        records = [record for _, record in results]
        return SweepReport(
            rows=rows,
            num_eigensolves=sum(r.num_eigensolves for r in records),
            elapsed_seconds=time.perf_counter() - start,
            processes=self._processes,
            store_root=store_root,
            tasks=records,
            num_flow_calls=sum(r.flow_calls for r in records),
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _expand(
        self, tasks: Sequence[SweepTask], methods: Tuple[str, ...]
    ) -> List[SolveTask]:
        """One solve task per (graph, method), in row order.

        A pooled sweep splits each convex min-cut task further into one
        candidate-vertex chunk per worker, so a single graph's ``O(n)`` flow
        calls spread across the pool instead of serialising on one worker
        while eigensolves run elsewhere.
        """
        solve_tasks: List[SolveTask] = []
        for task in tasks:
            estimate = task.estimate_num_vertices()
            for method in methods:
                chunks = self._processes if method == "convex-min-cut" else 1
                for chunk_index in range(chunks):
                    solve_tasks.append(
                        SolveTask(task, method, estimate // chunks, chunk_index, chunks)
                    )
        return solve_tasks

    def _run_pooled(
        self,
        solve_tasks: Sequence[SolveTask],
        options: Dict[str, object],
        store_root: Optional[str],
    ) -> List[_TaskResult]:
        """Largest-first pooled execution; results returned in task order.

        Submission order is the schedule: ``ProcessPoolExecutor`` hands
        queued work to workers FIFO, so submitting by descending size
        estimate makes the dominant solve start first instead of last —
        the difference between ``max(longest task, total/p)`` and a pool
        that idles behind the largest FFT level it started at the end.
        """
        order = sorted(
            range(len(solve_tasks)),
            key=lambda i: (-solve_tasks[i].size_estimate, i),
        )
        # Ship the sweep span's context so workers re-root under it; after
        # the pool drains (even on task failure), fold the per-pid span
        # shards into the main trace file so one sweep reads as one tree.
        tracer = obs.get_tracer()
        context = obs.current_context()
        trace = (context, tracer.path) if tracer is not None and context else None
        pool = ProcessPoolExecutor(
            max_workers=min(self._processes, len(solve_tasks)),
            initializer=pin_worker_blas_threads,
        )
        futures: list = [None] * len(solve_tasks)
        try:
            for rank, index in enumerate(order):
                futures[index] = pool.submit(
                    _run_in_worker, solve_tasks[index], rank, options, store_root, trace
                )
            # Fail fast: the first failed task stops the sweep, instead of
            # waiting for every task already running to finish.
            done, _ = wait(futures, return_when=FIRST_EXCEPTION)
            failed = [f for f in futures if f in done and f.exception() is not None]
            if failed:
                raise failed[0].exception()
            return [future.result() for future in futures]
        except BaseException:
            _stop_workers(pool, [future for future in futures if future is not None])
            raise
        finally:
            pool.shutdown(wait=True)
            if trace is not None and trace[1] is not None:
                obs.merge_shards(trace[1], trace[1])

    def _run_serial(
        self,
        solve_tasks: Sequence[SolveTask],
        options: Dict[str, object],
    ) -> List[_TaskResult]:
        """In-process execution with one cache shared across the whole sweep.

        This preserves the serial harness's strongest guarantee: one
        eigensolve per (graph, normalisation) for the *entire* sweep, even
        when size parameters repeat.  Tasks run in submission order, and
        the tasks of one graph, adjacent by construction, share one build.
        """
        cache = SpectrumCache(
            max_entries=max(8, 2 * len(solve_tasks)), store=self._store
        )
        tracer = obs.get_tracer()
        profile_base = tracer.path if tracer is not None else None
        last: list = [None, None]

        def build_graph(task: SweepTask) -> ComputationGraph:
            if last[0] is not task:
                last[:] = [task, task.build_graph()]
            return last[1]

        return [
            _run_task(
                solve_task,
                rank,
                options,
                cache,
                self._cut_store,
                build_graph,
                profile_base,
            )
            for rank, solve_task in enumerate(solve_tasks)
        ]
