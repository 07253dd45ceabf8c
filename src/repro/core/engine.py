"""One-stop execution engine for the spectral I/O bounds.

The paper's workflow is "take a computation graph, solve for the ``h``
smallest Laplacian eigenvalues once, then evaluate the Theorem 4/5/6
expression for every memory size, processor count and ``k``".  Before this
module existed, each public bound function re-assembled the Laplacian and
re-ran the eigensolve from scratch, so a Figure-7-style sweep paid the
dominant cost |M| x |methods| times per graph.

:class:`BoundEngine` owns a graph and a :class:`~repro.solvers.spectrum_cache.
SpectrumCache`; every bound it produces shares the cached spectra, so a full
sweep performs exactly one eigensolve per (graph, normalisation).  The public
functions in :mod:`repro.core.bounds` are thin wrappers over an engine, and
the sweep/benchmark harness builds one engine per graph.

Timing attribution: every result carries ``elapsed_seconds`` (wall time of
*that* call, which includes the eigensolve only for the call that actually
triggered it) and ``eig_elapsed_seconds`` (the cost of the eigensolve behind
the spectrum used, repeated on every result for attribution).  Summing
``elapsed_seconds`` over a sweep therefore counts the eigensolve exactly
once.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.core.formula import (
    DEFAULT_NUM_EIGENVALUES,
    evaluate_bound_formula,
    resolve_k_candidates,
)
from repro.core.result import ParallelBoundResult, SpectralBoundResult
from repro.graphs.compgraph import ComputationGraph
from repro.solvers.backend import EigenSolverOptions
from repro.solvers.spectrum_cache import (
    CachedSpectrum,
    SpectrumCache,
    default_spectrum_cache,
)
from repro.utils.validation import check_memory_size, check_positive_int

__all__ = ["BoundEngine", "SweepPoint", "SolveRecord", "SWEEP_METHODS"]

KSpec = Optional[Union[int, Sequence[int]]]

#: Bound methods understood by :meth:`BoundEngine.sweep`.
SWEEP_METHODS = ("spectral", "spectral-unnormalized")


@dataclass(frozen=True)
class SolveRecord:
    """One spectrum fetch performed by an engine (for observability).

    ``backend``/``dtype`` come from the backend registry via the cache;
    ``cache_hit`` distinguishes real eigensolves from served lookups, and
    ``solve_seconds`` is the cost of the underlying solve either way.
    ``trace_id``/``span_id`` link the fetch into the active trace (the
    enclosing span at fetch time) when tracing is enabled, ``None``
    otherwise — JSON outputs carry the link instead of duplicating
    timing fields.
    """

    normalized: bool
    num_eigenvalues: int
    backend: str
    dtype: str
    solve_seconds: float
    cache_hit: bool
    trace_id: Optional[str] = None
    span_id: Optional[str] = None


@dataclass(frozen=True)
class SweepPoint:
    """One (method, memory size, processor count) evaluation of a sweep."""

    method: str
    memory_size: int
    num_processors: int
    result: Union[SpectralBoundResult, ParallelBoundResult]

    @property
    def bound(self) -> float:
        """The (clamped) bound value of this point."""
        return self.result.value


class BoundEngine:
    """Compute spectral I/O lower bounds for one graph with shared spectra.

    Parameters
    ----------
    graph:
        The computation graph to bound.
    num_eigenvalues:
        Default truncation ``h`` for the ``k`` sweep (§6.1 of the paper).
    eig_options:
        Eigensolver configuration forwarded to the backend.
    sparse:
        Force sparse/dense Laplacian assembly (``None`` decides by size).
    cache:
        The :class:`SpectrumCache` to use.  ``None`` uses the process-wide
        default cache, so engines on the same graph share eigensolves even
        across call sites.
    store:
        Optional :class:`~repro.runtime.store.SpectrumStore`: when given
        (and no explicit ``cache``), the engine builds a private cache with
        the store as its persistent second tier, so eigensolves are shared
        across processes and runs.  Mutually exclusive with ``cache`` — a
        cache carries its own store.
    lineage:
        Optional family-lineage tag (e.g. ``"fft"``) forwarded to the
        spectrum cache: warm-start-capable backends seed their solves from
        the previous solve of the same lineage in the shared
        :class:`~repro.solvers.backends.WarmStartContext`.

    Examples
    --------
    >>> from repro.graphs.generators import fft_graph
    >>> engine = BoundEngine(fft_graph(6))
    >>> r1 = engine.spectral(M=4)        # eigensolve happens here
    >>> r2 = engine.spectral(M=8)        # served from the cached spectrum
    >>> engine.num_eigensolves
    1
    """

    def __init__(
        self,
        graph: ComputationGraph,
        num_eigenvalues: int = DEFAULT_NUM_EIGENVALUES,
        eig_options: Optional[EigenSolverOptions] = None,
        sparse: Optional[bool] = None,
        cache: Optional[SpectrumCache] = None,
        store=None,
        lineage: Optional[str] = None,
    ) -> None:
        check_positive_int(num_eigenvalues, "num_eigenvalues")
        self._graph = graph
        self._num_eigenvalues = int(num_eigenvalues)
        self._eig_options = eig_options
        self._sparse = sparse
        self._lineage = lineage
        # Observability log: misses (real eigensolves, at most a handful per
        # engine — one per distinct (normalization, h)) are kept in full so
        # long sweeps can't evict them; hits are kept as a small recent
        # window (they carry no information beyond the serving backend).
        self._miss_log: Deque[SolveRecord] = deque(maxlen=256)
        self._hit_log: Deque[SolveRecord] = deque(maxlen=16)
        if cache is not None:
            if store is not None:
                raise ValueError(
                    "pass either cache or store, not both (a cache carries its own store)"
                )
            self._cache = cache
        elif store is not None:
            self._cache = SpectrumCache(store=store)
        else:
            self._cache = default_spectrum_cache()
        self._eigensolves = 0

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def graph(self) -> ComputationGraph:
        return self._graph

    @property
    def num_eigenvalues(self) -> int:
        return self._num_eigenvalues

    @property
    def cache(self) -> SpectrumCache:
        return self._cache

    @property
    def num_eigensolves(self) -> int:
        """Eigensolves triggered *by this engine* (cache hits excluded)."""
        return self._eigensolves

    @property
    def solve_log(self) -> List[SolveRecord]:
        """Spectrum fetches: every eigensolve plus a window of recent hits."""
        return list(self._miss_log) + list(self._hit_log)

    # ------------------------------------------------------------------
    # spectra
    # ------------------------------------------------------------------
    def spectrum(self, normalized: bool = True, num_eigenvalues: Optional[int] = None) -> np.ndarray:
        """The smallest Laplacian eigenvalues this engine's bounds consume.

        ``normalized=True`` returns eigenvalues of ``L~`` (Theorem 4);
        ``normalized=False`` returns ``lambda(L) / max_out_degree``
        (Theorem 5).  Cached: repeated calls solve at most once.
        """
        n = self._graph.num_vertices
        if n == 0:
            return np.zeros(0)
        if num_eigenvalues is None:
            num_eigenvalues = self._num_eigenvalues
        else:
            check_positive_int(num_eigenvalues, "num_eigenvalues")
        h = min(max(2, num_eigenvalues), n)
        return self._fetch_spectrum(h, normalized).eigenvalues

    def _fetch_spectrum(self, h: int, normalized: bool) -> CachedSpectrum:
        fetched = self._cache.spectrum(
            self._graph,
            h,
            normalized=normalized,
            eig_options=self._eig_options,
            sparse=self._sparse,
            lineage=self._lineage,
        )
        if not fetched.cache_hit:
            self._eigensolves += 1
        context = obs.current_context()
        record = SolveRecord(
            normalized=normalized,
            num_eigenvalues=h,
            backend=fetched.backend,
            dtype=fetched.dtype,
            solve_seconds=fetched.solve_seconds,
            cache_hit=fetched.cache_hit,
            trace_id=context.trace_id if context else None,
            span_id=context.span_id if context else None,
        )
        (self._hit_log if fetched.cache_hit else self._miss_log).append(record)
        return fetched

    # ------------------------------------------------------------------
    # bounds
    # ------------------------------------------------------------------
    def spectral(self, M: int, k: KSpec = None) -> SpectralBoundResult:
        """Theorem 4 bound (out-degree-normalised Laplacian ``L~``)."""
        return self._spectral_result(M, k, normalized=True)

    # An alias, not a second path: ``spectral-coarse`` answers the exact
    # bound, and perfbench's stage timers wrap this name.
    spectral_interval = spectral

    def unnormalized(self, M: int, k: KSpec = None) -> SpectralBoundResult:
        """Theorem 5 bound (ordinary Laplacian scaled by ``1/max d_out``)."""
        return self._spectral_result(M, k, normalized=False)

    def parallel(
        self,
        M: int,
        num_processors: int,
        k: KSpec = None,
        normalized: bool = True,
    ) -> ParallelBoundResult:
        """Theorem 6 bound: ``p`` processors with fast memory ``M`` each."""
        check_memory_size(M)
        check_positive_int(num_processors, "num_processors")
        start = time.perf_counter()
        n = self._graph.num_vertices
        if n == 0:
            return ParallelBoundResult(
                **self._empty_result_fields(M, start), num_processors=num_processors
            )
        lam, fetched = self._spectrum_for(k, normalized)
        raw_best, best_k, per_k = evaluate_bound_formula(
            lam, n, M, k=k, num_processors=num_processors
        )
        return ParallelBoundResult(
            value=max(0.0, raw_best),
            raw_value=raw_best,
            best_k=best_k,
            num_vertices=n,
            memory_size=M,
            num_processors=num_processors,
            num_eigenvalues=int(lam.shape[0]),
            eigenvalues=tuple(float(x) for x in lam),
            per_k_values=per_k,
            elapsed_seconds=time.perf_counter() - start,
            eig_elapsed_seconds=fetched.solve_seconds,
        )

    def sweep(
        self,
        memory_sizes: Iterable[int],
        processors: Union[int, Iterable[int]] = (1,),
        methods: Sequence[str] = ("spectral",),
        k: KSpec = None,
    ) -> List[SweepPoint]:
        """Batch-evaluate bounds over memory sizes, processor counts, methods.

        The heavy work — one eigensolve per requested normalisation — happens
        once; every (M, p, method) combination is then a vectorised formula
        evaluation.  ``processors`` may be a single ``p`` or an iterable;
        ``p = 1`` points carry :class:`SpectralBoundResult` (the sequential
        Theorems 4/5) and ``p > 1`` points :class:`ParallelBoundResult`
        (Theorem 6).

        Returns one :class:`SweepPoint` per combination, ordered by
        (method, processors, memory size).
        """
        for method in methods:
            if method not in SWEEP_METHODS:
                raise ValueError(
                    f"unknown method {method!r}; expected one of {SWEEP_METHODS}"
                )
        if isinstance(processors, (int, np.integer)):
            processors = (int(processors),)
        proc_list = [int(p) for p in processors]
        for p in proc_list:
            check_positive_int(p, "num_processors")
        memory_list = [int(M) for M in memory_sizes]
        points: List[SweepPoint] = []
        for method in methods:
            normalized = method != "spectral-unnormalized"
            for p in proc_list:
                for M in memory_list:
                    result: Union[SpectralBoundResult, ParallelBoundResult]
                    if p == 1:
                        result = self._spectral_result(M, k, normalized=normalized)
                    else:
                        result = self.parallel(M, p, k=k, normalized=normalized)
                    points.append(
                        SweepPoint(
                            method=method,
                            memory_size=M,
                            num_processors=p,
                            result=result,
                        )
                    )
        return points

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _spectrum_for(self, k: KSpec, normalized: bool) -> Tuple[np.ndarray, CachedSpectrum]:
        """Eigenvalues sized for the requested ``k`` sweep."""
        n = self._graph.num_vertices
        h, _ = resolve_k_candidates(n, self._num_eigenvalues, k)
        h = min(max(2, h), n)
        fetched = self._fetch_spectrum(h, normalized)
        return fetched.eigenvalues, fetched

    @staticmethod
    def _empty_result_fields(M: int, start: float) -> dict:
        """Shared fields of the trivial result for the empty graph."""
        return dict(
            value=0.0,
            raw_value=0.0,
            best_k=1,
            num_vertices=0,
            memory_size=M,
            num_eigenvalues=0,
            eigenvalues=(),
            per_k_values={},
            elapsed_seconds=time.perf_counter() - start,
        )

    def _spectral_result(self, M: int, k: KSpec, normalized: bool) -> SpectralBoundResult:
        check_memory_size(M)
        start = time.perf_counter()
        n = self._graph.num_vertices
        if n == 0:
            return SpectralBoundResult(
                **self._empty_result_fields(M, start), normalized=normalized
            )
        lam, fetched = self._spectrum_for(k, normalized)
        raw_best, best_k, per_k = evaluate_bound_formula(lam, n, M, k=k)
        return SpectralBoundResult(
            value=max(0.0, raw_best),
            raw_value=raw_best,
            best_k=best_k,
            num_vertices=n,
            memory_size=M,
            normalized=normalized,
            num_eigenvalues=int(lam.shape[0]),
            eigenvalues=tuple(float(x) for x in lam),
            per_k_values=per_k,
            elapsed_seconds=time.perf_counter() - start,
            eig_elapsed_seconds=fetched.solve_seconds,
        )
