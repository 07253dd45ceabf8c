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

import threading
import time
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.core.formula import DEFAULT_NUM_EIGENVALUES, _k_sweep, resolve_k_candidates
from repro.core.result import ParallelBoundResult, SpectralBoundResult
from repro.graphs.compgraph import ComputationGraph
from repro.solvers.backends import check_solver
from repro.solvers.spectrum_cache import (
    CachedSpectrum,
    SpectrumCache,
    default_spectrum_cache,
)
from repro.utils.validation import check_memory_size, check_positive_int

__all__ = ["BoundEngine", "SweepPoint", "SWEEP_METHODS"]

KSpec = Optional[Union[int, Sequence[int]]]

#: Bound methods understood by :meth:`BoundEngine.sweep`.
SWEEP_METHODS = ("spectral", "spectral-unnormalized")


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
    solver:
        ``"auto"`` (the default: routed by size) or a backend id
        (``"dense"``, ``"lobpcg"``, ``"amg"``); anything else raises
        :class:`ValueError` here.
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
        Optional family name (e.g. ``"fft"``) the spectrum cache records
        with fresh solves in its store (``cache clear --family`` filters on
        it).

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
        solver: str = "auto",
        cache: Optional[SpectrumCache] = None,
        store=None,
        lineage: Optional[str] = None,
    ) -> None:
        check_positive_int(num_eigenvalues, "num_eigenvalues")
        self._graph = graph
        self._num_eigenvalues = int(num_eigenvalues)
        self._solver = check_solver(solver)
        self._lineage = lineage
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
        # One engine serves many threads (BoundService), so the solve
        # counters are updated under a lock.
        self._counter_lock = threading.Lock()
        self._eigensolves = 0
        self._eigensolve_seconds = 0.0
        self._backend: Optional[str] = None

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
    def eigensolve_seconds(self) -> float:
        """Wall time of the eigensolves counted in :attr:`num_eigensolves`."""
        return self._eigensolve_seconds

    @property
    def backend(self) -> Optional[str]:
        """The resolved backend id of the last spectrum fetched (``None``
        before the first fetch)."""
        return self._backend

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
            solver=self._solver,
            lineage=self._lineage,
        )
        self._backend = fetched.backend
        if not fetched.cache_hit:
            with self._counter_lock:
                self._eigensolves += 1
                self._eigensolve_seconds += fetched.solve_seconds
        return fetched

    # ------------------------------------------------------------------
    # bounds
    # ------------------------------------------------------------------
    def spectral(self, M: int, k: KSpec = None) -> SpectralBoundResult:
        """Theorem 4 bound (out-degree-normalised Laplacian ``L~``)."""
        return self._result(M, k, True, None)

    # An alias, not a second path: ``spectral-coarse`` answers the exact
    # bound, and perfbench's stage timers wrap this name.
    spectral_interval = spectral

    def unnormalized(self, M: int, k: KSpec = None) -> SpectralBoundResult:
        """Theorem 5 bound (ordinary Laplacian scaled by ``1/max d_out``)."""
        return self._result(M, k, False, None)

    def parallel(
        self,
        M: int,
        num_processors: int,
        k: KSpec = None,
        normalized: bool = True,
    ) -> ParallelBoundResult:
        """Theorem 6 bound: ``p`` processors with fast memory ``M`` each."""
        return self._result(M, k, normalized, num_processors)

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
                    result = self._result(M, k, normalized, None if p == 1 else p)
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
    def _result(
        self, M: int, k: KSpec, normalized: bool, num_processors: Optional[int]
    ) -> Union[SpectralBoundResult, ParallelBoundResult]:
        """Build every bound result: Theorem 4/5 when ``num_processors`` is
        ``None``, Theorem 6 otherwise.

        The public bound methods and :meth:`sweep` each call this directly,
        never one another, so a stage timer wrapped around any of them times
        each bound once.
        """
        check_memory_size(M)
        p = 1
        if num_processors is not None:
            p = check_positive_int(num_processors, "num_processors")
        start = time.perf_counter()
        n = self._graph.num_vertices
        raw_value, best_k, num_eigenvalues, solve_seconds = 0.0, 1, 0, 0.0
        if n:
            # M and p are checked above and k here, once: the sweep itself
            # takes them as given.
            h, candidates = resolve_k_candidates(n, self._num_eigenvalues, k)
            fetched = self._fetch_spectrum(min(max(2, h), n), normalized)
            raw_value, best_k, _, _ = _k_sweep(
                fetched.eigenvalues, n, M, None if k is None else candidates, p
            )
            num_eigenvalues = fetched.eigenvalues.shape[0]
            solve_seconds = fetched.solve_seconds
        if num_processors is None:
            return SpectralBoundResult(
                value=max(0.0, raw_value),
                raw_value=raw_value,
                best_k=best_k,
                num_vertices=n,
                memory_size=M,
                normalized=normalized,
                num_eigenvalues=num_eigenvalues,
                elapsed_seconds=time.perf_counter() - start,
                eig_elapsed_seconds=solve_seconds,
            )
        return ParallelBoundResult(
            value=max(0.0, raw_value),
            raw_value=raw_value,
            best_k=best_k,
            num_vertices=n,
            memory_size=M,
            num_processors=p,
            num_eigenvalues=num_eigenvalues,
            elapsed_seconds=time.perf_counter() - start,
            eig_elapsed_seconds=solve_seconds,
        )
