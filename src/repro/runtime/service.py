"""Long-running batch bound service over a warm spectrum store.

:class:`BoundService` is the serving layer of the runtime subsystem: a
process holds one service instance for its lifetime, and clients submit
*batches* of ``(graph-ref, M, p, normalization)`` queries.  The service keeps
a small LRU of :class:`~repro.core.engine.BoundEngine` instances (one per
distinct graph reference) over a single shared
:class:`~repro.solvers.spectrum_cache.SpectrumCache`, optionally backed by a
persistent :class:`~repro.runtime.store.SpectrumStore` — so against a warm
store the service answers whole batches without a single eigensolve, and a
cold graph pays its eigensolve exactly once for every future query on it.

The CLI's ``solve`` subcommand is a thin wrapper over one service call, and
the :mod:`repro.server` subsystem is exactly the promised HTTP front-end: it
JSON-decodes requests into :class:`BoundQuery` objects and calls
:meth:`BoundService.submit` (``python -m repro serve``).
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro import obs
from repro.baselines.convex_mincut import MinCutEngine
from repro.core.engine import BoundEngine
from repro.graphs.compgraph import ComputationGraph
from repro.runtime.families import GraphSpec
from repro.runtime.store import CutStore, SpectrumStore
from repro.solvers.backends import EigenSolverOptions
from repro.solvers.spectrum_cache import SpectrumCache

__all__ = [
    "BoundQuery",
    "BoundAnswer",
    "BoundService",
    "KNOWN_METHODS",
    "KNOWN_NORMALIZATIONS",
]

GraphRef = Union[GraphSpec, ComputationGraph, str]

#: Accepted spellings of the two normalisations (Theorem 4 vs Theorem 5).
_NORMALIZATIONS = {
    "normalized": True,
    "spectral": True,
    "unnormalized": False,
    "spectral-unnormalized": False,
}

#: The closed vocabularies of :class:`BoundQuery` — the HTTP protocol
#: validates against these *before* anything client-supplied can reach a
#: metrics label (unbounded label values would grow /metrics forever).
KNOWN_NORMALIZATIONS = frozenset(_NORMALIZATIONS)
KNOWN_METHODS = frozenset({"spectral", "spectral-coarse", "convex-min-cut"})


@dataclass(frozen=True)
class BoundQuery:
    """One bound request.

    ``graph`` may be a :class:`GraphSpec`, a path to a saved graph
    (``.npz``/``.json``), or a live :class:`ComputationGraph`.
    ``method="convex-min-cut"`` routes to the baseline (``normalization``
    and ``num_processors`` are then ignored); the default ``"spectral"``
    keeps the Theorem 4/5/6 behaviour selected by ``normalization``.
    ``"spectral-coarse"`` is an alias of ``"spectral"`` kept for clients
    that still send it (see :class:`BoundAnswer`).
    """

    graph: GraphRef
    memory_size: int
    num_processors: int = 1
    normalization: str = "normalized"
    k: Optional[int] = None
    method: str = "spectral"


@dataclass(frozen=True)
class BoundAnswer:
    """The structured result of one :class:`BoundQuery`.

    ``bound_lo``/``bound_hi`` are populated only for ``spectral-coarse``
    queries, and both equal ``bound``: the alias answers the exact bound,
    a zero-width interval that still brackets it.

    ``trace_id`` links the answer to the query span that produced it when
    tracing is enabled.  ``eig_elapsed_seconds`` is the cost of the
    eigensolve behind the answer, which a warm answer reports too (it did
    not pay it); only the ``eigensolve`` spans of a trace count each solve
    once.
    """

    graph: str
    memory_size: int
    num_processors: int
    normalization: str
    bound: float
    raw_value: float
    best_k: Optional[int]
    num_vertices: int
    elapsed_seconds: float
    eig_elapsed_seconds: float
    bound_lo: Optional[float] = None
    bound_hi: Optional[float] = None
    trace_id: Optional[str] = None

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


class BoundService:
    """Serve batches of spectral bound queries against shared warm caches.

    Parameters
    ----------
    store:
        Persistent spectrum store (instance, root path, or ``None``).
    num_eigenvalues:
        Default ``h`` truncation for every engine the service builds.
    max_engines:
        LRU budget of per-graph engines kept alive between batches.
    eig_options:
        Solver options forwarded to every engine.

    Cold work passes :attr:`admission`, when set: each eigensolve, and each
    convex min-cut pass that needs a max-flow.  Warm lookups, store hits
    and waiters on another thread's solve never take a slot.
    """

    def __init__(
        self,
        store: Union[SpectrumStore, str, Path, None] = None,
        num_eigenvalues: int = 100,
        max_engines: int = 64,
        eig_options: Optional[EigenSolverOptions] = None,
    ) -> None:
        if isinstance(store, (str, Path)):
            store = SpectrumStore(store)
        if max_engines < 1:
            raise ValueError(f"max_engines must be positive, got {max_engines}")
        self._cache = SpectrumCache(max_entries=max(128, 4 * max_engines), store=store)
        self._cut_store = (
            CutStore(store.root, lease_ttl=store.lease_ttl) if store is not None else None
        )
        self._num_eigenvalues = int(num_eigenvalues)
        self._eig_options = eig_options
        self._max_engines = int(max_engines)
        self._engines: "OrderedDict[object, BoundEngine]" = OrderedDict()
        self._mincut_engines: "OrderedDict[object, MinCutEngine]" = OrderedDict()
        self._lock = threading.Lock()
        self._queries_served = 0
        self._deduped = 0
        # Cumulative across the service lifetime — engines evicted from the
        # LRU must not take their flow-call history with them.
        self._flow_calls = 0

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def cache(self) -> SpectrumCache:
        return self._cache

    @property
    def store(self) -> Optional[SpectrumStore]:
        return self._cache.store

    @property
    def admission(self):
        """The gate (duck-typed ``slot()``) around every cold solve of this
        service, or ``None``; :class:`~repro.server.runner.BoundServer`
        sets its admission controller here."""
        return self._cache.admission

    @admission.setter
    def admission(self, gate) -> None:
        self._cache.admission = gate

    def counters(self) -> Dict[str, int]:
        """The in-memory counters alone — cheap enough for every ``/metrics``
        scrape (:meth:`stats` additionally reads the on-disk store catalog).
        """
        return {
            "queries_served": self._queries_served,
            "deduped": self._deduped,
            "engines_cached": len(self._engines),
            "cache_hits": self._cache.hits,
            "cache_misses": self._cache.misses,
            "store_hits": self._cache.store_hits,
            "lease_leaders": self._cache.lease_leaders,
            "lease_followers": self._cache.lease_followers,
            "mincut_engines_cached": len(self._mincut_engines),
            "flow_calls": self._flow_calls,
        }

    def stats(self) -> Dict[str, object]:
        """Service counters plus the cache/store tiers' statistics."""
        stats: Dict[str, object] = dict(self.counters())
        if self.store is not None:
            stats["store"] = self.store.stats()
        if self._cut_store is not None:
            stats["cut_store"] = self._cut_store.stats()
        return stats

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def submit(self, queries: Sequence[BoundQuery]) -> List[BoundAnswer]:
        """Answer a batch of queries, in input order.

        Identical queries within one batch are solved once and the answer is
        fanned out to every duplicate position (the ``deduped`` counter in
        :meth:`stats` tallies the positions served for free).  Queries on
        the same graph reference share one engine (and therefore one
        eigensolve per normalisation at most); across batches, engines and
        spectra persist in the service's caches.  Batches from multiple
        threads run concurrently: the service lock guards only the engine
        registry, the spectrum cache's lock only its lookups, and
        :attr:`admission` only cold solves.  So one client's cold eigensolve
        does not stall another client's warm batch, and a client needing
        the same cold spectrum waits for that one solve instead of starting
        its own.
        """
        answers: List[BoundAnswer] = []
        first_seen: Dict[BoundQuery, int] = {}
        deduped = 0
        for index, query in enumerate(queries):
            original = first_seen.setdefault(query, index)
            if original == index:
                answers.append(self._answer(query))
            else:
                answers.append(answers[original])
                deduped += 1
        with self._lock:
            self._queries_served += len(queries)
            self._deduped += deduped
        return answers

    def solve(self, query: BoundQuery) -> BoundAnswer:
        """Convenience wrapper: a batch of one."""
        return self.submit([query])[0]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _answer(self, query: BoundQuery) -> BoundAnswer:
        with obs.span(
            "query",
            method=query.method,
            memory_size=int(query.memory_size),
            normalization=query.normalization,
        ) as active:
            answer = self._answer_inner(query)
        if active.trace_id is not None:
            answer = dataclasses.replace(answer, trace_id=active.trace_id)
        return answer

    def _answer_inner(self, query: BoundQuery) -> BoundAnswer:
        if query.method == "convex-min-cut":
            return self._answer_mincut(query)
        if query.method not in KNOWN_METHODS:
            raise ValueError(
                f"unknown method {query.method!r}; expected one of "
                f"{sorted(KNOWN_METHODS)}"
            )
        try:
            normalized = _NORMALIZATIONS[query.normalization]
        except KeyError:
            raise ValueError(
                f"unknown normalization {query.normalization!r}; expected one of "
                f"{sorted(_NORMALIZATIONS)}"
            )
        engine, description = self._engine_for(query.graph)
        start = time.perf_counter()
        if int(query.num_processors) == 1:
            if normalized:
                result = engine.spectral(query.memory_size, k=query.k)
            else:
                result = engine.unnormalized(query.memory_size, k=query.k)
        else:
            result = engine.parallel(
                query.memory_size,
                int(query.num_processors),
                k=query.k,
                normalized=normalized,
            )
        # ``spectral-coarse`` is an alias of ``spectral``: the exact bound,
        # reported as the zero-width interval ``[bound, bound]``.
        point = result.value if query.method == "spectral-coarse" else None
        return BoundAnswer(
            graph=description,
            memory_size=int(query.memory_size),
            num_processors=int(query.num_processors),
            normalization="normalized" if normalized else "unnormalized",
            bound=result.value,
            raw_value=result.raw_value,
            best_k=result.best_k,
            num_vertices=result.num_vertices,
            elapsed_seconds=time.perf_counter() - start,
            eig_elapsed_seconds=result.eig_elapsed_seconds,
            bound_lo=point,
            bound_hi=point,
        )

    def _answer_mincut(self, query: BoundQuery) -> BoundAnswer:
        """Serve one convex min-cut query through a (cached) MinCutEngine."""
        engine, description = self._mincut_engine_for(query.graph)
        start = time.perf_counter()
        # Read the flow count under the engine's lock: a query that waited
        # out another thread's pass must not count that pass's flows too.
        # The lock also makes the engine this pass's alone, gate included.
        with engine.lock:
            engine.admission = self.admission
            flows_before = engine.flow_calls
            best_cut, _ = engine.max_cut()
            flows = engine.flow_calls - flows_before
        with self._lock:
            self._flow_calls += flows
        bound = max(0.0, 2.0 * (best_cut - int(query.memory_size)))
        return BoundAnswer(
            graph=description,
            memory_size=int(query.memory_size),
            num_processors=1,
            normalization="-",
            bound=bound,
            raw_value=2.0 * (best_cut - int(query.memory_size)),
            best_k=None,
            num_vertices=engine.graph.num_vertices,
            elapsed_seconds=time.perf_counter() - start,
            eig_elapsed_seconds=0.0,
        )

    @staticmethod
    def _ref_key(ref: GraphRef):
        """The LRU key and display name of a graph reference."""
        if isinstance(ref, ComputationGraph):
            return id(ref), f"graph:{ref.fingerprint()[:12]}"
        if isinstance(ref, GraphSpec):
            return ref, ref.describe()
        if isinstance(ref, str):
            return ref, GraphSpec(path=ref).describe()
        raise TypeError(f"cannot serve a graph of type {type(ref).__name__}")

    def _mincut_engine_for(self, ref: GraphRef):
        """The (LRU-cached) convex min-cut engine for a graph reference.

        Mirrors :meth:`_engine_for`; the engine's in-memory cut table (and
        the shared persistent :class:`CutStore`) make repeat queries on the
        same graph flow-free regardless of the memory size asked about.
        """
        key, description = self._ref_key(ref)
        with self._lock:
            engine = self._mincut_engines.get(key)
            if engine is not None:
                self._mincut_engines.move_to_end(key)
                return engine, description
        graph = ref if isinstance(ref, ComputationGraph) else (
            ref.build() if isinstance(ref, GraphSpec) else GraphSpec(path=ref).build()
        )
        lineage = ref.family if isinstance(ref, GraphSpec) else None
        engine = MinCutEngine(graph, store=self._cut_store, lineage=lineage)
        with self._lock:
            existing = self._mincut_engines.get(key)
            if existing is not None:
                engine = existing
            else:
                self._mincut_engines[key] = engine
            self._mincut_engines.move_to_end(key)
            while len(self._mincut_engines) > self._max_engines:
                self._mincut_engines.popitem(last=False)
        return engine, description

    def _engine_for(self, ref: GraphRef):
        """The (LRU-cached) engine for a graph reference, plus its name."""
        key, description = self._ref_key(ref)
        with self._lock:
            engine = self._engines.get(key)
            if engine is not None:
                self._engines.move_to_end(key)
                return engine, description
        # Build outside the lock (rehydrating a spec can read disk); a racing
        # duplicate engine is harmless — both share the same spectrum cache.
        lineage = None
        if isinstance(ref, ComputationGraph):
            graph = ref
        elif isinstance(ref, GraphSpec):
            graph = ref.build()
            lineage = ref.family
        else:
            graph = GraphSpec(path=ref).build()
        engine = BoundEngine(
            graph,
            num_eigenvalues=self._num_eigenvalues,
            eig_options=self._eig_options,
            cache=self._cache,
            lineage=lineage,
        )
        with self._lock:
            existing = self._engines.get(key)
            if existing is not None:
                engine = existing
            else:
                self._engines[key] = engine
            self._engines.move_to_end(key)
            while len(self._engines) > self._max_engines:
                self._engines.popitem(last=False)
        return engine, description
