"""Convex min-cut baseline (Elango et al. [13], reconstructed).

The paper's only polynomial-time automatic competitor.  Its published
description (Section 6.3): for every vertex ``v`` the graph is transformed
into a flow problem whose minimum s–t cut ``C(v, G)`` lower-bounds the data
that must be simultaneously "live" when ``v`` is evaluated; the bound is

    J*_G  >=  max_v  max(0, 2 * (C(v, G) - M)),

optionally strengthened by partitioning the graph into small sub-graphs and
summing per-part maxima (the original uses METIS; we use the partitioners of
:mod:`repro.baselines.partitioner`).

Reconstruction.  ``C(v, G)`` is implemented as the minimum *wavefront* over
all convex schedule prefixes that have evaluated ``v``:

    C(v, G) = min over down-closed S ⊆ V with  anc(v) ∪ {v} ⊆ S  and
              desc(v) ∩ S = ∅  of  |{u ∈ S : ∃ (u, w) ∈ E, w ∉ S}|.

Any evaluation order must pass through such a prefix S right after computing
``v``; every boundary vertex of S holds a value that is already computed and
still needed, so at that moment at least ``C(v, G)`` values are live.  At most
``M`` of them can sit in fast memory; each of the remaining ones must be
written to slow memory and read back later — hence ``2 (C(v, G) - M)`` I/Os.
This matches the published behaviour of the baseline: it is linear in ``M``,
it is looser than the spectral bound on the butterfly/hypercube families, and
it is trivial on naive matrix multiplication (where small convex prefixes
with tiny wavefronts exist around every vertex).

Execution model.  The min-cut is computed on a vertex-split flow network
(vertex capacity 1, structural arcs of infinite capacity enforcing
down-closure and the "pay-once-per-boundary-vertex" accounting), built *once*
per graph from the frozen CSR view (:class:`~repro.baselines.flownet
.ConvexCutNetwork`) and solved by SciPy's C-compiled max-flow
(:class:`~repro.baselines.flownet.ScipyMinCut`).  :class:`MinCutEngine` adds
the two layers that make whole-paper sweeps cheap:

* **cut caching** — ``C(v, G)`` is independent of ``M``, so values live in
  an in-memory table and, optionally, a persistent
  :class:`~repro.runtime.store.CutStore` keyed by the graph fingerprint;
  a warm re-run performs zero max-flow calls, and a cold pass takes the
  store's solve lease before its first max-flow, so processes racing one
  cold graph and candidate set pay for it once;
* **upper-bound pruning** — candidates are visited best-upper-bound-first
  (the ``O(n + E)`` topological-prefix wavefront of
  :meth:`~repro.baselines.flownet.ConvexCutNetwork.prefix_upper_bounds`),
  and a vertex whose ceiling cannot beat the best cut found so far is
  skipped.  Pruning never changes ``max_v C(v, G)``: a skipped vertex
  satisfies ``C(v) <= ub(v) <= best``.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.baselines.flownet import ConvexCutNetwork, ScipyMinCut
from repro.baselines.partitioner import contiguous_topological_partition
from repro.core.result import BaselineBoundResult
from repro.graphs.compgraph import ComputationGraph
from repro.utils.validation import check_memory_size, check_positive_int

_MAXFLOW_SECONDS = obs.global_registry().histogram(
    "repro_maxflow_seconds",
    "Wall-clock latency of individual max-flow solves.",
)
_CUT_LOOKUPS = obs.global_registry().counter(
    "repro_cut_lookups_total",
    "Cut-value fetches by serving tier (memory/store hit vs fresh flow).",
    labelnames=("tier",),
)

__all__ = [
    "MinCutEngine",
    "convex_min_cut_value",
    "convex_min_cut_max_value",
    "convex_min_cut_bound",
    "partitioned_convex_min_cut_bound",
]


class MinCutEngine:
    """Per-graph convex min-cut evaluator with caching and pruning.

    Parameters
    ----------
    graph:
        The computation graph (frozen lazily on first use).
    store:
        Optional persistent :class:`~repro.runtime.store.CutStore`; known
        cut values are loaded once per engine and every newly computed value
        is published back (with the flow calls paid, for auditing).  A
        :meth:`max_cut` pass that needs a max-flow first claims the store's
        solve lease for its graph and candidate set.
    prune:
        Skip candidates whose cheap upper bound cannot beat the best cut
        found so far (on by default; exhaustive order is kept for parity
        tests and for callers that need the legacy witness tie-breaking).
    lineage:
        Family tag recorded in the store (``cache`` CLI filters on it).

    Attributes
    ----------
    admission:
        ``None`` (default), or a gate with a ``slot()`` context manager
        that a :meth:`max_cut` pass needing a max-flow runs inside, from
        its first flow on; a warm pass never takes it.
        :class:`~repro.runtime.service.BoundService` sets its own gate
        before each pass it runs.
    """

    def __init__(
        self,
        graph: ComputationGraph,
        store=None,
        prune: bool = True,
        lineage: Optional[str] = None,
    ) -> None:
        self._graph = graph
        self._store = store
        self._prune = bool(prune)
        self._lineage = lineage
        self._network: Optional[ConvexCutNetwork] = None
        self._solver: Optional[ScipyMinCut] = None
        self._known: Dict[int, int] = {}
        self._store_loaded = False
        self._store_served = 0
        self._pruned = 0
        self._cut_seconds = 0.0
        #: Serialises evaluations: the solver mutates its shared capacity
        #: template, so concurrent callers — e.g. BoundService threads
        #: sharing one LRU-cached engine — must take turns.  Re-entrant, so
        #: a caller can hold it to read :attr:`flow_calls` around a call.
        self.lock = threading.RLock()
        self.admission = None

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    @property
    def graph(self) -> ComputationGraph:
        """The graph this engine evaluates."""
        return self._graph

    @property
    def flow_calls(self) -> int:
        """Max-flow solves this engine actually performed."""
        return self._solver.flow_calls if self._solver is not None else 0

    @property
    def store_served(self) -> int:
        """Cut values served from the persistent store (no flow paid)."""
        return self._store_served

    @property
    def pruned(self) -> int:
        """Candidates skipped by the upper-bound prune."""
        return self._pruned

    @property
    def cut_seconds(self) -> float:
        """Cumulative wall-clock spent inside cut evaluations."""
        return self._cut_seconds

    def stats(self) -> Dict[str, object]:
        """JSON-friendly counters (what sweeps record per task).

        ``trace_id``/``span_id`` reflect the active trace at call time (the
        sweep task's span when called from a pool worker), so recorded cut
        stats link into the trace tree instead of duplicating timings.
        """
        context = obs.current_context()
        return {
            "flow_calls": self.flow_calls,
            "store_served": self._store_served,
            "pruned": self._pruned,
            "cut_seconds": self._cut_seconds,
            "trace_id": context.trace_id if context else None,
            "span_id": context.span_id if context else None,
        }

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def cut_value(self, vertex: int) -> int:
        """``C(vertex, G)``, from cache tiers or one max-flow solve."""
        vertex = self._graph.check_vertex(vertex)
        start = time.perf_counter()
        with self.lock:
            self._load_store_table()
            value = self._known.get(vertex)
            if value is None:
                flows_before = self.flow_calls
                value = self._solve(vertex)
                self._publish(
                    {vertex: value}, flow_calls=self.flow_calls - flows_before
                )
            else:
                _CUT_LOOKUPS.inc(tier="memory")
            self._cut_seconds += time.perf_counter() - start
        return value

    def max_cut(
        self, vertices: Optional[Iterable[int]] = None
    ) -> Tuple[int, Optional[int]]:
        """``max_v C(v, G)`` over the candidates and one attaining vertex.

        Candidates default to all vertices.  With pruning enabled they are
        visited best-upper-bound-first; with it disabled, in the given order
        (the legacy behaviour, whose witness is the first maximiser).
        """
        candidates = (
            np.fromiter(
                (self._graph.check_vertex(v) for v in vertices), dtype=np.int64
            )
            if vertices is not None
            else np.arange(self._graph.num_vertices, dtype=np.int64)
        )
        if candidates.size == 0:
            return 0, None
        start = time.perf_counter()
        with obs.span("mincut", candidates=int(candidates.size)), self.lock:
            self._load_store_table()
            result = self._best_cut(candidates, claim=self._store is not None)
            if result is None:  # another process published: a warm pass
                result = self._best_cut(candidates, claim=False)
            self._cut_seconds += time.perf_counter() - start
        return result

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _best_cut(
        self, candidates: np.ndarray, claim: bool
    ) -> Optional[Tuple[int, Optional[int]]]:
        """One pass of :meth:`max_cut`; ``None`` asks for a warm re-run.

        Right before its first max-flow the pass claims the store's solve
        lease (with ``claim`` set), then takes an :attr:`admission` slot.
        It leads — solving, publishing, then releasing both — unless another
        process's leader published cuts of these candidates meanwhile: then
        it returns ``None`` with those cuts known.
        """
        network = self._get_network()
        best_cut = 0
        best_vertex: Optional[int] = None
        # Known (cached) candidate values are free: scanning them first —
        # in the caller's order, which fixes the witness tie-breaking on
        # warm runs — seeds the prune threshold before any flow is paid.
        known = 0
        for v in candidates.tolist():
            value = self._known.get(v)
            if value is None:
                continue
            known += 1
            if value > best_cut or best_vertex is None:
                best_cut = value
                best_vertex = v
        if known:
            _CUT_LOOKUPS.inc(known, tier="memory")
        order = candidates
        if self._prune:
            order = network.candidate_order(candidates)
            upper_bounds = network.prefix_upper_bounds()
        fresh: Dict[int, int] = {}
        pruned = 0
        flows_before = self.flow_calls
        # Unwinds in reverse: the slot, then the lease — after the publish,
        # since followers re-read the table the moment they take the lease.
        with contextlib.ExitStack() as cold:
            for v in order.tolist():
                if v in self._known:
                    continue  # already counted in the seeding scan
                if (
                    self._prune
                    and best_vertex is not None
                    and int(upper_bounds[v]) <= best_cut
                ):
                    pruned += 1
                    continue
                if not fresh:  # the pass's first max-flow
                    if claim:
                        outcome = self._claim(candidates)
                        if outcome.found is not None:
                            return None
                        if outcome.lease is not None:
                            cold.callback(outcome.lease.release)
                    if self.admission is not None:
                        cold.enter_context(self.admission.slot())
                value = self._solve(v)
                fresh[v] = value
                if value > best_cut or best_vertex is None:
                    best_cut = value
                    best_vertex = v
            self._pruned += pruned
            self._publish(fresh, flow_calls=self.flow_calls - flows_before)
        return best_cut, best_vertex

    def _claim(self, candidates: np.ndarray):
        """The store's solve lease for one cold pass over ``candidates``.

        A leader elsewhere has published once the stored table holds a cut
        of some candidate this engine did not know; those cuts are then
        absorbed here.
        """
        fingerprint = self._graph.fingerprint()
        wanted = set(candidates.tolist())

        def fetch():
            news = self._absorb(self._store.get(fingerprint))
            return news if wanted.intersection(news) else None

        return self._store.claim(fingerprint, fetch, candidates=candidates)

    def _get_network(self) -> ConvexCutNetwork:
        if self._network is None:
            self._network = ConvexCutNetwork(self._graph)
        return self._network

    def _solve(self, vertex: int) -> int:
        network = self._get_network()
        if not network.has_descendants(vertex):
            # The prefix can grow to the whole graph, whose wavefront is
            # empty; no flow problem needs solving.
            value = 0
        else:
            if self._solver is None:
                self._solver = ScipyMinCut(network)
            sources, sinks = network.terminals(vertex)
            flow_start = time.perf_counter()
            value = self._solver.min_cut(sources, sinks)
            _MAXFLOW_SECONDS.observe(time.perf_counter() - flow_start)
        _CUT_LOOKUPS.inc(tier="flow")
        self._known[vertex] = value
        return value

    def _load_store_table(self) -> None:
        if self._store is None or self._store_loaded:
            return
        self._store_loaded = True
        self._absorb(self._store.get(self._graph.fingerprint()))

    def _absorb(self, table) -> Dict[int, int]:
        """Learn a stored table's cuts this engine did not know yet."""
        if table is None:
            return {}
        news = {v: c for v, c in table.as_dict().items() if v not in self._known}
        self._known.update(news)
        self._store_served += len(news)
        if news:
            _CUT_LOOKUPS.inc(len(news), tier="store")
        return news

    def _publish(self, fresh: Dict[int, int], flow_calls: int) -> None:
        self._known.update(fresh)
        if self._store is None or not fresh:
            return
        self._store.merge(
            self._graph.fingerprint(),
            list(fresh.keys()),
            list(fresh.values()),
            flow_calls=flow_calls,
            backend="scipy",
            lineage=self._lineage,
        )


def convex_min_cut_value(graph: ComputationGraph, vertex: int, store=None) -> int:
    """The minimum wavefront ``C(v, G)`` of any convex prefix through ``vertex``.

    Returns 0 when ``vertex`` has no descendants (the prefix can then grow to
    the whole graph, whose wavefront is empty).  One-shot convenience over
    :class:`MinCutEngine` — loops over many vertices of one graph should hold
    an engine instead, which builds the flow network once and caches values.
    """
    return MinCutEngine(graph, store=store).cut_value(vertex)


def convex_min_cut_max_value(
    graph: ComputationGraph,
    vertices: Optional[Iterable[int]] = None,
    store=None,
    prune: bool = True,
) -> Tuple[int, Optional[int]]:
    """``max_v C(v, G)`` over the requested vertices and its arg-max.

    The convex min-cut bound for any memory size is
    ``max(0, 2 * (max_v C(v, G) - M))``, so the expensive per-vertex max-flow
    computations only depend on the graph; sweeps over several ``M`` values
    call this once and derive the bounds arithmetically.
    """
    return MinCutEngine(graph, store=store, prune=prune).max_cut(vertices)


def convex_min_cut_bound(
    graph: ComputationGraph,
    M: int,
    vertices: Optional[Iterable[int]] = None,
    store=None,
    prune: bool = True,
) -> BaselineBoundResult:
    """Whole-graph convex min-cut lower bound
    ``max_v max(0, 2 (C(v, G) - M))`` (the variant plotted in Figures 7–10).

    Parameters
    ----------
    graph:
        Computation graph.
    M:
        Fast-memory size.
    vertices:
        Optional subset of vertices to maximise over (defaults to all);
        restricting the set is a valid — just possibly weaker — bound and is
        useful to keep the ``O(n)`` max-flow calls affordable on larger
        graphs.
    store, prune:
        Forwarded to :class:`MinCutEngine` (persistent cut table,
        upper-bound pruning).
    """
    check_memory_size(M)
    start = time.perf_counter()
    engine = MinCutEngine(graph, store=store, prune=prune)
    candidates = list(vertices) if vertices is not None else list(graph.vertices())
    best_cut, best_vertex = engine.max_cut(candidates)
    best_value = max(0.0, 2.0 * (best_cut - M))
    elapsed = time.perf_counter() - start
    return BaselineBoundResult(
        value=best_value,
        method="convex-min-cut",
        num_vertices=graph.num_vertices,
        memory_size=M,
        witness_vertex=best_vertex,
        details={
            "max_cut_value": float(best_cut),
            "vertices_examined": float(len(candidates)),
            "pruned": float(engine.pruned),
            "store_served": float(engine.store_served),
        },
        elapsed_seconds=elapsed,
        flow_calls=engine.flow_calls,
    )


def partitioned_convex_min_cut_bound(
    graph: ComputationGraph,
    M: int,
    max_part_size: Optional[int] = None,
    store=None,
    prune: bool = True,
) -> BaselineBoundResult:
    """Partitioned variant: sum of per-part convex min-cut bounds.

    The original work suggests sub-graphs of at most ``2 M`` vertices; as the
    paper observes (§6.3), at that size the bound is trivial for the complex
    graphs evaluated here, which is why the whole-graph variant is the one
    plotted.  The partitioned variant is provided for completeness and used in
    the ablation benchmarks.

    Per-part maxima go through the same solver/caching path as the
    whole-graph bound, and structurally identical parts (equal subgraph
    fingerprints — common under the contiguous partitioners on regular
    graphs) are solved once and reused.
    """
    check_memory_size(M)
    if max_part_size is None:
        max_part_size = 2 * M
    check_positive_int(max_part_size, "max_part_size")
    start = time.perf_counter()
    total = 0.0
    per_part: Dict[int, float] = {}
    max_cut_by_fingerprint: Dict[str, int] = {}
    flow_calls = 0
    parts: List[List[int]] = contiguous_topological_partition(graph, max_part_size)
    for index, part in enumerate(parts):
        subgraph, _ = graph.subgraph(part)
        fingerprint = subgraph.fingerprint()
        max_cut = max_cut_by_fingerprint.get(fingerprint)
        if max_cut is None:
            engine = MinCutEngine(subgraph, store=store, prune=prune)
            max_cut, _ = engine.max_cut()
            flow_calls += engine.flow_calls
            max_cut_by_fingerprint[fingerprint] = max_cut
        best = max(0.0, 2.0 * (max_cut - M))
        per_part[index] = best
        total += best
    elapsed = time.perf_counter() - start
    return BaselineBoundResult(
        value=total,
        method="convex-min-cut-partitioned",
        num_vertices=graph.num_vertices,
        memory_size=M,
        witness_vertex=None,
        details={
            "num_parts": float(len(parts)),
            "max_part_size": float(max_part_size),
            "unique_parts": float(len(max_cut_by_fingerprint)),
        },
        elapsed_seconds=elapsed,
        flow_calls=flow_calls,
    )
