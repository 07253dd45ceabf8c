"""Reusable vertex-split flow networks for the convex min-cut baseline.

The baseline computes, for every vertex ``v`` of a computation graph, the
min cut ``C(v, G)`` of one and the same transformed network — only the
super-source / super-sink attachments change with ``v``.  The legacy code
nevertheless rebuilt the whole ``2n + 2``-node network from scratch for each
of the ``O(n)`` max-flow calls, iterating ``graph.edges()`` in Python every
time.  :class:`ConvexCutNetwork` builds the *fixed* part once, directly from
the frozen :class:`~repro.graphs.csr.CSRView` with vectorized edge-array
arithmetic, and exposes it as flat arc arrays; :class:`ScipyMinCut` turns
them into one persistent capacity matrix, and per-vertex solves only swap
the source/sink arc capacities.

Node layout (unchanged from the original reduction):

* ``u_in = 2u``, ``u_out = 2u + 1`` — the unit-capacity vertex split;
* structural arcs ``u_out -> w_in`` (pay once per boundary vertex) and
  ``w_in -> u_in`` (down-closure) for every graph edge ``(u, w)``;
* ``source = 2n`` with arcs to ``anc(v) ∪ {v}``, ``sink = 2n + 1`` with arcs
  from ``desc(v)`` — these are the only per-vertex parts, so the network
  pre-allocates one source arc and one sink arc *slot* per vertex (capacity
  0 = absent) that the solver flips in place.

The network also provides the cheap per-vertex **upper bound** used for
search pruning: for any topological order, *every* prefix ending at a
position in ``[pos(v), min_{w in succ(v)} pos(w) - 1]`` is a convex schedule
prefix through ``v`` (ancestors all precede ``v``, and the earliest-position
descendant is always a direct successor), so the *window minimum* of the
prefix wavefronts over that range bounds ``C(v, G)`` from above.  All ``n``
prefix wavefronts of one order cost ``O(n + E)`` (a difference array over
live intervals) and the per-vertex window minima one vectorized
sparse-table sweep on top.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

from repro.graphs.compgraph import ComputationGraph

__all__ = ["ConvexCutNetwork", "ScipyMinCut", "INFINITE_CAPACITY"]

#: Effectively infinite capacity for structural (uncuttable) arcs.
INFINITE_CAPACITY = 1 << 50


def _window_minimum(
    values: np.ndarray, left: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """``min(values[left[i] : left[i] + lengths[i]])`` for every query.

    Vectorized sparse-table range minimum: level ``k`` holds the minima of
    every aligned window of ``2**k`` values, and a query of length ``L`` is
    the minimum of the two (overlapping) level-``floor(log2 L)`` windows
    covering it.  All lengths must be >= 1.
    """
    if left.size == 0:
        return np.zeros(0, dtype=values.dtype)
    max_length = int(lengths.max())
    levels = [values]
    while (1 << len(levels)) <= max_length:
        previous = levels[-1]
        half = 1 << (len(levels) - 1)
        levels.append(np.minimum(previous[: previous.size - half], previous[half:]))
    result = np.empty(left.shape, dtype=values.dtype)
    query_level = np.floor(np.log2(lengths)).astype(np.int64)
    for level, table in enumerate(levels):
        at_level = query_level == level
        if not at_level.any():
            continue
        starts = left[at_level]
        ends = starts + lengths[at_level] - (1 << level)
        result[at_level] = np.minimum(table[starts], table[ends])
    return result


class ConvexCutNetwork:
    """The fixed part of the per-vertex min-cut reduction, built once.

    Attributes
    ----------
    num_vertices, num_edges:
        Size of the underlying computation graph.
    num_nodes:
        Flow-network node count ``2n + 2``.
    source, sink:
        The super-source (``2n``) and super-sink (``2n + 1``) node ids.
    arc_tails, arc_heads, arc_caps:
        Flat int64 arrays of every *forward* arc (unit, structural, then the
        per-vertex source/sink slots), in a fixed order.  Source/sink slots
        carry capacity 0 in the template.
    source_arc, sink_arc:
        ``source_arc[u]`` / ``sink_arc[u]`` index the arc slot
        ``source -> u_in`` / ``u_in -> sink`` inside the arc arrays.
    """

    def __init__(self, graph: ComputationGraph) -> None:
        view = graph.freeze()
        n = view.num_vertices
        m = view.num_edges
        self.graph = graph
        self.num_vertices = n
        self.num_edges = m
        self.num_nodes = 2 * n + 2
        self.source = 2 * n
        self.sink = 2 * n + 1
        self.fingerprint = view.fingerprint

        u_ids = np.arange(n, dtype=np.int64)
        a, b = view.edge_endpoints()
        # Arc order: n unit arcs, m forward structural, m down-closure,
        # n source slots, n sink slots.
        self.arc_tails = np.concatenate(
            [2 * u_ids, 2 * a + 1, 2 * b, np.full(n, self.source, dtype=np.int64), 2 * u_ids]
        )
        self.arc_heads = np.concatenate(
            [2 * u_ids + 1, 2 * b, 2 * a, 2 * u_ids, np.full(n, self.sink, dtype=np.int64)]
        )
        caps = np.empty(self.num_arcs, dtype=np.int64)
        caps[:n] = 1
        caps[n : n + 2 * m] = INFINITE_CAPACITY
        caps[n + 2 * m :] = 0
        self.arc_caps = caps
        self.source_arc = n + 2 * m + u_ids
        self.sink_arc = n + 2 * m + n + u_ids
        for arr in (self.arc_tails, self.arc_heads, self.arc_caps):
            arr.flags.writeable = False

        # Reachability substrates: adjacency CSR (descendants) and its
        # transpose in CSR form (ancestors), both C-traversable.
        self._adj = view.scipy_csr
        self._adj_t = self._adj.T.tocsr() if m else self._adj
        self._out_degrees = view.out_degrees
        self._bounds: Tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @property
    def num_arcs(self) -> int:
        """Number of forward arcs (source/sink slots included)."""
        return 2 * self.num_vertices + 2 * self.num_edges + self.num_vertices

    # ------------------------------------------------------------------
    # per-vertex attachments
    # ------------------------------------------------------------------
    def has_descendants(self, vertex: int) -> bool:
        """True when ``vertex`` has at least one successor (hence descendant)."""
        return bool(self._out_degrees[vertex] > 0)

    def terminals(self, vertex: int) -> Tuple[np.ndarray, np.ndarray]:
        """The per-vertex attachments ``(anc(v) ∪ {v}, desc(v))``.

        Both are int64 vertex-id arrays computed by C-level BFS over the CSR
        adjacency (and its transpose) — no Python-level edge iteration.
        """
        vertex = self.graph.check_vertex(vertex)
        if self.num_edges == 0:
            return np.array([vertex], dtype=np.int64), np.empty(0, dtype=np.int64)
        down = breadth_first_order(
            self._adj, vertex, directed=True, return_predecessors=False
        )
        descendants = down[down != vertex].astype(np.int64, copy=False)
        up = breadth_first_order(
            self._adj_t, vertex, directed=True, return_predecessors=False
        )
        return up.astype(np.int64, copy=False), descendants

    # ------------------------------------------------------------------
    # cheap upper bounds (search pruning)
    # ------------------------------------------------------------------
    def prefix_upper_bounds(self) -> np.ndarray:
        """Per-vertex upper bounds ``ub(v) >= C(v, G)``, near-linear total.

        For one topological order, every prefix ending at a position in the
        window ``pos(v) <= i < min_{w in succ(v)} pos(w)`` is a valid convex
        prefix through ``v``: it is down-closed, contains ``anc(v) ∪ {v}``
        (ancestors precede ``v`` in any topological order) and excludes
        ``desc(v)`` (the earliest-position descendant is always a direct
        successor).  The *minimum* wavefront over that window therefore
        bounds the min cut from above — strictly tighter than the single
        prefix ending at ``v`` whenever the wavefront dips before the first
        successor is computed.  A vertex ``u`` is live in exactly the
        prefixes ``pos(u) <= i < max_{w in succ(u)} pos(w)``, so all ``n``
        prefix wavefronts follow from one difference array; the per-vertex
        window minima come from one sparse-table range-minimum sweep
        (``O(n log n)`` build, all vectorized).  Vertices without
        descendants get the exact value 0 (the prefix can grow to the whole
        graph).
        """
        ub, _, _ = self._prefix_bounds()
        return ub

    def candidate_order(self, candidates: np.ndarray) -> np.ndarray:
        """``candidates`` sorted best-upper-bound-first (ties: vertex order).

        Visiting high-ceiling vertices first makes the running maximum climb
        as fast as possible, which is what lets ``ub(v) <= best`` prune the
        remaining (low-ceiling) candidates without a single flow call.
        """
        candidates = np.asarray(candidates, dtype=np.int64)
        ub = self.prefix_upper_bounds()
        order = np.lexsort((candidates, -ub[candidates]))
        return candidates[order]

    def _prefix_bounds(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._bounds is None:
            n = self.num_vertices
            order = np.asarray(self.graph.topological_order(), dtype=np.int64)
            pos = np.empty(n, dtype=np.int64)
            pos[order] = np.arange(n, dtype=np.int64)
            ub = np.zeros(n, dtype=np.int64)
            if self.num_edges:
                a, b = self.graph.freeze().edge_endpoints()
                last_use = np.full(n, -1, dtype=np.int64)
                np.maximum.at(last_use, a, pos[b])
                first_use = np.full(n, n, dtype=np.int64)
                np.minimum.at(first_use, a, pos[b])
                live = self._out_degrees > 0
                wavefront = np.zeros(n + 1, dtype=np.int64)
                np.add.at(wavefront, pos[live.nonzero()[0]], 1)
                np.add.at(wavefront, last_use[live], -1)
                np.cumsum(wavefront, out=wavefront)
                # ub(v) = min wavefront over the valid prefix window
                # [pos(v), first_use(v) - 1]; sinks stay at the exact 0.
                candidates = live.nonzero()[0]
                left = pos[candidates]
                ub[candidates] = _window_minimum(
                    wavefront[:n], left, first_use[candidates] - left
                )
            self._bounds = (ub, order, pos)
        return self._bounds

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ConvexCutNetwork(n={self.num_vertices}, m={self.num_edges}, "
            f"nodes={self.num_nodes}, arcs={self.num_arcs})"
        )


class ScipyMinCut:
    """Per-vertex min cuts of one :class:`ConvexCutNetwork`, solved by
    :func:`scipy.sparse.csgraph.maximum_flow` (C-compiled).

    One CSR capacity matrix is built per network (source/sink slots present
    as explicit zeros so the sparsity pattern never changes); per-vertex
    solves mutate only the slot entries of the shared ``data`` array.
    Capacities use ``n + 1`` as the "infinite" value — every finite cut in
    the reduction is at most ``n``, and the small constant keeps all flow
    arithmetic comfortably inside the int32 scipy requires.  ``flow_calls``
    counts the solves, which every caching/pruning layer audits.
    """

    def __init__(self, network: ConvexCutNetwork) -> None:
        self.network = network
        self.flow_calls = 0
        n = network.num_vertices
        self._inf = n + 1
        caps = np.minimum(network.arc_caps, self._inf).astype(np.int32)
        matrix = sp.csr_matrix(
            (caps, (network.arc_tails, network.arc_heads)),
            shape=(network.num_nodes, network.num_nodes),
        )
        matrix.sort_indices()
        indptr, indices = matrix.indptr, matrix.indices
        u_in = 2 * np.arange(n, dtype=np.int64)
        # Source arcs are the (sorted, unique) entries of the source row.
        self._src_pos = indptr[network.source] + np.searchsorted(
            indices[indptr[network.source] : indptr[network.source + 1]], u_in
        )
        # The sink column is the largest node id, so each vertex's sink slot
        # is the last entry of its u_in row.
        self._sink_pos = indptr[u_in + 1] - 1
        if n and (
            not np.array_equal(indices[self._src_pos], u_in)
            or not np.all(indices[self._sink_pos] == network.sink)
        ):  # pragma: no cover - layout invariant
            raise AssertionError("scipy capacity template slot layout broken")
        self._matrix = matrix

    def min_cut(self, sources: np.ndarray, sinks: np.ndarray) -> int:
        """Min-cut value with ``sources`` attached to the super-source and
        ``sinks`` to the super-sink (both are graph-vertex id arrays)."""
        self.flow_calls += 1
        data = self._matrix.data
        data[self._src_pos] = 0
        data[self._sink_pos] = 0
        data[self._src_pos[np.asarray(sources, dtype=np.int64)]] = self._inf
        data[self._sink_pos[np.asarray(sinks, dtype=np.int64)]] = self._inf
        network = self.network
        return int(maximum_flow(self._matrix, network.source, network.sink).flow_value)
