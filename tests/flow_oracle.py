"""Pure-Python Dinic max-flow: the test-suite's min-cut oracle.

The package solves the convex min-cut baseline's flow problems with SciPy's
C-compiled ``maximum_flow`` (:class:`repro.baselines.flownet.ScipyMinCut`).
This module keeps an independent reference to check it against: Dinic's
algorithm (BFS level graph + blocking flows) over flat arc arrays, an
incremental :class:`MaxFlowSolver` front-end, and :func:`rebuild_min_cut`,
which builds a fresh solver from a :class:`ConvexCutNetwork` for every
vertex.  That per-call rebuild is the legacy execution model, so
``benchmarks/bench_mincut_baseline.py`` also times it as its baseline.

The implementation uses integer capacities with a large finite constant for
"infinite" arcs (safe because every finite cut in our constructions is at most
the number of graph vertices).
"""

from __future__ import annotations

from collections import deque
from typing import List, Sequence, Set

import numpy as np

from repro.baselines.flownet import INFINITE_CAPACITY, ConvexCutNetwork
from repro.graphs.compgraph import ComputationGraph


def _bfs_levels(
    num_nodes: int, to: Sequence[int], head: Sequence[Sequence[int]],
    cap: Sequence[int], source: int, sink: int,
) -> List[int]:
    level = [-1] * num_nodes
    level[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for idx in head[u]:
            v = to[idx]
            if cap[idx] > 0 and level[v] < 0:
                level[v] = level[u] + 1
                queue.append(v)
    return level


def _blocking_path(
    to: Sequence[int], head: Sequence[Sequence[int]], cap: List[int],
    source: int, sink: int, level: List[int], iters: List[int],
) -> int:
    """Find one augmenting path in the level graph (iterative DFS).

    Returns the amount pushed (0 when the level graph admits no further
    augmenting path).  Using an explicit stack keeps the solver safe on
    the long chain-like networks the convex min-cut reduction produces.
    """
    path: List[int] = []  # edge indices of the current partial path
    u = source
    while True:
        if u == sink:
            bottleneck = min(cap[idx] for idx in path)
            for idx in path:
                cap[idx] -= bottleneck
                cap[idx ^ 1] += bottleneck
            return bottleneck
        advanced = False
        while iters[u] < len(head[u]):
            idx = head[u][iters[u]]
            v = to[idx]
            if cap[idx] > 0 and level[v] == level[u] + 1:
                path.append(idx)
                u = v
                advanced = True
                break
            iters[u] += 1
        if advanced:
            continue
        # Dead end: retreat (and make sure we never try this vertex again
        # within the current level graph).
        level[u] = -1
        if not path:
            return 0
        idx = path.pop()
        u = to[idx ^ 1]
        iters[u] += 1


def dinic_max_flow(
    num_nodes: int,
    to: Sequence[int],
    head: Sequence[Sequence[int]],
    cap: List[int],
    source: int,
    sink: int,
) -> int:
    """Dinic's algorithm on flat arc arrays; returns the max-flow value.

    ``to[idx]`` is the target of arc ``idx``, ``head[u]`` the arc indices out
    of node ``u``, and ``cap`` the *mutable* residual capacities — arcs come
    in ``(forward, reverse)`` pairs with ``reverse == forward ^ 1``, exactly
    the layout :meth:`MaxFlowSolver.add_edge` produces.  ``cap`` is consumed
    in place (on return it holds the residual network), which is what lets a
    persistent network re-run the solver from a capacity snapshot.
    """
    if not 0 <= source < num_nodes or not 0 <= sink < num_nodes:
        raise ValueError(
            f"source/sink out of range for network with {num_nodes} nodes"
        )
    if source == sink:
        raise ValueError("source and sink must differ")
    flow = 0
    while True:
        level = _bfs_levels(num_nodes, to, head, cap, source, sink)
        if level[sink] < 0:
            return flow
        iters = [0] * num_nodes
        while True:
            pushed = _blocking_path(to, head, cap, source, sink, level, iters)
            if pushed == 0:
                break
            flow += pushed


class MaxFlowSolver:
    """Max-flow solver on a directed graph with integer capacities.

    Vertices are integers ``0 .. num_nodes - 1``.  Edges are added with
    :meth:`add_edge`; each call also creates the reverse residual edge with
    zero capacity.  :meth:`max_flow` computes the maximum ``s``-``t`` flow
    with Dinic's algorithm and leaves the residual network in place so
    :meth:`min_cut_source_side` can recover the minimum cut.
    """

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 0:
            raise ValueError(f"num_nodes must be non-negative, got {num_nodes}")
        self.num_nodes = num_nodes
        self._to: List[int] = []
        self._cap: List[int] = []
        self._head: List[List[int]] = [[] for _ in range(num_nodes)]

    def add_edge(self, u: int, v: int, capacity: int) -> int:
        """Add a directed edge ``u -> v`` with the given capacity.

        Returns the internal edge index (the reverse edge is ``index ^ 1``).
        """
        self._check_node(u)
        self._check_node(v)
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        index = len(self._to)
        self._to.append(v)
        self._cap.append(int(capacity))
        self._head[u].append(index)
        self._to.append(u)
        self._cap.append(0)
        self._head[v].append(index + 1)
        return index

    # ------------------------------------------------------------------
    # Dinic
    # ------------------------------------------------------------------
    def max_flow(self, source: int, sink: int) -> int:
        """Maximum flow value from ``source`` to ``sink``."""
        self._check_node(source)
        self._check_node(sink)
        return dinic_max_flow(
            self.num_nodes, self._to, self._head, self._cap, source, sink
        )

    # ------------------------------------------------------------------
    # cuts
    # ------------------------------------------------------------------
    def min_cut_source_side(self, source: int) -> Set[int]:
        """Nodes reachable from ``source`` in the residual network.

        Only meaningful after :meth:`max_flow`; the returned set is the source
        side of a minimum cut.
        """
        self._check_node(source)
        seen = {source}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for idx in self._head[u]:
                v = self._to[idx]
                if self._cap[idx] > 0 and v not in seen:
                    seen.add(v)
                    queue.append(v)
        return seen

    def _check_node(self, v: int) -> None:
        if not 0 <= v < self.num_nodes:
            raise ValueError(f"node {v} out of range for network with {self.num_nodes} nodes")


def rebuild_min_cut(net: ConvexCutNetwork, sources: np.ndarray, sinks: np.ndarray) -> int:
    """Min cut of one source/sink attachment on a freshly built solver.

    Every call pays ``O(n + m)`` Python-level ``add_edge`` work before the
    first BFS — the legacy cost profile.
    """
    solver = MaxFlowSolver(net.num_nodes)
    n = net.num_vertices
    m = net.num_edges
    tails = net.arc_tails
    heads = net.arc_heads
    caps = net.arc_caps
    for i in range(n + 2 * m):  # fixed arcs only; slots added below
        solver.add_edge(int(tails[i]), int(heads[i]), int(caps[i]))
    for u in sources.tolist():
        solver.add_edge(net.source, 2 * u, INFINITE_CAPACITY)
    for u in sinks.tolist():
        solver.add_edge(2 * u, net.sink, INFINITE_CAPACITY)
    return solver.max_flow(net.source, net.sink)


def oracle_cuts(graph: ComputationGraph) -> List[int]:
    """``C(v, G)`` for every vertex: one rebuilt Dinic solve per vertex with
    descendants (no pruning, no caching); vertices without descendants
    have the exact value 0."""
    net = ConvexCutNetwork(graph)
    cuts = []
    for v in graph.vertices():
        if net.has_descendants(v):
            cuts.append(rebuild_min_cut(net, *net.terminals(v)))
        else:
            cuts.append(0)
    return cuts
