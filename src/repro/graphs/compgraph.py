"""Directed acyclic computation graphs.

A :class:`ComputationGraph` models a computation in the two-level memory model
of Section 3 of the paper: every vertex is a single operation whose result is
one memory element; an edge ``u -> v`` means the result of ``u`` is an operand
of ``v``.  Sources are the inputs of the computation and sinks are its
outputs.

The class is deliberately lightweight: vertices are dense integers
``0 .. n-1`` allocated sequentially, adjacency is stored as Python lists for
cheap incremental construction, and heavier linear-algebra views
(adjacency/Laplacian matrices) live in :mod:`repro.graphs.laplacian`.
Numerical passes never iterate edges in Python: :meth:`ComputationGraph.freeze`
produces a cached, immutable :class:`~repro.graphs.csr.CSRView` (edge array +
CSR structure + structural fingerprint) that all vectorized code shares, and
:meth:`ComputationGraph.add_edges_array` lets the generators construct graphs
from bulk NumPy edge arrays instead of per-edge calls.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np
import scipy.sparse as sp

from repro.graphs.csr import CSRView, pack_edge_key, pack_edge_keys, unpack_edge_key
from repro.utils.validation import check_nonnegative_int

__all__ = ["ComputationGraph"]


class ComputationGraph:
    """A directed acyclic computation graph.

    Parameters
    ----------
    num_vertices:
        Optional number of vertices to pre-allocate (all unlabeled).  More
        vertices can always be added with :meth:`add_vertex`.

    Notes
    -----
    * Vertices are integers ``0 .. n-1`` in insertion order.
    * Parallel edges are rejected: in the memory model an operand is either
      needed or not, so a duplicate edge never changes the I/O cost.
    * Self loops are rejected: an operation cannot consume its own result.
    * Acyclicity is *not* enforced on every ``add_edge`` (that would make
      construction quadratic); call :meth:`validate` or
      :meth:`is_acyclic` after construction, or rely on
      :meth:`topological_order`, which raises on cyclic graphs.
    """

    __slots__ = ("_succ", "_pred", "_labels", "_ops", "_num_edges", "_edge_set", "_frozen")

    def __init__(self, num_vertices: int = 0) -> None:
        check_nonnegative_int(num_vertices, "num_vertices")
        self._succ: List[List[int]] = [[] for _ in range(num_vertices)]
        self._pred: List[List[int]] = [[] for _ in range(num_vertices)]
        self._labels: Dict[int, str] = {}
        self._ops: Dict[int, str] = {}
        self._num_edges: int = 0
        # Edges are stored as packed integer keys (see repro.graphs.csr) for
        # O(1) membership tests and cheap bulk updates from edge arrays.
        self._edge_set: Set[int] = set()
        self._frozen: Optional[CSRView] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_vertex(self, label: Optional[str] = None, op: Optional[str] = None) -> int:
        """Add a vertex and return its integer id.

        Parameters
        ----------
        label:
            Optional human-readable label (e.g. ``"A[1,2]"``).
        op:
            Optional operation name (e.g. ``"mul"``, ``"input"``).
        """
        vid = len(self._succ)
        self._succ.append([])
        self._pred.append([])
        if label is not None:
            self._labels[vid] = label
        if op is not None:
            self._ops[vid] = op
        self._frozen = None
        return vid

    def add_vertices(self, count: int, op: Optional[str] = None) -> List[int]:
        """Add ``count`` vertices sharing the same optional op name."""
        check_nonnegative_int(count, "count")
        start = len(self._succ)
        self._succ.extend([] for _ in range(count))
        self._pred.extend([] for _ in range(count))
        ids = list(range(start, start + count))
        if op is not None:
            for vid in ids:
                self._ops[vid] = op
        self._frozen = None
        return ids

    def add_edge(self, u: int, v: int) -> None:
        """Add the directed edge ``u -> v`` (``u`` is an operand of ``v``)."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError(f"self loop on vertex {u} is not a valid computation edge")
        key = pack_edge_key(u, v)
        if key in self._edge_set:
            raise ValueError(f"duplicate edge ({u}, {v})")
        self._succ[u].append(v)
        self._pred[v].append(u)
        self._edge_set.add(key)
        self._num_edges += 1
        self._frozen = None

    def add_edges(self, edges: Iterable[Tuple[int, int]]) -> None:
        """Add many edges at once."""
        for u, v in edges:
            self.add_edge(u, v)

    def add_edges_array(self, edges: np.ndarray) -> None:
        """Bulk-add edges from an ``(m, 2)`` integer array.

        This is the fast path the generators use: validation (range checks,
        self loops, duplicates — both inside the batch and against existing
        edges) is vectorized, and one loop appends every row to the
        adjacency lists.  The result is identical to calling
        :meth:`add_edge` for every row, but far faster for large batches.
        """
        arr = np.asarray(edges)
        if arr.size == 0:
            return
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(
                f"edges must be an (m, 2) array, got shape {arr.shape}"
            )
        if not np.issubdtype(arr.dtype, np.integer):
            raise TypeError(f"edge array must be integer-typed, got dtype {arr.dtype}")
        arr = arr.astype(np.int64, copy=False)
        n = self.num_vertices
        u, v = arr[:, 0], arr[:, 1]
        if arr.min() < 0 or arr.max() >= n:
            bad = arr[(arr.min(axis=1) < 0) | (arr.max(axis=1) >= n)][0]
            raise ValueError(
                f"edge ({int(bad[0])}, {int(bad[1])}) out of range for graph "
                f"with {n} vertices"
            )
        loops = u == v
        if loops.any():
            vertex = int(u[np.argmax(loops)])
            raise ValueError(
                f"self loop on vertex {vertex} is not a valid computation edge"
            )
        keys = pack_edge_keys(u, v)
        unique_keys = np.unique(keys)
        if unique_keys.shape[0] != keys.shape[0]:
            counts = np.bincount(np.searchsorted(unique_keys, keys))
            dup = unpack_edge_key(unique_keys[np.argmax(counts > 1)])
            raise ValueError(f"duplicate edge {dup}")
        key_list = keys.tolist()
        if self._edge_set:
            clash = self._edge_set.intersection(key_list)
            if clash:
                raise ValueError(f"duplicate edge {unpack_edge_key(min(clash))}")

        # Append in batch order, as add_edge does row by row.
        succ, pred = self._succ, self._pred
        for a, b in zip(u.tolist(), v.tolist()):
            succ[a].append(b)
            pred[b].append(a)

        self._edge_set.update(key_list)
        self._num_edges += arr.shape[0]
        self._frozen = None

    @classmethod
    def from_edges(
        cls, num_vertices: int, edges: Iterable[Tuple[int, int]]
    ) -> "ComputationGraph":
        """Build a graph from a vertex count and an edge iterable or array."""
        graph = cls(num_vertices)
        if isinstance(edges, np.ndarray):
            graph.add_edges_array(edges)
        else:
            graph.add_edges(edges)
        return graph

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n = |V|``."""
        return len(self._succ)

    @property
    def num_edges(self) -> int:
        """Number of directed edges ``|E|``."""
        return self._num_edges

    def __len__(self) -> int:
        return self.num_vertices

    def vertices(self) -> range:
        """Range over all vertex ids."""
        return range(self.num_vertices)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over directed edges in vertex order."""
        for u, targets in enumerate(self._succ):
            for v in targets:
                yield (u, v)

    def has_edge(self, u: int, v: int) -> bool:
        """Return ``True`` if the directed edge ``u -> v`` exists."""
        if u < 0 or v < 0:
            return False
        return pack_edge_key(u, v) in self._edge_set

    def successors(self, v: int) -> Sequence[int]:
        """Vertices that consume the result of ``v``."""
        self._check_vertex(v)
        return tuple(self._succ[v])

    def predecessors(self, v: int) -> Sequence[int]:
        """Operands of ``v``."""
        self._check_vertex(v)
        return tuple(self._pred[v])

    def out_degree(self, v: int) -> int:
        """Out-degree ``d_out(v)``."""
        self._check_vertex(v)
        return len(self._succ[v])

    def in_degree(self, v: int) -> int:
        """In-degree ``d_in(v)``."""
        self._check_vertex(v)
        return len(self._pred[v])

    def degree(self, v: int) -> int:
        """Total (undirected) degree ``d(v) = d_in(v) + d_out(v)``."""
        return self.in_degree(v) + self.out_degree(v)

    def out_degrees(self) -> np.ndarray:
        """Vector of out-degrees, indexed by vertex id."""
        return np.array([len(s) for s in self._succ], dtype=np.int64)

    def in_degrees(self) -> np.ndarray:
        """Vector of in-degrees, indexed by vertex id."""
        return np.array([len(p) for p in self._pred], dtype=np.int64)

    def degrees(self) -> np.ndarray:
        """Vector of total degrees, indexed by vertex id."""
        return self.out_degrees() + self.in_degrees()

    @property
    def max_out_degree(self) -> int:
        """Maximum out-degree over all vertices (0 for the empty graph)."""
        if self.num_vertices == 0:
            return 0
        return max(len(s) for s in self._succ)

    @property
    def max_in_degree(self) -> int:
        """Maximum in-degree over all vertices (0 for the empty graph)."""
        if self.num_vertices == 0:
            return 0
        return max(len(p) for p in self._pred)

    def sources(self) -> List[int]:
        """Vertices with no predecessors (the inputs of the computation)."""
        return [v for v in self.vertices() if not self._pred[v]]

    def sinks(self) -> List[int]:
        """Vertices with no successors (the outputs of the computation)."""
        return [v for v in self.vertices() if not self._succ[v]]

    # ------------------------------------------------------------------
    # metadata
    # ------------------------------------------------------------------
    def label(self, v: int) -> Optional[str]:
        """Label of ``v`` (``None`` if unlabeled)."""
        self._check_vertex(v)
        return self._labels.get(v)

    def set_label(self, v: int, label: str) -> None:
        """Attach/replace a label on ``v``."""
        self._check_vertex(v)
        self._labels[v] = label

    def op(self, v: int) -> Optional[str]:
        """Operation name of ``v`` (``None`` if not recorded)."""
        self._check_vertex(v)
        return self._ops.get(v)

    def set_op(self, v: int, op: str) -> None:
        """Attach/replace the operation name of ``v``."""
        self._check_vertex(v)
        self._ops[v] = op

    def vertices_with_op(self, op: str) -> List[int]:
        """All vertices whose op name equals ``op``."""
        return [v for v in self.vertices() if self._ops.get(v) == op]

    def set_labels(self, labels: Mapping[int, str]) -> None:
        """Attach/replace labels on many vertices at once."""
        for v in labels:
            self._check_vertex(v)
        self._labels.update(labels)

    def set_ops(self, ops: Mapping[int, str]) -> None:
        """Attach/replace operation names on many vertices at once."""
        for v in ops:
            self._check_vertex(v)
        self._ops.update(ops)

    # ------------------------------------------------------------------
    # frozen array views
    # ------------------------------------------------------------------
    def freeze(self) -> CSRView:
        """Return the cached :class:`~repro.graphs.csr.CSRView` of this graph.

        The view holds the immutable edge array, the successor CSR structure,
        degree vectors and the structural :meth:`fingerprint`.  It is built at
        most once per structural state: any mutation (``add_vertex``,
        ``add_edge``, ``add_edges_array``) invalidates the cache and the next
        ``freeze()`` rebuilds it.
        """
        if self._frozen is None:
            n = self.num_vertices
            m = self._num_edges
            counts = np.fromiter((len(s) for s in self._succ), dtype=np.int64, count=n)
            u = np.repeat(np.arange(n, dtype=np.int64), counts)
            v = np.fromiter(
                (w for succ in self._succ for w in succ), dtype=np.int64, count=m
            )
            self._frozen = CSRView(n, np.stack([u, v], axis=1) if m else np.empty((0, 2), dtype=np.int64))
        return self._frozen

    def csr(self) -> sp.csr_matrix:
        """Directed unweighted adjacency as a SciPy CSR matrix (cached)."""
        return self.freeze().scipy_csr

    def edge_array(self) -> np.ndarray:
        """Immutable ``(m, 2)`` edge array sorted lexicographically."""
        return self.freeze().edges

    def fingerprint(self) -> str:
        """Structural hash of ``(n, sorted edges)``; see :class:`CSRView`.

        Equal fingerprints mean equal vertex count and directed edge set
        (labels and ops excluded), which makes the fingerprint a safe cache
        key for spectra and bounds.
        """
        return self.freeze().fingerprint

    # ------------------------------------------------------------------
    # structure: traversal, acyclicity, reachability
    # ------------------------------------------------------------------
    def topological_order(self) -> List[int]:
        """Return one topological order (Kahn's algorithm).

        Raises
        ------
        ValueError
            If the graph contains a directed cycle.
        """
        indeg = [len(p) for p in self._pred]
        ready = deque(v for v in self.vertices() if indeg[v] == 0)
        order: List[int] = []
        while ready:
            v = ready.popleft()
            order.append(v)
            for w in self._succ[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    ready.append(w)
        if len(order) != self.num_vertices:
            raise ValueError("graph contains a directed cycle; not a computation graph")
        return order

    def is_acyclic(self) -> bool:
        """Return ``True`` when the graph is a DAG."""
        try:
            self.topological_order()
            return True
        except ValueError:
            return False

    def validate(self) -> None:
        """Raise ``ValueError`` unless the graph is a valid computation graph.

        A valid computation graph is a DAG; emptiness is allowed (an empty
        computation incurs no I/O).
        """
        if not self.is_acyclic():
            raise ValueError("computation graph must be acyclic")

    def ancestors(self, v: int) -> Set[int]:
        """All vertices with a directed path to ``v`` (``v`` excluded)."""
        self._check_vertex(v)
        seen: Set[int] = set()
        stack = list(self._pred[v])
        while stack:
            u = stack.pop()
            if u not in seen:
                seen.add(u)
                stack.extend(self._pred[u])
        return seen

    def descendants(self, v: int) -> Set[int]:
        """All vertices reachable from ``v`` (``v`` excluded)."""
        self._check_vertex(v)
        seen: Set[int] = set()
        stack = list(self._succ[v])
        while stack:
            u = stack.pop()
            if u not in seen:
                seen.add(u)
                stack.extend(self._succ[u])
        return seen

    def is_weakly_connected(self) -> bool:
        """Return ``True`` if the underlying undirected graph is connected.

        The empty graph is considered connected (vacuously); a single vertex
        is connected.
        """
        n = self.num_vertices
        if n <= 1:
            return True
        seen = [False] * n
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            v = stack.pop()
            for w in self._succ[v]:
                if not seen[w]:
                    seen[w] = True
                    count += 1
                    stack.append(w)
            for w in self._pred[v]:
                if not seen[w]:
                    seen[w] = True
                    count += 1
                    stack.append(w)
        return count == n

    def weakly_connected_components(self) -> List[List[int]]:
        """Vertex lists of the weakly connected components, in discovery order."""
        n = self.num_vertices
        seen = [False] * n
        components: List[List[int]] = []
        for start in range(n):
            if seen[start]:
                continue
            comp: List[int] = []
            stack = [start]
            seen[start] = True
            while stack:
                v = stack.pop()
                comp.append(v)
                for w in self._succ[v]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
                for w in self._pred[v]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            components.append(sorted(comp))
        return components

    def longest_path_length(self) -> int:
        """Length (in edges) of the longest directed path — the critical path."""
        if self.num_vertices == 0:
            return 0
        dist = [0] * self.num_vertices
        for v in self.topological_order():
            for w in self._succ[v]:
                if dist[v] + 1 > dist[w]:
                    dist[w] = dist[v] + 1
        return max(dist)

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "ComputationGraph":
        """Deep copy of the graph (metadata included).

        The copy is traversal-identical: successor/predecessor list order is
        preserved exactly, so order-sensitive consumers (schedulers, pebbling
        simulations) behave the same on the copy as on the original.
        """
        other = ComputationGraph(0)
        other._succ = [list(s) for s in self._succ]
        other._pred = [list(p) for p in self._pred]
        other._edge_set = set(self._edge_set)
        other._num_edges = self._num_edges
        other._labels = dict(self._labels)
        other._ops = dict(self._ops)
        return other

    def subgraph(self, vertices: Iterable[int]) -> Tuple["ComputationGraph", Dict[int, int]]:
        """Induced subgraph on ``vertices``.

        Returns
        -------
        (subgraph, mapping)
            ``mapping`` maps original vertex ids to the ids in the subgraph.
            Adjacency lists of the subgraph are in sorted (not original
            insertion) order.
        """
        keep = sorted(set(vertices))
        for v in keep:
            self._check_vertex(v)
        mapping = {v: i for i, v in enumerate(keep)}
        sub = ComputationGraph(len(keep))
        if keep and self._num_edges:
            lookup = np.full(self.num_vertices, -1, dtype=np.int64)
            lookup[keep] = np.arange(len(keep), dtype=np.int64)
            edges = lookup[self.freeze().edges]
            sub.add_edges_array(edges[(edges >= 0).all(axis=1)])
        for v in keep:
            if v in self._labels:
                sub._labels[mapping[v]] = self._labels[v]
            if v in self._ops:
                sub._ops[mapping[v]] = self._ops[v]
        return sub, mapping

    def relabeled(self, permutation: Sequence[int]) -> "ComputationGraph":
        """Return a copy with vertex ``v`` renamed to ``permutation[v]``.

        ``permutation`` must be a permutation of ``0 .. n-1``.  Relabelling is
        used in tests to check that the spectral bounds are invariant under
        vertex renaming.  Adjacency lists of the result are in sorted order.
        """
        n = self.num_vertices
        perm = list(permutation)
        if sorted(perm) != list(range(n)):
            raise ValueError("permutation must be a permutation of range(n)")
        other = ComputationGraph(n)
        if self._num_edges:
            perm_arr = np.asarray(perm, dtype=np.int64)
            other.add_edges_array(perm_arr[self.freeze().edges])
        for v, lab in self._labels.items():
            other._labels[perm[v]] = lab
        for v, op in self._ops.items():
            other._ops[perm[v]] = op
        return other

    def reversed(self) -> "ComputationGraph":
        """Return the graph with every edge direction flipped.

        Successor lists of the result are the predecessor lists of the
        original (and vice versa), in their original order.
        """
        other = ComputationGraph(0)
        other._succ = [list(p) for p in self._pred]
        other._pred = [list(s) for s in self._succ]
        if self._num_edges:
            edges = self.freeze().edges
            other._edge_set = set(pack_edge_keys(edges[:, 1], edges[:, 0]).tolist())
        other._num_edges = self._num_edges
        other._labels = dict(self._labels)
        other._ops = dict(self._ops)
        return other

    # ------------------------------------------------------------------
    # interop
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Convert to a :class:`networkx.DiGraph` (labels/ops as attributes)."""
        import networkx as nx

        g = nx.DiGraph()
        for v in self.vertices():
            g.add_node(v, label=self._labels.get(v), op=self._ops.get(v))
        g.add_edges_from(self.edges())
        return g

    @classmethod
    def from_networkx(cls, nx_graph) -> "ComputationGraph":
        """Build from a :class:`networkx.DiGraph` with arbitrary node names."""
        nodes = list(nx_graph.nodes())
        index = {node: i for i, node in enumerate(nodes)}
        graph = cls(len(nodes))
        for u, v in nx_graph.edges():
            graph.add_edge(index[u], index[v])
        for node, data in nx_graph.nodes(data=True):
            if data.get("label") is not None:
                graph._labels[index[node]] = str(data["label"])
            elif not isinstance(node, int):
                graph._labels[index[node]] = str(node)
            if data.get("op") is not None:
                graph._ops[index[node]] = str(data["op"])
        return graph

    # ------------------------------------------------------------------
    # dunder helpers
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ComputationGraph(n={self.num_vertices}, m={self.num_edges}, "
            f"sources={len(self.sources())}, sinks={len(self.sinks())})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ComputationGraph):
            return NotImplemented
        return (
            self.num_vertices == other.num_vertices
            and self._edge_set == other._edge_set
        )

    def __hash__(self) -> int:  # graphs are mutable; identity hash
        return id(self)

    def check_vertex(self, v: int) -> int:
        """Validate a vertex id against this graph and return it as ``int``.

        Raises ``TypeError`` for non-integer ids (booleans included) and
        ``ValueError`` for out-of-range ids.  This is the public entry point
        for code outside the graph layer (baselines, schedulers) that needs
        explicit validation before doing per-vertex work.
        """
        if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
            raise TypeError(f"vertex id must be an integer, got {type(v).__name__}")
        if not 0 <= v < self.num_vertices:
            raise ValueError(
                f"vertex {v} out of range for graph with {self.num_vertices} vertices"
            )
        return int(v)

    def _check_vertex(self, v: int) -> None:
        self.check_vertex(v)
