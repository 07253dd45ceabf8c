"""Tests for the CSR-backed graph core.

Covers the frozen :class:`CSRView` (edge array, CSR structure, caching and
invalidation), the structural fingerprint, the bulk ``add_edges_array``
constructor, and — as property tests over the existing random-DAG generators
— that the vectorized ``laplacian`` / ``degree_vector`` /
``adjacency_matrix`` / ``undirected_weights`` match a per-edge reference
implementation.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graphs.compgraph import ComputationGraph
from repro.graphs.csr import CSRView, build_csr_view
from repro.graphs.generators import (
    fft_graph,
    hypercube_graph,
    layered_random_dag,
    random_dag,
    stencil_1d_graph,
)
from repro.graphs.laplacian import (
    adjacency_matrix,
    degree_vector,
    laplacian,
    undirected_weights,
)


# ----------------------------------------------------------------------
# Per-edge reference implementations (the pre-CSR semantics).
# ----------------------------------------------------------------------
def reference_adjacency(graph, normalized=False, directed=False) -> np.ndarray:
    n = graph.num_vertices
    A = np.zeros((n, n))
    for u, v in graph.edges():
        w = 1.0 / graph.out_degree(u) if normalized else 1.0
        A[u, v] += w
        if not directed:
            A[v, u] += w
    return A


def reference_degree_vector(graph, normalized=False) -> np.ndarray:
    deg = np.zeros(graph.num_vertices)
    for u, v in graph.edges():
        w = 1.0 / graph.out_degree(u) if normalized else 1.0
        deg[u] += w
        deg[v] += w
    return deg


def reference_laplacian(graph, normalized=True) -> np.ndarray:
    A = reference_adjacency(graph, normalized=normalized)
    return np.diag(A.sum(axis=1)) - A


def reference_undirected_weights(graph, normalized=True):
    weights = {}
    for u, v in graph.edges():
        w = 1.0 / graph.out_degree(u) if normalized else 1.0
        key = (u, v) if u < v else (v, u)
        weights[key] = weights.get(key, 0.0) + w
    return weights


def sample_graphs():
    """Structurally diverse graphs from the existing generators."""
    return [
        random_dag(24, edge_probability=0.3, seed=0),
        random_dag(40, edge_probability=0.1, max_in_degree=3, seed=1),
        layered_random_dag(num_layers=4, layer_width=6, in_degree=2, seed=2),
        fft_graph(3),
        hypercube_graph(4),
        stencil_1d_graph(8, 3),
        ComputationGraph(5),  # edgeless
        ComputationGraph(),  # empty
    ]


class TestVectorizedMatchesReference:
    @pytest.mark.parametrize("idx", range(8))
    @pytest.mark.parametrize("normalized", [True, False])
    def test_adjacency(self, idx, normalized):
        g = sample_graphs()[idx]
        for directed in (False, True):
            np.testing.assert_allclose(
                adjacency_matrix(g, normalized=normalized, directed=directed),
                reference_adjacency(g, normalized=normalized, directed=directed),
                atol=1e-12,
            )

    @pytest.mark.parametrize("idx", range(8))
    @pytest.mark.parametrize("normalized", [True, False])
    def test_degree_vector(self, idx, normalized):
        g = sample_graphs()[idx]
        np.testing.assert_allclose(
            degree_vector(g, normalized=normalized),
            reference_degree_vector(g, normalized=normalized),
            atol=1e-12,
        )

    @pytest.mark.parametrize("idx", range(8))
    @pytest.mark.parametrize("normalized", [True, False])
    def test_laplacian(self, idx, normalized):
        g = sample_graphs()[idx]
        np.testing.assert_allclose(
            laplacian(g, normalized=normalized),
            reference_laplacian(g, normalized=normalized),
            atol=1e-12,
        )

    @pytest.mark.parametrize("idx", range(8))
    @pytest.mark.parametrize("normalized", [True, False])
    def test_undirected_weights(self, idx, normalized):
        g = sample_graphs()[idx]
        ours = undirected_weights(g, normalized=normalized)
        ref = reference_undirected_weights(g, normalized=normalized)
        assert ours.keys() == ref.keys()
        for key in ref:
            assert ours[key] == pytest.approx(ref[key])

    def test_sparse_and_dense_agree_on_random_dags(self):
        for seed in range(5):
            g = random_dag(30, edge_probability=0.25, seed=seed)
            dense = laplacian(g, normalized=True, sparse=False)
            sparse = laplacian(g, normalized=True, sparse=True)
            np.testing.assert_allclose(np.asarray(sparse.todense()), dense, atol=1e-12)


class TestFreeze:
    def test_view_is_cached_until_mutation(self):
        g = random_dag(15, edge_probability=0.4, seed=3)
        view = g.freeze()
        assert g.freeze() is view
        g.add_edge(0, 14) if not g.has_edge(0, 14) else g.add_vertex()
        assert g.freeze() is not view

    def test_any_mutation_invalidates(self):
        g = ComputationGraph(3)
        views = [g.freeze()]
        g.add_edge(0, 1)
        views.append(g.freeze())
        g.add_vertex()
        views.append(g.freeze())
        g.add_edges_array(np.array([[1, 2], [0, 2]]))
        views.append(g.freeze())
        assert len({id(v) for v in views}) == 4

    def test_edges_sorted_and_immutable(self):
        g = ComputationGraph(4)
        g.add_edges([(2, 3), (0, 2), (0, 1)])
        view = g.freeze()
        assert view.edges.tolist() == [[0, 1], [0, 2], [2, 3]]
        with pytest.raises(ValueError):
            view.edges[0, 0] = 9
        assert g.edge_array() is view.edges

    def test_csr_structure(self):
        g = ComputationGraph(4)
        g.add_edges([(0, 2), (0, 1), (2, 3)])
        view = g.freeze()
        assert view.indptr.tolist() == [0, 2, 2, 3, 3]
        assert view.successor_slice(0).tolist() == [1, 2]
        assert view.out_degrees.tolist() == [2, 0, 1, 0]
        assert view.in_degrees.tolist() == [0, 1, 1, 1]
        mat = g.csr()
        assert sp.issparse(mat)
        np.testing.assert_allclose(
            np.asarray(mat.todense()),
            reference_adjacency(g, directed=True),
        )

    def test_build_csr_view_helper(self):
        view = build_csr_view(3, np.array([[0, 1], [1, 2]]))
        assert isinstance(view, CSRView)
        assert view.num_edges == 2
        assert view.max_out_degree == 1

    def test_view_rejects_out_of_range_edges(self):
        with pytest.raises(ValueError, match="out of range"):
            build_csr_view(3, np.array([[0, 5]]))
        with pytest.raises(ValueError, match="out of range"):
            build_csr_view(3, np.array([[-1, 1]]))

    def test_generators_preserve_adjacency_order(self):
        # The bulk-edge generator ports promise per-vertex successor and
        # predecessor order identical to the historical per-edge builds, so
        # seeded schedules and pebbling results stay reproducible.  Spot
        # checks against the known historical orders:
        g = fft_graph(3)
        assert list(g.successors(1)) == [8, 9]  # row-major consumers, as per-edge build
        assert list(g.predecessors(9)) == [1, 0]  # straight parent first
        h = hypercube_graph(3)
        assert list(h.predecessors(7)) == [3, 5, 6]  # masks ascending
        assert list(h.successors(0)) == [1, 2, 4]  # bits ascending
        s = stencil_1d_graph(4, 1)
        assert list(s.predecessors(5)) == [0, 1, 2]  # offsets -r..r

    def test_view_owns_its_edge_array(self):
        # Mutating the caller's array after construction must not change the
        # view (or its fingerprint) — including the <= 1 edge case, where a
        # lexsort-free path could otherwise alias the input.
        source = np.array([[0, 1]])
        view = build_csr_view(2, source)
        fp = view.fingerprint
        source[0, 1] = 0
        assert view.edges.tolist() == [[0, 1]]
        assert not np.shares_memory(view.edges, source)
        assert view.fingerprint == fp

    def test_empty_graph_view(self):
        view = ComputationGraph().freeze()
        assert view.num_vertices == 0
        assert view.num_edges == 0
        assert view.edges.shape == (0, 2)
        assert view.fingerprint  # well-defined even for the empty graph


class TestFingerprint:
    def test_insertion_order_irrelevant(self):
        g1 = ComputationGraph(4)
        g1.add_edges([(0, 1), (1, 2), (2, 3)])
        g2 = ComputationGraph(4)
        g2.add_edges([(2, 3), (0, 1), (1, 2)])
        assert g1.fingerprint() == g2.fingerprint()

    def test_labels_do_not_affect_fingerprint(self):
        g1 = ComputationGraph(3)
        g1.add_edge(0, 1)
        g2 = ComputationGraph(3)
        g2.add_edge(0, 1)
        g2.set_label(0, "x")
        g2.set_op(1, "mul")
        assert g1.fingerprint() == g2.fingerprint()

    def test_mutation_changes_fingerprint(self):
        g = random_dag(12, edge_probability=0.4, seed=4)
        fp = g.fingerprint()
        g.add_vertex()
        assert g.fingerprint() != fp

    def test_relabel_round_trip_preserves_fingerprint(self):
        g = random_dag(15, edge_probability=0.3, seed=5)
        rng = np.random.default_rng(0)
        perm = [int(p) for p in rng.permutation(g.num_vertices)]
        inverse = [0] * len(perm)
        for i, p in enumerate(perm):
            inverse[p] = i
        round_trip = g.relabeled(perm).relabeled(inverse)
        assert round_trip.fingerprint() == g.fingerprint()

    def test_nontrivial_relabel_changes_fingerprint(self):
        # A chain reversed by relabelling has a different directed edge set,
        # so the fingerprint must differ (it is a structural, not an
        # isomorphism, hash).
        g = ComputationGraph(3)
        g.add_edges([(0, 1), (1, 2)])
        relabeled = g.relabeled([2, 1, 0])
        assert relabeled.fingerprint() != g.fingerprint()

    def test_symmetric_relabel_preserves_fingerprint(self):
        # The FFT butterfly is invariant under swapping the two halves of
        # every column (rows r <-> r XOR 1 at stride-1 symmetry is not an
        # automorphism, but the identity permutation trivially is).
        g = fft_graph(3)
        same = g.relabeled(list(range(g.num_vertices)))
        assert same.fingerprint() == g.fingerprint()


class TestAddEdgesArray:
    def test_matches_per_edge_construction(self):
        """Same adjacency lists, in the same order, as ``add_edge`` row by
        row — also for shuffled edges fed in several batches."""
        rng = np.random.default_rng(0)
        inputs = [(5, [np.array([(0, 2), (1, 2), (2, 4), (3, 4), (0, 4)])])]
        for seed in range(10):
            n = int(rng.integers(10, 60))
            edges = random_dag(n, edge_probability=0.3, seed=seed).freeze().edges.copy()
            rng.shuffle(edges)
            inputs.append((n, np.array_split(edges, 3)))
        for n, batches in inputs:
            g1 = ComputationGraph(n)
            g2 = ComputationGraph(n)
            for batch in batches:
                g1.add_edges(batch.tolist())
                g2.add_edges_array(batch)
            assert g1 == g2
            assert g1.fingerprint() == g2.fingerprint()
            for v in g1.vertices():
                assert g1.predecessors(v) == g2.predecessors(v)
                assert g1.successors(v) == g2.successors(v)

    def test_mixes_with_incremental_edges(self):
        g = ComputationGraph(6)
        g.add_edge(0, 1)
        g.add_edges_array(np.array([[1, 2], [2, 3]]))
        g.add_edge(3, 4)
        g.add_edges_array(np.array([[4, 5]]))
        assert g.num_edges == 5
        assert g.topological_order() == [0, 1, 2, 3, 4, 5]

    def test_rejects_self_loops(self):
        g = ComputationGraph(3)
        with pytest.raises(ValueError, match="self loop"):
            g.add_edges_array(np.array([[0, 1], [2, 2]]))
        assert g.num_edges == 0  # batch is rejected atomically

    def test_rejects_duplicates_within_batch(self):
        g = ComputationGraph(3)
        with pytest.raises(ValueError, match="duplicate"):
            g.add_edges_array(np.array([[0, 1], [0, 1]]))

    def test_rejects_duplicates_against_existing(self):
        g = ComputationGraph(3)
        g.add_edge(0, 1)
        with pytest.raises(ValueError, match="duplicate"):
            g.add_edges_array(np.array([[1, 2], [0, 1]]))
        assert g.num_edges == 1

    def test_rejects_out_of_range(self):
        g = ComputationGraph(3)
        with pytest.raises(ValueError, match="out of range"):
            g.add_edges_array(np.array([[0, 3]]))
        with pytest.raises(ValueError, match="out of range"):
            g.add_edges_array(np.array([[-1, 1]]))

    def test_rejects_bad_shapes_and_dtypes(self):
        g = ComputationGraph(3)
        with pytest.raises(ValueError):
            g.add_edges_array(np.array([[0, 1, 2]]))
        with pytest.raises(TypeError):
            g.add_edges_array(np.array([[0.5, 1.0]]))

    def test_empty_batch_is_noop(self):
        g = ComputationGraph(3)
        g.add_edges_array(np.empty((0, 2), dtype=np.int64))
        assert g.num_edges == 0

    def test_from_edges_accepts_arrays(self):
        g = ComputationGraph.from_edges(4, np.array([[0, 1], [1, 2], [2, 3]]))
        assert g.num_edges == 3
        assert g.has_edge(1, 2)


class TestDerivedGraphOrder:
    def test_copy_is_traversal_identical(self):
        g = fft_graph(2)
        c = g.copy()
        for v in g.vertices():
            assert g.successors(v) == c.successors(v)
            assert g.predecessors(v) == c.predecessors(v)
        assert c == g and c.fingerprint() == g.fingerprint()
        c.add_vertex()  # copies are independent
        assert c.num_vertices == g.num_vertices + 1

    def test_reversed_swaps_adjacency_in_order(self):
        g = fft_graph(2)
        r = g.reversed()
        for v in g.vertices():
            assert r.successors(v) == g.predecessors(v)
            assert r.predecessors(v) == g.successors(v)
        assert r.has_edge(*next(iter(g.edges()))[::-1])
        assert r.reversed() == g


class TestEdgeKeyPacking:
    def test_oversized_vertex_ids_rejected(self):
        from repro.graphs.csr import pack_edge_key, pack_edge_keys

        big = 2**31  # would overflow the int64 shift if accepted
        with pytest.raises(ValueError, match="packed"):
            pack_edge_keys(np.array([big]), np.array([0]))
        with pytest.raises(ValueError, match="packed"):
            pack_edge_key(big, 0)

    def test_scalar_and_array_packing_agree(self):
        from repro.graphs.csr import pack_edge_key, pack_edge_keys, unpack_edge_key

        u = np.array([0, 3, 2**31 - 1])
        v = np.array([1, 2**31 - 1, 0])
        keys = pack_edge_keys(u, v)
        for uu, vv, key in zip(u.tolist(), v.tolist(), keys.tolist()):
            assert pack_edge_key(uu, vv) == key
            assert unpack_edge_key(key) == (uu, vv)
