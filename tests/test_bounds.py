"""Tests for the spectral bounds (Theorems 4, 5, 6)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bounds import (
    bound_spectrum,
    parallel_spectral_bound,
    spectral_bound,
    spectral_bound_from_eigenvalues,
    spectral_bound_unnormalized,
    spectral_bounds_for_memory_sizes,
)
from repro.graphs.compgraph import ComputationGraph
from repro.graphs.generators import (
    bellman_held_karp_graph,
    chain_graph,
    fft_graph,
    independent_ops_graph,
    inner_product_graph,
)


class TestFromEigenvalues:
    def test_formula_single_k(self):
        # n=10, eigenvalues [0, 1, 2], k=3, M=1:
        # floor(10/3) * (0+1+2) - 2*3*1 = 3*3 - 6 = 3
        value, k, per_k = spectral_bound_from_eigenvalues([0.0, 1.0, 2.0], 10, 1, k=3)
        assert value == pytest.approx(3.0)
        assert k == 3
        assert per_k == {3: pytest.approx(3.0)}

    def test_sweep_picks_best_k(self):
        value, k, per_k = spectral_bound_from_eigenvalues([0.0, 1.0, 2.0], 10, 1)
        assert value == max(per_k.values())
        assert per_k[k] == value
        # The default sweep covers k = 2 .. h (§6.1): k = 1 is excluded
        # because lambda_1 = 0 makes its expression -2M, which never wins.
        assert set(per_k.keys()) == {2, 3}

    def test_default_sweep_excludes_k1_but_explicit_k1_allowed(self):
        _, best_k, per_k = spectral_bound_from_eigenvalues([0.0, 1.0, 2.0], 10, 1)
        assert 1 not in per_k and best_k >= 2
        _, _, explicit = spectral_bound_from_eigenvalues([0.0, 1.0, 2.0], 10, 1, k=1)
        assert set(explicit.keys()) == {1}

    def test_single_eigenvalue_falls_back_to_k1(self):
        # When only one eigenvalue is available the 2..h default sweep is
        # empty; the formula must still evaluate k=1 rather than silently
        # reporting an uninformative 0.
        value, k, per_k = spectral_bound_from_eigenvalues([5.0], 10, 1)
        assert per_k == {1: pytest.approx(48.0)}
        assert value == pytest.approx(48.0) and k == 1

    def test_single_vertex_graph_falls_back_to_k1(self):
        value, k, per_k = spectral_bound_from_eigenvalues([0.0], 1, 2)
        assert set(per_k.keys()) == {1}
        assert value == pytest.approx(-4.0)

    def test_k1_value(self):
        value, _, per_k = spectral_bound_from_eigenvalues([0.0, 5.0], 10, 2, k=1)
        # floor(10/1) * 0 - 2*1*2 = -4
        assert per_k[1] == pytest.approx(-4.0)

    def test_parallel_division(self):
        seq, _, _ = spectral_bound_from_eigenvalues([0.0, 1.0], 12, 1, k=2)
        par, _, _ = spectral_bound_from_eigenvalues([0.0, 1.0], 12, 1, k=2, num_processors=3)
        # floor(12/2)=6 vs floor(12/6)=2
        assert seq == pytest.approx(6 * 1 - 4)
        assert par == pytest.approx(2 * 1 - 4)

    def test_k_exceeding_n_rejected(self):
        with pytest.raises(ValueError):
            spectral_bound_from_eigenvalues([0.0, 1.0], 2, 1, k=3)

    def test_empty_inputs(self):
        value, k, per_k = spectral_bound_from_eigenvalues([], 0, 4)
        assert value == 0.0 and per_k == {}


class TestSpectralBound:
    def test_positive_on_large_fft(self):
        result = spectral_bound(fft_graph(8), M=4)
        assert result.value > 0
        assert result.best_k >= 2
        assert result.num_vertices == 9 * 256
        assert not result.is_trivial

    def test_zero_on_chain(self):
        """A chain needs no I/O for M >= 2, so the bound must be trivial."""
        result = spectral_bound(chain_graph(50), M=2)
        assert result.value == 0.0
        assert result.is_trivial

    def test_zero_on_edgeless_graph(self):
        result = spectral_bound(independent_ops_graph(10), M=2)
        assert result.value == 0.0

    def test_empty_graph(self):
        result = spectral_bound(ComputationGraph(), M=4)
        assert result.value == 0.0
        assert result.num_vertices == 0

    def test_monotone_nonincreasing_in_memory(self):
        graph = fft_graph(7)
        values = [spectral_bound(graph, M).value for M in (2, 4, 8, 16, 32)]
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))

    def test_specific_k_matches_sweep_entry(self):
        graph = fft_graph(5)
        swept = spectral_bound(graph, M=4, num_eigenvalues=20)
        single = spectral_bound(graph, M=4, k=swept.best_k)
        assert single.best_k == swept.best_k
        assert single.raw_value == pytest.approx(swept.raw_value)

    def test_k_sequence(self):
        graph = fft_graph(5)
        result = spectral_bound(graph, M=4, k=[2, 4, 8])
        _, best_k, per_k = spectral_bound_from_eigenvalues(
            bound_spectrum(graph, num_eigenvalues=8), graph.num_vertices, 4, k=[2, 4, 8]
        )
        assert set(per_k) == {2, 4, 8}
        assert result.best_k == best_k
        assert result.raw_value == per_k[best_k] == max(per_k.values())

    def test_invariant_under_relabelling(self):
        graph = fft_graph(4)
        rng = np.random.default_rng(0)
        perm = list(rng.permutation(graph.num_vertices))
        relabeled = graph.relabeled([int(p) for p in perm])
        a = spectral_bound(graph, M=2, num_eigenvalues=30)
        b = spectral_bound(relabeled, M=2, num_eigenvalues=30)
        assert a.raw_value == pytest.approx(b.raw_value, abs=1e-6)

    def test_sparse_and_dense_paths_agree(self):
        # The dense backend densifies the sparse Laplacian, lobpcg factorises
        # it (h = 20 keeps n = 192 above LOBPCG's size floor, so it really
        # iterates).
        graph = fft_graph(5)
        dense = spectral_bound(graph, M=4, num_eigenvalues=20, solver="dense")
        sparse = spectral_bound(graph, M=4, num_eigenvalues=20, solver="lobpcg")
        assert dense.raw_value == pytest.approx(sparse.raw_value, rel=1e-6, abs=1e-6)

    def test_eig_options_forwarded(self):
        graph = fft_graph(4)
        result = spectral_bound(graph, M=2, solver="lobpcg")
        reference = spectral_bound(graph, M=2)
        assert result.raw_value == pytest.approx(reference.raw_value, abs=1e-4)

    def test_invalid_memory_rejected(self):
        with pytest.raises(ValueError):
            spectral_bound(fft_graph(2), M=0)
        with pytest.raises(TypeError):
            spectral_bound(fft_graph(2), M=2.5)  # type: ignore[arg-type]

    def test_result_dict_export(self):
        result = spectral_bound(fft_graph(3), M=2)
        data = result.as_dict()
        assert "value" in data and "eigenvalues" not in data


class TestTheorem5Variant:
    def test_unnormalized_not_tighter_than_normalized_on_regular_graphs(self):
        """For the butterfly (uniform out-degree 2) Theorem 5 equals Theorem 4."""
        graph = fft_graph(6)
        t4 = spectral_bound(graph, M=4, num_eigenvalues=40)
        t5 = spectral_bound_unnormalized(graph, M=4, num_eigenvalues=40)
        # Outputs have out-degree 0 and inputs/internal 2, so L~ = L/2 exactly
        # and the two bounds coincide.
        assert t5.raw_value == pytest.approx(t4.raw_value, rel=1e-6, abs=1e-6)

    def test_unnormalized_weaker_on_hypercube(self):
        """On the hypercube out-degrees vary, so Theorem 5 is strictly looser."""
        graph = bellman_held_karp_graph(8)
        t4 = spectral_bound(graph, M=4, num_eigenvalues=60)
        t5 = spectral_bound_unnormalized(graph, M=4, num_eigenvalues=60)
        assert t5.raw_value <= t4.raw_value + 1e-9

    def test_normalized_flag_recorded(self):
        assert spectral_bound(fft_graph(3), M=2).normalized is True
        assert spectral_bound_unnormalized(fft_graph(3), M=2).normalized is False


class TestMemorySweep:
    def test_matches_individual_calls(self):
        graph = fft_graph(6)
        swept = spectral_bounds_for_memory_sizes(graph, [4, 8, 16], num_eigenvalues=30)
        for M in (4, 8, 16):
            individual = spectral_bound(graph, M, num_eigenvalues=30)
            assert swept[M].raw_value == pytest.approx(individual.raw_value, rel=1e-9)

    def test_bound_spectrum_shape(self):
        graph = fft_graph(4)
        lam = bound_spectrum(graph, num_eigenvalues=10)
        assert lam.shape == (10,)
        assert np.all(np.diff(lam) >= -1e-12)
        assert lam[0] == pytest.approx(0.0, abs=1e-9)


class TestParallelBound:
    def test_p1_matches_sequential(self):
        graph = fft_graph(7)
        seq = spectral_bound(graph, M=4, num_eigenvalues=30)
        par = parallel_spectral_bound(graph, M=4, num_processors=1, num_eigenvalues=30)
        assert par.raw_value == pytest.approx(seq.raw_value, rel=1e-9)

    def test_monotone_nonincreasing_in_processors(self):
        graph = fft_graph(8)
        values = [
            parallel_spectral_bound(graph, M=4, num_processors=p, num_eigenvalues=30).value
            for p in (1, 2, 4, 8)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))

    def test_empty_graph(self):
        result = parallel_spectral_bound(ComputationGraph(), M=2, num_processors=4)
        assert result.value == 0.0

    def test_invalid_processors(self):
        with pytest.raises(ValueError):
            parallel_spectral_bound(inner_product_graph(2), M=2, num_processors=0)
