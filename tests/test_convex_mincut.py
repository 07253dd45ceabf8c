"""Tests for the convex min-cut baseline (Elango et al., reconstructed)."""

from __future__ import annotations

import pytest

from repro.baselines.convex_mincut import (
    convex_min_cut_bound,
    convex_min_cut_max_value,
    convex_min_cut_value,
    partitioned_convex_min_cut_bound,
)
from repro.baselines.exact import minimum_io_upper_bound
from repro.baselines.partitioner import contiguous_topological_partition
from repro.graphs.compgraph import ComputationGraph
from repro.graphs.generators import (
    chain_graph,
    diamond_graph,
    fft_graph,
    hypercube_graph,
    inner_product_graph,
    naive_matmul_graph,
)
from tests.flow_oracle import oracle_cuts


class TestCutValues:
    def test_chain_has_unit_wavefront(self):
        g = chain_graph(6)
        # Any prefix through an interior vertex has exactly one live value.
        assert convex_min_cut_value(g, 2) == 1

    def test_sink_vertex_gives_zero(self):
        g = chain_graph(4)
        assert convex_min_cut_value(g, 3) == 0

    def test_diamond_wavefront(self):
        # Source feeding 4 middle vertices feeding one sink: right after the
        # source is computed (and before the sink), the source itself is the
        # only mandatory live value, so C(source) = 1; but each middle vertex
        # forces the source plus itself to stay live only until its last use —
        # the minimum convex prefix through a middle vertex has wavefront 2.
        g = diamond_graph(4)
        middle = [v for v in g.vertices() if g.op(v) == "f"][0]
        assert convex_min_cut_value(g, 0) == 1
        assert convex_min_cut_value(g, middle) == 2

    def test_butterfly_outputs_have_zero_cut(self):
        g = fft_graph(4)
        # Vertices in the last column have no descendants, hence C(v) = 0.
        assert convex_min_cut_value(g, 16 * 4 + 0) == 0

    def test_butterfly_max_cut_grows_with_size(self):
        small, _ = convex_min_cut_max_value(fft_graph(2))
        large, _ = convex_min_cut_max_value(fft_graph(4))
        assert large >= small
        assert large >= 4  # a non-trivial wavefront exists in B_4

    def test_max_value_and_witness(self):
        g = fft_graph(3)
        max_cut, witness = convex_min_cut_max_value(g)
        assert witness is not None
        assert max_cut == max(convex_min_cut_value(g, v) for v in g.vertices())

    def test_invalid_vertex_rejected(self):
        with pytest.raises(ValueError):
            convex_min_cut_value(chain_graph(3), 10)


class TestBound:
    def test_trivial_when_memory_large(self):
        g = inner_product_graph(3)
        assert convex_min_cut_bound(g, M=64).value == 0.0

    def test_positive_on_butterfly_with_small_memory(self):
        g = fft_graph(4)
        result = convex_min_cut_bound(g, M=3)
        assert result.value > 0
        assert result.method == "convex-min-cut"
        assert result.witness_vertex is not None

    def test_formula_relationship(self):
        g = fft_graph(3)
        max_cut, _ = convex_min_cut_max_value(g)
        for M in (2, 4, 8, 64):
            assert convex_min_cut_bound(g, M).value == max(0.0, 2.0 * (max_cut - M))

    def test_trivial_on_naive_matmul(self):
        """§6.3: the convex min-cut baseline is trivial for naive matmul at the
        paper's memory sizes."""
        g = naive_matmul_graph(4, reduction="flat")
        assert convex_min_cut_bound(g, M=32).value == 0.0

    def test_monotone_nonincreasing_in_memory(self):
        g = fft_graph(4)
        values = [convex_min_cut_bound(g, M).value for M in (2, 4, 8, 16)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_vertex_subset_is_weaker_but_valid(self):
        g = fft_graph(4)
        full = convex_min_cut_bound(g, M=4)
        partial = convex_min_cut_bound(g, M=4, vertices=range(0, g.num_vertices, 7))
        assert partial.value <= full.value

    def test_soundness_against_simulated_upper_bound(self):
        """The baseline is a *lower* bound: it can never exceed the I/O of a
        concrete simulated execution."""
        for graph, M in ((fft_graph(3), 4), (inner_product_graph(4), 3), (diamond_graph(2), 3)):
            lower = convex_min_cut_bound(graph, M).value
            upper = minimum_io_upper_bound(graph, M).total_io
            assert lower <= upper + 1e-9

    def test_empty_graph(self):
        assert convex_min_cut_bound(ComputationGraph(), M=2).value == 0.0


class TestBackendsAndCaching:
    def test_bound_records_backend_and_flow_calls(self):
        g = fft_graph(3)
        result = convex_min_cut_bound(g, M=4)
        assert "backend" not in result.as_dict()
        assert result.flow_calls > 0
        assert result.details["pruned"] >= 0.0

    def test_bound_identical_across_backends(self):
        g = fft_graph(3)
        expected = max(0.0, 2.0 * (max(oracle_cuts(g)) - 3))
        assert convex_min_cut_bound(g, M=3).value == expected

    def test_warm_store_bound_is_flow_free(self, tmp_path):
        from repro.runtime.store import CutStore

        store = CutStore(tmp_path / "cuts")
        g = fft_graph(4)
        cold = convex_min_cut_bound(g, M=3, store=store)
        assert cold.flow_calls > 0
        warm = convex_min_cut_bound(g, M=3, store=store)
        assert warm.value == cold.value
        assert warm.flow_calls == 0
        assert warm.details["store_served"] > 0

    def test_prune_disabled_matches_legacy_witness(self):
        g = fft_graph(3)
        max_cut, witness = convex_min_cut_max_value(g, prune=False)
        # Exhaustive order: the witness is the first maximiser in vertex order.
        cuts = [convex_min_cut_value(g, v) for v in g.vertices()]
        assert witness == cuts.index(max(cuts))


class TestPartitionedVariant:
    def test_partitioned_runs_and_is_nonnegative(self):
        g = fft_graph(3)
        result = partitioned_convex_min_cut_bound(g, M=4)
        assert result.value >= 0.0
        assert result.method == "convex-min-cut-partitioned"
        assert result.details["num_parts"] >= 1

    def test_partitioned_is_trivial_with_default_part_size(self):
        """§6.3: with sub-graphs of 2M vertices the bound collapses to ~0 on
        the complex evaluation graphs — the reason the paper plots the
        whole-graph variant."""
        g = fft_graph(4)
        partitioned = partitioned_convex_min_cut_bound(g, M=8)
        whole = convex_min_cut_bound(g, M=8)
        assert partitioned.value <= max(whole.value, 1e-9) or partitioned.value == 0.0

    def test_custom_part_size(self):
        g = fft_graph(3)
        result = partitioned_convex_min_cut_bound(g, M=4, max_part_size=16)
        assert result.details["max_part_size"] == 16.0

    def test_identical_parts_are_deduplicated(self):
        # A long chain partitions into structurally identical chains: only
        # the distinct fingerprints pay for cuts.
        g = chain_graph(32)
        result = partitioned_convex_min_cut_bound(g, M=2, max_part_size=4)
        assert result.details["num_parts"] == 8.0
        assert result.details["unique_parts"] < result.details["num_parts"]

    def test_partitioned_value_unchanged_by_dedup_and_backend(self):
        # The hypercube splits into two identical halves, each with nonzero
        # per-part bounds; the oracle solves every part, duplicates included.
        g = hypercube_graph(4)
        expected = sum(
            max(0.0, 2.0 * (max(oracle_cuts(g.subgraph(part)[0])) - 1))
            for part in contiguous_topological_partition(g, 8)
        )
        result = partitioned_convex_min_cut_bound(g, M=1, max_part_size=8)
        assert result.details["unique_parts"] < result.details["num_parts"]
        assert result.value == expected > 0.0

    def test_partitioned_uses_cut_store(self, tmp_path):
        from repro.runtime.store import CutStore

        store = CutStore(tmp_path / "cuts")
        # Chain parts have internal edges, so per-part cuts need real flows
        # (an fft's contiguous parts are edgeless columns — trivially zero).
        g = chain_graph(24)
        cold = partitioned_convex_min_cut_bound(g, M=2, max_part_size=6, store=store)
        assert cold.flow_calls > 0
        warm = partitioned_convex_min_cut_bound(g, M=2, max_part_size=6, store=store)
        assert warm.value == cold.value
        assert warm.flow_calls == 0
