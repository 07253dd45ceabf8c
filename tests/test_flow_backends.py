"""Tests for the reusable flow network and its SciPy min-cut solver.

The contract the solver must honour: identical ``C(v, G)`` to the
pure-Python Dinic oracle (:mod:`tests.flow_oracle`) on every vertex of every
DAG (the cut value is an exact integer, so parity is equality, not
approximation).  On top of it, the pruning layer must provably never change
``max_v C(v, G)``, and the caching layers must make warm re-runs flow-free.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.convex_mincut import (
    MinCutEngine,
    convex_min_cut_max_value,
    convex_min_cut_value,
)
from repro.baselines.flownet import INFINITE_CAPACITY, ConvexCutNetwork, ScipyMinCut
from repro.graphs.compgraph import ComputationGraph
from repro.graphs.generators import (
    chain_graph,
    diamond_graph,
    fft_graph,
    hypercube_graph,
    naive_matmul_graph,
)
from repro.graphs.generators.random_graphs import random_dag
from tests.flow_oracle import oracle_cuts

dag_params = st.tuples(
    st.integers(min_value=2, max_value=20),
    st.floats(min_value=0.05, max_value=0.8),
    st.integers(min_value=0, max_value=10_000),
)

common_settings = settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def build(params):
    n, p, seed = params
    return random_dag(n, edge_probability=p, seed=seed)


def scipy_cuts(graph):
    """All C(v, G) via the package's engine (no pruning)."""
    engine = MinCutEngine(graph, prune=False)
    return [engine.cut_value(v) for v in graph.vertices()]


class TestNetworkConstruction:
    def test_arc_layout(self):
        g = diamond_graph(3)
        net = ConvexCutNetwork(g)
        n, m = g.num_vertices, g.num_edges
        assert net.num_nodes == 2 * n + 2
        assert net.num_arcs == 2 * n + 2 * m + n
        assert net.arc_tails.shape == net.arc_heads.shape == net.arc_caps.shape
        # Unit arcs split every vertex with capacity 1.
        assert np.array_equal(net.arc_caps[:n], np.ones(n, dtype=np.int64))
        # Structural arcs are uncuttable.
        assert np.all(net.arc_caps[n : n + 2 * m] == INFINITE_CAPACITY)
        # Source/sink slots start absent (capacity 0).
        assert np.all(net.arc_caps[n + 2 * m :] == 0)
        assert np.array_equal(net.arc_tails[net.source_arc], np.full(n, net.source))
        assert np.array_equal(net.arc_heads[net.sink_arc], np.full(n, net.sink))

    def test_arc_arrays_immutable(self):
        net = ConvexCutNetwork(chain_graph(4))
        with pytest.raises(ValueError):
            net.arc_caps[0] = 5

    def test_terminals_match_graph_reachability(self):
        g = fft_graph(3)
        net = ConvexCutNetwork(g)
        for v in (0, 7, 17, g.num_vertices - 1):
            sources, sinks = net.terminals(v)
            assert set(sources.tolist()) == g.ancestors(v) | {v}
            assert set(sinks.tolist()) == g.descendants(v)

    def test_empty_and_edgeless_graphs(self):
        net = ConvexCutNetwork(ComputationGraph())
        assert net.num_arcs == 0 and net.prefix_upper_bounds().shape == (0,)
        net = ConvexCutNetwork(ComputationGraph(3))
        sources, sinks = net.terminals(1)
        assert sources.tolist() == [1] and sinks.tolist() == []
        assert net.prefix_upper_bounds().tolist() == [0, 0, 0]


class TestUpperBounds:
    def test_bounds_dominate_cut_values(self):
        for graph in (chain_graph(6), diamond_graph(4), fft_graph(3)):
            net = ConvexCutNetwork(graph)
            ub = net.prefix_upper_bounds()
            cuts = oracle_cuts(graph)
            assert all(int(ub[v]) >= cuts[v] for v in graph.vertices())

    def test_sinks_get_exact_zero(self):
        g = fft_graph(3)
        ub = ConvexCutNetwork(g).prefix_upper_bounds()
        for v in g.sinks():
            assert ub[v] == 0

    def test_chain_bounds_are_tight(self):
        g = chain_graph(5)
        ub = ConvexCutNetwork(g).prefix_upper_bounds()
        assert ub.tolist() == [1, 1, 1, 1, 0]

    @given(params=dag_params)
    @common_settings
    def test_bounds_dominate_on_random_dags(self, params):
        graph = build(params)
        net = ConvexCutNetwork(graph)
        ub = net.prefix_upper_bounds()
        engine = MinCutEngine(graph, prune=False)
        for v in graph.vertices():
            assert int(ub[v]) >= engine.cut_value(v)

    @staticmethod
    def single_prefix_ub(graph):
        """The pre-window-min ceiling: the wavefront of the one prefix
        ending right after v (the loosest point of each vertex's window)."""
        n = graph.num_vertices
        order = np.asarray(graph.topological_order(), dtype=np.int64)
        pos = np.empty(n, dtype=np.int64)
        pos[order] = np.arange(n, dtype=np.int64)
        wavefront = np.zeros(n + 1, dtype=np.int64)
        out_degrees = graph.freeze().out_degrees
        if graph.num_edges:
            a, b = graph.freeze().edge_endpoints()
            last_use = np.full(n, -1, dtype=np.int64)
            np.maximum.at(last_use, a, pos[b])
            live = out_degrees > 0
            np.add.at(wavefront, pos[live.nonzero()[0]], 1)
            np.add.at(wavefront, last_use[live], -1)
            np.cumsum(wavefront, out=wavefront)
        return np.where(out_degrees > 0, wavefront[pos], 0)

    def test_window_min_never_looser_than_single_prefix(self):
        for graph in (chain_graph(6), diamond_graph(4), fft_graph(4),
                      hypercube_graph(3), naive_matmul_graph(2)):
            ub = ConvexCutNetwork(graph).prefix_upper_bounds()
            assert np.all(ub <= self.single_prefix_ub(graph))

    def test_window_min_strictly_tightens_butterfly(self):
        # On the FFT butterfly the wavefront dips inside many vertices'
        # valid windows, so the window minimum must beat the single-prefix
        # ceiling somewhere (this is the ROADMAP "tighter ceiling" item).
        graph = fft_graph(4)
        ub = ConvexCutNetwork(graph).prefix_upper_bounds()
        assert np.any(ub < self.single_prefix_ub(graph))

    @given(params=dag_params)
    @common_settings
    def test_window_min_sandwiched_on_random_dags(self, params):
        """cuts <= window-min ub <= single-prefix ub, vertex by vertex."""
        graph = build(params)
        ub = ConvexCutNetwork(graph).prefix_upper_bounds()
        loose = self.single_prefix_ub(graph)
        engine = MinCutEngine(graph, prune=False)
        for v in graph.vertices():
            assert engine.cut_value(v) <= int(ub[v]) <= int(loose[v])

    def test_candidate_order_is_descending_ub(self):
        g = fft_graph(3)
        net = ConvexCutNetwork(g)
        ordered = net.candidate_order(np.arange(g.num_vertices))
        ub = net.prefix_upper_bounds()
        values = ub[ordered]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestBackendParity:
    def test_closed_form_families(self):
        for graph in (chain_graph(6), diamond_graph(4), fft_graph(3),
                      hypercube_graph(3), naive_matmul_graph(2)):
            assert scipy_cuts(graph) == oracle_cuts(graph)

    @given(params=dag_params)
    @common_settings
    def test_random_dag_parity(self, params):
        """SciPy agrees with the Dinic oracle on every vertex."""
        graph = build(params)
        assert scipy_cuts(graph) == oracle_cuts(graph)

    @given(params=dag_params)
    @common_settings
    def test_pruned_max_equals_exhaustive_max(self, params):
        """The acceptance criterion: pruning never changes max_v C(v, G)."""
        graph = build(params)
        exhaustive = max(oracle_cuts(graph))
        assert convex_min_cut_max_value(graph, prune=False)[0] == exhaustive
        pruned_max, witness = MinCutEngine(graph, prune=True).max_cut()
        assert pruned_max == exhaustive
        assert witness is not None

    def test_persistent_backend_state_is_reset_between_solves(self):
        """Back-to-back solves on one solver instance must not leak stale
        capacities or source/sink attachments."""
        g = fft_graph(3)
        expected = oracle_cuts(g)
        net = ConvexCutNetwork(g)
        solver = ScipyMinCut(net)
        for _ in range(2):  # second pass hits the same instance again
            for v in g.vertices():
                if not net.has_descendants(v):
                    continue
                sources, sinks = net.terminals(v)
                assert solver.min_cut(sources, sinks) == expected[v]

    def test_flow_calls_counter(self):
        g = diamond_graph(3)
        net = ConvexCutNetwork(g)
        solver = ScipyMinCut(net)
        assert solver.flow_calls == 0
        sources, sinks = net.terminals(0)
        solver.min_cut(sources, sinks)
        solver.min_cut(sources, sinks)
        assert solver.flow_calls == 2


class TestMinCutEngine:
    def test_memory_cache_makes_repeat_queries_flow_free(self):
        engine = MinCutEngine(fft_graph(3))
        first, witness = engine.max_cut()
        flows = engine.flow_calls
        assert flows > 0
        again, witness_again = engine.max_cut()
        assert (again, witness_again) == (first, witness)
        assert engine.flow_calls == flows  # nothing re-solved

    def test_pruning_skips_candidates(self):
        g = fft_graph(4)
        pruned = MinCutEngine(g, prune=True)
        exhaustive = MinCutEngine(g, prune=False)
        assert pruned.max_cut()[0] == exhaustive.max_cut()[0]
        assert pruned.flow_calls < exhaustive.flow_calls
        assert pruned.pruned > 0

    def test_engine_matches_legacy_function(self):
        g = diamond_graph(4)
        engine = MinCutEngine(g)
        for v in g.vertices():
            assert engine.cut_value(v) == convex_min_cut_value(g, v)

    def test_invalid_vertex_rejected(self):
        engine = MinCutEngine(chain_graph(3))
        with pytest.raises(ValueError):
            engine.cut_value(10)
        with pytest.raises(ValueError):
            engine.max_cut([0, 99])

    def test_empty_candidates(self):
        assert MinCutEngine(chain_graph(3)).max_cut([]) == (0, None)
        assert MinCutEngine(ComputationGraph()).max_cut() == (0, None)

    def test_stats_shape(self):
        engine = MinCutEngine(fft_graph(3))
        engine.max_cut()
        stats = engine.stats()
        assert set(stats) == {
            "flow_calls", "store_served", "pruned", "cut_seconds", "trace_id", "span_id",
        }
        assert stats["flow_calls"] == engine.flow_calls > 0
        assert stats["cut_seconds"] > 0.0


class TestWarmStore:
    def test_warm_engine_is_flow_free(self, tmp_path):
        from repro.runtime.store import CutStore

        store = CutStore(tmp_path / "store")
        g = fft_graph(3)
        cold = MinCutEngine(g, store=store)
        cold_max, _ = cold.max_cut()
        assert cold.flow_calls > 0
        assert store.stats()["flows_recorded"] == cold.flow_calls

        warm = MinCutEngine(g, store=store)
        warm_max, _ = warm.max_cut()
        assert warm_max == cold_max
        assert warm.flow_calls == 0
        assert warm.store_served > 0

    def test_store_is_backend_independent(self, tmp_path):
        """Cut tables recorded under a max-flow backend id that no longer
        exists (older builds offered ``dinic``/``array-dinic``) still serve:
        cut values are exact, so the recorded backend is provenance only."""
        from repro.runtime.store import CutStore

        store = CutStore(tmp_path / "store")
        g = diamond_graph(4)
        cuts = oracle_cuts(g)
        store.merge(
            g.fingerprint(), list(g.vertices()), cuts, flow_calls=len(cuts),
            backend="array-dinic",
        )
        warm = MinCutEngine(g, store=store)
        assert warm.max_cut()[0] == max(cuts)
        assert warm.flow_calls == 0

    def test_partial_table_serves_known_vertices_only(self, tmp_path):
        from repro.runtime.store import CutStore

        store = CutStore(tmp_path / "store")
        g = fft_graph(3)
        seed = MinCutEngine(g, store=store)
        seed.max_cut(range(0, g.num_vertices, 2))
        warm = MinCutEngine(g, store=store)
        warm.max_cut()  # full candidate set: odd vertices may need flows
        full = MinCutEngine(g, prune=False).max_cut()[0]
        assert warm.max_cut()[0] == full
