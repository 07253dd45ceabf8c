"""Known-answer tests for the pure-Python Dinic max-flow oracle.

The flow-network tests trust :mod:`tests.flow_oracle` as the reference the
SciPy solver must match; these tests anchor the oracle itself to hand-checked
max-flow values.
"""

from __future__ import annotations

import pytest

from tests.flow_oracle import INFINITE_CAPACITY, MaxFlowSolver


class TestBasicFlows:
    def test_single_edge(self):
        solver = MaxFlowSolver(2)
        solver.add_edge(0, 1, 5)
        assert solver.max_flow(0, 1) == 5

    def test_series_edges_bottleneck(self):
        solver = MaxFlowSolver(3)
        solver.add_edge(0, 1, 5)
        solver.add_edge(1, 2, 3)
        assert solver.max_flow(0, 2) == 3

    def test_parallel_paths_sum(self):
        solver = MaxFlowSolver(4)
        solver.add_edge(0, 1, 2)
        solver.add_edge(1, 3, 2)
        solver.add_edge(0, 2, 3)
        solver.add_edge(2, 3, 3)
        assert solver.max_flow(0, 3) == 5

    def test_disconnected_zero_flow(self):
        solver = MaxFlowSolver(4)
        solver.add_edge(0, 1, 4)
        solver.add_edge(2, 3, 4)
        assert solver.max_flow(0, 3) == 0

    def test_classic_network(self):
        # CLRS-style example.
        solver = MaxFlowSolver(6)
        edges = [
            (0, 1, 16),
            (0, 2, 13),
            (1, 2, 10),
            (2, 1, 4),
            (1, 3, 12),
            (3, 2, 9),
            (2, 4, 14),
            (4, 3, 7),
            (3, 5, 20),
            (4, 5, 4),
        ]
        for u, v, c in edges:
            solver.add_edge(u, v, c)
        assert solver.max_flow(0, 5) == 23

    def test_infinite_capacity_arcs(self):
        solver = MaxFlowSolver(4)
        solver.add_edge(0, 1, INFINITE_CAPACITY)
        solver.add_edge(1, 2, 7)
        solver.add_edge(2, 3, INFINITE_CAPACITY)
        assert solver.max_flow(0, 3) == 7

    def test_long_chain_no_recursion_issue(self):
        """The iterative DFS must handle very long augmenting paths."""
        length = 5000
        solver = MaxFlowSolver(length)
        for v in range(length - 1):
            solver.add_edge(v, v + 1, 2)
        assert solver.max_flow(0, length - 1) == 2


class TestMinCut:
    def test_source_side_after_flow(self):
        solver = MaxFlowSolver(4)
        solver.add_edge(0, 1, 1)
        solver.add_edge(1, 2, 10)
        solver.add_edge(2, 3, 10)
        assert solver.max_flow(0, 3) == 1
        side = solver.min_cut_source_side(0)
        assert side == {0}

    def test_cut_value_matches_flow(self):
        solver = MaxFlowSolver(5)
        edges = [(0, 1, 3), (0, 2, 2), (1, 3, 2), (2, 3, 3), (3, 4, 4)]
        for u, v, c in edges:
            solver.add_edge(u, v, c)
        flow = solver.max_flow(0, 4)
        side = solver.min_cut_source_side(0)
        cut = sum(c for u, v, c in edges if u in side and v not in side)
        assert flow == cut == 4


class TestValidation:
    def test_bad_nodes_rejected(self):
        solver = MaxFlowSolver(2)
        with pytest.raises(ValueError):
            solver.add_edge(0, 5, 1)
        with pytest.raises(ValueError):
            solver.max_flow(0, 9)

    def test_same_source_sink_rejected(self):
        solver = MaxFlowSolver(2)
        with pytest.raises(ValueError):
            solver.max_flow(1, 1)

    def test_negative_capacity_rejected(self):
        solver = MaxFlowSolver(2)
        with pytest.raises(ValueError):
            solver.add_edge(0, 1, -1)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            MaxFlowSolver(-1)
