"""Shared fixtures for the test-suite.

Graphs used across many test modules are built once per session; they are all
small enough that every bound / simulation / baseline runs in milliseconds.
"""

from __future__ import annotations

import threading

import pytest

import repro.solvers.spectrum_cache as spectrum_cache_module
from repro.graphs.generators import (
    bellman_held_karp_graph,
    fft_graph,
    inner_product_graph,
    naive_matmul_graph,
    strassen_graph,
)


@pytest.fixture(scope="session")
def fft4():
    """16-point FFT butterfly (80 vertices)."""
    return fft_graph(4)


@pytest.fixture(scope="session")
def fft3():
    """8-point FFT butterfly (32 vertices)."""
    return fft_graph(3)


@pytest.fixture(scope="session")
def bhk5():
    """Bellman-Held-Karp hypercube with 5 cities (32 vertices)."""
    return bellman_held_karp_graph(5)


@pytest.fixture(scope="session")
def matmul3():
    """Naive 3x3 matrix multiplication graph (chain reduction)."""
    return naive_matmul_graph(3)


@pytest.fixture(scope="session")
def strassen4():
    """Strassen 4x4 multiplication graph (fused combinations)."""
    return strassen_graph(4)


@pytest.fixture(scope="session")
def dot2():
    """Inner product of two 2-vectors — the 7-vertex graph of Figure 1."""
    return inner_product_graph(2)


@pytest.fixture
def flight_waiters(monkeypatch):
    """Threads that waited on another lookup's flight, in order."""
    waiting: list = []

    class WatchedEvent(threading.Event):
        def wait(self, timeout=None):
            waiting.append(threading.current_thread())
            return super().wait(timeout)

    class WatchedFlight(spectrum_cache_module._Flight):
        def __init__(self) -> None:
            super().__init__()
            self.done = WatchedEvent()

    monkeypatch.setattr(spectrum_cache_module, "_Flight", WatchedFlight)
    return waiting
