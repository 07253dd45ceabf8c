"""repro — Spectral lower bounds on the I/O complexity of computation graphs.

Reproduction of Jain & Zaharia, SPAA 2020.  The package provides:

* :mod:`repro.graphs` — computation-graph data structures, generators for the
  paper's evaluation graphs (FFT butterfly, naive/Strassen matrix
  multiplication, Bellman-Held-Karp hypercube) and Laplacian assembly;
* :mod:`repro.trace` — an operator-overloading tracer that extracts a
  computation graph from ordinary Python code (the "solver" of §6.1);
* :mod:`repro.core` — the spectral bounds (Theorems 4–6), the partition/QP
  machinery they relax, closed-form spectra and the analytical bounds of §5;
* :mod:`repro.solvers` — dense/Lanczos/power-iteration eigensolvers;
* :mod:`repro.baselines` — the convex min-cut automatic baseline and exact
  references for tiny graphs;
* :mod:`repro.pebbling` — a red-blue-pebble-style schedule simulator that
  produces matching *upper* bounds;
* :mod:`repro.parallel` — processor-assignment utilities for the parallel
  bound;
* :mod:`repro.analysis` — sweep, runtime-measurement and reporting harness
  used by the benchmark suite;
* :mod:`repro.runtime` — the production runtime layer: persistent on-disk
  spectrum store, process-pool sweep orchestrator, batch bound service and
  the ``python -m repro`` CLI;
* :mod:`repro.obs` — unified observability: span-based tracing with
  cross-process propagation, the process-global metrics registry, and
  opt-in per-task profiling (``python -m repro obs report``);
* :mod:`repro.server` — the HTTP serving layer over the bound service:
  versioned ``/v1`` JSON batch queries, Prometheus ``/metrics`` and
  admission control of cold solves (``python -m repro serve``).

Quickstart
----------
>>> from repro import fft_graph, spectral_bound
>>> graph = fft_graph(6)            # 2^6-point FFT butterfly
>>> result = spectral_bound(graph, M=8)
>>> result.value > 0
True
"""

from repro.core.bounds import (
    parallel_spectral_bound,
    spectral_bound,
    spectral_bound_unnormalized,
)
from repro.core.closed_form import (
    erdos_renyi_io_bound,
    fft_io_bound,
    hypercube_io_bound,
)
from repro.core.result import (
    BaselineBoundResult,
    ParallelBoundResult,
    SpectralBoundResult,
)
from repro.graphs.compgraph import ComputationGraph
from repro.graphs.generators import (
    bellman_held_karp_graph,
    fft_graph,
    naive_matmul_graph,
    strassen_graph,
)
from repro.runtime.service import BoundQuery, BoundService
from repro.runtime.store import SpectrumStore
from repro.trace.api import trace_computation
from repro.trace.tracer import GraphTracer

__version__ = "1.1.0"

__all__ = [
    "__version__",
    "ComputationGraph",
    "GraphTracer",
    "trace_computation",
    "spectral_bound",
    "spectral_bound_unnormalized",
    "parallel_spectral_bound",
    "fft_io_bound",
    "hypercube_io_bound",
    "erdos_renyi_io_bound",
    "SpectralBoundResult",
    "ParallelBoundResult",
    "BaselineBoundResult",
    "fft_graph",
    "naive_matmul_graph",
    "strassen_graph",
    "bellman_held_karp_graph",
    "SpectrumStore",
    "BoundService",
    "BoundQuery",
]
