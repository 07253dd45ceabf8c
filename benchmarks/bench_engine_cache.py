"""BoundEngine + SpectrumCache vs per-call bounds on the Figure 7 FFT family.

The point of the engine layer: a figure sweep evaluates every (M, method)
combination on each graph, but the eigensolve only depends on the graph and
the normalisation.  This benchmark runs the Figure 7 FFT family both ways —

* **per-call**: ``spectral_bound(graph, M, normalized=...)`` for every
  (M, method) combination, exactly what the pre-engine pipeline did (one
  eigensolve per combination);
* **engine**: one ``BoundEngine.sweep`` per graph over the same combinations
  (one eigensolve per (graph, normalisation), i.e. two per graph).

It asserts the two produce identical bounds, that the engine performs exactly
``2 * len(LEVELS)`` eigensolves, and that the engine sweep is at least 3x
faster end-to-end.  The measured numbers are persisted to
``BENCH_engine.json`` at the repository root as a perf record.

Defaults sweep ``l = 5..8``; set ``REPRO_BENCH_LARGE=1`` for the paper's
``l = 8..12`` range.
"""

from __future__ import annotations

import os
import time

import pytest

from benchmarks.common import bench_print, engine_for, pick, run_once, write_perf_record
from repro import obs
from repro.core.bounds import spectral_bound
from repro.graphs.generators import fft_graph
from repro.solvers.spectrum_cache import SpectrumCache

LEVELS = pick(list(range(5, 9)), list(range(8, 13)))
MEMORY_SIZES = [4, 8, 16, 32]
METHODS = ("spectral", "spectral-unnormalized")
NUM_EIGENVALUES = 100


@pytest.fixture(scope="module")
def fft_family():
    return {level: fft_graph(level) for level in LEVELS}


def _per_call_sweep(graphs):
    """The pre-engine pipeline: one eigensolve per (graph, M, method)."""
    bounds = {}
    for level, graph in graphs.items():
        for method in METHODS:
            for M in MEMORY_SIZES:
                result = spectral_bound(
                    graph,
                    M,
                    num_eigenvalues=NUM_EIGENVALUES,
                    normalized=method == "spectral",
                )
                bounds[(level, method, M)] = result.value
    return bounds


def _engine_sweep(graphs, cache):
    """One BoundEngine.sweep per graph; eigensolves shared via ``cache``."""
    bounds = {}
    eigensolves = 0
    for level, graph in graphs.items():
        engine = engine_for(graph, num_eigenvalues=NUM_EIGENVALUES, cache=cache)
        for point in engine.sweep(MEMORY_SIZES, methods=METHODS):
            bounds[(level, point.method, point.memory_size)] = point.bound
        eigensolves += engine.num_eigensolves
    return bounds, eigensolves


def test_engine_cache_speedup(benchmark, fft_family):
    """The engine sweep matches per-call bounds with ~|M| x fewer solves."""
    start = time.perf_counter()
    per_call_bounds = _per_call_sweep(fft_family)
    per_call_seconds = time.perf_counter() - start

    cache = SpectrumCache(max_entries=2 * len(LEVELS))
    start = time.perf_counter()
    engine_bounds, eigensolves = _engine_sweep(fft_family, cache)
    engine_seconds = time.perf_counter() - start

    # Identical bounds, exactly one eigensolve per (graph, normalisation).
    assert engine_bounds.keys() == per_call_bounds.keys()
    for key, value in per_call_bounds.items():
        assert engine_bounds[key] == pytest.approx(value, rel=1e-9, abs=1e-9)
    assert eigensolves == 2 * len(LEVELS)
    assert cache.misses == 2 * len(LEVELS)

    per_call_solves = len(LEVELS) * len(METHODS) * len(MEMORY_SIZES)
    speedup = per_call_seconds / engine_seconds if engine_seconds > 0 else float("inf")

    bench_print()
    bench_print("== BoundEngine spectrum-cache speedup (Figure 7 FFT family) ==")
    bench_print(f"  levels: {LEVELS}, memory sizes: {MEMORY_SIZES}, methods: {METHODS}")
    bench_print(
        f"  per-call: {per_call_seconds:8.3f}s  ({per_call_solves} eigensolves)"
    )
    bench_print(f"  engine:   {engine_seconds:8.3f}s  ({eigensolves} eigensolves)")
    bench_print(f"  speedup:  {speedup:8.2f}x")

    path = write_perf_record(
        "BENCH_engine.json",
        {
            "benchmark": "engine_spectrum_cache_fft",
            "levels": LEVELS,
            "memory_sizes": MEMORY_SIZES,
            "methods": list(METHODS),
            "num_eigenvalues": NUM_EIGENVALUES,
            "per_call_seconds": round(per_call_seconds, 4),
            "per_call_eigensolves": per_call_solves,
            "engine_seconds": round(engine_seconds, 4),
            "engine_eigensolves": eigensolves,
            "speedup": round(speedup, 2),
        },
    )
    bench_print(f"[perf record written to {path}]")

    # The acceptance bar: amortising |M| x |methods| = 8 eigensolves into 2
    # must be at least a 3x end-to-end win (it is ~5x in practice).  The
    # wall-clock assertion can be disabled (REPRO_BENCH_TIMING_ASSERT=0) on
    # noisy shared runners; the eigensolve-count asserts above prove the
    # amortisation deterministically either way.
    if os.environ.get("REPRO_BENCH_TIMING_ASSERT", "1") != "0":
        assert speedup >= 3.0, f"engine sweep only {speedup:.2f}x faster than per-call"

    # Time the engine sweep (on a fresh cache) as the tracked benchmark.
    run_once(
        benchmark,
        lambda: _engine_sweep(fft_family, SpectrumCache(max_entries=2 * len(LEVELS))),
    )


def test_warm_cache_sweep_is_solve_free(fft_family):
    """A second sweep over the same family reuses every spectrum."""
    cache = SpectrumCache(max_entries=2 * len(LEVELS))
    _engine_sweep(fft_family, cache)
    misses_before = cache.misses
    _, eigensolves = _engine_sweep(fft_family, cache)
    assert eigensolves == 0
    assert cache.misses == misses_before


def test_disabled_obs_is_noop_on_hot_path(fft_family):
    """Disabled tracing must be invisible on the engine hot path (<2%).

    With no tracer configured ``obs.span`` hands back one shared no-op
    object (asserted by identity — the disabled path allocates no span),
    so the only residual cost is the call itself.  The guard prices that
    call at one span site per (graph, M, method) combination — already an
    overcount: a fully warm sweep performs zero eigensolves, so it enters
    zero eigensolve spans — and requires the total to stay under 2% of the
    measured warm-sweep wall time.
    """
    obs.disable()
    assert not obs.enabled()
    noop = obs.span("eigensolve", fingerprint=None)
    assert noop is obs.span("mincut")  # shared singleton, not a fresh object

    cache = SpectrumCache(max_entries=2 * len(LEVELS))
    _engine_sweep(fft_family, cache)  # warm every spectrum
    warm_seconds = min(
        _timed(lambda: _engine_sweep(fft_family, cache)) for _ in range(3)
    )

    calls = 20000
    start = time.perf_counter()
    for _ in range(calls):
        with obs.span("eigensolve", fingerprint=None, h=100):
            pass
    per_span = (time.perf_counter() - start) / calls

    sites = len(LEVELS) * len(METHODS) * len(MEMORY_SIZES)
    overhead = per_span * sites
    bench_print()
    bench_print("== disabled-obs overhead guard ==")
    bench_print(
        f"  warm sweep: {warm_seconds * 1e3:8.3f}ms, no-op span: "
        f"{per_span * 1e9:6.1f}ns, {sites} sites -> "
        f"{overhead / warm_seconds * 100:.3f}% overhead"
    )
    if os.environ.get("REPRO_BENCH_TIMING_ASSERT", "1") != "0":
        assert overhead < 0.02 * warm_seconds, (
            f"no-op observability costs {overhead / warm_seconds * 100:.2f}% "
            f"of a warm sweep (budget 2%)"
        )


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
