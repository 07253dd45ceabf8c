"""Spectral-backend layer benchmark: LOBPCG, warm starts, AMG, scheduling.

Three claims of the pluggable solver layer (PR 3 + PR 6), measured on the
Figure 7 FFT family and persisted to ``BENCH_solvers.json``:

* **warm-started LOBPCG vs cold solves** — sweeping the family through one
  :class:`~repro.solvers.backends.WarmStartContext` leaves the context
  holding the largest level's Ritz block (bounded memory: one block per
  lineage, far smaller than the spectrum caches).  When that level's
  *spectrum* is gone — evicted from the size-capped store or the in-memory
  LRU, or requested by a process whose caches are cold while the context is
  shared — re-solving seeded from the context converges in ~10 shift-invert
  LOBPCG iterations instead of ~20, and the recorded numbers show it beating
  the cold dense *and* cold sparse (ARPACK) backends on the largest CI-scale
  FFT level.  (Cross-level prolongation is deliberately not attempted: see
  :func:`repro.solvers.backends.adapt_subspace` for the measurements.)
* **largest-first per-normalization scheduling** — the same family sweep
  over a 2-worker pool, once with the legacy one-task-per-graph unit and
  once with per-(graph, normalization) tasks scheduled largest-first.  Rows
  are identical to the serial sweep either way; alongside the measured
  wall-clocks the record carries *simulated* 2-worker makespans computed
  from the measured per-task costs, because on single-core containers (like
  the one that produced the checked-in record) a process pool can only
  timeshare and no schedule can win wall-clock.

* **AMG-preconditioned LOBPCG at paper scale** — the ``amg`` backend solves
  the ``h = 16`` smallest eigenvalues of the 114,688-vertex FFT level-13
  Laplacian (matrix-free, through the spectrum cache) on one core in tens
  of seconds, where the ``sparse`` (ARPACK shift-invert) and plain
  ``lobpcg`` backends take ~2 minutes each — the checked-in record shows
  the >=5x speedup (8.65x measured) at the largest shared size.  A second request for the same
  spectrum must perform **zero** eigensolves (the warm-path contract the
  other cache benches assert for the small backends).  The 100k+ vertex
  smoke runs in CI too; baselines run at FFT level 9 there (they are the
  slow side of the comparison) and at level 13 under ``REPRO_BENCH_LARGE=1``,
  optionally restricted via ``REPRO_BENCH_AMG_BASELINES=sparse,lobpcg``.

Defaults are CI scale (chain ``l = 6..9``, pool sweep ``l = 5..8``); set
``REPRO_BENCH_LARGE=1`` for paper-scale levels.  Wall-clock assertions are
disabled with ``REPRO_BENCH_TIMING_ASSERT=0`` (shared CI runners); the
agreement/row-identity/simulation assertions always run.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Sequence, Tuple

import numpy as np

from benchmarks.common import (
    bench_print,
    large_mode,
    merge_perf_record,
    pick,
    print_dict_rows,
    run_once,
    write_perf_record,
)
from repro.graphs.generators import fft_graph
from repro.graphs.laplacian import laplacian
from repro.runtime.orchestrator import SweepOrchestrator
from repro.solvers.backend import EigenSolverOptions
from repro.solvers.backends import WarmStartContext, solve_smallest
from repro.solvers.spectrum_cache import SpectrumCache

CHAIN_LEVELS = pick([6, 7, 8, 9], [8, 9, 10, 11])
SWEEP_LEVELS = pick(list(range(5, 9)), list(range(8, 12)))
MEMORY_SIZES = [4, 8, 16, 32]
METHODS = ("spectral", "spectral-unnormalized")
NUM_EIGENVALUES = 100
POOL_PROCESSES = 2
#: Dense is O(n^3); beyond this it stops being a sensible cold baseline.
DENSE_CAP = 6000

TIMING_ASSERT = os.environ.get("REPRO_BENCH_TIMING_ASSERT", "1") != "0"

#: Paper-scale AMG smoke: always >= 100k vertices, even in CI.
AMG_SMOKE_LEVEL = 13  # (13+1) * 2^13 = 114,688 vertices
AMG_BASELINE_LEVEL = pick(9, 13)
AMG_H = 16
#: Tight budget asserted locally (TIMING_ASSERT); the hard budget always.
AMG_CI_BUDGET_SECONDS = 240.0
AMG_HARD_BUDGET_SECONDS = 600.0
#: Which iterative baselines to time at AMG_BASELINE_LEVEL (comma list;
#: empty = none).  Lets paper-scale runs split the 5+ minute baselines
#: across invocations — the perf record merges per-backend keys.
AMG_BASELINES = tuple(
    name
    for name in os.environ.get("REPRO_BENCH_AMG_BASELINES", "sparse,lobpcg").split(",")
    if name.strip()
)


def _timed_solve(matrix, options, context=None, lineage=None, num_eigenvalues=None):
    start = time.perf_counter()
    result = solve_smallest(
        matrix,
        NUM_EIGENVALUES if num_eigenvalues is None else num_eigenvalues,
        options,
        warm_start=context,
        lineage=lineage,
    )
    return result, time.perf_counter() - start


def test_warm_started_lobpcg_vs_cold_backends(benchmark):
    laplacians = {
        level: laplacian(fft_graph(level), normalized=True, sparse=True)
        for level in CHAIN_LEVELS
    }
    largest = CHAIN_LEVELS[-1]
    n = laplacians[largest].shape[0]
    lobpcg = EigenSolverOptions(method="lobpcg")

    # Family sweep through one warm-start context: each level solves cold
    # (sizes differ, so nothing seeds) and deposits its Ritz block; after
    # the loop the context holds the largest level's block.
    context = WarmStartContext()
    chain_rows = []
    for level in CHAIN_LEVELS:
        result, seconds = _timed_solve(
            laplacians[level], lobpcg, context=context, lineage="fft"
        )
        chain_rows.append(
            {
                "level": level,
                "n": laplacians[level].shape[0],
                "seconds": round(seconds, 4),
                "warm_started": result.warm_started,
            }
        )

    # The headline scenario: the largest level's *spectrum* is gone (LRU /
    # size-capped eviction, or another consumer of the shared context) but
    # the warm context survives — re-solve seeded vs every cold backend.
    warm_result, warm_seconds = run_once(
        benchmark,
        lambda: _timed_solve(laplacians[largest], lobpcg, context=context, lineage="fft"),
    )
    assert warm_result.warm_started

    cold = {}
    cold_results = {}
    cold_results["lobpcg"], cold["lobpcg"] = _timed_solve(laplacians[largest], lobpcg)
    cold_results["sparse"], cold["sparse"] = _timed_solve(
        laplacians[largest], EigenSolverOptions(method="sparse")
    )
    if n <= DENSE_CAP:
        dense_matrix = np.asarray(laplacians[largest].todense())
        cold_results["dense"], cold["dense"] = _timed_solve(
            dense_matrix, EigenSolverOptions(method="dense")
        )
    _, float32_seconds = _timed_solve(
        laplacians[largest], EigenSolverOptions(method="lobpcg", dtype="float32")
    )

    # All backends must agree on the spectrum they produce.
    for name, result in cold_results.items():
        np.testing.assert_allclose(
            result.eigenvalues, warm_result.eigenvalues, atol=1e-6,
            err_msg=f"{name} disagrees with warm lobpcg",
        )

    solver_rows = [
        {"solver": "lobpcg (warm-started)", "seconds": round(warm_seconds, 4)},
        {"solver": "lobpcg (cold)", "seconds": round(cold["lobpcg"], 4)},
        {"solver": "lobpcg float32 (cold)", "seconds": round(float32_seconds, 4)},
        {"solver": "sparse/ARPACK (cold)", "seconds": round(cold["sparse"], 4)},
    ]
    if "dense" in cold:
        solver_rows.append({"solver": "dense (cold)", "seconds": round(cold["dense"], 4)})
    print_dict_rows(
        f"Warm-started LOBPCG vs cold backends (fft level {largest}, n={n}, "
        f"h={NUM_EIGENVALUES})",
        solver_rows,
    )
    print_dict_rows("Warm-start context population (ascending levels)", chain_rows)

    _merge_perf_record(
        {
            "benchmark": "solver_backends_fft",
            "levels": CHAIN_LEVELS,
            "largest_level": largest,
            "largest_n": n,
            "num_eigenvalues": NUM_EIGENVALUES,
            "warm_lobpcg_seconds": round(warm_seconds, 4),
            "cold_lobpcg_seconds": round(cold["lobpcg"], 4),
            "cold_sparse_seconds": round(cold["sparse"], 4),
            "cold_dense_seconds": round(cold.get("dense", float("nan")), 4),
            "cold_lobpcg_float32_seconds": round(float32_seconds, 4),
            "warm_vs_cold_sparse_speedup": round(cold["sparse"] / warm_seconds, 2),
            "warm_vs_cold_dense_speedup": (
                round(cold["dense"] / warm_seconds, 2) if "dense" in cold else None
            ),
            "chain": chain_rows,
        }
    )

    if TIMING_ASSERT:
        assert warm_seconds < cold["sparse"], (
            f"warm lobpcg ({warm_seconds:.3f}s) should beat cold sparse "
            f"({cold['sparse']:.3f}s)"
        )
        if "dense" in cold:
            assert warm_seconds < cold["dense"], (
                f"warm lobpcg ({warm_seconds:.3f}s) should beat cold dense "
                f"({cold['dense']:.3f}s)"
            )


def _row_values(rows):
    """The value-carrying fields of sweep rows (timings excluded)."""
    return [
        (r.family, r.size_param, r.num_vertices, r.num_edges, r.max_in_degree,
         r.memory_size, r.method, round(r.bound, 9), r.best_k)
        for r in rows
    ]


def _timed_family_sweep(**orchestrator_kwargs):
    orchestrator = SweepOrchestrator(
        num_eigenvalues=NUM_EIGENVALUES, **orchestrator_kwargs
    )
    start = time.perf_counter()
    report = orchestrator.run_family(
        "fft", fft_graph, SWEEP_LEVELS, MEMORY_SIZES, methods=METHODS
    )
    return report, time.perf_counter() - start


def _simulate_makespan(
    task_seconds: Sequence[float], submission_order: Sequence[int], workers: int
) -> float:
    """List-scheduling makespan: each task goes to the earliest-free worker.

    This is exactly what ``ProcessPoolExecutor`` does with a FIFO queue, so
    simulating it with the *measured* per-task costs isolates the effect of
    the submission order from pool overhead and core-count limits.
    """
    free_at = [0.0] * workers
    for index in submission_order:
        worker = min(range(workers), key=lambda w: free_at[w])
        free_at[worker] += task_seconds[index]
    return max(free_at)


def _schedule_simulation(serial_split_report, serial_fused_report) -> Tuple[float, float]:
    """Simulated 2-worker makespans: one-task-per-graph vs largest-first split."""
    fused_seconds = serial_fused_report.per_task_seconds
    fused_order = list(range(len(fused_seconds)))  # FIFO in task order
    baseline = _simulate_makespan(fused_seconds, fused_order, POOL_PROCESSES)

    split_seconds = serial_split_report.per_task_seconds
    split_tasks = serial_split_report.tasks
    largest_first = sorted(
        range(len(split_seconds)),
        key=lambda i: (-split_tasks[i].size_estimate, i),
    )
    scheduled = _simulate_makespan(split_seconds, largest_first, POOL_PROCESSES)
    return baseline, scheduled


def test_largest_first_scheduling_vs_one_task_per_graph(benchmark):
    serial_report, serial_seconds = _timed_family_sweep(processes=1)
    serial_fused_report, _ = _timed_family_sweep(processes=1, split_methods=False)
    baseline_report, baseline_seconds = run_once(
        benchmark,
        lambda: _timed_family_sweep(
            processes=POOL_PROCESSES, split_methods=False, largest_first=False
        ),
    )
    scheduled_report, scheduled_seconds = _timed_family_sweep(processes=POOL_PROCESSES)

    # Rows must be identical to the serial sweep whatever the schedule.
    assert _row_values(baseline_report.rows) == _row_values(serial_report.rows)
    assert _row_values(scheduled_report.rows) == _row_values(serial_report.rows)
    # And the split schedule really did start the dominant task first.
    first_scheduled = min(
        scheduled_report.tasks, key=lambda record: record.schedule_rank
    )
    assert first_scheduled.size_estimate == max(
        record.size_estimate for record in scheduled_report.tasks
    )

    # Schedule quality, isolated from pool overhead/core count: simulated
    # 2-worker makespans over the *measured* per-task costs.
    simulated_baseline, simulated_scheduled = _schedule_simulation(
        serial_report, serial_fused_report
    )
    assert simulated_scheduled <= simulated_baseline * 1.001, (
        f"largest-first split makespan ({simulated_scheduled:.3f}s simulated) "
        f"should not lose to one-task-per-graph ({simulated_baseline:.3f}s)"
    )

    rows = [
        {"schedule": "serial", "tasks": len(serial_report.tasks),
         "seconds": round(serial_seconds, 3), "simulated_x2": "-"},
        {"schedule": f"pool x{POOL_PROCESSES}, one task per graph",
         "tasks": len(baseline_report.tasks),
         "seconds": round(baseline_seconds, 3),
         "simulated_x2": round(simulated_baseline, 3)},
        {"schedule": f"pool x{POOL_PROCESSES}, split + largest-first",
         "tasks": len(scheduled_report.tasks),
         "seconds": round(scheduled_seconds, 3),
         "simulated_x2": round(simulated_scheduled, 3)},
    ]
    print_dict_rows(
        f"Pooled scheduling (fft levels {SWEEP_LEVELS}, methods={len(METHODS)}, "
        f"{os.cpu_count()} cores)",
        rows,
    )

    _merge_perf_record(
        {
            "sweep_levels": SWEEP_LEVELS,
            "pool_processes": POOL_PROCESSES,
            "cpu_cores": os.cpu_count(),
            "serial_seconds": round(serial_seconds, 4),
            "one_task_per_graph_seconds": round(baseline_seconds, 4),
            "largest_first_split_seconds": round(scheduled_seconds, 4),
            "simulated_makespan_one_task_per_graph": round(simulated_baseline, 4),
            "simulated_makespan_largest_first_split": round(simulated_scheduled, 4),
            "simulated_scheduling_speedup": round(
                simulated_baseline / simulated_scheduled, 2
            ),
            "rows_identical_to_serial": True,
        }
    )

    # A wall-clock win needs real parallel hardware: with one core the pool
    # can only timeshare, so the measured numbers are recorded but only
    # asserted where a schedule *can* change the outcome.
    if TIMING_ASSERT and (os.cpu_count() or 1) >= 2:
        assert scheduled_seconds < baseline_seconds * 1.05, (
            f"largest-first split schedule ({scheduled_seconds:.3f}s) should not "
            f"lose to the one-task-per-graph baseline ({baseline_seconds:.3f}s)"
        )


def test_amg_paper_scale_vs_iterative(benchmark):
    """The 100k+ vertex AMG smoke plus the shared-size backend comparison."""
    graph = fft_graph(AMG_SMOKE_LEVEL)
    n = graph.num_vertices
    assert n >= 100_000, f"smoke must cover >= 100k vertices, got n={n}"
    amg = EigenSolverOptions(method="amg")

    # Cold solve through the spectrum cache: this exercises the matrix-free
    # LaplacianOperator path end to end (the cache hands operators, not
    # assembled matrices, to iterative backends).
    cache = SpectrumCache()
    cold, cold_seconds = run_once(
        benchmark,
        lambda: _timed_cache_spectrum(cache, graph, amg),
    )
    assert not cold.cache_hit and cache.misses == 1
    assert cold.backend == "amg"
    values = np.asarray(cold.eigenvalues)
    assert values.shape == (AMG_H,)
    assert np.all(np.diff(values) >= -1e-9) and abs(values[0]) < 1e-6

    # Warm-path contract: a second request performs zero eigensolves.
    warm, _ = _timed_cache_spectrum(cache, graph, amg)
    assert warm.cache_hit and cache.misses == 1, "warm path must not eigensolve"

    # Iterative baselines at the largest size every backend shares.
    if AMG_BASELINE_LEVEL == AMG_SMOKE_LEVEL:
        baseline_n = n
        amg_at_baseline_seconds = cold_seconds
        amg_at_baseline_values = values
        baseline_matrix = None
    else:
        baseline_graph = fft_graph(AMG_BASELINE_LEVEL)
        baseline_n = baseline_graph.num_vertices
        baseline_matrix = laplacian(baseline_graph, normalized=True, sparse=True)
        result, amg_at_baseline_seconds = _timed_solve(
            baseline_matrix, amg, num_eigenvalues=AMG_H
        )
        amg_at_baseline_values = result.eigenvalues

    rows = [
        {"solver": "amg (cold)", "level": AMG_BASELINE_LEVEL,
         "seconds": round(amg_at_baseline_seconds, 4)},
    ]
    update = {
        "amg_smoke_level": AMG_SMOKE_LEVEL,
        "amg_smoke_n": n,
        "amg_h": AMG_H,
        "amg_cold_seconds": round(cold_seconds, 4),
        "amg_warm_path_eigensolves": 0,
        "amg_baseline_level": AMG_BASELINE_LEVEL,
        "amg_baseline_n": baseline_n,
        "amg_at_baseline_seconds": round(amg_at_baseline_seconds, 4),
    }
    for name in AMG_BASELINES:
        if baseline_matrix is None:
            baseline_matrix = laplacian(
                fft_graph(AMG_BASELINE_LEVEL), normalized=True, sparse=True
            )
        result, seconds = _timed_solve(
            baseline_matrix, EigenSolverOptions(method=name), num_eigenvalues=AMG_H
        )
        np.testing.assert_allclose(
            result.eigenvalues, amg_at_baseline_values, atol=1e-5,
            err_msg=f"{name} disagrees with amg at level {AMG_BASELINE_LEVEL}",
        )
        rows.append(
            {"solver": f"{name} (cold)", "level": AMG_BASELINE_LEVEL,
             "seconds": round(seconds, 4)}
        )
        update[f"amg_baseline_{name}_seconds"] = round(seconds, 4)
    _prune_stale_amg_baselines()
    _merge_perf_record(update)

    # The headline number: amg vs the *best* iterative baseline at the
    # shared size, computed over every baseline the (possibly split)
    # paper-scale runs have merged into the record so far.
    record = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCH_solvers.json").read_text()
    )
    baseline_seconds = [
        value
        for key, value in record.items()
        if key.startswith("amg_baseline_") and key.endswith("_seconds")
    ]
    speedup = None
    if baseline_seconds and record.get("amg_baseline_level") == AMG_BASELINE_LEVEL:
        speedup = round(min(baseline_seconds) / amg_at_baseline_seconds, 2)
        _merge_perf_record({"amg_vs_best_iterative_speedup": speedup})

    print_dict_rows(
        f"AMG vs iterative backends (fft level {AMG_BASELINE_LEVEL}, "
        f"n={baseline_n}, h={AMG_H}; smoke level {AMG_SMOKE_LEVEL}, n={n}: "
        f"{cold_seconds:.1f}s cold, speedup={speedup})",
        rows,
    )

    assert cold_seconds < AMG_HARD_BUDGET_SECONDS, (
        f"100k-vertex amg smoke blew the hard budget: {cold_seconds:.1f}s"
    )
    if TIMING_ASSERT:
        assert cold_seconds < AMG_CI_BUDGET_SECONDS, (
            f"100k-vertex amg smoke over budget: {cold_seconds:.1f}s "
            f">= {AMG_CI_BUDGET_SECONDS}s"
        )
        if large_mode() and speedup is not None:
            assert speedup >= 5.0, (
                f"amg must beat the best iterative backend >=5x at the "
                f"largest shared size, got {speedup}x"
            )


def _prune_stale_amg_baselines() -> None:
    """Drop baseline timings recorded at a *different* baseline level.

    CI-scale and paper-scale runs share one record; per-backend keys merged
    from a run at another level must not leak into this level's
    best-iterative speedup.
    """
    path = Path(__file__).resolve().parent.parent / "BENCH_solvers.json"
    if not path.exists():
        return
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError:
        return
    if payload.get("amg_baseline_level") == AMG_BASELINE_LEVEL:
        return
    pruned = {
        key: value
        for key, value in payload.items()
        if not (key.startswith("amg_baseline_") and key.endswith("_seconds"))
    }
    pruned.pop("amg_vs_best_iterative_speedup", None)
    if pruned != payload:
        write_perf_record("BENCH_solvers.json", pruned)


def _timed_cache_spectrum(cache, graph, options):
    start = time.perf_counter()
    fetched = cache.spectrum(graph, AMG_H, eig_options=options)
    return fetched, time.perf_counter() - start


def _merge_perf_record(update: dict) -> None:
    """Merge this test's numbers into ``BENCH_solvers.json`` (two tests
    of this file contribute to it)."""
    path = merge_perf_record("BENCH_solvers.json", update)
    bench_print(f"[perf record updated: {path}]")
