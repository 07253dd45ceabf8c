"""Spectral-backend layer benchmark: AMG and scheduling.

Two claims of the pluggable solver layer, measured on the Figure 7 FFT
family and persisted to ``BENCH_solvers.json`` (``bench_solvers.py`` times
every backend cold):

* **largest-first per-normalization scheduling** — the family sweep over a
  2-worker pool, whose per-(graph, normalization) tasks are submitted
  largest-first, returns the serial sweep's rows.  The record carries two
  *simulated* 2-worker makespans, both computed from the task costs of the
  one serial sweep: one task per graph (the sum of its method tasks,
  submitted in graph order) against the split tasks submitted
  largest-first.  Simulating isolates the schedule from pool overhead, core
  count and BLAS threading, and taking both sides from one run keeps
  between-run noise out of the comparison.

* **AMG-preconditioned LOBPCG at paper scale** — the ``amg`` backend solves
  the ``h = 16`` smallest eigenvalues of the 114,688-vertex FFT level-13
  Laplacian (through the spectrum cache) on one core in about ten
  seconds, equal to the closed-form butterfly spectrum to 1e-9, where
  the shift-inverted ``lobpcg`` backend pays a sparse LU factorisation
  whose fill grows superlinearly with the graph.  A second
  request for the same spectrum must perform **zero** eigensolves (the
  warm-path contract the other cache benches assert for the small
  backends).  The 100k+ vertex smoke runs in CI too; baselines run at FFT
  level 9 there (they are the slow side of the comparison) and at level 13
  under ``REPRO_BENCH_LARGE=1``, where timing assertions also require amg
  to beat the best baseline >=5x.  ``REPRO_BENCH_AMG_BASELINES`` names the
  baselines (default ``lobpcg``; empty skips them).

Defaults are CI scale (pool sweep ``l = 5..8``); set
``REPRO_BENCH_LARGE=1`` for paper-scale levels.  Wall-clock assertions are
disabled with ``REPRO_BENCH_TIMING_ASSERT=0`` (shared CI runners); the
agreement/row-identity/simulation assertions always run.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, Sequence, Tuple

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
from repro.core.spectra import butterfly_spectrum_array
from repro.graphs.generators import fft_graph
from repro.graphs.laplacian import laplacian
from repro.runtime.orchestrator import SweepOrchestrator
from repro.solvers.backends import solve_smallest
from repro.solvers.spectrum_cache import SpectrumCache

SWEEP_LEVELS = pick(list(range(5, 9)), list(range(8, 12)))
MEMORY_SIZES = [4, 8, 16, 32]
METHODS = ("spectral", "spectral-unnormalized")
NUM_EIGENVALUES = 100
POOL_PROCESSES = 2

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
    for name in os.environ.get("REPRO_BENCH_AMG_BASELINES", "lobpcg").split(",")
    if name.strip()
)


def _timed_solve(matrix, solver, num_eigenvalues):
    start = time.perf_counter()
    result = solve_smallest(matrix, num_eigenvalues, solver)
    return result, time.perf_counter() - start


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


def _schedule_simulation(serial_report) -> Tuple[float, float]:
    """Simulated 2-worker makespans: one task per graph vs split tasks.

    Both come from the task costs of one serial sweep.  A graph's one-task
    cost is the sum of its method tasks, submitted FIFO in graph order; the
    split tasks are submitted by descending size estimate, as the pool
    submits them.
    """
    tasks = serial_report.tasks
    graph_seconds: Dict[Tuple[str, int], float] = {}
    for record in tasks:
        key = (record.family, record.size_param)
        graph_seconds[key] = graph_seconds.get(key, 0.0) + record.seconds
    per_graph = list(graph_seconds.values())  # insertion order = graph order
    baseline = _simulate_makespan(per_graph, range(len(per_graph)), POOL_PROCESSES)
    submission = sorted(
        range(len(tasks)), key=lambda i: (-tasks[i].size_estimate, i)
    )
    scheduled = _simulate_makespan(
        [record.seconds for record in tasks], submission, POOL_PROCESSES
    )
    return baseline, scheduled


def test_split_schedule_vs_one_task_per_graph(benchmark):
    serial_report, serial_seconds = _timed_family_sweep(processes=1)
    pooled_report, pooled_seconds = run_once(
        benchmark, lambda: _timed_family_sweep(processes=POOL_PROCESSES)
    )

    # Rows must be identical to the serial sweep.
    assert _row_values(pooled_report.rows) == _row_values(serial_report.rows)
    # And the pool really did start the dominant task first.
    first_scheduled = min(pooled_report.tasks, key=lambda record: record.schedule_rank)
    assert first_scheduled.size_estimate == max(
        record.size_estimate for record in pooled_report.tasks
    )

    # Schedule quality, isolated from pool overhead, core count and
    # between-run noise: simulated 2-worker makespans over the task costs
    # of the one serial sweep.
    simulated_baseline, simulated_scheduled = _schedule_simulation(serial_report)
    assert simulated_scheduled <= simulated_baseline * 1.001, (
        f"largest-first split makespan ({simulated_scheduled:.3f}s simulated) "
        f"should not lose to one-task-per-graph ({simulated_baseline:.3f}s)"
    )

    rows = [
        {"schedule": "serial", "tasks": len(serial_report.tasks),
         "seconds": round(serial_seconds, 3), "simulated_x2": "-"},
        {"schedule": "one task per graph (simulated)",
         "tasks": len({(r.family, r.size_param) for r in serial_report.tasks}),
         "seconds": "-", "simulated_x2": round(simulated_baseline, 3)},
        {"schedule": f"pool x{POOL_PROCESSES}, split + largest-first",
         "tasks": len(pooled_report.tasks),
         "seconds": round(pooled_seconds, 3),
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
            "pooled_split_seconds": round(pooled_seconds, 4),
            "simulated_makespan_one_task_per_graph": round(simulated_baseline, 4),
            "simulated_makespan_split": round(simulated_scheduled, 4),
            "simulated_scheduling_speedup": round(
                simulated_baseline / simulated_scheduled, 2
            ),
            "rows_identical_to_serial": True,
        }
    )


def test_amg_paper_scale_vs_iterative(benchmark):
    """The 100k+ vertex AMG smoke plus the shared-size backend comparison."""
    graph = fft_graph(AMG_SMOKE_LEVEL)
    n = graph.num_vertices
    assert n >= 100_000, f"smoke must cover >= 100k vertices, got n={n}"
    # Cold solve through the spectrum cache: Laplacian assembly, the AMG
    # hierarchy and LOBPCG end to end.
    cache = SpectrumCache()
    cold, cold_seconds = run_once(
        benchmark,
        lambda: _timed_cache_spectrum(cache, graph, "amg"),
    )
    assert not cold.cache_hit and cache.misses == 1
    assert cold.backend == "amg"
    values = np.asarray(cold.eigenvalues)
    assert values.shape == (AMG_H,)
    # Every fft vertex with out-edges has out-degree 2, so the normalised
    # Laplacian is L / 2 bit for bit, and its spectrum the closed form's
    # halved.
    np.testing.assert_allclose(
        values, butterfly_spectrum_array(AMG_SMOKE_LEVEL)[:AMG_H] / 2, rtol=0, atol=1e-9,
        err_msg=f"amg disagrees with the closed form at fft:{AMG_SMOKE_LEVEL}",
    )

    # Warm-path contract: a second request performs zero eigensolves.
    warm, _ = _timed_cache_spectrum(cache, graph, "amg")
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
        result, amg_at_baseline_seconds = _timed_solve(baseline_matrix, "amg", AMG_H)
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
        result, seconds = _timed_solve(baseline_matrix, name, AMG_H)
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


def _timed_cache_spectrum(cache, graph, solver):
    start = time.perf_counter()
    fetched = cache.spectrum(graph, AMG_H, solver=solver)
    return fetched, time.perf_counter() - start


def _merge_perf_record(update: dict) -> None:
    """Merge this test's numbers into ``BENCH_solvers.json`` (both tests
    of this file contribute to it)."""
    path = merge_perf_record("BENCH_solvers.json", update)
    bench_print(f"[perf record updated: {path}]")
