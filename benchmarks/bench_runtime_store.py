"""Persistent store + pooled orchestration on the Figure 7 FFT family.

Two claims of the runtime subsystem, measured on the same family sweep the
engine benchmark uses:

* **cold vs warm** — a sweep against a fresh :class:`SpectrumStore` pays one
  eigensolve per (graph, normalisation) and publishes every spectrum; the
  *same* sweep re-run against that store (fresh process-level caches)
  performs **zero** eigensolves and is correspondingly faster;
* **serial vs pooled** — a cold sweep fanned over a 2-worker process pool
  finishes faster than the serial loop once the per-graph work dominates
  the pool startup cost (paper-scale graphs; at CI scale the numbers are
  recorded but not asserted);
* **flat in store size** — a ``put`` (one catalog insert) and a ``get``
  (one indexed ``SELECT`` of the row holding the eigenvalues) cost the same
  at 10 and at 10,000 entries.  The assertion is a ratio of medians from the same run on
  the same host, so it holds on shared runners too.

The measured numbers are persisted to ``BENCH_runtime.json`` at the
repository root as a perf record.

Defaults sweep ``l = 5..8`` and scale the store to 10,000 entries; set
``REPRO_BENCH_LARGE=1`` for the paper's ``l = 8..12`` range and 100,000
entries.
"""

from __future__ import annotations

import os
import random
import statistics
import time

import numpy as np

from benchmarks.common import (
    bench_print,
    merge_perf_record,
    orchestrated_sweep,
    pick,
    run_once,
)
from repro.graphs.generators import fft_graph
from repro.runtime.store import SpectrumStore

LEVELS = pick(list(range(5, 9)), list(range(8, 13)))
MEMORY_SIZES = [4, 8, 16, 32]
METHODS = ("spectral", "spectral-unnormalized")
NUM_EIGENVALUES = 100
POOL_PROCESSES = 2
#: Store sizes (entries) at which put/get latency is sampled.
SCALE_SIZES = pick([10, 1_000, 10_000], [10, 1_000, 10_000, 100_000])
SCALE_SAMPLES = 100
#: Largest allowed p50(10,000 entries) / p50(10 entries), for put and get.
SCALE_MAX_RATIO = 3.0


def _timed_sweep(store_root, processes: int = 1):
    start = time.perf_counter()
    report = orchestrated_sweep(
        "fft",
        fft_graph,
        LEVELS,
        MEMORY_SIZES,
        methods=METHODS,
        num_eigenvalues=NUM_EIGENVALUES,
        store=SpectrumStore(store_root) if store_root else None,
        processes=processes,
    )
    return report, time.perf_counter() - start


def test_runtime_store_cold_warm_and_pooled(benchmark, tmp_path):
    store_root = tmp_path / "spectra"

    cold_report, cold_seconds = _timed_sweep(store_root)
    warm_report, warm_seconds = _timed_sweep(store_root)

    # The subsystem's contract: the first run solves once per (graph,
    # normalisation) and the second run never solves at all.
    expected_solves = len(LEVELS) * len(METHODS)
    assert cold_report.num_eigensolves == expected_solves
    assert warm_report.num_eigensolves == 0
    assert SpectrumStore(store_root).stats()["solves_recorded"] == expected_solves
    cold_bounds = [r.bound for r in cold_report.rows]
    assert [r.bound for r in warm_report.rows] == cold_bounds

    # Pooled cold run on its own store: identical rows, same solve count
    # (each worker solves its own graphs; nothing solved twice).
    pool_root = tmp_path / "spectra-pooled"
    pooled_report, pooled_seconds = _timed_sweep(pool_root, processes=POOL_PROCESSES)
    assert pooled_report.num_eigensolves == expected_solves
    assert [r.bound for r in pooled_report.rows] == cold_bounds

    warm_speedup = cold_seconds / warm_seconds if warm_seconds > 0 else float("inf")
    pool_speedup = cold_seconds / pooled_seconds if pooled_seconds > 0 else float("inf")

    bench_print()
    bench_print("== Persistent spectrum store + pooled sweep (Figure 7 FFT family) ==")
    bench_print(f"  levels: {LEVELS}, memory sizes: {MEMORY_SIZES}, methods: {METHODS}")
    bench_print(
        f"  cold (serial):  {cold_seconds:8.3f}s  ({cold_report.num_eigensolves} eigensolves)"
    )
    bench_print(
        f"  warm (serial):  {warm_seconds:8.3f}s  ({warm_report.num_eigensolves} eigensolves)"
    )
    bench_print(
        f"  cold (pool x{POOL_PROCESSES}): {pooled_seconds:8.3f}s  "
        f"({pooled_report.num_eigensolves} eigensolves)"
    )
    bench_print(f"  warm speedup:   {warm_speedup:8.2f}x")
    bench_print(f"  pool speedup:   {pool_speedup:8.2f}x  (vs serial cold)")

    path = merge_perf_record(
        "BENCH_runtime.json",
        {
            "benchmark": "runtime_store_fft",
            "levels": LEVELS,
            "memory_sizes": MEMORY_SIZES,
            "methods": list(METHODS),
            "num_eigenvalues": NUM_EIGENVALUES,
            "cold_seconds": round(cold_seconds, 4),
            "cold_eigensolves": cold_report.num_eigensolves,
            "warm_seconds": round(warm_seconds, 4),
            "warm_eigensolves": warm_report.num_eigensolves,
            "warm_speedup": round(warm_speedup, 2),
            "pool_processes": POOL_PROCESSES,
            "pooled_seconds": round(pooled_seconds, 4),
            "pooled_eigensolves": pooled_report.num_eigensolves,
            "pool_speedup": round(pool_speedup, 2),
        },
    )
    bench_print(f"[perf record written to {path}]")

    # Skipping every eigensolve must be an end-to-end win.  Wall-clock
    # assertions can be disabled on noisy shared runners; the eigensolve
    # counts above prove the store behaviour deterministically either way.
    if os.environ.get("REPRO_BENCH_TIMING_ASSERT", "1") != "0":
        assert warm_speedup >= 1.5, f"warm run only {warm_speedup:.2f}x faster than cold"

    # Track the warm sweep (fresh in-memory caches, warm disk) over time.
    def warm_sweep():
        return _timed_sweep(store_root)[0]

    run_once(benchmark, warm_sweep)


def test_store_survives_process_boundary(tmp_path):
    """A pooled run warms the store for a later serial run, and vice versa."""
    store_root = tmp_path / "spectra"
    pooled, _ = _timed_sweep(store_root, processes=POOL_PROCESSES)
    assert pooled.num_eigensolves == len(LEVELS) * len(METHODS)
    serial, _ = _timed_sweep(store_root)
    assert serial.num_eigensolves == 0


def test_store_put_get_cost_is_flat_in_store_size(tmp_path):
    """p50 put/get latency at growing store sizes, on one store."""
    store = SpectrumStore(tmp_path / "scale")
    values = np.linspace(0.0, 2.0, 32)
    rng = random.Random(0)
    count = 0  # entries in the store; entry i has fingerprint f"{i:064x}"
    record = {"scale_sizes": SCALE_SIZES, "scale_samples": SCALE_SAMPLES}
    bench_print()
    bench_print("== Store put/get p50 vs store size (one catalog insert / lookup) ==")
    for size in SCALE_SIZES:
        while count < size:
            store.put(f"{count:064x}", values, 0.001)
            count += 1
        get_seconds = []
        for i in rng.choices(range(count), k=SCALE_SAMPLES):
            start = time.perf_counter()
            hit = store.get(f"{i:064x}", values.shape[0])
            get_seconds.append(time.perf_counter() - start)
            assert hit is not None
        put_seconds = []
        for _ in range(SCALE_SAMPLES):  # fresh entries: the insert path
            start = time.perf_counter()
            store.put(f"{count:064x}", values, 0.001)
            put_seconds.append(time.perf_counter() - start)
            count += 1
        put_ms = 1000.0 * statistics.median(put_seconds)
        get_ms = 1000.0 * statistics.median(get_seconds)
        record[f"scale_{size}_put_p50_ms"] = round(put_ms, 4)
        record[f"scale_{size}_get_p50_ms"] = round(get_ms, 4)
        bench_print(f"  {size:>7} entries: put p50 {put_ms:7.3f} ms, get p50 {get_ms:7.3f} ms")
    assert len(store) == count
    for op in ("put", "get"):
        ratio = record[f"scale_10000_{op}_p50_ms"] / record[f"scale_10_{op}_p50_ms"]
        record[f"scale_{op}_ratio_10000_over_10"] = round(ratio, 3)
        bench_print(f"  {op} p50 ratio 10,000 / 10 entries: {ratio:.2f}")
    path = merge_perf_record("BENCH_runtime.json", record)
    bench_print(f"[perf record written to {path}]")
    for op in ("put", "get"):
        ratio = record[f"scale_{op}_ratio_10000_over_10"]
        assert ratio <= SCALE_MAX_RATIO, f"{op} p50 grew {ratio:.2f}x from 10 to 10,000 entries"
