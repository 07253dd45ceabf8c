"""Shared helpers for the benchmark harness.

Every ``bench_*`` file regenerates one of the paper's tables/figures: it runs
the corresponding sweep, prints the same series the figure plots (so the
console output of ``pytest benchmarks/ --benchmark-only`` *is* the
reproduction), optionally writes CSVs (``REPRO_WRITE_RESULTS=1``), and times
the representative computation through ``pytest-benchmark``.

Graph sizes default to CI-friendly caps; ``REPRO_BENCH_LARGE=1`` switches to
paper-scale sweeps (minutes to hours, exactly like the original evaluation).
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import Callable, List, Mapping, Optional, Sequence

from repro.analysis.figures import FigureSeries, linear_fit_r_squared, series_from_rows
from repro.analysis.reporting import format_table, maybe_write_results
from repro.analysis.sweep import SweepRow
from repro.core.engine import BoundEngine
from repro.core.formula import DEFAULT_NUM_EIGENVALUES
from repro.graphs.compgraph import ComputationGraph
from repro.solvers.spectrum_cache import SpectrumCache

__all__ = [
    "large_mode",
    "pick",
    "bench_print",
    "print_figure",
    "print_rows",
    "print_dict_rows",
    "run_once",
    "check_series_shape",
    "engine_for",
    "orchestrated_sweep",
    "write_perf_record",
    "merge_perf_record",
]


#: pytest's CaptureManager, injected by benchmarks/conftest.py so the tables
#: below remain visible without running pytest with ``-s``.
_CAPTURE_MANAGER = None


def set_capture_manager(manager) -> None:
    """Record pytest's capture manager (called from benchmarks/conftest.py)."""
    global _CAPTURE_MANAGER
    _CAPTURE_MANAGER = manager


def bench_print(*args: object) -> None:
    """Print to the real stdout, bypassing pytest's output capture.

    The whole point of the benchmark harness is that its console output *is*
    the reproduced figure data, so it must be visible even without ``-s``.
    """
    manager = _CAPTURE_MANAGER
    if manager is not None and hasattr(manager, "global_and_fixture_disabled"):
        with manager.global_and_fixture_disabled():
            print(*args)
            sys.stdout.flush()
    else:
        print(*args, file=sys.__stdout__)
        sys.__stdout__.flush()


def large_mode() -> bool:
    """True when paper-scale sweeps were requested via REPRO_BENCH_LARGE=1."""
    return os.environ.get("REPRO_BENCH_LARGE", "0") == "1"


def engine_for(
    graph: ComputationGraph,
    num_eigenvalues: int = DEFAULT_NUM_EIGENVALUES,
    cache: Optional[SpectrumCache] = None,
    store=None,
) -> BoundEngine:
    """The harness's standard way to build a :class:`BoundEngine`.

    Pass an explicit ``cache`` for timing runs that must control exactly
    which eigensolves are shared (as ``bench_engine_cache.py`` does), or a
    persistent ``store`` (:class:`repro.runtime.store.SpectrumStore`) for
    runs that should skip eigensolves already paid for by earlier runs;
    otherwise the process-wide default cache is used, so harness engines
    share eigensolves with every other default-constructed engine.
    """
    return BoundEngine(graph, num_eigenvalues=num_eigenvalues, cache=cache, store=store)


def orchestrated_sweep(
    family: str,
    graph_builder,
    size_params: Sequence[int],
    memory_sizes: Sequence[int],
    methods: Sequence[str] = ("spectral",),
    num_eigenvalues: int = DEFAULT_NUM_EIGENVALUES,
    store=None,
    processes: int = 1,
):
    """Run a family sweep through the runtime orchestrator.

    This is how the harness exercises the pooled/persistent execution paths
    (``bench_runtime_store.py``): it returns the orchestrator's
    :class:`~repro.runtime.orchestrator.SweepReport`, whose
    ``num_eigensolves`` makes cold/warm behaviour assertable.
    """
    from repro.runtime.orchestrator import SweepOrchestrator

    orchestrator = SweepOrchestrator(
        store=store, processes=processes, num_eigenvalues=num_eigenvalues
    )
    return orchestrator.run_family(
        family, graph_builder, size_params, memory_sizes, methods=methods
    )


def write_perf_record(name: str, payload: Mapping[str, object]) -> Path:
    """Persist a JSON perf record (e.g. ``BENCH_engine.json``) at the repo root.

    Performance-tracking records are written unconditionally (unlike the CSV
    figure data, which is opt-in): they are tiny and give the repository a
    perf trajectory across PRs.  Every record carries the environment
    fingerprint (git sha, ``cpu_count``, python/numpy/scipy versions,
    hostname) — a ``fleet_warm_speedup`` of 0.95 means something entirely
    different on a 1-core runner than on a 16-core box — and is also
    appended to the ``BENCH_HISTORY.jsonl`` ledger the
    ``python -m repro obs perf`` sentinel checks for regressions.
    """
    from repro.obs.perf import (
        HISTORY_FILENAME,
        append_history,
        environment_fingerprint,
        history_record,
    )

    root = Path(__file__).resolve().parent.parent
    fingerprint = environment_fingerprint()
    record = dict(payload)
    record["cpu_count"] = fingerprint["cpu_count"]
    record["environment"] = fingerprint
    path = root / name
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    append_history(
        history_record(name, payload, fingerprint=fingerprint),
        root / HISTORY_FILENAME,
    )
    return path


def merge_perf_record(name: str, update: Mapping[str, object]) -> Path:
    """Merge ``update`` into the perf record ``name`` and write it.

    For records that several tests contribute to: merging keeps whichever
    part ran (``-k`` selections) without clobbering the others.
    """
    path = Path(__file__).resolve().parent.parent / name
    payload = {}
    if path.exists():
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError:
            payload = {}
    payload.update(update)
    return write_perf_record(name, payload)


def pick(default, large):
    """Choose between the CI-scale and paper-scale value of a parameter."""
    return large if large_mode() else default


def run_once(benchmark, fn: Callable[[], object]):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    The sweeps here take seconds; repeating them the default 5+ rounds would
    multiply the harness runtime without adding information, so every bench
    uses a single measured round.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


def print_rows(title: str, rows: Sequence[SweepRow], csv_name: str | None = None) -> None:
    """Print a sweep as a table and optionally persist it as CSV."""
    bench_print()
    bench_print(format_table(rows, title=title))
    if csv_name:
        path = maybe_write_results(csv_name, rows)
        if path is not None:
            bench_print(f"[csv written to {path}]")


def print_dict_rows(title: str, rows: Sequence[dict], csv_name: str | None = None) -> None:
    """Print a list of plain-dict result rows (for the non-sweep benches)."""
    bench_print()
    bench_print(format_table(rows, title=title))
    if csv_name:
        path = maybe_write_results(csv_name, rows)
        if path is not None:
            bench_print(f"[csv written to {path}]")


def print_figure(figure: FigureSeries) -> None:
    """Print the per-series points of a figure (what the paper plots)."""
    bench_print()
    bench_print(f"== {figure.name}  ({figure.y_label} vs {figure.x_label}) ==")
    for label, points in sorted(figure.series.items()):
        formatted = ", ".join(f"({x:g}, {y:.1f})" for x, y in points)
        bench_print(f"  {label}: {formatted}")


def check_series_shape(rows: Sequence[SweepRow], x_of, min_r_squared: float = 0.0) -> List[float]:
    """Sanity-check the growth shape of the spectral series (§6.4).

    For every (method=spectral, M) series with at least three non-trivial
    points, checks that the bound is non-decreasing in the growth term and —
    if ``min_r_squared`` is positive — that a linear fit against the published
    growth term explains at least that fraction of the variance.  Returns the
    list of R² values (for reporting).
    """
    figure = series_from_rows("shape-check", list(rows), x_of=x_of, x_label="growth-term")
    r_squared_values: List[float] = []
    for label, points in figure.series.items():
        if not label.startswith("Spectral,"):
            continue
        nontrivial = [(x, y) for x, y in points if y > 0]
        if len(nontrivial) < 3:
            continue
        ys = [y for _, y in sorted(nontrivial)]
        assert all(a <= b * 1.05 + 1e-9 for a, b in zip(ys, ys[1:])), (
            f"series {label!r} is not (approximately) monotone in the growth term: {ys}"
        )
        r2 = linear_fit_r_squared(nontrivial)
        r_squared_values.append(r2)
        assert r2 >= min_r_squared, f"series {label!r} deviates from linear growth (R²={r2:.3f})"
    return r_squared_values
