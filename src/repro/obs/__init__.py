"""Unified observability: tracing, metrics, and profiling hooks.

The three legs, all default-off or always-cheap:

* :mod:`repro.obs.tracing` — span-based tracer with cross-process
  propagation through the sweep pool; ``obs.span("eigensolve", ...)`` is
  the instrumentation idiom and is a shared no-op object when disabled.
* :mod:`repro.obs.metrics` — the process-global :class:`MetricsRegistry`
  (also the serving layer's per-server registry); hot seams record
  histograms/counters into :func:`global_registry`.
* :mod:`repro.obs.profiling` — per-task cProfile capture behind
  ``REPRO_PROFILE=1``, written next to the trace file.
* :mod:`repro.obs.perf` — the performance-regression sentinel over the
  ``BENCH_HISTORY.jsonl`` ledger (``python -m repro obs perf check``).

A configured tracer appends every span it finishes to its one trace
file, from every process of the run.

``python -m repro obs report trace.jsonl`` renders a collected trace
(:mod:`repro.obs.report`; ``--json`` for machine-readable output).
"""

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    DEFAULT_LATENCY_BUCKETS,
    global_registry,
    latency_quantiles,
    merge_expositions,
    process_labels,
    set_process_labels,
)
from .profiling import maybe_profile, profile_path, profiling_enabled
from .report import build_trees, render_report, report_as_json, self_times
from .tracing import (
    TraceContext,
    Tracer,
    configure,
    current_context,
    disable,
    enabled,
    get_tracer,
    load_spans,
    span,
    worker_configure,
)

__all__ = [
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "global_registry",
    "latency_quantiles",
    "merge_expositions",
    "process_labels",
    "set_process_labels",
    # tracing
    "TraceContext",
    "Tracer",
    "configure",
    "current_context",
    "disable",
    "enabled",
    "get_tracer",
    "load_spans",
    "span",
    "worker_configure",
    # profiling
    "maybe_profile",
    "profile_path",
    "profiling_enabled",
    # report
    "build_trees",
    "render_report",
    "report_as_json",
    "self_times",
]
