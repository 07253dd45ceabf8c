"""Thread-safe metrics registry with Prometheus text rendering.

Pure stdlib, deliberately small: counters, gauges and latency histograms,
each optionally labelled, rendered in the Prometheus text exposition
format (``GET /metrics``) and snapshot-able as JSON (``GET /v1/stats``).

This module is the process-wide home of the registry machinery, outside
the serving stack, so every layer — engine, solvers, cache tiers, pool,
server — can record into one :func:`global_registry` without importing
the server.

Two kinds of values coexist:

* **owned** metrics, mutated by the instrumented code itself (eigensolve
  latency histograms, cache-tier lookup counters, request counts);
* **passthrough** metrics, read at scrape time from a callback — this is
  how the service-level eigensolve / flow-call / cache-hit counters that
  live inside :class:`~repro.runtime.service.BoundService` become visible
  over the wire without double-counting, and what makes warm-store
  zero-solve behaviour observable (``repro_eigensolves_total`` staying at
  0 across a whole load run *is* the serving-layer cache contract).

Every mutation takes one lock held for a few dict operations; scrape-time
callbacks run outside it.

The process-global registry
---------------------------

:func:`global_registry` returns the singleton registry the in-tree
instrumentation seams record into:

=====================================  =========  ==========================
metric                                 kind       recorded by
=====================================  =========  ==========================
``repro_eigensolve_seconds``           histogram  :class:`~repro.solvers.
                                                  spectrum_cache.SpectrumCache`
                                                  per real eigensolve, by
                                                  ``backend``
``repro_eigensolve_iterations``        histogram  the same, LOBPCG iterations
                                                  of iterative solves only, by
                                                  ``backend``
``repro_spectrum_lookups_total``       counter    every spectrum fetch, by
                                                  ``tier`` (memory/store/solve)
``repro_backend_solves_total``         counter    :func:`~repro.solvers.
                                                  backends.solve_smallest`, by
                                                  ``backend``
``repro_amg_cycles_total``             counter    one per AMG V-cycle applied
``repro_maxflow_seconds``              histogram  per max-flow call, by
                                                  ``backend``
``repro_cut_lookups_total``            counter    convex min-cut values, by
                                                  ``tier`` (memory/store/flow)
``repro_store_io_seconds``             histogram  persistent store I/O, by
                                                  ``store``/``op``
``repro_admission_wait_seconds``       histogram  queue wait of admitted
                                                  cold solves
``repro_slow_queries_total``           counter    requests over the
                                                  ``REPRO_SLOW_QUERY_SECONDS``
                                                  threshold
=====================================  =========  ==========================

``GET /metrics`` renders the server's own registry *and* the global one,
so these appear on the wire automatically.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "global_registry",
    "process_labels",
    "set_process_labels",
    "merge_expositions",
    "parse_metric",
    "latency_quantiles",
]

#: Histogram bucket upper bounds (seconds) spanning warm in-memory answers
#: (sub-millisecond) to cold paper-scale eigensolves.
DEFAULT_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    as_int = int(value)
    return str(as_int) if value == as_int else repr(float(value))


#: Constant labels stamped onto every rendered sample of this process —
#: how the pre-forked serving fleet keeps per-worker series apart (each
#: worker calls ``set_process_labels(worker="<id>")`` right after fork).
_PROCESS_LABELS: Dict[str, str] = {}


def set_process_labels(**labels: Optional[str]) -> None:
    """Attach constant labels to every metric this process renders.

    Affects the Prometheus text exposition only: ``value()`` / ``total()``
    / ``snapshot()`` are label-blind aggregates and stay unchanged, so
    in-process assertions and ``/v1/stats`` keep their meaning.  A value
    of ``None`` removes the label; the registry starts with none, making
    this a strict no-op for single-process use.
    """
    for name, value in labels.items():
        if value is None:
            _PROCESS_LABELS.pop(name, None)
        else:
            _PROCESS_LABELS[name] = str(value)


def process_labels() -> Dict[str, str]:
    """A copy of the process-wide constant labels (empty by default)."""
    return dict(_PROCESS_LABELS)


def _format_labels(labelnames: Sequence[str], labelvalues: Sequence[str]) -> str:
    names = tuple(_PROCESS_LABELS) + tuple(labelnames)
    values = tuple(_PROCESS_LABELS.values()) + tuple(labelvalues)
    if not names:
        return ""
    escaped = (
        str(value).replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
        for value in values
    )
    pairs = ",".join(
        f'{name}="{value}"' for name, value in zip(names, escaped)
    )
    return "{" + pairs + "}"


class _Metric:
    """Shared bookkeeping: name, help text, label schema, value store."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str, labelnames: Sequence[str] = ()) -> None:
        self.name = name
        self.help_text = help_text
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._values: Dict[Tuple[str, ...], float] = {}

    def _label_key(self, labels: Dict[str, str]) -> Tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def value(self, **labels: str) -> float:
        """Current value of one label combination (0 if never touched)."""
        with self._lock:
            return self._values.get(self._label_key(labels), 0.0)

    def reset(self) -> None:
        """Forget every recorded sample (callback metrics are unaffected)."""
        with self._lock:
            self._values.clear()

    def total(self) -> float:
        """Sum over every label combination."""
        with self._lock:
            return sum(self._values.values())

    def samples(self) -> List[Tuple[Tuple[str, ...], float]]:
        with self._lock:
            return sorted(self._values.items())

    def render(self) -> List[str]:
        lines = [
            f"# HELP {self.name} {self.help_text}",
            f"# TYPE {self.name} {self.kind}",
        ]
        entries = self.samples() or ([((), 0.0)] if not self.labelnames else [])
        for labelvalues, value in entries:
            labels = _format_labels(self.labelnames, labelvalues)
            lines.append(f"{self.name}{labels} {_format_value(value)}")
        return lines


class Counter(_Metric):
    """A monotonically increasing count, or a callback-backed passthrough."""

    kind = "counter"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        callback: Optional[Callable[[], float]] = None,
    ) -> None:
        if callback is not None and labelnames:
            raise ValueError("callback counters cannot carry labels")
        super().__init__(name, help_text, labelnames)
        self._callback = callback

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if self._callback is not None:
            raise ValueError(f"counter {self.name!r} is callback-backed")
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        key = self._label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def samples(self) -> List[Tuple[Tuple[str, ...], float]]:
        if self._callback is not None:
            return [((), float(self._callback()))]
        return super().samples()

    def total(self) -> float:
        if self._callback is not None:
            return float(self._callback())
        return super().total()


class Gauge(_Metric):
    """A value that can go up and down, or a callback-backed passthrough."""

    kind = "gauge"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        callback: Optional[Callable[[], float]] = None,
    ) -> None:
        if callback is not None and labelnames:
            raise ValueError("callback gauges cannot carry labels")
        super().__init__(name, help_text, labelnames)
        self._callback = callback

    def set(self, value: float, **labels: str) -> None:
        if self._callback is not None:
            raise ValueError(f"gauge {self.name!r} is callback-backed")
        key = self._label_key(labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if self._callback is not None:
            raise ValueError(f"gauge {self.name!r} is callback-backed")
        key = self._label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self.inc(-amount, **labels)

    def samples(self) -> List[Tuple[Tuple[str, ...], float]]:
        if self._callback is not None:
            return [((), float(self._callback()))]
        return super().samples()

    def total(self) -> float:
        if self._callback is not None:
            return float(self._callback())
        return super().total()


class Histogram(_Metric):
    """A latency distribution with cumulative Prometheus buckets."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help_text, labelnames)
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("a histogram needs at least one bucket")
        # Per label key: [per-bucket counts..., +Inf count], sum.
        self._counts: Dict[Tuple[str, ...], List[int]] = {}
        self._sums: Dict[Tuple[str, ...], float] = {}

    def observe(self, value: float, **labels: str) -> None:
        key = self._label_key(labels)
        index = bisect_left(self.buckets, value)
        with self._lock:
            counts = self._counts.get(key)
            if counts is None:
                counts = self._counts[key] = [0] * (len(self.buckets) + 1)
                self._sums[key] = 0.0
            counts[index] += 1
            self._sums[key] += value

    def count(self, **labels: str) -> int:
        """Number of observations for one label combination."""
        with self._lock:
            return sum(self._counts.get(self._label_key(labels), ()))

    def quantile(self, q: float, **labels: str) -> Optional[float]:
        """Estimate the ``q``-quantile by linear bucket interpolation.

        With labels, one label combination's distribution; without, the
        aggregate over every combination (how p95 eigensolve latency is
        reported across backends).  Mirrors PromQL's
        ``histogram_quantile``: the target rank is located in a cumulative
        bucket and interpolated linearly between the bucket's bounds
        (lower bound 0 for the first).  A rank landing in the ``+Inf``
        bucket degrades to the highest finite bound.  ``None`` when there
        are no observations.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            if labels or self.labelnames:
                if labels:
                    counts = self._counts.get(self._label_key(labels))
                    merged = list(counts) if counts else None
                else:
                    merged = None
                    for counts in self._counts.values():
                        if merged is None:
                            merged = list(counts)
                        else:
                            merged = [a + b for a, b in zip(merged, counts)]
            else:
                counts = self._counts.get(())
                merged = list(counts) if counts else None
        if not merged or sum(merged) == 0:
            return None
        total = sum(merged)
        target = q * total
        cumulative = 0
        for index, count in enumerate(merged):
            previous = cumulative
            cumulative += count
            if cumulative >= target and count > 0:
                if index >= len(self.buckets):  # +Inf bucket
                    return self.buckets[-1]
                upper = self.buckets[index]
                lower = self.buckets[index - 1] if index > 0 else 0.0
                fraction = (target - previous) / count
                return lower + (upper - lower) * fraction
        return self.buckets[-1]

    def reset(self) -> None:
        with self._lock:
            self._counts.clear()
            self._sums.clear()

    def total(self) -> float:
        with self._lock:
            return float(sum(sum(counts) for counts in self._counts.values()))

    def samples(self) -> List[Tuple[Tuple[str, ...], float]]:
        with self._lock:
            return sorted(
                (key, float(sum(counts))) for key, counts in self._counts.items()
            )

    def render(self) -> List[str]:
        lines = [
            f"# HELP {self.name} {self.help_text}",
            f"# TYPE {self.name} {self.kind}",
        ]
        with self._lock:
            items = sorted(self._counts.items())
            sums = dict(self._sums)
        for labelvalues, counts in items:
            cumulative = 0
            for upper, count in zip(self.buckets + (float("inf"),), counts):
                cumulative += count
                labels = _format_labels(
                    self.labelnames + ("le",),
                    labelvalues + (_format_value(upper),),
                )
                lines.append(f"{self.name}_bucket{labels} {cumulative}")
            labels = _format_labels(self.labelnames, labelvalues)
            lines.append(f"{self.name}_sum{labels} {repr(sums[labelvalues])}")
            lines.append(f"{self.name}_count{labels} {cumulative}")
        return lines


class MetricsRegistry:
    """All metrics of one scope, creatable once and rendered together."""

    def __init__(self) -> None:
        self._metrics: "Dict[str, _Metric]" = {}
        self._lock = threading.Lock()

    def _register(self, metric: _Metric) -> _Metric:
        with self._lock:
            existing = self._metrics.get(metric.name)
            if existing is not None:
                if type(existing) is not type(metric) or (
                    existing.labelnames != metric.labelnames
                ):
                    raise ValueError(
                        f"metric {metric.name!r} already registered with a "
                        f"different kind or label schema"
                    )
                return existing
            self._metrics[metric.name] = metric
            return metric

    def counter(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        callback: Optional[Callable[[], float]] = None,
    ) -> Counter:
        metric = self._register(Counter(name, help_text, labelnames, callback))
        assert isinstance(metric, Counter)
        return metric

    def gauge(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        callback: Optional[Callable[[], float]] = None,
    ) -> Gauge:
        metric = self._register(Gauge(name, help_text, labelnames, callback))
        assert isinstance(metric, Gauge)
        return metric

    def histogram(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        metric = self._register(Histogram(name, help_text, labelnames, buckets))
        assert isinstance(metric, Histogram)
        return metric

    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(name)

    def render(self) -> str:
        """The full Prometheus text exposition (``GET /metrics``)."""
        with self._lock:
            metrics = [self._metrics[name] for name in sorted(self._metrics)]
        lines: List[str] = []
        for metric in metrics:
            lines.extend(metric.render())
        return "\n".join(lines) + "\n"

    def snapshot(self) -> Dict[str, float]:
        """Per-metric totals as JSON-friendly numbers (``GET /v1/stats``)."""
        with self._lock:
            metrics = list(self._metrics.values())
        return {metric.name: metric.total() for metric in metrics}

    def reset_values(self) -> None:
        """Zero every owned metric, keeping registrations and callbacks.

        For freshly forked worker processes: a child inherits the parent's
        accumulated counter state by copy-on-write, and without this its
        ``/metrics`` would report solves and waits that happened before it
        existed.  Callback-backed passthroughs are left alone — they read
        live state that is itself per-process.
        """
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            metric.reset()


def merge_expositions(texts: Sequence[str]) -> str:
    """Merge several Prometheus text expositions into one valid exposition.

    This is the fleet's single pane of glass: each worker renders its own
    registry (samples already stamped with its ``worker=<id>`` process
    label), the scraper collects the texts, and this function regroups
    them so every metric family appears **once** — first ``# HELP`` /
    ``# TYPE`` wins, sample lines from every input are concatenated under
    it in input order.  Sample lines are preserved verbatim (labels,
    values, exemplars-free format), so per-worker series stay distinct
    and label-blind sums over the merged text equal the sum over the
    individual expositions.
    """
    family_order: List[str] = []
    headers: Dict[str, List[str]] = {}
    samples: Dict[str, List[str]] = {}

    def family_of(sample_name: str) -> str:
        # Histogram series share a family with their _bucket/_sum/_count
        # suffixes stripped, so all of a histogram renders contiguously.
        for suffix in ("_bucket", "_sum", "_count"):
            if sample_name.endswith(suffix):
                return sample_name[: -len(suffix)]
        return sample_name

    def ensure(family: str) -> None:
        if family not in samples:
            family_order.append(family)
            headers[family] = []
            samples[family] = []

    for text in texts:
        for line in text.splitlines():
            stripped = line.strip()
            if not stripped:
                continue
            if stripped.startswith("#"):
                parts = stripped.split(None, 3)
                if len(parts) >= 3 and parts[1] in ("HELP", "TYPE"):
                    family = family_of(parts[2])
                    ensure(family)
                    if not any(h.startswith(f"# {parts[1]} ") for h in headers[family]):
                        headers[family].append(stripped)
                continue
            name = stripped.split("{", 1)[0].split(None, 1)[0]
            family = family_of(name)
            ensure(family)
            samples[family].append(stripped)

    lines: List[str] = []
    for family in family_order:
        lines.extend(headers[family])
        lines.extend(samples[family])
    return "\n".join(lines) + "\n" if lines else ""


_METRIC_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)(?P<labels>\{[^}]*\})?\s+(?P<value>\S+)$"
)

_LABEL_PAIR = re.compile(r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>[^"]*)"')


def parse_metric(metrics_text: str, name: str, **labels: str) -> float:
    """Sum of every sample of ``name`` in a Prometheus text exposition.

    Keyword arguments filter by label: ``parse_metric(text,
    "repro_lease_total", role="leader")`` sums only samples whose label
    set contains ``role="leader"`` (extra labels on the sample — e.g. the
    fleet's ``worker`` process label — are ignored).  Histogram series
    must be addressed by their full sample name (``..._count``,
    ``..._sum``); plain counters and gauges by their metric name.  Raises
    ``KeyError`` when no sample matches — asking for a metric the server
    does not export should fail loudly in tests and CI.
    """
    total = 0.0
    found = False
    wanted = {key: str(value) for key, value in labels.items()}
    for line in metrics_text.splitlines():
        if line.startswith("#"):
            continue
        match = _METRIC_LINE.match(line.strip())
        if not match or match.group("name") != name:
            continue
        if wanted:
            sample_labels = {
                pair.group("key"): pair.group("value")
                for pair in _LABEL_PAIR.finditer(match.group("labels") or "")
            }
            if any(sample_labels.get(k) != v for k, v in wanted.items()):
                continue
        total += float(match.group("value"))
        found = True
    if not found:
        raise KeyError(f"metric {name!r} not found in exposition")
    return total


#: The latency histograms whose quantiles ``/v1/stats`` surfaces, and the
#: quantile points reported for each.
QUANTILE_METRICS = ("repro_eigensolve_seconds", "repro_admission_wait_seconds")
QUANTILE_POINTS = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))


def latency_quantiles(
    registry: Optional["MetricsRegistry"] = None,
    metrics: Sequence[str] = QUANTILE_METRICS,
) -> Dict[str, Dict[str, Optional[float]]]:
    """p50/p95/p99 estimates for the registry's key latency histograms.

    Values are ``None`` until the histogram has observations (e.g. a warm
    store never records an eigensolve), so the JSON shape is stable from
    the first scrape.
    """
    if registry is None:
        registry = global_registry()
    quantiles: Dict[str, Dict[str, Optional[float]]] = {}
    for name in metrics:
        metric = registry.get(name)
        if not isinstance(metric, Histogram):
            continue
        quantiles[name] = {
            label: metric.quantile(q) for label, q in QUANTILE_POINTS
        }
    return quantiles


_GLOBAL_REGISTRY = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-wide registry the instrumentation seams record into.

    Owned (non-callback) metrics only: unlike the per-server registries of
    :class:`~repro.server.app.BoundsApp` (whose passthrough callbacks are
    bound to one service instance), everything here is cumulative over the
    process, so any number of engines, pools and servers can share it.
    """
    return _GLOBAL_REGISTRY
