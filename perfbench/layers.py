"""Per-layer metrics of the traced run, and the stage budget.

Every traced run prints every metric in :data:`PER_LAYER`; a layer the
workload bypasses reads 0.  Sources, in order of preference:

* the program's own counters (``/metrics`` of the fleet, or the in-process
  registry), as deltas over the timed phase;
* ``TaskRecord`` rows of the sweep (pool workers' registries are not
  visible to the caller);
* the benchmark's stage timers (:mod:`stages`) around public functions,
  limited to calls that started inside a timed round.

The *budget* splits one end-to-end figure into stages that block it and
reports what is left over (``budget.unaccounted_ms``) instead of hiding it.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.server.client import parse_metric

import stages

#: (name, unit, better) of every per-layer metric.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("server.request_p50_ms", "ms", "lower"),
    ("server.transport_p50_ms", "ms", "lower"),
    ("server.decode_p50_ms", "ms", "lower"),
    ("server.encode_p50_ms", "ms", "lower"),
    ("server.redirect_ratio", "ratio", "lower"),
    ("server.connections_per_request", "ratio", "lower"),
    ("server.admission_wait_p95_ms", "ms", "lower"),
    ("server.http_overhead_ratio", "ratio", "lower"),
    ("server.workers_killed", "count", "lower"),
    ("server.teardown_s", "s", "lower"),
    ("server.unaccounted_ms", "ms", "lower"),
    ("service.submit_p50_ms", "ms", "lower"),
    ("engine.bound_p50_ms", "ms", "lower"),
    ("cache.lookup_p50_ms", "ms", "lower"),
    ("cache.memory_hit_ratio", "ratio", "higher"),
    ("cache.store_hits", "count", "higher"),
    ("cache.eigensolves", "count", "lower"),
    ("cache.lease_wait_s", "s", "lower"),
    ("solvers.eigensolve_s.dense", "s", "lower"),
    ("solvers.eigensolve_s.sparse", "s", "lower"),
    ("solvers.eigensolve_s.amg", "s", "lower"),
    ("solvers.eigensolves.dense", "count", "lower"),
    ("solvers.eigensolves.sparse", "count", "lower"),
    ("solvers.eigensolves.amg", "count", "lower"),
    ("amg.setup_s", "s", "lower"),
    ("amg.cycles", "count", "lower"),
    ("amg.lobpcg_s", "s", "lower"),
    ("graphs.build_s", "s", "lower"),
    ("graphs.laplacian_s", "s", "lower"),
    ("graphs.fingerprint_s", "s", "lower"),
    ("mincut.flow_calls", "count", "lower"),
    ("mincut.maxflow_s", "s", "lower"),
    ("mincut.pruned_ratio", "ratio", "higher"),
    ("store.get_p50_ms", "ms", "lower"),
    ("store.get_p95_ms", "ms", "lower"),
    ("store.put_p50_ms", "ms", "lower"),
    ("store.put_p95_ms", "ms", "lower"),
    ("store.lease_acquire_p50_ms", "ms", "lower"),
    ("store.cut_get_p50_ms", "ms", "lower"),
    ("store.cut_merge_p50_ms", "ms", "lower"),
    ("store.index_bytes", "bytes", "lower"),
    ("store.entries", "count", "lower"),
    ("store.read_p50_ms", "ms", "lower"),
    ("store.read_p95_ms", "ms", "lower"),
    ("store.write_p50_ms", "ms", "lower"),
    ("store.write_p95_ms", "ms", "lower"),
    ("orchestrator.tasks", "count", "lower"),
    ("orchestrator.task_s_sum", "s", "lower"),
    ("orchestrator.pool_utilization", "ratio", "higher"),
    ("orchestrator.straggler_s", "s", "lower"),
    ("orchestrator.overhead_s", "s", "lower"),
    ("obs.trace_overhead_ratio", "ratio", "lower"),
    ("budget.e2e_ms", "ms", "lower"),
    ("budget.stages_ms", "ms", "lower"),
    ("budget.unaccounted_ms", "ms", "lower"),
    ("budget.unaccounted_ratio", "ratio", "lower"),
)

BACKENDS = ("dense", "sparse", "amg")


@dataclass
class Measurement:
    """What one program instance did in its timed rounds."""

    rounds: List[dict]
    attempted: int
    failed: int
    answers: int
    setup_s: float = 0.0
    teardown_s: float = 0.0
    peak_rss_mb: float = 0.0
    metrics_before: str = ""
    metrics_after: str = ""
    records: List[stages.Record] = field(default_factory=list)
    connects: int = 0
    footprint: Dict[str, float] = field(default_factory=dict)
    worker_exit_codes: List[int] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)

    @property
    def windows(self) -> List[Tuple[float, float]]:
        return [(r["start"], r["end"]) for r in self.rounds]

    @property
    def walls(self) -> List[float]:
        return [r["end"] - r["start"] for r in self.rounds]

    def latencies(self, kind: Optional[str] = None) -> List[float]:
        return [
            latency
            for r in self.rounds
            for latency, k in zip(r["latencies"], r["kinds"])
            if kind is None or k == kind
        ]

    def delta(self, name: str, **labels: str) -> float:
        """Change of one program counter over the timed rounds."""
        return _sample(self.metrics_after, name, labels) - _sample(
            self.metrics_before, name, labels
        )


def _sample(text: str, name: str, labels: Dict[str, str]) -> float:
    try:
        return parse_metric(text, name, **labels)
    except KeyError:
        return 0.0


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _ms(values: Sequence[float], q: float) -> float:
    return 1000.0 * quantile(values, q)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(kind: str, plain: Measurement, traced: Measurement) -> Dict[str, float]:
    """Every :data:`PER_LAYER` value for one workload.

    ``kind`` is ``"fleet"``, ``"service"`` or ``"sweep"``; ``plain`` is the
    untraced instance of the same invocation, ``traced`` the instance with
    stage timers.
    """
    values = {name: 0.0 for name, _, _ in PER_LAYER}
    timed = stages.by_stage(stages.within(traced.records, traced.windows))
    durations = {s: [r.duration for r in rs] for s, rs in timed.items()}
    calls = traced.attempted
    client = traced.latencies()

    def p(stage: str, q: float, self_time: bool = False) -> float:
        rows = timed.get(stage, [])
        return _ms([r.self_time if self_time else r.duration for r in rows], q)

    def total(stage: str) -> float:
        return sum(durations.get(stage, ()))

    rounds = len(traced.rounds)
    values["service.submit_p50_ms"] = p("service.submit", 0.5)
    values["engine.bound_p50_ms"] = p("engine.bound", 0.5, self_time=True)
    values["cache.lookup_p50_ms"] = p("cache.lookup", 0.5)
    values["amg.setup_s"] = total("amg.setup") / rounds
    values["amg.lobpcg_s"] = total("amg.lobpcg") / rounds
    values["graphs.build_s"] = total("graphs.build") / rounds
    values["graphs.laplacian_s"] = total("graphs.laplacian") / rounds
    values["graphs.fingerprint_s"] = total("graphs.fingerprint") / rounds
    values["mincut.maxflow_s"] = total("mincut.max_cut") / rounds
    values["mincut.pruned_ratio"] = _ratio(
        total("count:mincut.pruned"), total("count:mincut.candidates")
    )
    for name, stage, q in (
        ("store.get_p50_ms", "store.get", 0.5),
        ("store.get_p95_ms", "store.get", 0.95),
        ("store.put_p50_ms", "store.put", 0.5),
        ("store.put_p95_ms", "store.put", 0.95),
        ("store.lease_acquire_p50_ms", "store.lease_acquire", 0.5),
        ("store.cut_get_p50_ms", "store.cut_get", 0.5),
        ("store.cut_merge_p50_ms", "store.cut_merge", 0.5),
    ):
        values[name] = p(stage, q)
    values["store.index_bytes"] = float(traced.footprint.get("store_index_bytes", 0))
    values["store.entries"] = float(traced.footprint.get("store_entries", 0))
    values["obs.trace_overhead_ratio"] = _ratio(
        statistics.median(traced.walls), statistics.median(plain.walls)
    )

    if kind == "sweep":
        _sweep_counters(values, traced)
    else:
        _registry_counters(values, traced)
    for which in ("read", "write"):  # store-churn's call kinds, untraced
        values[f"store.{which}_p50_ms"] = _ms(plain.latencies(which), 0.5)
        values[f"store.{which}_p95_ms"] = _ms(plain.latencies(which), 0.95)

    # The budget: per call (fleet, service) or per round (sweep), in ms.
    self_total = sum(
        r.self_time for rs in timed.values() for r in rs if not stages.is_count(r)
    )
    if kind == "fleet":
        request = total("server.request")
        transport = sum(client) - request
        stage_sum = transport + sum(
            total(s) for s in ("server.decode", "server.admission", "service.submit", "server.encode")
        )
        e2e, stages_ms = sum(client), stage_sum
        values["server.request_p50_ms"] = p("server.request", 0.5)
        values["server.transport_p50_ms"] = _ms(client, 0.5) - 1000.0 * _ratio(request, calls)
        values["server.decode_p50_ms"] = p("server.decode", 0.5)
        values["server.encode_p50_ms"] = p("server.encode", 0.5)
        values["server.redirect_ratio"] = _ratio(traced.delta("repro_shard_redirects_total"), calls)
        values["server.connections_per_request"] = _ratio(traced.connects, calls)
        values["server.admission_wait_p95_ms"] = p("server.admission", 0.95)
        values["server.http_overhead_ratio"] = _ratio(_ms(client, 0.5), values["service.submit_p50_ms"])
        values["server.workers_killed"] = float(sum(code == -9 for code in traced.worker_exit_codes))
        values["server.teardown_s"] = plain.teardown_s
        scale = 1000.0 / calls
    elif kind == "service":
        submit_self = sum(r.self_time for r in timed.get("service.submit", ()))
        e2e, stages_ms = sum(client), self_total - submit_self
        scale = 1000.0 / calls
    else:
        processes = traced.rounds[0]["processes"]
        wall = sum(traced.walls)
        task_sum = sum(t["seconds"] for r in traced.rounds for t in r["tasks"])
        e2e = wall
        stages_ms = self_total / processes + (wall - task_sum / processes)
        scale = 1000.0 / rounds
    values["budget.e2e_ms"] = e2e * scale
    values["budget.stages_ms"] = stages_ms * scale
    values["budget.unaccounted_ms"] = (e2e - stages_ms) * scale
    values["budget.unaccounted_ratio"] = _ratio(e2e - stages_ms, e2e)
    if kind == "fleet":
        values["server.unaccounted_ms"] = values["budget.unaccounted_ms"]
    return values


def _registry_counters(values: Dict[str, float], m: Measurement) -> None:
    """Program counters, per round."""
    rounds = len(m.rounds)

    def delta(name: str, **labels: str) -> float:
        return m.delta(name, **labels) / rounds

    lookups = {t: delta("repro_spectrum_lookups_total", tier=t) for t in ("memory", "store", "solve")}
    values["cache.memory_hit_ratio"] = _ratio(lookups["memory"], sum(lookups.values()))
    values["cache.store_hits"] = lookups["store"]
    values["cache.eigensolves"] = lookups["solve"]
    values["cache.lease_wait_s"] = delta("repro_lease_wait_seconds_sum")
    for backend in BACKENDS:
        values[f"solvers.eigensolve_s.{backend}"] = delta(
            "repro_eigensolve_seconds_sum", backend=backend
        )
        values[f"solvers.eigensolves.{backend}"] = delta(
            "repro_eigensolve_seconds_count", backend=backend
        )
    values["amg.cycles"] = delta("repro_amg_cycles_total")
    values["mincut.flow_calls"] = delta("repro_cut_lookups_total", tier="flow")


def _sweep_counters(values: Dict[str, float], m: Measurement) -> None:
    """Pool-worker counters come from the sweep's ``TaskRecord`` rows."""
    rounds = len(m.rounds)
    flat = [t for r in m.rounds for t in r["tasks"]]
    spectral = [t for t in flat if t["num_eigensolves"]]
    values["cache.eigensolves"] = sum(t["num_eigensolves"] for t in flat) / rounds
    for backend in BACKENDS:
        mine = [t for t in spectral if t["backend"] == backend]
        values[f"solvers.eigensolve_s.{backend}"] = sum(t["solve_seconds"] for t in mine) / rounds
        values[f"solvers.eigensolves.{backend}"] = sum(t["num_eigensolves"] for t in mine) / rounds
    values["mincut.flow_calls"] = sum(t["flow_calls"] for t in flat) / rounds
    processes = m.rounds[0]["processes"]
    wall = statistics.median(m.walls)
    task_sum = sum(t["seconds"] for t in flat) / rounds
    longest = max((t["seconds"] for t in flat), default=0.0)
    values["orchestrator.tasks"] = len(flat) / rounds
    values["orchestrator.task_s_sum"] = task_sum
    values["orchestrator.pool_utilization"] = _ratio(task_sum, processes * wall)
    values["orchestrator.straggler_s"] = wall - task_sum / processes
    values["orchestrator.overhead_s"] = wall - max(longest, task_sum / processes)
