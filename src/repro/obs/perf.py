"""Performance-regression sentinel over the benchmark history.

Every benchmark run appends one JSON line to ``BENCH_HISTORY.jsonl`` (via
:func:`benchmarks.common.write_perf_record`): the bench's scalar metrics
plus an **environment fingerprint** — git sha, cpu count, python/numpy/
scipy versions, hostname.  The latest-only ``BENCH_*.json`` snapshots
show where performance *is*; the history shows where it is *going*, and
this module is the tripwire on that trajectory:

* :func:`check` compares each bench's newest record against a
  noise-tolerant baseline — the **median of the last k runs from the
  same environment** (same fingerprint modulo git sha), so a laptop run
  never gets judged against CI numbers and one noisy outlier never
  poisons the baseline;
* **counter metrics** (eigensolves, flow calls, lease leaders/followers)
  are compared exactly — the whole point of the caching and single-flight
  layers is that these are deterministic, so *any* increase is a
  regression and fails ``python -m repro obs perf check``;
* **wall-clock and throughput metrics** are threshold-gated (default
  ±25 %, tunable via ``REPRO_PERF_THRESHOLD``) and skipped entirely when
  ``REPRO_BENCH_TIMING_ASSERT=0`` — the same switch the in-bench
  wall-clock asserts honour on noisy shared runners;
* :func:`render_trajectory` renders the per-metric series for
  ``python -m repro obs perf report``.
"""

from __future__ import annotations

import json
import os
import platform
import socket
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

__all__ = [
    "HISTORY_FILENAME",
    "WINDOW_ENV_VAR",
    "THRESHOLD_ENV_VAR",
    "TIMING_ASSERT_ENV_VAR",
    "DEFAULT_WINDOW",
    "DEFAULT_THRESHOLD",
    "environment_fingerprint",
    "fingerprint_key",
    "history_record",
    "append_history",
    "load_history",
    "classify_metric",
    "MetricVerdict",
    "PerfCheckResult",
    "check",
    "render_trajectory",
]

#: The benchmark history ledger at the repository root.
HISTORY_FILENAME = "BENCH_HISTORY.jsonl"

#: Baseline window: the median of the last this-many same-environment
#: runs (excluding the run under test) is the baseline.
WINDOW_ENV_VAR = "REPRO_PERF_WINDOW"
DEFAULT_WINDOW = 5

#: Relative tolerance for wall-clock/throughput metrics (0.25 = ±25%).
THRESHOLD_ENV_VAR = "REPRO_PERF_THRESHOLD"
DEFAULT_THRESHOLD = 0.25

#: Set to ``0`` to skip timing/throughput comparisons (shared runners);
#: counter metrics are always checked — they are deterministic.
TIMING_ASSERT_ENV_VAR = "REPRO_BENCH_TIMING_ASSERT"

#: Fingerprint fields that identify a *comparable* environment.  The git
#: sha is recorded but excluded — the whole point is comparing different
#: commits run on the same machine.
_KEY_FIELDS = ("hostname", "platform", "cpu_count", "python", "numpy", "scipy")

#: Metric-name suffixes whose values are deterministic work counters:
#: compared exactly, any increase is a regression.
_COUNTER_SUFFIXES = (
    "eigensolves",
    "flow_calls",
    "lease_leaders",
    "lease_followers",
)

#: Suffixes of throughput-style metrics — higher is better.
_THROUGHPUT_SUFFIXES = ("speedup", "rps", "qps")

#: Suffixes of wall-clock-style metrics — lower is better.
_TIMING_SUFFIXES = ("seconds", "ms", "latency")

Number = Union[int, float]


def window_from_env() -> int:
    raw = os.environ.get(WINDOW_ENV_VAR)
    try:
        return max(1, int(raw)) if raw else DEFAULT_WINDOW
    except ValueError:
        return DEFAULT_WINDOW


def threshold_from_env() -> float:
    raw = os.environ.get(THRESHOLD_ENV_VAR)
    try:
        value = float(raw) if raw else DEFAULT_THRESHOLD
    except ValueError:
        return DEFAULT_THRESHOLD
    return value if value > 0 else DEFAULT_THRESHOLD


def timing_asserts_enabled() -> bool:
    return os.environ.get(TIMING_ASSERT_ENV_VAR, "1") != "0"


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def _module_version(name: str) -> str:
    try:
        module = __import__(name)
    except ImportError:
        return "absent"
    return str(getattr(module, "__version__", "unknown"))


def environment_fingerprint() -> Dict[str, object]:
    """Where and on what a benchmark number was measured.

    ``cpu_count`` is the load-bearing field — a ``fleet_warm_speedup`` of
    0.95 measured on a 1-core host (where the parallelism asserts are
    gated off) must never be compared against a 16-core baseline.
    """
    return {
        "git_sha": _git_sha(),
        "hostname": socket.gethostname(),
        "platform": f"{platform.system()}-{platform.machine()}",
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": _module_version("numpy"),
        "scipy": _module_version("scipy"),
    }


def fingerprint_key(fingerprint: Mapping[str, object]) -> Tuple[str, ...]:
    """Environment identity for baseline grouping (git sha excluded)."""
    return tuple(str(fingerprint.get(name, "?")) for name in _KEY_FIELDS)


def history_record(
    bench: str,
    metrics: Mapping[str, object],
    fingerprint: Optional[Mapping[str, object]] = None,
    timestamp: Optional[float] = None,
) -> Dict[str, object]:
    """One history line: scalar metrics + fingerprint, JSONL-ready.

    Non-scalar payload entries (level lists, nested per-pass dicts) are
    dropped — the sentinel compares numbers, the full payload lives in
    the bench's ``BENCH_*.json`` snapshot.
    """
    scalars = {
        name: value
        for name, value in metrics.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }
    return {
        "bench": bench,
        "benchmark": str(metrics.get("benchmark", "")) or None,
        "timestamp": time.time() if timestamp is None else float(timestamp),
        "fingerprint": dict(
            environment_fingerprint() if fingerprint is None else fingerprint
        ),
        "metrics": scalars,
    }


def default_history_path() -> Path:
    return Path.cwd() / HISTORY_FILENAME


def append_history(
    record: Mapping[str, object], path: Optional[Union[str, Path]] = None
) -> Path:
    path = Path(path) if path is not None else default_history_path()
    with path.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(dict(record), sort_keys=True) + "\n")
    return path


def load_history(path: Optional[Union[str, Path]] = None) -> List[Dict[str, object]]:
    """Parse the ledger, newest last; corrupt lines are skipped, not fatal.

    A benchmark process killed mid-append must not brick the sentinel for
    every later run.
    """
    path = Path(path) if path is not None else default_history_path()
    if not path.exists():
        return []
    records: List[Dict[str, object]] = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict) and isinstance(record.get("metrics"), dict):
            records.append(record)
    return records


def classify_metric(name: str) -> Optional[str]:
    """``"counter"`` | ``"timing"`` | ``"throughput"`` | ``None`` (ignored).

    Classification is by name suffix so every current and future bench
    payload participates without registration: ``*_eigensolves`` and
    ``*_flow_calls`` are deterministic counters, ``*_seconds``/``*_ms``
    are wall-clock, ``*_speedup``/``*_rps`` are throughput.  Config
    scalars (``num_eigenvalues``, ``herd_threads``...) match nothing and
    are ignored.
    """
    lowered = name.lower()
    for suffix in _COUNTER_SUFFIXES:
        if lowered == suffix or lowered.endswith("_" + suffix):
            return "counter"
    for suffix in _THROUGHPUT_SUFFIXES:
        if lowered == suffix or lowered.endswith("_" + suffix):
            return "throughput"
    for suffix in _TIMING_SUFFIXES:
        if lowered.endswith(suffix):
            return "timing"
    return None


@dataclass(frozen=True)
class MetricVerdict:
    """One compared metric: its baseline, its latest value, the verdict."""

    bench: str
    metric: str
    kind: str
    baseline: float
    latest: float
    status: str  # "ok" | "regression" | "improvement"
    window: int  # baseline sample count

    def describe(self) -> str:
        if self.kind == "counter":
            detail = f"{self.baseline:g} -> {self.latest:g} (exact)"
        else:
            ratio = self.latest / self.baseline if self.baseline else float("inf")
            detail = f"{self.baseline:g} -> {self.latest:g} ({ratio:.2f}x)"
        return (
            f"{self.bench}: {self.metric} [{self.kind}] {detail}, "
            f"baseline=median of {self.window} run(s)"
        )


@dataclass
class PerfCheckResult:
    """Everything :func:`check` decided, renderable and exit-code ready."""

    regressions: List[MetricVerdict] = field(default_factory=list)
    improvements: List[MetricVerdict] = field(default_factory=list)
    checked: int = 0
    skipped: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        lines: List[str] = []
        for verdict in self.regressions:
            lines.append(f"REGRESSION  {verdict.describe()}")
        for verdict in self.improvements:
            lines.append(f"improvement {verdict.describe()}")
        for reason in self.skipped:
            lines.append(f"skipped     {reason}")
        lines.append(
            f"{self.checked} metric(s) checked, "
            f"{len(self.regressions)} regression(s), "
            f"{len(self.improvements)} improvement(s)"
        )
        return "\n".join(lines) + "\n"


def _numeric(value: object) -> Optional[float]:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def check(
    history: Sequence[Mapping[str, object]],
    window: Optional[int] = None,
    threshold: Optional[float] = None,
    timing_asserts: Optional[bool] = None,
) -> PerfCheckResult:
    """Judge each bench's newest record against its same-environment past.

    For every bench name in the history, the last record is the run under
    test and the baseline is the **median over the up-to-``window``
    preceding records with the same environment fingerprint** (git sha
    excluded).  Counters regress on any increase; timing regresses above
    ``baseline * (1 + threshold)`` and throughput below
    ``baseline * (1 - threshold)``, both only when ``timing_asserts``
    (decreased counters and better timings are reported as improvements,
    never failures — optimizations must not trip the sentinel).
    """
    window = window_from_env() if window is None else max(1, int(window))
    threshold = threshold_from_env() if threshold is None else float(threshold)
    if timing_asserts is None:
        timing_asserts = timing_asserts_enabled()

    by_bench: Dict[str, List[Mapping[str, object]]] = {}
    for record in history:
        by_bench.setdefault(str(record.get("bench", "?")), []).append(record)

    result = PerfCheckResult()
    for bench, records in sorted(by_bench.items()):
        latest = records[-1]
        key = fingerprint_key(latest.get("fingerprint", {}) or {})
        baseline_records = [
            record
            for record in records[:-1]
            if fingerprint_key(record.get("fingerprint", {}) or {}) == key
        ][-window:]
        if not baseline_records:
            result.skipped.append(
                f"{bench}: no earlier same-environment run to compare against"
            )
            continue
        latest_metrics = latest.get("metrics", {}) or {}
        for name in sorted(latest_metrics):
            kind = classify_metric(name)
            value = _numeric(latest_metrics[name])
            if kind is None or value is None:
                continue
            samples = [
                sample
                for record in baseline_records
                for sample in [_numeric((record.get("metrics") or {}).get(name))]
                if sample is not None
            ]
            if not samples:
                continue
            if kind != "counter" and not timing_asserts:
                result.skipped.append(
                    f"{bench}: {name} [{kind}] "
                    f"({TIMING_ASSERT_ENV_VAR}=0 disables timing checks)"
                )
                continue
            baseline = float(median(samples))
            result.checked += 1
            if kind == "counter":
                status = (
                    "regression"
                    if value > baseline
                    else "improvement" if value < baseline else "ok"
                )
            elif kind == "timing":
                status = (
                    "regression"
                    if value > baseline * (1.0 + threshold)
                    else "improvement"
                    if value < baseline * (1.0 - threshold)
                    else "ok"
                )
            else:  # throughput
                status = (
                    "regression"
                    if value < baseline * (1.0 - threshold)
                    else "improvement"
                    if value > baseline * (1.0 + threshold)
                    else "ok"
                )
            verdict = MetricVerdict(
                bench=bench,
                metric=name,
                kind=kind,
                baseline=baseline,
                latest=value,
                status=status,
                window=len(samples),
            )
            if status == "regression":
                result.regressions.append(verdict)
            elif status == "improvement":
                result.improvements.append(verdict)
    return result


def render_trajectory(
    history: Sequence[Mapping[str, object]], last: int = 8
) -> str:
    """The per-bench, per-metric value series — ``obs perf report``.

    One block per bench: the environments seen, then every classified
    metric's last ``last`` values in run order (oldest first), annotated
    with the recording commits.
    """
    if not history:
        return "benchmark history is empty\n"
    by_bench: Dict[str, List[Mapping[str, object]]] = {}
    for record in history:
        by_bench.setdefault(str(record.get("bench", "?")), []).append(record)
    lines: List[str] = []
    for bench, records in sorted(by_bench.items()):
        tail = records[-last:]
        label = next(
            (r.get("benchmark") for r in reversed(tail) if r.get("benchmark")), None
        )
        title = f"== {bench}" + (f" ({label})" if label else "") + " =="
        lines.append(title)
        shas = [
            str((record.get("fingerprint") or {}).get("git_sha", "?"))[:12]
            for record in tail
        ]
        envs = {
            fingerprint_key(record.get("fingerprint") or {}) for record in tail
        }
        environments = "1 environment" if len(envs) == 1 else f"{len(envs)} environments"
        lines.append(
            f"  {len(records)} run(s), showing last {len(tail)} "
            f"({environments}): {' -> '.join(shas)}"
        )
        names = sorted(
            {
                name
                for record in tail
                for name in (record.get("metrics") or {})
                if classify_metric(name) is not None
            }
        )
        for name in names:
            series = []
            for record in tail:
                value = _numeric((record.get("metrics") or {}).get(name))
                series.append("-" if value is None else f"{value:g}")
            kind = classify_metric(name)
            lines.append(f"  {name:<28} [{kind:<10}] {' -> '.join(series)}")
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"
