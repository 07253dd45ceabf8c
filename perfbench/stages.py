"""Benchmark-side stage timers for the traced run.

``install(directory)`` replaces public functions and methods of the program
with thin wrappers that time every call and append one line per call to
``<directory>/stages-<pid>.tsv``.  The program itself is not edited: the
wrappers are installed from benchmark code before the program runs, and
forked children (fleet workers, sweep pool workers) inherit them.

Each line is ``stage, start, duration, self`` (seconds, ``time.perf_counter``
clock, which is system-wide monotonic on Linux, so records of different
processes share one time axis).  ``self`` is the duration minus the time of
wrapped calls nested inside it on the same thread, so summing self times
never counts a nested stage twice.  Files are line-buffered: a worker that
is SIGKILLed on teardown still leaves every finished record behind.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

#: (module, attribute path, stage name).  A stage name ending in ``.`` gets
#: the call result's ``backend`` appended (one stage per eigensolver backend).
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.server.app", "BoundsApp.__call__", "server.request"),
    ("repro.server.app", "decode_bounds_request", "server.decode"),
    ("repro.server.app", "encode_answers", "server.encode"),
    ("repro.server.runner", "AdmissionController.acquire", "server.admission"),
    ("repro.runtime.service", "BoundService.submit", "service.submit"),
    ("repro.core.engine", "BoundEngine.spectral", "engine.bound"),
    ("repro.core.engine", "BoundEngine.unnormalized", "engine.bound"),
    ("repro.core.engine", "BoundEngine.parallel", "engine.bound"),
    ("repro.core.engine", "BoundEngine.spectral_interval", "engine.bound"),
    ("repro.core.engine", "BoundEngine.sweep", "engine.bound"),
    ("repro.solvers.spectrum_cache", "SpectrumCache.spectrum", "cache.lookup"),
    ("repro.solvers.spectrum_cache", "SpectrumCache.interval_spectrum", "cache.lookup"),
    ("repro.solvers.spectrum_cache", "solve_smallest", "solvers.eigensolve."),
    ("repro.solvers.spectrum_cache", "laplacian", "graphs.laplacian"),
    ("repro.solvers.spectrum_cache", "laplacian_operator", "graphs.laplacian"),
    ("repro.solvers.backends", "smoothed_aggregation_preconditioner", "amg.setup"),
    ("scipy.sparse.linalg", "lobpcg", "amg.lobpcg"),
    ("repro.runtime.families", "GraphSpec.build", "graphs.build"),
    ("repro.graphs.compgraph", "ComputationGraph.fingerprint", "graphs.fingerprint"),
    ("repro.baselines.convex_mincut", "MinCutEngine.max_cut", "mincut.max_cut"),
    ("repro.runtime.store", "SpectrumStore.get", "store.get"),
    ("repro.runtime.store", "SpectrumStore.put", "store.put"),
    ("repro.runtime.store", "SpectrumStore.acquire_lease", "store.lease_acquire"),
    ("repro.runtime.store", "SpectrumStore.wait_for_lease", "store.lease_wait"),
    ("repro.runtime.store", "CutStore.get", "store.cut_get"),
    ("repro.runtime.store", "CutStore.merge", "store.cut_merge"),
)


COUNT_PREFIX = "count:"


class Record(NamedTuple):
    stage: str
    pid: int
    start: float
    duration: float
    self_time: float


class _Sink:
    """One line-buffered file per process, reopened after ``fork``."""

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        self._lock = threading.Lock()
        self._pid: Optional[int] = None
        self._file = None
        self._local = threading.local()
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # The parent's lock may have been held at fork time, and its file
        # object must not be written from the child.
        self._lock = threading.Lock()
        self._pid = None
        self._file = None
        self._local = threading.local()

    def stack(self) -> List[List[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def write(self, stage: str, start: float, duration: float, self_time: float) -> None:
        line = f"{stage}\t{start:.9f}\t{duration:.9f}\t{self_time:.9f}\n"
        with self._lock:
            if self._pid != os.getpid():
                self._pid = os.getpid()
                self._file = open(
                    self.directory / f"stages-{self._pid}.tsv", "a", buffering=1
                )
            self._file.write(line)


_SINK: Optional[_Sink] = None


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _timed(original: Callable, stage: str, sink: _Sink) -> Callable:
    by_backend = stage.endswith(".")

    @functools.wraps(original)
    def timed(*args, **kwargs):
        stack = sink.stack()
        children = [0.0]
        stack.append(children)
        start = time.perf_counter()
        result = None
        try:
            result = original(*args, **kwargs)
            return result
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += duration
            name = stage + str(getattr(result, "backend", "unknown")) if by_backend else stage
            sink.write(name, start, duration, duration - children[0])

    return timed


def _count_pruning() -> None:
    """Count max-cut candidates and the ones the upper-bound prune skipped."""
    from repro.baselines.convex_mincut import MinCutEngine

    timed = MinCutEngine.max_cut

    @functools.wraps(timed)
    def counted(self, vertices=None):
        vertices = list(vertices) if vertices is not None else None
        before = self.pruned
        try:
            return timed(self, vertices)
        finally:
            count = len(vertices) if vertices is not None else self.graph.num_vertices
            event("mincut.candidates", count)
            event("mincut.pruned", self.pruned - before)

    MinCutEngine.max_cut = counted


def install(directory: Path, targets: Sequence[Tuple[str, str, str]] = TARGETS) -> None:
    """Wrap every target; records go to ``directory`` (created if missing)."""
    global _SINK
    if _SINK is not None:
        raise RuntimeError("stage timers are already installed")
    directory.mkdir(parents=True, exist_ok=True)
    _SINK = _Sink(directory)
    for module_name, path, stage in targets:
        owner, attr = _resolve(module_name, path)
        setattr(owner, attr, _timed(getattr(owner, attr), stage, _SINK))
    _count_pruning()


def event(name: str, value: float) -> None:
    """Record a count under ``count:<name>`` (``value`` in both time columns).

    Counts share the record format but are not time: :func:`is_count` tells
    them apart so stage-time sums skip them.
    """
    if _SINK is not None:
        _SINK.write(COUNT_PREFIX + name, time.perf_counter(), float(value), float(value))


def is_count(record: "Record") -> bool:
    return record.stage.startswith(COUNT_PREFIX)


def load(directory: Path) -> List[Record]:
    """Every record written under ``directory``."""
    records: List[Record] = []
    for path in sorted(directory.glob("stages-*.tsv")):
        pid = int(path.stem.split("-", 1)[1])
        for line in path.read_text().splitlines():
            stage, start, duration, self_time = line.split("\t")
            records.append(Record(stage, pid, float(start), float(duration), float(self_time)))
    return records


def within(records: Iterable[Record], windows: Sequence[Tuple[float, float]]) -> List[Record]:
    """Records whose call started inside one of the ``(start, end)`` windows."""
    return [r for r in records if any(lo <= r.start <= hi for lo, hi in windows)]


def by_stage(records: Iterable[Record]) -> Dict[str, List[Record]]:
    grouped: Dict[str, List[Record]] = {}
    for record in records:
        grouped.setdefault(record.stage, []).append(record)
    return grouped
