"""Span-based tracing with cross-process propagation.

A *span* is one timed unit of work (an eigensolve, a max-flow call, a
sweep task, an HTTP request) carrying a ``trace_id`` shared by every span
of one logical operation, its own ``span_id``, and a ``parent_id`` link.
Spans nest through a thread-local stack, so instrumented seams do not
need to thread context objects through call signatures::

    with obs.span("eigensolve", fingerprint=fp, backend="lobpcg"):
        ...

Tracing is **off by default** and zero-cost when off: :func:`span`
returns a shared no-op context manager without allocating, and
:func:`current_context` returns ``None``.  :func:`configure` turns it on
for the process; ``--trace out.jsonl`` on the CLI is the usual entry.

Finished spans go two places: appended as one JSON object per line to the
configured JSONL path (flushed per span, so a forked worker never
inherits buffered parent spans), and into a bounded in-memory ring buffer
(:func:`recent_spans`) for the server's slow-query log and for tests.

Cross-process propagation
-------------------------

A ``ProcessPoolExecutor`` worker cannot append to the parent's file
without interleaving, so each worker writes a private *shard*:

1. the parent snapshots :func:`current_trace_context` and ships it inside
   the pickled task payload together with a shard base path;
2. the worker calls :func:`worker_configure`, which replaces any tracer
   inherited over ``fork`` with one writing ``<base>.shard-<pid>.jsonl``
   and re-roots its span stack under the shipped context — worker spans
   carry the parent's ``trace_id`` and hang off the sweep span;
3. after the pool drains, the parent calls :func:`merge_shards` to fold
   every shard into the main JSONL file (append + delete; span records
   are self-contained, so ordering never affects the reconstructed tree).

Production-safe sampling
------------------------

Always-on tracing under real traffic needs head-based sampling: the
keep/drop decision is made **once, where a trace is rooted** (the first
span with no parent — one HTTP request, one sweep) by drawing against
``REPRO_TRACE_SAMPLE`` (a probability in ``[0, 1]``; unset means keep
everything, preserving the pre-sampling behaviour).  The decision rides
inside :class:`TraceContext`, so spans of one trace never disagree —
including across the process boundary into pool workers.

Spans of an *unsampled* trace are not discarded immediately: they
accumulate in a bounded per-trace buffer, and when the trace's root span
finishes the buffer is either dropped (the common case — no I/O was ever
paid) or, if the root's wall time crossed ``REPRO_SLOW_QUERY_SECONDS``,
flushed whole to the sink.  Slow queries therefore **always** keep their
traces, however aggressive the sample rate — exactly the requests worth
debugging.  Ids are allocated either way, so ``X-Repro-Trace-Id`` and the
``trace_id`` fields of answers stay meaningful even for dropped traces.

``REPRO_TRACE_SAMPLE_SEED`` seeds the sampler (tests pin it for
deterministic keep sets); unset, the sampler is seeded from the OS.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

__all__ = [
    "TraceContext",
    "SpanRecord",
    "Tracer",
    "configure",
    "disable",
    "enabled",
    "get_tracer",
    "span",
    "current_context",
    "current_trace_context",
    "recent_spans",
    "worker_configure",
    "merge_shards",
    "sample_rate_from_env",
    "SAMPLE_ENV_VAR",
    "SAMPLE_SEED_ENV_VAR",
    "SLOW_KEEP_ENV_VAR",
]

#: Ring-buffer capacity for finished spans kept in memory.
RING_CAPACITY = 512

#: Per-trace capacity of the pending buffer holding an unsampled trace's
#: spans until its root decides their fate; beyond this the oldest spans
#: are dropped (a slow-query flush keeps the most recent window).
PENDING_CAPACITY = 256

#: Probability of keeping a trace, decided once at its root; unset or
#: unparsable means 1.0 (keep everything).
SAMPLE_ENV_VAR = "REPRO_TRACE_SAMPLE"

#: Optional integer seed for the sampler — tests pin it so the kept set
#: is deterministic.
SAMPLE_SEED_ENV_VAR = "REPRO_TRACE_SAMPLE_SEED"

#: Roots slower than this many seconds keep their trace even when the
#: sampler dropped it (shared with the server's slow-query log).
SLOW_KEEP_ENV_VAR = "REPRO_SLOW_QUERY_SECONDS"


def _new_id() -> str:
    return os.urandom(8).hex()


def sample_rate_from_env() -> float:
    """The head-sampling probability from ``$REPRO_TRACE_SAMPLE``.

    Clamped to ``[0, 1]``; unset or unparsable reads as 1.0 so plain
    ``--trace`` runs keep every span, exactly as before sampling existed.
    """
    raw = os.environ.get(SAMPLE_ENV_VAR)
    if not raw:
        return 1.0
    try:
        rate = float(raw)
    except ValueError:
        return 1.0
    return min(1.0, max(0.0, rate))


def _slow_keep_from_env() -> Optional[float]:
    raw = os.environ.get(SLOW_KEEP_ENV_VAR)
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        return None
    return value if value >= 0 else None


@dataclass(frozen=True)
class TraceContext:
    """The (trace_id, span_id) pair identifying a point in a trace.

    Picklable by design: this is what crosses the process boundary inside
    a task payload.  ``sampled`` carries the head-based sampling decision
    made at the trace root, so every process contributing spans to one
    trace keeps or drops them consistently.
    """

    trace_id: str
    span_id: str
    sampled: bool = True


@dataclass(frozen=True)
class SpanRecord:
    """One finished span, as written to the JSONL export."""

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str
    pid: int
    start_unix: float
    wall_seconds: float
    cpu_seconds: float
    status: str
    attrs: Dict[str, Any]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "pid": self.pid,
            "start_unix": self.start_unix,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "status": self.status,
            "attrs": self.attrs,
        }


class _NullSpan:
    """The do-nothing span handed out while tracing is disabled."""

    __slots__ = ()

    trace_id = None
    span_id = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def set_attr(self, **attrs: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    """A live span; created by :meth:`Tracer.span`, finished on exit."""

    __slots__ = (
        "_tracer", "name", "trace_id", "span_id", "parent_id", "sampled",
        "is_root", "attrs", "_start_wall", "_start_cpu", "_start_unix",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: str,
        parent_id: Optional[str],
        attrs: Dict[str, Any],
        sampled: bool = True,
        is_root: bool = False,
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = _new_id()
        self.parent_id = parent_id
        self.sampled = sampled
        self.is_root = is_root
        self.attrs = attrs

    def set_attr(self, **attrs: Any) -> None:
        self.attrs.update(attrs)

    def __enter__(self) -> "_Span":
        self._start_unix = time.time()
        self._start_wall = time.perf_counter()
        self._start_cpu = time.thread_time()
        self._tracer._push(self)
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        wall = time.perf_counter() - self._start_wall
        cpu = time.thread_time() - self._start_cpu
        self._tracer._pop(self)
        record = SpanRecord(
            trace_id=self.trace_id,
            span_id=self.span_id,
            parent_id=self.parent_id,
            name=self.name,
            pid=os.getpid(),
            start_unix=self._start_unix,
            wall_seconds=wall,
            cpu_seconds=cpu,
            status="error" if exc_type is not None else "ok",
            attrs=self.attrs,
        )
        self._tracer._finish(record, self)


class Tracer:
    """Owns the output sink, ring buffer, sampler, and per-thread span stacks."""

    def __init__(
        self,
        path: Optional[str] = None,
        root_context: Optional[TraceContext] = None,
        sample_rate: Optional[float] = None,
        sample_seed: Optional[int] = None,
        slow_keep_seconds: Optional[float] = None,
    ) -> None:
        self._path = os.fspath(path) if path is not None else None
        self._root_context = root_context
        self._local = threading.local()
        self._write_lock = threading.Lock()
        self._ring: List[SpanRecord] = []
        self._ring_lock = threading.Lock()
        self._file = open(self._path, "a", encoding="utf-8") if self._path else None
        if sample_rate is None:
            sample_rate = sample_rate_from_env()
        self.sample_rate = min(1.0, max(0.0, float(sample_rate)))
        if sample_seed is None:
            raw_seed = os.environ.get(SAMPLE_SEED_ENV_VAR)
            if raw_seed:
                try:
                    sample_seed = int(raw_seed)
                except ValueError:
                    sample_seed = None
        self._rng = random.Random(sample_seed)
        self._rng_lock = threading.Lock()
        if slow_keep_seconds is None:
            slow_keep_seconds = _slow_keep_from_env()
        self.slow_keep_seconds = slow_keep_seconds
        # Spans of unsampled traces, held until their root decides whether
        # the trace is dropped (fast) or kept (slow-query escape hatch).
        self._pending: Dict[str, List[SpanRecord]] = {}
        self._pending_lock = threading.Lock()
        self._sampling_stats = {
            "roots": 0, "sampled": 0, "unsampled": 0, "slow_kept": 0,
        }

    # -- span stack -------------------------------------------------------

    def _stack(self) -> List[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span: _Span) -> None:
        self._stack().append(span)

    def _pop(self, span: _Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # mis-nested exit; drop it and everything above
            del stack[stack.index(span):]

    def current(self) -> Optional[_Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def current_context(self) -> Optional[TraceContext]:
        active = self.current()
        if active is not None:
            return TraceContext(active.trace_id, active.span_id, active.sampled)
        return self._root_context

    # -- span creation ----------------------------------------------------

    def span(self, name: str, **attrs: Any) -> _Span:
        parent = self.current_context()
        if parent is not None:
            return _Span(
                self, name, parent.trace_id, parent.span_id, attrs,
                sampled=parent.sampled,
            )
        # A new trace roots here: make the head-sampling decision exactly
        # once and let every descendant (local or shipped to a worker)
        # inherit it through the context.
        sampled = self._sample()
        return _Span(
            self, name, _new_id(), None, attrs, sampled=sampled, is_root=True
        )

    def _sample(self) -> bool:
        stats = self._sampling_stats
        rate = self.sample_rate
        if rate >= 1.0:
            decision = True
        elif rate <= 0.0:
            decision = False
        else:
            with self._rng_lock:
                decision = self._rng.random() < rate
        with self._pending_lock:
            stats["roots"] += 1
            stats["sampled" if decision else "unsampled"] += 1
        return decision

    def sampling_stats(self) -> Dict[str, int]:
        """Sampler counters: roots seen, kept, dropped, slow-query keeps."""
        with self._pending_lock:
            return dict(self._sampling_stats)

    # -- output -----------------------------------------------------------

    def _finish(self, record: SpanRecord, span: Optional[_Span] = None) -> None:
        if span is not None and not span.sampled:
            self._finish_unsampled(record, span)
            return
        self._emit(record)

    def _finish_unsampled(self, record: SpanRecord, span: _Span) -> None:
        """Buffer an unsampled span; the trace root settles the buffer.

        Non-root spans append to the trace's bounded pending buffer (no
        I/O).  The root span then either flushes the whole buffer — the
        slow-query escape: its wall time crossed ``slow_keep_seconds`` —
        or drops it, which is the entire cost of an unsampled trace.
        """
        if not span.is_root:
            with self._pending_lock:
                buffer = self._pending.setdefault(record.trace_id, [])
                buffer.append(record)
                if len(buffer) > PENDING_CAPACITY:
                    del buffer[: len(buffer) - PENDING_CAPACITY]
            return
        with self._pending_lock:
            buffered = self._pending.pop(record.trace_id, [])
            keep = (
                self.slow_keep_seconds is not None
                and record.wall_seconds >= self.slow_keep_seconds
            )
            if keep:
                self._sampling_stats["slow_kept"] += 1
        if keep:
            for pending in buffered:
                self._emit(pending)
            self._emit(record)

    def _emit(self, record: SpanRecord) -> None:
        with self._ring_lock:
            self._ring.append(record)
            if len(self._ring) > RING_CAPACITY:
                del self._ring[: len(self._ring) - RING_CAPACITY]
        if self._file is not None:
            line = json.dumps(record.as_dict(), sort_keys=True)
            with self._write_lock:
                self._file.write(line + "\n")
                self._file.flush()

    def recent(self) -> List[SpanRecord]:
        with self._ring_lock:
            return list(self._ring)

    def close(self) -> None:
        if self._file is not None:
            with self._write_lock:
                self._file.close()
                self._file = None

    @property
    def path(self) -> Optional[str]:
        return self._path


_TRACER: Optional[Tracer] = None
_TRACER_LOCK = threading.Lock()


def configure(
    path: Optional[str] = None,
    root_context: Optional[TraceContext] = None,
    sample_rate: Optional[float] = None,
    sample_seed: Optional[int] = None,
    slow_keep_seconds: Optional[float] = None,
) -> Tracer:
    """Enable tracing for this process, replacing any previous tracer.

    ``sample_rate`` / ``sample_seed`` / ``slow_keep_seconds`` default to
    the ``REPRO_TRACE_SAMPLE`` / ``REPRO_TRACE_SAMPLE_SEED`` /
    ``REPRO_SLOW_QUERY_SECONDS`` environment variables, so a serving
    process enables production-safe sampling purely through env config.
    """
    global _TRACER
    with _TRACER_LOCK:
        if _TRACER is not None:
            _TRACER.close()
        _TRACER = Tracer(
            path,
            root_context,
            sample_rate=sample_rate,
            sample_seed=sample_seed,
            slow_keep_seconds=slow_keep_seconds,
        )
        return _TRACER


def disable() -> None:
    """Turn tracing off; :func:`span` reverts to the no-op path."""
    global _TRACER
    with _TRACER_LOCK:
        if _TRACER is not None:
            _TRACER.close()
        _TRACER = None


def enabled() -> bool:
    return _TRACER is not None


def get_tracer() -> Optional[Tracer]:
    return _TRACER


def span(name: str, **attrs: Any):
    """A context manager timing one unit of work; no-op when disabled."""
    tracer = _TRACER
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, **attrs)


def current_context() -> Optional[TraceContext]:
    """The active (trace_id, span_id), or ``None`` when disabled / idle."""
    tracer = _TRACER
    if tracer is None:
        return None
    return tracer.current_context()


# The name used by call sites that ship context across processes; kept as
# an alias so intent reads at the call site.
current_trace_context = current_context


def recent_spans() -> List[SpanRecord]:
    """Finished spans from the in-memory ring buffer (newest last)."""
    tracer = _TRACER
    if tracer is None:
        return []
    return tracer.recent()


# -- cross-process plumbing -----------------------------------------------

def shard_path(shard_base: str, pid: Optional[int] = None) -> str:
    """The shard file a worker with ``pid`` writes its spans to."""
    return f"{shard_base}.shard-{pid if pid is not None else os.getpid()}.jsonl"


def worker_configure(
    parent: Optional[TraceContext],
    shard_base: Optional[str],
) -> None:
    """(Re)configure tracing inside a pool worker.

    Always replaces whatever tracer the worker inherited (over ``fork``
    the parent's open file object would otherwise be shared), rooting new
    spans under ``parent``.  With ``parent is None`` the worker is fully
    silenced — the no-op guarantee holds across the pool too.

    The parent's sampling decision rides inside ``parent.sampled``: an
    unsampled sweep ships unsampled contexts, so worker spans buffer (no
    shard I/O) and are dropped when the worker's tracer closes.  The
    slow-query keep is per-process — only spans living in the process
    whose root crossed the threshold are retained.
    """
    if parent is None:
        disable()
        return
    path = shard_path(shard_base) if shard_base else None
    configure(path, root_context=parent)


def merge_shards(main_path: str, shard_base: str) -> int:
    """Fold every worker shard into the main JSONL file; returns span count.

    Shards are appended whole and deleted.  Records are self-contained
    (ids, parent links, timestamps), so append order does not matter for
    tree reconstruction.
    """
    directory = os.path.dirname(os.path.abspath(shard_base)) or "."
    prefix = os.path.basename(shard_base) + ".shard-"
    merged = 0
    try:
        names = sorted(os.listdir(directory))
    except FileNotFoundError:
        return 0
    with open(main_path, "a", encoding="utf-8") as out:
        for name in names:
            if not (name.startswith(prefix) and name.endswith(".jsonl")):
                continue
            shard = os.path.join(directory, name)
            with open(shard, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if line:
                        out.write(line + "\n")
                        merged += 1
            os.remove(shard)
    return merged


def load_spans(path: str) -> List[Dict[str, Any]]:
    """Parse a trace JSONL file into a list of span dicts."""
    spans: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                spans.append(json.loads(line))
    return spans
