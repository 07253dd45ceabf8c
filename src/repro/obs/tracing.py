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

A configured tracer writes every span it finishes, as one JSON object per
line appended to its JSONL path (flushed per span, so a forked worker
never inherits buffered parent spans).

Cross-process propagation
-------------------------

A ``ProcessPoolExecutor`` worker cannot append to the parent's file
without interleaving, so each worker writes a private *shard*:

1. the parent snapshots :func:`current_context` and ships it inside the
   pickled task payload together with a shard base path;
2. the worker calls :func:`worker_configure`, which replaces any tracer
   inherited over ``fork`` with one writing ``<base>.shard-<pid>.jsonl``
   and re-roots its span stack under the shipped context — worker spans
   carry the parent's ``trace_id`` and hang off the sweep span;
3. after the pool drains, the parent calls :func:`merge_shards` to fold
   every shard into the main JSONL file (append + delete; span records
   are self-contained, so ordering never affects the reconstructed tree).
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

__all__ = [
    "TraceContext",
    "Tracer",
    "configure",
    "disable",
    "enabled",
    "get_tracer",
    "span",
    "current_context",
    "worker_configure",
    "merge_shards",
]


def _new_id() -> str:
    return os.urandom(8).hex()


@dataclass(frozen=True)
class TraceContext:
    """The (trace_id, span_id) pair identifying a point in a trace.

    Picklable by design: this is what crosses the process boundary inside
    a task payload.
    """

    trace_id: str
    span_id: str


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
    """A live span; created by :meth:`Tracer.span`, written on exit."""

    __slots__ = (
        "_tracer", "name", "trace_id", "span_id", "parent_id", "attrs",
        "_start_wall", "_start_cpu", "_start_unix",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: str,
        parent_id: Optional[str],
        attrs: Dict[str, Any],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = _new_id()
        self.parent_id = parent_id
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
        self._tracer._write({
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "pid": os.getpid(),
            "start_unix": self._start_unix,
            "wall_seconds": wall,
            "cpu_seconds": cpu,
            "status": "error" if exc_type is not None else "ok",
            "attrs": self.attrs,
        })


class Tracer:
    """Owns the output sink and the per-thread span stacks."""

    def __init__(
        self,
        path: Optional[str] = None,
        root_context: Optional[TraceContext] = None,
    ) -> None:
        self._path = os.fspath(path) if path is not None else None
        self._root_context = root_context
        self._local = threading.local()
        self._write_lock = threading.Lock()
        self._file = open(self._path, "a", encoding="utf-8") if self._path else None

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
            return TraceContext(active.trace_id, active.span_id)
        return self._root_context

    # -- span creation ----------------------------------------------------

    def span(self, name: str, **attrs: Any) -> _Span:
        parent = self.current_context()
        if parent is not None:
            return _Span(self, name, parent.trace_id, parent.span_id, attrs)
        return _Span(self, name, _new_id(), None, attrs)

    # -- output -----------------------------------------------------------

    def _write(self, record: Dict[str, Any]) -> None:
        if self._file is not None:
            line = json.dumps(record, sort_keys=True)
            with self._write_lock:
                self._file.write(line + "\n")
                self._file.flush()

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
) -> Tracer:
    """Enable tracing for this process, replacing any previous tracer."""
    global _TRACER
    with _TRACER_LOCK:
        if _TRACER is not None:
            _TRACER.close()
        _TRACER = Tracer(path, root_context)
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
