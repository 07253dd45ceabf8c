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

A configured tracer writes every span it finishes as one JSON line, with
one ``os.write`` on a descriptor opened ``O_APPEND``.  The kernel puts
each such write at the end of the file in one step, so every process of
a run — pool workers, fleet workers — appends to the one trace file
without interleaving, and a span is on disk as soon as it finishes: a
killed run keeps the spans of its finished work.  That atomicity holds
on a local filesystem, not over NFS (the spectrum store needs a local
disk too).  Nothing is buffered, so a forked child never inherits
unwritten parent spans.

Cross-process propagation
-------------------------

1. the parent snapshots :func:`current_context` and ships it inside the
   pickled task payload together with its trace path (this works under
   any start method, ``forkserver`` and ``spawn`` included);
2. the worker calls :func:`worker_configure`, which replaces any tracer
   inherited over ``fork`` with one appending to that same path and
   re-roots its span stack under the shipped context — worker spans carry
   the parent's ``trace_id`` and hang off the sweep span.

A pre-forked server fleet needs neither step: its workers keep the
tracer they inherit over ``fork`` and append through its descriptor.
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
    """Owns the trace file's descriptor and the per-thread span stacks."""

    def __init__(
        self,
        path: Optional[str] = None,
        root_context: Optional[TraceContext] = None,
    ) -> None:
        self._path = os.fspath(path) if path is not None else None
        self._root_context = root_context
        self._local = threading.local()
        # Guards the descriptor, not the file: a span finishing while
        # another thread closes the tracer must not write into a number a
        # later open() has reused.
        self._write_lock = threading.Lock()
        self._fd: Optional[int] = None
        if self._path is not None:
            self._fd = os.open(
                self._path, os.O_WRONLY | os.O_APPEND | os.O_CREAT | os.O_CLOEXEC, 0o666
            )

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
        if self._fd is None:
            return
        line = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        with self._write_lock:
            if self._fd is not None:
                os.write(self._fd, line)

    def close(self) -> None:
        with self._write_lock:
            fd, self._fd = self._fd, None
            if fd is not None:
                os.close(fd)

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

def worker_configure(
    parent: Optional[TraceContext],
    path: Optional[str],
) -> None:
    """(Re)configure tracing inside a pool worker.

    Always replaces whatever tracer the worker inherited over ``fork``,
    rooting new spans under ``parent`` and appending them to ``path``, the
    parent's own trace file.  With ``parent is None`` the worker is fully
    silenced — the no-op guarantee holds across the pool too.
    """
    if parent is None:
        disable()
        return
    configure(path, root_context=parent)


def load_spans(path: str) -> List[Dict[str, Any]]:
    """Parse a trace JSONL file into a list of span dicts."""
    spans: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                spans.append(json.loads(line))
    return spans
