"""Trace analysis: reconstruct span trees and render time breakdowns.

Backs ``python -m repro obs report trace.jsonl``.  Two views:

* a **top-down tree** — every root span with its children indented,
  showing wall time, CPU time, and each span's share of its root;
* a **self-time table** — per span *name*, total wall time minus the
  wall time of direct children, aggregated and sorted; this is where
  "the sweep was slow" turns into "87% of it was lobpcg eigensolves".

Works on any trace the tracer writes, including the one file every
process of a pooled sweep or a serving fleet appends to (records are
self-contained, so order and pid mixing do not matter).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List, Sequence, Tuple

from .tracing import load_spans

__all__ = [
    "build_trees",
    "self_times",
    "render_report",
    "report_as_json",
    "load_spans",
]

#: Attributes worth echoing inline in the tree view, in display order.
_INLINE_ATTRS = ("fingerprint", "backend", "method", "vertex", "status_code")


def build_trees(
    spans: Sequence[Dict[str, Any]],
) -> Tuple[List[Dict[str, Any]], Dict[str, List[Dict[str, Any]]]]:
    """Return (roots, children-by-span-id) for a list of span dicts.

    A span is a root if it has no parent or its parent is absent from the
    file (e.g. a task of a sweep killed before its sweep span finished).
    Children are sorted by start time.
    """
    by_id = {span["span_id"]: span for span in spans}
    children: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    roots: List[Dict[str, Any]] = []
    for span in spans:
        parent = span.get("parent_id")
        if parent and parent in by_id:
            children[parent].append(span)
        else:
            roots.append(span)
    for bucket in children.values():
        bucket.sort(key=lambda span: span.get("start_unix", 0.0))
    roots.sort(key=lambda span: span.get("start_unix", 0.0))
    return roots, children


def self_times(
    spans: Sequence[Dict[str, Any]],
) -> List[Tuple[str, int, float, float]]:
    """Aggregate (name, count, self wall seconds, total wall seconds).

    Self time is a span's wall time minus its direct children's wall
    time, clamped at zero (children on other threads can overlap the
    parent).  Sorted by self time, largest first.
    """
    _, children = build_trees(spans)
    counts: Dict[str, int] = defaultdict(int)
    self_wall: Dict[str, float] = defaultdict(float)
    total_wall: Dict[str, float] = defaultdict(float)
    for span in spans:
        name = span["name"]
        wall = float(span.get("wall_seconds", 0.0))
        child_wall = sum(
            float(child.get("wall_seconds", 0.0))
            for child in children.get(span["span_id"], ())
        )
        counts[name] += 1
        total_wall[name] += wall
        self_wall[name] += max(0.0, wall - child_wall)
    table = [
        (name, counts[name], self_wall[name], total_wall[name])
        for name in counts
    ]
    table.sort(key=lambda row: row[2], reverse=True)
    return table


def _span_label(span: Dict[str, Any]) -> str:
    attrs = span.get("attrs") or {}
    shown = []
    for key in _INLINE_ATTRS:
        if key in attrs:
            value = attrs[key]
            if key == "fingerprint" and isinstance(value, str) and len(value) > 12:
                value = value[:12]
            shown.append(f"{key}={value}")
    suffix = f" [{', '.join(shown)}]" if shown else ""
    marker = " !" if span.get("status") == "error" else ""
    return f"{span['name']}{suffix}{marker}"


def render_report(spans: Sequence[Dict[str, Any]]) -> str:
    """The full text report: header, top-down trees, self-time table."""
    if not spans:
        return "trace is empty\n"
    roots, children = build_trees(spans)
    trace_ids = {span["trace_id"] for span in spans}
    pids = {span.get("pid") for span in spans}
    lines = [
        f"{len(spans)} spans, {len(trace_ids)} trace(s), "
        f"{len(pids)} process(es)",
        "",
    ]

    def walk(span: Dict[str, Any], depth: int, root_wall: float) -> None:
        wall = float(span.get("wall_seconds", 0.0))
        cpu = float(span.get("cpu_seconds", 0.0))
        share = f" {100.0 * wall / root_wall:5.1f}%" if root_wall > 0 else ""
        lines.append(
            f"{'  ' * depth}{_span_label(span)}  "
            f"wall={wall:.4f}s cpu={cpu:.4f}s pid={span.get('pid')}{share}"
        )
        for child in children.get(span["span_id"], ()):
            walk(child, depth + 1, root_wall)

    for root in roots:
        walk(root, 0, float(root.get("wall_seconds", 0.0)))
    lines.append("")
    lines.append(f"{'name':<28}{'count':>7}{'self (s)':>12}{'total (s)':>12}")
    for name, count, self_wall, total_wall in self_times(spans):
        lines.append(f"{name:<28}{count:>7}{self_wall:>12.4f}{total_wall:>12.4f}")
    return "\n".join(lines) + "\n"


def report_as_json(spans: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """The report as data — ``obs report --json``.

    Same two views as :func:`render_report`: ``trees`` nests each root
    span's full record under ``children`` (recursively), ``self_times``
    is the aggregated table as objects.  Span records pass through
    unmodified, so any attribute the tracer recorded is reachable.
    """
    roots, children = build_trees(spans)

    def node(span: Dict[str, Any]) -> Dict[str, Any]:
        as_node = dict(span)
        as_node["children"] = [
            node(child) for child in children.get(span["span_id"], ())
        ]
        return as_node

    return {
        "num_spans": len(spans),
        "num_traces": len({span["trace_id"] for span in spans}),
        "num_processes": len({span.get("pid") for span in spans}),
        "trees": [node(root) for root in roots],
        "self_times": [
            {
                "name": name,
                "count": count,
                "self_seconds": round(self_wall, 6),
                "total_seconds": round(total_wall, 6),
            }
            for name, count, self_wall, total_wall in self_times(spans)
        ],
    }
