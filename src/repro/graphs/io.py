"""Serialization of computation graphs.

Two formats are supported:

* **JSON** (:func:`save_graph` / :func:`load_graph`) — a small human-readable
  document (vertex count, edge list, optional labels/op names), intentionally
  trivial so traced graphs can be inspected with standard tools.
* **NPZ** (:func:`save_graph_npz` / :func:`load_graph_npz`) — the CSR-native
  binary format: the frozen ``(m, 2)`` edge array plus metadata arrays in one
  compressed ``.npz``.  This is the fast path the sweep orchestrator's pool
  workers use to rehydrate graphs that do not come from a named generator.

Both loaders rebuild the graph through
:meth:`~repro.graphs.compgraph.ComputationGraph.add_edges_array`, so loading
never iterates edges in Python.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Tuple, Union

import numpy as np

from repro.graphs.compgraph import ComputationGraph

__all__ = [
    "graph_to_dict",
    "graph_from_dict",
    "save_graph",
    "load_graph",
    "save_graph_npz",
    "load_graph_npz",
    "npz_num_vertices",
]

_FORMAT_VERSION = 1


def graph_to_dict(graph: ComputationGraph) -> dict:
    """Convert a graph to a JSON-serialisable dictionary."""
    return {
        "format_version": _FORMAT_VERSION,
        "num_vertices": graph.num_vertices,
        "edges": [[int(u), int(v)] for u, v in graph.edges()],
        "labels": {str(v): graph.label(v) for v in graph.vertices() if graph.label(v)},
        "ops": {str(v): graph.op(v) for v in graph.vertices() if graph.op(v)},
    }


def graph_from_dict(data: dict) -> ComputationGraph:
    """Rebuild a graph from :func:`graph_to_dict` output."""
    version = data.get("format_version", 1)
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported graph format version {version}")
    graph = ComputationGraph(int(data["num_vertices"]))
    edges = data.get("edges", [])
    if len(edges):
        graph.add_edges_array(np.asarray(edges, dtype=np.int64).reshape(-1, 2))
    graph.set_labels({int(v): label for v, label in data.get("labels", {}).items()})
    graph.set_ops({int(v): op for v, op in data.get("ops", {}).items()})
    return graph


def save_graph(graph: ComputationGraph, path: Union[str, Path]) -> None:
    """Write ``graph`` to ``path`` as JSON."""
    path = Path(path)
    path.write_text(json.dumps(graph_to_dict(graph)))


def load_graph(path: Union[str, Path]) -> ComputationGraph:
    """Read a graph previously written by :func:`save_graph`."""
    path = Path(path)
    return graph_from_dict(json.loads(path.read_text()))


def _metadata_arrays(mapping: Dict[int, str]) -> Tuple[np.ndarray, np.ndarray]:
    if not mapping:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype="<U1")
    ids = np.fromiter(mapping.keys(), dtype=np.int64, count=len(mapping))
    values = np.array([mapping[int(v)] for v in ids], dtype=str)
    return ids, values


def save_graph_npz(graph: ComputationGraph, path: Union[str, Path]) -> None:
    """Write ``graph`` to ``path`` as a compressed CSR-native ``.npz``.

    The archive holds the frozen edge array (lexicographically sorted, the
    same array :meth:`~repro.graphs.compgraph.ComputationGraph.freeze`
    exposes) plus labels/ops as parallel id/value arrays.  No Python objects
    are pickled, so the file loads with ``allow_pickle=False``.
    """
    labels = {v: graph.label(v) for v in graph.vertices() if graph.label(v)}
    ops = {v: graph.op(v) for v in graph.vertices() if graph.op(v)}
    label_ids, label_values = _metadata_arrays(labels)
    op_ids, op_values = _metadata_arrays(ops)
    with open(Path(path), "wb") as handle:
        np.savez_compressed(
            handle,
            format_version=np.int64(_FORMAT_VERSION),
            num_vertices=np.int64(graph.num_vertices),
            edges=graph.edge_array(),
            label_ids=label_ids,
            label_values=label_values,
            op_ids=op_ids,
            op_values=op_values,
        )


def load_graph_npz(path: Union[str, Path]) -> ComputationGraph:
    """Read a graph previously written by :func:`save_graph_npz`."""
    with np.load(Path(path), allow_pickle=False) as data:
        version = int(data["format_version"])
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported graph format version {version}")
        graph = ComputationGraph(int(data["num_vertices"]))
        edges = data["edges"]
        if edges.size:
            graph.add_edges_array(edges)
        graph.set_labels(
            {int(v): str(s) for v, s in zip(data["label_ids"], data["label_values"])}
        )
        graph.set_ops(
            {int(v): str(s) for v, s in zip(data["op_ids"], data["op_values"])}
        )
    return graph


def npz_num_vertices(path: Union[str, Path]) -> int:
    """The vertex count of a graph written by :func:`save_graph_npz`
    (member access is lazy, so the edge array is never decompressed)."""
    with np.load(Path(path), allow_pickle=False) as data:
        return int(data["num_vertices"])
