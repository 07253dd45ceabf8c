"""Helpers shared by the harness (``workloads.py``) and ``program.py``."""

from __future__ import annotations

from pathlib import Path
from typing import Dict

from repro.runtime.families import GraphSpec
from repro.runtime.service import BoundQuery
from repro.runtime.store import CutStore, SpectrumStore

#: BoundAnswer fields compared with the reference (timings and trace ids vary).
ANSWER_FIELDS = (
    "graph", "memory_size", "num_processors", "normalization", "bound",
    "raw_value", "best_k", "num_vertices", "bound_lo", "bound_hi",
)


def answer_dict(answer) -> dict:
    return {name: getattr(answer, name) for name in ANSWER_FIELDS}


def query(item: dict) -> BoundQuery:
    """A ``BoundQuery`` from its JSON form (family, size, M, normalization, method)."""
    return BoundQuery(
        graph=GraphSpec(family=item["family"], size_param=item["size"]),
        memory_size=item["M"],
        normalization=item["normalization"],
        method=item["method"],
    )


def store_footprint(root: Path) -> Dict[str, float]:
    """Entries of both stores, and bytes of everything that is not a blob."""
    index_bytes = sum(
        p.stat().st_size for p in root.rglob("*") if p.is_file() and p.suffix != ".npz"
    )
    return {
        "store_entries": len(SpectrumStore(root)) + len(CutStore(root)),
        "store_index_bytes": index_bytes,
    }
