"""Named graph families and rehydratable graph references.

Pool workers and CLI invocations cannot receive a live
:class:`~repro.graphs.compgraph.ComputationGraph` — they get a
:class:`GraphSpec`, a tiny picklable/JSON-able description that is
rehydrated on the worker side:

* ``GraphSpec(family="fft", size_param=7)`` — rebuilt by the named
  generator from :data:`FAMILY_BUILDERS` (every deterministic
  single-integer-parameter generator in :mod:`repro.graphs.generators`);
* ``GraphSpec(path="graph.npz")`` — loaded from a CSR-native archive
  written by :func:`repro.graphs.io.save_graph_npz` (``.json`` files from
  :func:`~repro.graphs.io.save_graph` work too).

Rebuilding from a spec is cheap relative to an eigensolve and keeps the
inter-process payloads tiny, which is what makes the process-pool sweep
orchestrator practical.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional

import numpy as np

from repro.graphs.compgraph import ComputationGraph
from repro.graphs.generators import (
    bellman_held_karp_graph,
    binary_tree_reduction_graph,
    chain_graph,
    diamond_graph,
    fft_graph,
    hypercube_graph,
    inner_product_graph,
    lu_factorization_graph,
    naive_matmul_graph,
    prefix_sum_graph,
    strassen_graph,
    triangular_solve_graph,
)
from repro.graphs.io import load_graph, load_graph_npz, npz_num_vertices

__all__ = [
    "FAMILY_BUILDERS",
    "FAMILY_SIZE_ESTIMATORS",
    "GraphSpec",
    "estimate_num_vertices",
    "family_builder",
    "resolve_graph",
]

#: Deterministic generators keyed by the family name the CLI / specs use.
#: Every builder maps one integer size parameter to a computation graph.
FAMILY_BUILDERS: Dict[str, Callable[[int], ComputationGraph]] = {
    "fft": fft_graph,
    "hypercube": hypercube_graph,
    "bhk": bellman_held_karp_graph,
    "matmul": naive_matmul_graph,
    "strassen": strassen_graph,
    "inner-product": inner_product_graph,
    "chain": chain_graph,
    "binary-tree": binary_tree_reduction_graph,
    "diamond": diamond_graph,
    "prefix-sum": prefix_sum_graph,
    "lu": lu_factorization_graph,
    "triangular-solve": triangular_solve_graph,
}


#: Cheap vertex-count estimators, keyed like :data:`FAMILY_BUILDERS`.  Used
#: by the sweep orchestrator to schedule solve tasks largest-first *without*
#: building any graph in the parent process; estimates only need to order
#: tasks correctly, not be exact (most of these happen to be exact anyway).
FAMILY_SIZE_ESTIMATORS: Dict[str, Callable[[int], int]] = {
    "fft": lambda l: (l + 1) * (1 << l),
    "hypercube": lambda d: 1 << d,
    "bhk": lambda l: 1 << l,
    "matmul": lambda n: 2 * n**3 + n**2,
    "strassen": lambda n: max(1, int(4.2 * n ** (np.log2(7)))),
    "inner-product": lambda n: 4 * n - 1,
    "chain": lambda n: n,
    "binary-tree": lambda n: 2 * n - 1,
    "diamond": lambda n: n + 2,
    "prefix-sum": lambda n: 2 * n - 1,
    "lu": lambda n: max(1, (2 * n**3 + 3 * n**2 + n) // 6 + n),
    "triangular-solve": lambda n: max(1, n * (n + 2) - n // 2),
}


def estimate_num_vertices(family: Optional[str], size_param: Optional[int]) -> int:
    """Cheap vertex-count estimate for a (family, size) pair.

    Unknown families fall back to a monotone function of the size parameter
    (still orders a same-family sweep correctly); missing parameters give 0
    (scheduled last).
    """
    if size_param is None:
        return 0
    estimator = FAMILY_SIZE_ESTIMATORS.get(family or "")
    if estimator is not None:
        try:
            return max(0, int(estimator(int(size_param))))
        except (ValueError, OverflowError):
            return 0
    return max(0, int(size_param))


def family_builder(name: str) -> Callable[[int], ComputationGraph]:
    """The generator registered under ``name`` (raises on unknown names)."""
    try:
        return FAMILY_BUILDERS[name]
    except KeyError:
        known = ", ".join(sorted(FAMILY_BUILDERS))
        raise ValueError(f"unknown graph family {name!r}; known families: {known}")


@dataclass(frozen=True)
class GraphSpec:
    """A rehydratable reference to a computation graph.

    Exactly one of (``family`` + ``size_param``) or ``path`` must be set.
    """

    family: Optional[str] = None
    size_param: Optional[int] = None
    path: Optional[str] = None

    def __post_init__(self) -> None:
        from_family = self.family is not None
        from_path = self.path is not None
        if from_family == from_path:
            raise ValueError(
                "GraphSpec needs either (family, size_param) or path, not both/neither"
            )
        if from_family and self.size_param is None:
            raise ValueError(f"family {self.family!r} spec needs a size_param")

    def describe(self) -> str:
        """Short human-readable name (used in result rows and answers)."""
        if self.family is not None:
            return f"{self.family}:{self.size_param}"
        return Path(str(self.path)).name

    def build(self) -> ComputationGraph:
        """Rehydrate the referenced graph."""
        if self.family is not None:
            return family_builder(self.family)(int(self.size_param))
        path = Path(str(self.path))
        if path.suffix == ".npz":
            return load_graph_npz(path)
        return load_graph(path)

    def estimate_num_vertices(self) -> int:
        """Cheap vertex-count estimate (for largest-first scheduling).

        Family specs use :data:`FAMILY_SIZE_ESTIMATORS`; ``.npz`` specs read
        the ``num_vertices`` scalar from the archive; other paths fall back
        to the file size as an ordering proxy.  Never raises — a broken path is
        estimated as 0 and fails later, on the worker, with a real error.
        """
        if self.family is not None:
            return estimate_num_vertices(self.family, self.size_param)
        path = Path(str(self.path))
        if path.suffix == ".npz":
            try:
                return npz_num_vertices(path)
            except Exception:
                return 0
        try:
            return int(path.stat().st_size)
        except OSError:
            return 0


def resolve_graph(ref) -> ComputationGraph:
    """Turn a graph reference into a graph.

    Accepts a live :class:`ComputationGraph` (returned as-is), a
    :class:`GraphSpec`, or a path string ending in ``.npz``/``.json``.
    """
    if isinstance(ref, ComputationGraph):
        return ref
    if isinstance(ref, GraphSpec):
        return ref.build()
    if isinstance(ref, (str, Path)):
        return GraphSpec(path=str(ref)).build()
    raise TypeError(f"cannot resolve a graph from {type(ref).__name__}")
