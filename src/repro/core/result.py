"""Result dataclasses shared by the bounds and the baselines.

Every bound computation returns a small frozen dataclass carrying the bound
value together with enough metadata to reproduce it (which ``k`` won, how many
eigenvalues were computed, which Laplacian was used, wall-clock time).  The
reporting harness consumes these objects directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from typing import Dict, Optional

import numpy as np

__all__ = [
    "SpectralBoundResult",
    "ParallelBoundResult",
    "BaselineBoundResult",
]


@dataclass(frozen=True)
class SpectralBoundResult:
    """Result of the spectral lower bound (Theorem 4 or Theorem 5).

    Attributes
    ----------
    value:
        The lower bound on the optimal non-trivial I/O, clamped at zero
        (a negative lower bound carries no information).
    raw_value:
        The un-clamped maximum of ``floor(n/k) * sum_i lambda_i - 2kM``.
    best_k:
        The number of segments ``k`` attaining the maximum.
    num_vertices:
        Number of vertices ``n`` of the analysed graph.
    memory_size:
        Fast-memory size ``M``.
    normalized:
        True if the out-degree-normalised Laplacian ``L~`` was used
        (Theorem 4); False for the ``L / max_out_degree`` variant (Theorem 5).
    num_eigenvalues:
        How many of the smallest eigenvalues were computed (the ``h``
        truncation of §6.1).  The eigenvalues themselves come from
        :meth:`~repro.core.engine.BoundEngine.spectrum` (or
        :func:`~repro.core.bounds.bound_spectrum`), and the value at every
        swept ``k`` from
        :func:`~repro.core.bounds.spectral_bound_from_eigenvalues`.
    elapsed_seconds:
        Wall-clock time of this bound computation.  Includes the eigensolve
        only when this call actually performed one; calls served from a
        spectrum cache pay (and report) just the formula evaluation, so
        summing ``elapsed_seconds`` over a sweep counts the eigensolve
        exactly once.
    eig_elapsed_seconds:
        Wall-clock cost of the eigensolve behind the spectrum this result
        used, reported on every result for attribution (it is *shared*
        across results from the same sweep, not additive).
    """

    value: float
    raw_value: float
    best_k: int
    num_vertices: int
    memory_size: int
    normalized: bool
    num_eigenvalues: int
    elapsed_seconds: float = 0.0
    eig_elapsed_seconds: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict view (for CSV output)."""
        return asdict(self)

    @property
    def is_trivial(self) -> bool:
        """True when the bound carries no information (``value == 0``)."""
        return self.value <= 0.0


@dataclass(frozen=True)
class ParallelBoundResult:
    """Result of the parallel spectral bound (Theorem 6).

    The bound applies to at least one of the ``num_processors`` processors.
    """

    value: float
    raw_value: float
    best_k: int
    num_vertices: int
    memory_size: int
    num_processors: int
    num_eigenvalues: int
    elapsed_seconds: float = 0.0
    eig_elapsed_seconds: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass(frozen=True)
class BaselineBoundResult:
    """Result of a baseline lower-bound method (e.g. convex min-cut).

    Attributes
    ----------
    value:
        The I/O lower bound (clamped at zero).
    method:
        Human-readable method name, e.g. ``"convex-min-cut"``.
    num_vertices:
        Number of vertices of the analysed graph.
    memory_size:
        Fast-memory size ``M``.
    witness_vertex:
        For per-vertex methods, the vertex attaining the maximum (or None).
    details:
        Free-form method-specific numbers (e.g. the raw cut value).
    elapsed_seconds:
        Wall-clock time of the computation.
    flow_calls:
        Max-flow solves actually performed (0 when every cut value came
        from a cache tier — the warm-run audit trail, mirroring
        ``eig_elapsed_seconds`` on the spectral side).
    """

    value: float
    method: str
    num_vertices: int
    memory_size: int
    witness_vertex: Optional[int] = None
    details: Dict[str, float] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    flow_calls: int = 0

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


def _clamp_nonnegative(value: float) -> float:
    """Clamp tiny/negative bound values to zero (shared helper)."""
    if not np.isfinite(value):
        raise ValueError(f"bound value must be finite, got {value}")
    return max(0.0, float(value))
