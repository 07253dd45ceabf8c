"""Baseline lower-bound methods the paper compares against.

* :mod:`flownet` — the reusable vertex-split flow network of the baseline's
  reduction, built once per graph from the frozen CSR view (plus the cheap
  per-vertex upper bounds used for search pruning), and
  :class:`ScipyMinCut`, which solves its per-vertex min cuts with SciPy's
  C-compiled max-flow.
* :mod:`convex_mincut` — reconstruction of the convex min-cut automatic bound
  of Elango et al. [13], the only polynomial-time automatic baseline the paper
  evaluates (Figures 7–11), with per-graph cut caching and pruning
  (:class:`MinCutEngine`).
* :mod:`partitioner` — balanced graph partitioners standing in for METIS in
  the partitioned variant of the baseline.
* :mod:`exact` — brute-force references for tiny graphs: minimum simulated
  I/O over all evaluation orders (an upper bound on ``J*``) used as a
  soundness oracle for every lower bound, standing in for the intractable
  2S-partition ILP of [12].
"""

from repro.baselines.convex_mincut import (
    MinCutEngine,
    convex_min_cut_bound,
    convex_min_cut_value,
    partitioned_convex_min_cut_bound,
)
from repro.baselines.exact import minimum_io_over_all_orders, minimum_io_upper_bound
from repro.baselines.flownet import ConvexCutNetwork, ScipyMinCut
from repro.baselines.partitioner import (
    contiguous_topological_partition,
    spectral_bisection_partition,
)

__all__ = [
    "ConvexCutNetwork",
    "ScipyMinCut",
    "MinCutEngine",
    "convex_min_cut_value",
    "convex_min_cut_bound",
    "partitioned_convex_min_cut_bound",
    "contiguous_topological_partition",
    "spectral_bisection_partition",
    "minimum_io_over_all_orders",
    "minimum_io_upper_bound",
]
