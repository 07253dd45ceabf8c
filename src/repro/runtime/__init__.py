"""Runtime layer: persistent spectra, pooled sweeps, batch serving.

The modules here make every eigensolve happen at most once *ever*:

* :mod:`repro.runtime.store` — :class:`SpectrumStore`, the on-disk,
  fingerprint-keyed spectrum archive that plugs under
  :class:`~repro.solvers.spectrum_cache.SpectrumCache` as a second tier,
  over the sqlite3 catalog of :mod:`repro.runtime.catalog`;
* :mod:`repro.runtime.families` — :class:`GraphSpec` and the named-generator
  registry that lets workers and CLI invocations rehydrate graphs;
* :mod:`repro.runtime.orchestrator` — :class:`SweepOrchestrator`, the
  process-pool fan-out behind :func:`repro.analysis.sweep.sweep`;
* :mod:`repro.runtime.service` — :class:`BoundService`, batch queries
  against warm caches (the serving layer);
* :mod:`repro.runtime.cli` — the ``python -m repro`` front-end.
"""

from repro.runtime.families import FAMILY_BUILDERS, GraphSpec, resolve_graph
from repro.runtime.orchestrator import SweepOrchestrator, SweepReport, SweepTask
from repro.runtime.service import BoundAnswer, BoundQuery, BoundService
from repro.runtime.store import SpectrumStore, default_store_root

__all__ = [
    "FAMILY_BUILDERS",
    "GraphSpec",
    "resolve_graph",
    "SweepOrchestrator",
    "SweepReport",
    "SweepTask",
    "BoundAnswer",
    "BoundQuery",
    "BoundService",
    "SpectrumStore",
    "default_store_root",
]
