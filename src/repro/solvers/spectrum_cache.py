"""Shared cache of Laplacian spectra keyed by graph structure.

Every spectral bound (Theorems 4, 5, 6) consumes the same quantity: the ``h``
smallest eigenvalues of a graph's (normalised or ordinary) Laplacian.  The
eigensolve dominates the cost of a bound by orders of magnitude, yet it
depends only on the graph structure, the normalisation, and the backend and
precision that compute it — not on the memory size ``M``, the number of
processors ``p``, or the ``k`` sweep.  :class:`SpectrumCache` therefore
memoises eigensolves under one key, ``(fingerprint, normalized, backend,
dtype)``: ``fingerprint`` is the structural hash from
:meth:`repro.graphs.compgraph.ComputationGraph.fingerprint` and ``backend``
the id :func:`~repro.solvers.backends.resolve_method` resolves *before* the
lookup (``$REPRO_SOLVER_BACKEND`` and the size rules included), so ``auto``
and an explicit request for the backend it picks share one spectrum, and a
spectrum one backend computed is never served in place of another's.  The
persistent store and its solve leases derive their ids from the same key.

Properties:

* **LRU budget** — the cache holds at most ``max_entries`` spectra (each is a
  tiny float vector, but fingerprinted graphs can be numerous in a sweep).
* **Prefix serving** — each key holds the longest spectrum seen for it; a
  request for ``h`` eigenvalues is served from any entry with ``h' >= h``
  by slicing (eigenvalues are ascending), so shrinking the truncation never
  re-solves.
* **Counters** — ``hits`` / ``misses`` are exposed; every miss corresponds to
  exactly one eigensolve, which is what the engine tests assert.
* **Unnormalised scaling included** — for ``normalized=False`` the cache
  stores ``lambda(L) / max_out_degree`` (the Theorem 5 quantity), so callers
  always receive eigenvalues ready to plug into the bound formula.
* **Optional persistent tier** — a cache constructed with a
  :class:`~repro.runtime.store.SpectrumStore` checks the on-disk archive
  before eigensolving and publishes every fresh solve back to it, so the
  "at most one eigensolve" guarantee extends across processes and runs.
  Disk hits count as ``hits`` (no eigensolve happened) and are additionally
  tallied in ``store_hits``; ``misses`` keeps meaning "eigensolves
  performed".
* **Cross-process solve coalescing** — when the store's solve leases are
  enabled (``lease_ttl > 0``, the default), a cold miss first tries to
  become the *lease leader* for that spectrum
  (:meth:`~repro.runtime.store.SpectrumStore.claim`); losers block on the
  lease and then read the published spectrum from the store, so concurrent
  cold misses across worker processes (and across different
  ``M``/truncations, which share one spectrum) pay exactly one eigensolve.
  A follower whose wait times out — or whose leader died — falls back to
  solving itself: wasteful, never wrong.  Episodes are counted in
  ``lease_leaders`` / ``lease_followers``.

The module-level :func:`default_spectrum_cache` is shared by all
:class:`~repro.core.engine.BoundEngine` instances that are not given an
explicit cache, so repeated bound computations on the same graph anywhere in
a process reuse eigensolves.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.runtime.store import SpectrumStore

from repro import obs
from repro.graphs.compgraph import ComputationGraph
from repro.graphs.laplacian import laplacian, laplacian_operator
from repro.solvers.backends import EigenSolverOptions, resolve_method, solve_smallest

__all__ = [
    "CachedSpectrum",
    "SpectrumCache",
    "default_spectrum_cache",
]

#: What identifies one spectrum in every tier: (graph fingerprint,
#: normalized, resolved backend id, dtype).
SpectrumKey = Tuple[str, bool, str, str]

_EIG_SECONDS = obs.global_registry().histogram(
    "repro_eigensolve_seconds",
    "Wall-clock latency of real eigensolves (cache misses only).",
    labelnames=("backend", "dtype"),
)
_SPECTRUM_LOOKUPS = obs.global_registry().counter(
    "repro_spectrum_lookups_total",
    "Spectrum fetches by serving tier (memory/store hit vs fresh solve).",
    labelnames=("tier",),
)


@dataclass(frozen=True)
class CachedSpectrum:
    """One spectrum lookup result.

    Attributes
    ----------
    eigenvalues:
        The requested smallest eigenvalues, ascending, read-only.  For
        ``normalized=False`` they are already divided by the maximum
        out-degree (the Theorem 5 scaling).
    solve_seconds:
        Wall-clock cost of the eigensolve that produced the underlying cache
        entry.  On a cache hit this is the cost of the *original* solve, not
        of this lookup — it attributes the eigensolve cost without repeating
        it per lookup.
    cache_hit:
        True when the spectrum was served from the cache.
    backend:
        Resolved backend id that produced the underlying solve.
    dtype:
        Arithmetic precision of the solve (``"float64"``/``"float32"``).
    """

    eigenvalues: np.ndarray
    solve_seconds: float
    cache_hit: bool
    backend: str
    dtype: str


class SpectrumCache:
    """LRU cache of smallest-eigenvalue computations for graph Laplacians.

    Parameters
    ----------
    max_entries:
        Size budget: least-recently-used entries are evicted beyond this
        count.
    store:
        Optional :class:`~repro.runtime.store.SpectrumStore` used as a
        second, persistent tier: memory misses check the store before
        eigensolving, and fresh solves are published back to it.
    """

    def __init__(
        self, max_entries: int = 128, store: "Optional[SpectrumStore]" = None
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self._max_entries = int(max_entries)
        self._store = store
        # One entry per key: the longest spectrum seen (read-only, so its
        # slices are too) and its solve seconds.
        self._entries: "OrderedDict[SpectrumKey, Tuple[np.ndarray, float]]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._store_hits = 0
        self._lease_leaders = 0
        self._lease_followers = 0

    # ------------------------------------------------------------------
    # stats / management
    # ------------------------------------------------------------------
    @property
    def max_entries(self) -> int:
        return self._max_entries

    @property
    def hits(self) -> int:
        """Number of lookups served without an eigensolve."""
        return self._hits

    @property
    def misses(self) -> int:
        """Number of lookups that required an eigensolve."""
        return self._misses

    @property
    def num_eigensolves(self) -> int:
        """Alias for :attr:`misses`: each miss performs exactly one solve."""
        return self._misses

    @property
    def store_hits(self) -> int:
        """Lookups served from the persistent store tier (subset of hits)."""
        return self._store_hits

    @property
    def lease_leaders(self) -> int:
        """Cold misses this cache won a cross-process solve lease for."""
        return self._lease_leaders

    @property
    def lease_followers(self) -> int:
        """Cold misses this cache waited out another process's lease for."""
        return self._lease_followers

    @property
    def store(self) -> "Optional[SpectrumStore]":
        """The persistent second tier, if configured."""
        return self._store

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop all entries and reset the hit/miss counters."""
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0
            self._store_hits = 0
            self._lease_leaders = 0
            self._lease_followers = 0

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def spectrum(
        self,
        graph: ComputationGraph,
        num_eigenvalues: int,
        normalized: bool = True,
        eig_options: Optional[EigenSolverOptions] = None,
        lineage: Optional[str] = None,
    ) -> CachedSpectrum:
        """The ``num_eigenvalues`` smallest Laplacian eigenvalues of ``graph``.

        Serves from the cache when possible (the key's entry, if it is long
        enough); otherwise assembles the Laplacian, solves with the resolved
        backend, stores and returns.  ``normalized=False`` returns the
        Theorem 5 quantity ``lambda(L) / max_out_degree``.  ``lineage``
        labels a fresh solve in the store with its family name (e.g.
        ``"fft"``, for ``cache ls`` and ``cache clear --family``); it is
        *not* part of the key.
        """
        n = graph.num_vertices
        h = int(num_eigenvalues)
        if h < 0:
            raise ValueError(f"num_eigenvalues must be non-negative, got {h}")
        if h > n:
            raise ValueError(f"requested {h} eigenvalues from an n={n} graph")
        options = eig_options or EigenSolverOptions()
        backend, dtype = resolve_method(options.method, n, h), options.dtype
        if n == 0 or h == 0:
            return CachedSpectrum(np.zeros(0), 0.0, True, backend, dtype)
        key: SpectrumKey = (graph.fingerprint(), bool(normalized), backend, dtype)

        with self._lock:
            found = self._entries.get(key)
            if found is not None and found[0].shape[0] >= h:
                self._entries.move_to_end(key)
                self._hits += 1
                _SPECTRUM_LOOKUPS.inc(tier="memory")
                return CachedSpectrum(found[0][:h], found[1], True, backend, dtype)

        # Second tier: the persistent store may hold this spectrum (or a
        # longer one) from an earlier run or another process.  Checked
        # outside the lock — it is disk I/O.  A broken store (unreadable
        # mount, a locked or damaged catalog) degrades to a cold
        # solve, mirroring the write path below.  A genuine store miss then
        # contends for the cross-process solve lease: leaders solve below
        # (and release in the ``finally``), followers come back with the
        # spectrum the leader published.
        lease = None
        if self._store is not None:
            stored = self._fetch_stored(key, h)
            if stored is None:
                # The lease key excludes ``h``, so every truncation of one
                # spectrum coalesces onto one solve.
                claim = self._store.claim(
                    key[0], lambda: self._fetch_stored(key, h),
                    normalized=key[1], backend=backend, dtype=dtype,
                )
                stored, lease = claim.found, claim.lease
                with self._lock:
                    self._lease_leaders += lease is not None
                    self._lease_followers += claim.followed
            if stored is not None:
                with self._lock:
                    # Keep the full stored vector, so follow-up lookups
                    # (including smaller h) stay in memory.
                    self._remember(key, stored.eigenvalues, stored.solve_seconds)
                    self._hits += 1
                    self._store_hits += 1
                _SPECTRUM_LOOKUPS.inc(tier="store")
                return CachedSpectrum(
                    stored.eigenvalues[:h], stored.solve_seconds, True, backend, dtype
                )

        # Solve outside the lock: concurrent misses on the same key may solve
        # twice, which is wasteful but never wrong (results are identical for
        # deterministic backends).
        try:
            values, solve_seconds = self._solve(
                graph, h, normalized, EigenSolverOptions(backend, dtype)
            )
            if self._store is not None:
                try:
                    self._store.put(
                        key[0], values, solve_seconds, normalized=key[1],
                        backend=backend, dtype=dtype, lineage=lineage,
                    )
                except OSError:
                    pass  # a full/read-only disk must not break the computation
        finally:
            # Publish-then-release ordering: followers re-read the store the
            # moment the lease row disappears, so the entry must be there.
            if lease is not None:
                lease.release()
        with self._lock:
            self._remember(key, values, solve_seconds)
            self._misses += 1
        _SPECTRUM_LOOKUPS.inc(tier="solve")
        return CachedSpectrum(values, solve_seconds, False, backend, dtype)

    def _remember(self, key: SpectrumKey, values: np.ndarray, solve_seconds: float) -> None:
        """Keep ``values`` under ``key`` unless a longer spectrum is there
        already; evict beyond the budget.  Caller holds the lock."""
        found = self._entries.get(key)
        if found is None or found[0].shape[0] < values.shape[0]:
            self._entries[key] = (values, solve_seconds)
        self._entries.move_to_end(key)
        while len(self._entries) > self._max_entries:
            self._entries.popitem(last=False)

    def _solve(
        self,
        graph: ComputationGraph,
        h: int,
        normalized: bool,
        options: EigenSolverOptions,
    ) -> Tuple[np.ndarray, float]:
        """One eigensolve with ``options.method``, a resolved backend id."""
        with obs.span(
            "eigensolve",
            fingerprint=graph.fingerprint() if obs.enabled() else None,
            h=h,
            dtype=options.dtype,
        ) as active:
            start = time.perf_counter()
            # The backend decides the Laplacian's form: LAPACK takes the
            # dense matrix, every other backend the matrix-free
            # LaplacianOperator (amg's LOBPCG loop never sees an explicit
            # Laplacian, and the parts needing entries lower it themselves
            # at O(m)).
            if options.method == "dense":
                lap = laplacian(graph, normalized=normalized, sparse=False)
            else:
                lap = laplacian_operator(graph, normalized=normalized)
            result = solve_smallest(lap, h, options)
            values = result.eigenvalues
            if not normalized:
                max_out = graph.freeze().max_out_degree
                values = values / max_out if max_out else values * 0.0
            values = np.ascontiguousarray(values, dtype=np.float64)
            values.flags.writeable = False
            elapsed = time.perf_counter() - start
            active.set_attr(backend=result.backend)
            _EIG_SECONDS.observe(elapsed, backend=result.backend, dtype=options.dtype)
            return values, elapsed

    # ------------------------------------------------------------------
    # store tier
    # ------------------------------------------------------------------
    def _fetch_stored(self, key: SpectrumKey, h: int):
        """One store lookup; a broken store reads as a miss."""
        fingerprint, normalized, backend, dtype = key
        try:
            return self._store.get(
                fingerprint, h, normalized=normalized, backend=backend, dtype=dtype
            )
        except OSError:
            return None

    # An alias, not a second path: ``spectral-coarse`` answers from the
    # exact spectrum, and perfbench's stage timers wrap this name.
    interval_spectrum = spectrum


_DEFAULT_CACHE = SpectrumCache(max_entries=128)


def default_spectrum_cache() -> SpectrumCache:
    """The process-wide spectrum cache shared by default-constructed engines."""
    return _DEFAULT_CACHE
