"""Shared cache of Laplacian spectra keyed by graph structure.

Every spectral bound (Theorems 4, 5, 6) consumes the same quantity: the ``h``
smallest eigenvalues of a graph's (normalised or ordinary) Laplacian.  The
eigensolve dominates the cost of a bound by orders of magnitude, yet it
depends only on the graph structure, the normalisation, and the solver
configuration — not on the memory size ``M``, the number of processors ``p``,
or the ``k`` sweep.  :class:`SpectrumCache` therefore memoises eigensolves
under the key ``(fingerprint, normalized, h, sparse assembly, solver
options)``, where ``fingerprint`` is the structural hash from
:meth:`repro.graphs.compgraph.ComputationGraph.fingerprint`.

Properties:

* **LRU budget** — the cache holds at most ``max_entries`` spectra (each is a
  tiny float vector, but fingerprinted graphs can be numerous in a sweep).
* **Prefix serving** — a request for ``h`` eigenvalues is served from any
  cached entry with the same graph/normalisation/options and ``h' >= h`` by
  slicing (eigenvalues are ascending), so shrinking the truncation never
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
  become the *lease leader* for that spectrum; losers block on the lease
  and then read the published spectrum from the store, so concurrent cold
  misses across worker processes (and across different ``M``/truncations,
  which share one spectrum) pay exactly one eigensolve.  A follower whose
  wait times out — or whose leader died — falls back to solving itself:
  wasteful, never wrong.  Episodes are counted in ``lease_leaders`` /
  ``lease_followers`` and the ``repro_lease_total{role=...}`` metric, with
  follower wait time in the ``repro_lease_wait_seconds`` histogram.

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
from repro.solvers.backend import EigenSolverOptions
from repro.solvers.backends import WarmStartContext, solve_smallest

__all__ = [
    "CachedSpectrum",
    "SpectrumCache",
    "default_spectrum_cache",
]

#: Graphs larger than this default to sparse Laplacian assembly (mirrors the
#: heuristic the bound functions have always used).
SPARSE_CUTOFF = 2000

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
_LEASE_TOTAL = obs.global_registry().counter(
    "repro_lease_total",
    "Cross-process solve-lease episodes: leaders solved, followers waited.",
    labelnames=("role",),
)
_LEASE_WAIT_SECONDS = obs.global_registry().histogram(
    "repro_lease_wait_seconds",
    "Time followers spent blocked on another process's solve lease.",
)

#: How many acquire→wait→re-read rounds a cold miss plays before giving up
#: on coalescing and solving redundantly.  Each round only recurs when a
#: leader died or raced away, so 4 bounds pathological churn, not latency.
_LEASE_MAX_ROUNDS = 4


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
        Resolved backend id that produced the underlying solve (``"unknown"``
        for entries predating backend tracking, e.g. old store blobs).
    dtype:
        Arithmetic precision of the solve (``"float64"``/``"float32"``).
    """

    eigenvalues: np.ndarray
    solve_seconds: float
    cache_hit: bool
    backend: str = "unknown"
    dtype: str = "float64"


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
    warm_start:
        Optional :class:`~repro.solvers.backends.WarmStartContext` shared
        with other caches; by default every cache owns a private context, so
        lineage-tagged solves through the same cache warm-start each other.
    """

    def __init__(
        self,
        max_entries: int = 128,
        store: "Optional[SpectrumStore]" = None,
        warm_start: Optional[WarmStartContext] = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self._max_entries = int(max_entries)
        self._store = store
        self._warm_start = warm_start if warm_start is not None else WarmStartContext()
        self._entries: "OrderedDict[Tuple, Tuple[np.ndarray, float, str]]" = OrderedDict()
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

    @property
    def warm_start(self) -> WarmStartContext:
        """The warm-start context threaded into lineage-tagged solves."""
        return self._warm_start

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
        sparse: Optional[bool] = None,
        lineage: Optional[str] = None,
    ) -> CachedSpectrum:
        """The ``num_eigenvalues`` smallest Laplacian eigenvalues of ``graph``.

        Serves from the cache when possible (exact key, or a prefix of a
        larger cached spectrum); otherwise assembles the Laplacian, solves,
        stores and returns.  ``normalized=False`` returns the Theorem 5
        quantity ``lambda(L) / max_out_degree``.  ``lineage`` tags the solve
        with a family identity (e.g. ``"fft"``) so warm-start-capable
        backends can seed from the previous solve of the same lineage; it is
        *not* part of the cache key (identical graphs share spectra whatever
        lineage asked first).
        """
        n = graph.num_vertices
        h = int(num_eigenvalues)
        if h < 0:
            raise ValueError(f"num_eigenvalues must be non-negative, got {h}")
        if h > n:
            raise ValueError(f"requested {h} eigenvalues from an n={n} graph")
        if n == 0 or h == 0:
            return CachedSpectrum(np.zeros(0), 0.0, True)
        options = eig_options or EigenSolverOptions()
        dtype = options.dtype
        # Resolve the sparse/dense assembly choice *before* keying: the two
        # paths can use different solver backends (dense LAPACK vs ARPACK),
        # so their spectra must never be served interchangeably.  Keying on
        # the resolved flag also lets sparse=None share entries with an
        # explicit request that resolves the same way.
        use_sparse = sparse if sparse is not None else n > SPARSE_CUTOFF
        base_key = (graph.fingerprint(), bool(normalized), bool(use_sparse), options)
        key = base_key + (h,)

        with self._lock:
            found = self._entries.get(key)
            if found is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                _SPECTRUM_LOOKUPS.inc(tier="memory")
                return CachedSpectrum(found[0], found[1], True, found[2], dtype)
            # Prefix serving: any cached spectrum of the same graph /
            # normalisation / assembly / options with h' >= h contains the
            # answer.
            for other_key, (values, solve_seconds, backend) in self._entries.items():
                if other_key[:4] == base_key and other_key[4] >= h:
                    self._entries.move_to_end(other_key)
                    self._hits += 1
                    _SPECTRUM_LOOKUPS.inc(tier="memory")
                    prefix = values[:h]
                    prefix.flags.writeable = False
                    return CachedSpectrum(prefix, solve_seconds, True, backend, dtype)

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
            stored = self._fetch_stored(base_key[0], h, normalized, use_sparse, options)
            if stored is None:
                stored, lease = self._claim_solve(base_key[0], h, normalized, use_sparse, options)
            if stored is not None:
                stored_key = base_key + (stored.num_eigenvalues,)
                with self._lock:
                    # Promote the full stored vector into the memory tier so
                    # follow-up lookups (including smaller h) stay in memory.
                    if stored_key not in self._entries:
                        self._entries[stored_key] = (
                            stored.eigenvalues,
                            stored.solve_seconds,
                            stored.backend,
                        )
                    self._entries.move_to_end(stored_key)
                    while len(self._entries) > self._max_entries:
                        self._entries.popitem(last=False)
                    self._hits += 1
                    self._store_hits += 1
                _SPECTRUM_LOOKUPS.inc(tier="store")
                prefix = stored.eigenvalues[:h]
                prefix.flags.writeable = False
                return CachedSpectrum(prefix, stored.solve_seconds, True, stored.backend, dtype)

        # Solve outside the lock: concurrent misses on the same key may solve
        # twice, which is wasteful but never wrong (results are identical for
        # deterministic backends).
        try:
            values, solve_seconds, backend = self._solve(
                graph, h, normalized, options, use_sparse, lineage
            )
            if self._store is not None:
                try:
                    self._store.put(
                        base_key[0],
                        values,
                        solve_seconds,
                        normalized=bool(normalized),
                        sparse=bool(use_sparse),
                        eig_options=options,
                        backend=backend,
                        lineage=lineage,
                    )
                except OSError:
                    pass  # a full/read-only disk must not break the computation
        finally:
            # Publish-then-release ordering: followers re-read the store the
            # moment the lease row disappears, so the entry must be there.
            if lease is not None:
                lease.release()
        with self._lock:
            self._entries[key] = (values, solve_seconds, backend)
            self._entries.move_to_end(key)
            self._misses += 1
            while len(self._entries) > self._max_entries:
                self._entries.popitem(last=False)
        _SPECTRUM_LOOKUPS.inc(tier="solve")
        return CachedSpectrum(values, solve_seconds, False, backend, dtype)

    def _solve(
        self,
        graph: ComputationGraph,
        h: int,
        normalized: bool,
        options: EigenSolverOptions,
        use_sparse: bool,
        lineage: Optional[str],
    ) -> Tuple[np.ndarray, float, str]:
        with obs.span(
            "eigensolve",
            fingerprint=graph.fingerprint() if obs.enabled() else None,
            h=h,
            dtype=options.dtype,
        ) as active:
            start = time.perf_counter()
            # Sparse assembly hands backends the matrix-free LaplacianOperator:
            # amg's LOBPCG loop never sees an explicit Laplacian, and the
            # parts needing entries lower it themselves at O(m).  The
            # spectra are identical, so cache keys are unchanged.
            if use_sparse:
                lap = laplacian_operator(graph, normalized=normalized)
            else:
                lap = laplacian(graph, normalized=normalized, sparse=False)
            result = solve_smallest(
                lap,
                h,
                options,
                warm_start=self._warm_start,
                lineage=lineage,
                normalized=normalized,
            )
            values = result.eigenvalues
            if not normalized:
                max_out = graph.freeze().max_out_degree
                values = values / max_out if max_out else values * 0.0
            values = np.ascontiguousarray(values, dtype=np.float64)
            values.flags.writeable = False
            elapsed = time.perf_counter() - start
            active.set_attr(backend=result.backend)
            _EIG_SECONDS.observe(elapsed, backend=result.backend, dtype=options.dtype)
            return values, elapsed, result.backend

    # ------------------------------------------------------------------
    # store tier + cross-process lease plumbing
    # ------------------------------------------------------------------
    def _fetch_stored(self, fingerprint, h, normalized, use_sparse, options):
        """One store lookup; a broken store reads as a miss."""
        try:
            return self._store.get(
                fingerprint,
                h,
                normalized=bool(normalized),
                sparse=bool(use_sparse),
                eig_options=options,
            )
        except OSError:
            return None

    def _claim_solve(self, fingerprint, h, normalized, use_sparse, options):
        """Contend for the cross-process solve lease on one cold spectrum.

        Returns ``(stored, lease)`` with at most one side set: ``stored``
        when another process's leader published the spectrum while we
        waited (serve it as a store hit), ``lease`` when *we* are the
        leader and must solve — and release.  ``(None, None)`` means
        leasing is disabled/broken or the wait timed out; the caller just
        solves (wasteful, never wrong).  The lease key deliberately
        excludes ``h``, so every truncation of one spectrum coalesces.
        """
        store = self._store
        if store is None or store.lease_ttl <= 0:
            return None, None
        waited = 0.0
        followed = False
        try:
            for _ in range(_LEASE_MAX_ROUNDS):
                try:
                    lease = store.acquire_lease(
                        fingerprint,
                        normalized=bool(normalized),
                        sparse=bool(use_sparse),
                        eig_options=options,
                    )
                except (OSError, ValueError):
                    return None, None
                if lease is not None:
                    # Re-check the store now that we hold the lease: the
                    # previous leader may have published and released in
                    # the window since our fetch missed.  Without this a
                    # late acquirer would re-solve a published spectrum.
                    stored = self._fetch_stored(fingerprint, h, normalized, use_sparse, options)
                    if stored is not None:
                        lease.release()
                        return stored, None
                    with self._lock:
                        self._lease_leaders += 1
                    _LEASE_TOTAL.inc(role="leader")
                    return None, lease
                followed = True
                start = time.perf_counter()
                outcome = store.wait_for_lease(
                    fingerprint,
                    normalized=bool(normalized),
                    sparse=bool(use_sparse),
                    eig_options=options,
                )
                waited += time.perf_counter() - start
                # Whatever ended the wait, the published spectrum wins; a
                # "stale" verdict without one loops back to take the lease
                # over, "timeout" falls through to a redundant solve.
                stored = self._fetch_stored(fingerprint, h, normalized, use_sparse, options)
                if stored is not None:
                    return stored, None
                if outcome == "timeout":
                    return None, None
        finally:
            if followed:
                with self._lock:
                    self._lease_followers += 1
                _LEASE_TOTAL.inc(role="follower")
                _LEASE_WAIT_SECONDS.observe(waited)
        return None, None

    # An alias, not a second path: ``spectral-coarse`` answers from the
    # exact spectrum, and perfbench's stage timers wrap this name.
    interval_spectrum = spectrum


_DEFAULT_CACHE = SpectrumCache(max_entries=128)


def default_spectrum_cache() -> SpectrumCache:
    """The process-wide spectrum cache shared by default-constructed engines."""
    return _DEFAULT_CACHE
