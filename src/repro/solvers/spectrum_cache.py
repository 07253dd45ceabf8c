"""Shared cache of Laplacian spectra keyed by graph structure.

Every spectral bound (Theorems 4, 5, 6) consumes the same quantity: the ``h``
smallest eigenvalues of a graph's (normalised or ordinary) Laplacian.  The
eigensolve dominates the cost of a bound by orders of magnitude, yet it
depends only on the graph structure, the normalisation, and the backend
that computes it — not on the memory size ``M``, the number of processors
``p``, or the ``k`` sweep.  :class:`SpectrumCache` therefore memoises
eigensolves under one key, ``(fingerprint, normalized, backend)``:
``fingerprint`` is the structural hash from
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
* **One solve per spectrum** — concurrent misses on one key share one
  eigensolve, with or without a store.  The first miss after the store
  read *leads* a single flight for the key; later ones wait on its event
  and are then ordinary hits (reporting the original solve's seconds), or
  fail with the leader's error.  A waiter that needs a longer spectrum
  than the leader solved leads the next flight.
* **Cross-process solve leases** — over a store, a flight leader first
  claims the spectrum's solve lease
  (:meth:`~repro.runtime.store.SpectrumStore.claim`); if another process
  leads, it waits on the lease and serves what that process published, so
  one cold spectrum costs one eigensolve across processes (and across
  ``M``/truncations, which share one spectrum).  A follower whose leader
  died without publishing takes the lease and solves; one whose wait
  times out solves without it: wasteful, never wrong.  Episodes are
  counted in ``lease_leaders`` / ``lease_followers``.
* **Admission** — :attr:`SpectrumCache.admission`, when set, is a gate
  (duck-typed ``slot()`` context manager) around each eigensolve and
  nothing else: hits, store reads and waiting followers never take it.

The module-level :func:`default_spectrum_cache` is shared by all
:class:`~repro.core.engine.BoundEngine` instances that are not given an
explicit cache, so repeated bound computations on the same graph anywhere in
a process reuse eigensolves.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.runtime.store import SpectrumStore

from repro import obs
from repro.graphs.compgraph import ComputationGraph
from repro.graphs.laplacian import laplacian
from repro.solvers.backends import resolve_method, solve_smallest

__all__ = [
    "CachedSpectrum",
    "SpectrumCache",
    "default_spectrum_cache",
]

#: What identifies one spectrum in every tier: (graph fingerprint,
#: normalized, resolved backend id).
SpectrumKey = Tuple[str, bool, str]

_EIG_SECONDS = obs.global_registry().histogram(
    "repro_eigensolve_seconds",
    "Wall-clock latency of real eigensolves (cache misses only).",
    labelnames=("backend",),
)
_EIG_ITERATIONS = obs.global_registry().histogram(
    "repro_eigensolve_iterations",
    "LOBPCG iterations of iterative eigensolves (dense solves observe none).",
    labelnames=("backend",),
    buckets=(5, 10, 15, 20, 25, 30, 40, 50, 100, 200, 300),
)
_SPECTRUM_LOOKUPS = obs.global_registry().counter(
    "repro_spectrum_lookups_total",
    "Spectrum fetches by serving tier (memory/store hit vs fresh solve).",
    labelnames=("tier",),
)


class _Flight:
    """One leader's lookup of one key, which concurrent misses wait on."""

    def __init__(self) -> None:
        self.done = threading.Event()
        self.result: "Optional[CachedSpectrum]" = None
        self.error: Optional[BaseException] = None


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
    """

    eigenvalues: np.ndarray
    solve_seconds: float
    cache_hit: bool
    backend: str


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

    Attributes
    ----------
    admission:
        ``None`` (default), or a gate with a ``slot()`` context manager
        that every eigensolve of this cache runs inside; it may raise to
        shed the solve, which then fails the flight's waiters too.
        :class:`~repro.runtime.service.BoundService` sets it.
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
        self._flights: Dict[SpectrumKey, _Flight] = {}
        self._hits = 0
        self._misses = 0
        self._store_hits = 0
        self._lease_leaders = 0
        self._lease_followers = 0
        self.admission = None

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
        """Flights this cache won a cross-process solve lease for."""
        return self._lease_leaders

    @property
    def lease_followers(self) -> int:
        """Flights this cache waited out another process's lease for."""
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
        solver: str = "auto",
        lineage: Optional[str] = None,
    ) -> CachedSpectrum:
        """The ``num_eigenvalues`` smallest Laplacian eigenvalues of ``graph``.

        Serves from the cache when possible (the key's entry, if it is long
        enough); otherwise assembles the Laplacian, solves with the backend
        ``solver`` resolves to, stores and returns.  ``normalized=False`` returns the
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
        backend = resolve_method(solver, n, h)
        if n == 0 or h == 0:
            return CachedSpectrum(np.zeros(0), 0.0, True, backend)
        key: SpectrumKey = (graph.fingerprint(), bool(normalized), backend)

        with self._lock:
            found = self._memory_hit(key, h)
        if found is not None:
            return found

        # Second tier: the persistent store may hold this spectrum (or a
        # longer one) from an earlier run or another process.  Read
        # outside the lock; a broken store (unreadable mount, a locked or
        # damaged catalog) reads as a miss.
        if self._store is not None:
            stored = self._fetch_stored(key, h)
            if stored is not None:
                return self._serve_stored(key, h, stored)

        # A genuine miss joins the key's flight, or leads one.
        while True:
            with self._lock:
                # Re-checked: a flight may have landed since the first look.
                found = self._memory_hit(key, h)
                if found is not None:
                    return found
                flight = self._flights.get(key)
                if flight is None:
                    flight = self._flights[key] = _Flight()
                    break
            flight.done.wait()
            if flight.error is not None:
                raise flight.error
            led = flight.result
            if led.eigenvalues.shape[0] >= h:
                with self._lock:
                    self._hits += 1
                _SPECTRUM_LOOKUPS.inc(tier="memory")
                return CachedSpectrum(led.eigenvalues[:h], led.solve_seconds, True, backend)
            # The leader fetched a shorter spectrum: lead the next flight.

        try:
            flight.result = self._lead(graph, key, h, lineage)
        except BaseException as exc:
            flight.error = exc
            raise
        finally:
            with self._lock:
                del self._flights[key]
            flight.done.set()
        return flight.result

    def _lead(
        self, graph: ComputationGraph, key: SpectrumKey, h: int, lineage: Optional[str]
    ) -> CachedSpectrum:
        """A flight leader's work: claim the store's solve lease, then solve
        inside the admission gate and publish — or serve what another
        process published meanwhile."""
        fingerprint, normalized, backend = key
        lease = None
        if self._store is not None:
            # The lease key excludes ``h``, so every truncation of one
            # spectrum contends for one lease.
            claim = self._store.claim(
                fingerprint, lambda: self._fetch_stored(key, h),
                normalized=normalized, backend=backend,
            )
            with self._lock:
                self._lease_leaders += claim.lease is not None
                self._lease_followers += claim.followed
            if claim.found is not None:
                return self._serve_stored(key, h, claim.found)
            lease = claim.lease
        gate = self.admission.slot() if self.admission is not None else contextlib.nullcontext()
        try:
            with gate:
                values, solve_seconds = self._solve(graph, h, normalized, backend)
            if self._store is not None:
                try:
                    self._store.put(
                        fingerprint, values, solve_seconds, normalized=normalized,
                        backend=backend, lineage=lineage,
                    )
                except OSError:
                    pass  # a full/read-only disk must not break the computation
        finally:
            # Publish-then-release ordering: another process's followers
            # re-read the store the moment they take the lease.
            if lease is not None:
                lease.release()
        with self._lock:
            self._remember(key, values, solve_seconds)
            self._misses += 1
        _SPECTRUM_LOOKUPS.inc(tier="solve")
        return CachedSpectrum(values, solve_seconds, False, backend)

    def _memory_hit(self, key: SpectrumKey, h: int) -> Optional[CachedSpectrum]:
        """The memory tier's answer, if its entry is long enough.  Caller
        holds the lock."""
        found = self._entries.get(key)
        if found is None or found[0].shape[0] < h:
            return None
        self._entries.move_to_end(key)
        self._hits += 1
        _SPECTRUM_LOOKUPS.inc(tier="memory")
        return CachedSpectrum(found[0][:h], found[1], True, key[2])

    def _serve_stored(self, key: SpectrumKey, h: int, stored) -> CachedSpectrum:
        """Answer from a store read, keeping the whole stored vector in
        memory so follow-up lookups (including smaller h) stay there."""
        with self._lock:
            self._remember(key, stored.eigenvalues, stored.solve_seconds)
            self._hits += 1
            self._store_hits += 1
        _SPECTRUM_LOOKUPS.inc(tier="store")
        return CachedSpectrum(stored.eigenvalues[:h], stored.solve_seconds, True, key[2])

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
        self, graph: ComputationGraph, h: int, normalized: bool, backend: str
    ) -> Tuple[np.ndarray, float]:
        """One eigensolve with ``backend``, a resolved backend id."""
        with obs.span(
            "eigensolve",
            fingerprint=graph.fingerprint() if obs.enabled() else None,
            h=h,
        ) as active:
            start = time.perf_counter()
            # Every backend takes the sparse Laplacian: dense.py checks its
            # symmetry in O(nnz) and densifies it once, lobpcg factorises
            # it and amg builds its hierarchy on it.
            lap = laplacian(graph, normalized=normalized, sparse=True)
            result = solve_smallest(lap, h, backend)
            values = result.eigenvalues
            if not normalized:
                max_out = graph.freeze().max_out_degree
                values = values / max_out if max_out else values * 0.0
            values = np.ascontiguousarray(values, dtype=np.float64)
            values.flags.writeable = False
            elapsed = time.perf_counter() - start
            active.set_attr(backend=result.backend)
            _EIG_SECONDS.observe(elapsed, backend=result.backend)
            if result.iterations is not None:
                active.set_attr(
                    iterations=result.iterations, max_residual=result.max_residual
                )
                _EIG_ITERATIONS.observe(result.iterations, backend=result.backend)
            return values, elapsed

    # ------------------------------------------------------------------
    # store tier
    # ------------------------------------------------------------------
    def _fetch_stored(self, key: SpectrumKey, h: int):
        """One store lookup; a broken store reads as a miss."""
        fingerprint, normalized, backend = key
        try:
            return self._store.get(fingerprint, h, normalized=normalized, backend=backend)
        except OSError:
            return None

    # An alias, not a second path: ``spectral-coarse`` answers from the
    # exact spectrum, and perfbench's stage timers wrap this name.
    interval_spectrum = spectrum


# An alias perfbench's stage timers wrap by name; nothing here calls it.
laplacian_operator = laplacian


_DEFAULT_CACHE = SpectrumCache(max_entries=128)


def default_spectrum_cache() -> SpectrumCache:
    """The process-wide spectrum cache shared by default-constructed engines."""
    return _DEFAULT_CACHE
