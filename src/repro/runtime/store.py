"""Persistent on-disk archive of Laplacian spectra and convex min-cut tables.

The in-memory :class:`~repro.solvers.spectrum_cache.SpectrumCache` makes an
eigensolve happen at most once *per process*; :class:`SpectrumStore` extends
that guarantee across processes and runs, and :class:`CutStore` does the
same for the convex min-cut baseline's cut values.  Both are views of one
store directory: ``blobs/<entry id>.npz`` holds one spectrum (eigenvalues
plus solve cost), named by a content key derived from what the in-memory
cache keys on — the graph's structural fingerprint, the normalisation, the
resolved sparse/dense assembly, the solver options and the truncation
``h`` — ``cuts/<fingerprint>.npz`` holds one graph's cut table,
and ``catalog.sqlite`` (:mod:`repro.runtime.catalog`) holds one row per
blob, the solve leases and the ``solves_recorded`` / ``flows_recorded``
counters that ``python -m repro cache stats`` reports.

Many processes (pool workers, fleet workers, CI jobs) share one directory.
A blob is written to a temporary file and moved into place with
``os.replace`` *before* its row is inserted, so a row never points at a
partial blob; a crash in between leaves an orphan blob for ``verify``.  A racing
duplicate solve rewrites identical bytes and keeps the existing row —
wasteful, never wrong.  Cold solves are coalesced across processes by
*solve leases* (:meth:`SpectrumStore.acquire_lease`): a compare-and-set on a
``leases`` row carrying the leader's pid/host/heartbeat/ttl, so N workers
needing one cold spectrum pay one eigensolve, and a leader killed mid-solve
hands over by ttl expiry or same-host dead-pid detection.  SQLite's locks,
like the ``flock`` they replaced, are unreliable on network filesystems:
keep a shared store on a local disk, and copy one only while nothing writes
to it, together with its ``catalog.sqlite-wal`` file.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
import os
import socket
import sqlite3
import tempfile
import threading
import time
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.obs.metrics import global_registry
from repro.runtime.catalog import Catalog, Table, bump
from repro.solvers.backend import EigenSolverOptions

_STORE_IO_SECONDS = global_registry().histogram(
    "repro_store_io_seconds",
    "Wall-clock latency of persistent store operations.",
    labelnames=("store", "op"),
)


def _timed_io(store: str, op: str):
    """Observe the wrapped store method's latency into the I/O histogram."""

    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                _STORE_IO_SECONDS.observe(
                    time.perf_counter() - start, store=store, op=op
                )

        return inner

    return wrap

__all__ = [
    "StoredSpectrum", "SpectrumStore", "SolveLease", "CutStore",
    "STORE_ENV_VAR", "STORE_MAX_BYTES_ENV_VAR", "LEASE_TTL_ENV_VAR",
    "default_store_root", "default_store_max_bytes", "default_lease_ttl",
]

#: Environment variable overriding the default store location.
STORE_ENV_VAR = "REPRO_SPECTRUM_STORE"

#: Environment variable giving the default size cap (bytes) of the store;
#: unset/empty/0 means unbounded.
STORE_MAX_BYTES_ENV_VAR = "REPRO_SPECTRUM_STORE_MAX_BYTES"

#: Environment variable giving the default solve-lease ttl (seconds);
#: ``0`` (or negative) disables cross-process solve leasing entirely.
LEASE_TTL_ENV_VAR = "REPRO_LEASE_TTL_SECONDS"

#: Default solve-lease ttl: long enough that a heartbeating leader never
#: loses a lease mid-eigensolve, short enough that a machine that lost
#: power hands over within half a minute.
DEFAULT_LEASE_TTL_SECONDS = 30.0

#: What loading a blob raises when the blob itself is bad (not the disk).
_BAD_BLOB = (EOFError, KeyError, ValueError, zipfile.BadZipFile)

_HOSTNAME = socket.gethostname()

_LEASE_ROW = "SELECT * FROM leases WHERE base = ?"


def default_store_root() -> Path:
    """The store directory used when none is given.

    ``$REPRO_SPECTRUM_STORE`` if set, else ``~/.cache/repro/spectra``.
    """
    env = os.environ.get(STORE_ENV_VAR)
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro" / "spectra"


def default_store_max_bytes() -> Optional[int]:
    """The size cap from ``$REPRO_SPECTRUM_STORE_MAX_BYTES`` (None = none)."""
    env = os.environ.get(STORE_MAX_BYTES_ENV_VAR, "").strip()
    if not env:
        return None
    try:
        value = int(env)
    except ValueError:
        return None
    return value if value > 0 else None


def default_lease_ttl() -> float:
    """The solve-lease ttl from ``$REPRO_LEASE_TTL_SECONDS``.

    Unset or unparsable means :data:`DEFAULT_LEASE_TTL_SECONDS`; zero or
    negative disables leasing (returned as ``0.0``).
    """
    env = os.environ.get(LEASE_TTL_ENV_VAR, "").strip()
    if not env:
        return DEFAULT_LEASE_TTL_SECONDS
    try:
        value = float(env)
    except ValueError:
        return DEFAULT_LEASE_TTL_SECONDS
    return max(0.0, value)


@dataclass(frozen=True)
class StoredSpectrum:
    """One spectrum loaded from disk.

    ``eigenvalues`` is the *full* stored vector (``num_eigenvalues`` long,
    possibly more than the caller asked for — callers slice); read-only.
    """

    eigenvalues: np.ndarray
    solve_seconds: float
    num_eigenvalues: int
    backend: str = "unknown"
    dtype: str = "float64"


def _canonical_options(options: Optional[EigenSolverOptions]) -> Dict[str, object]:
    return dataclasses.asdict(options or EigenSolverOptions())


def _base_id(
    fingerprint: str,
    normalized: bool,
    sparse: bool,
    options: Optional[EigenSolverOptions],
) -> str:
    payload = [fingerprint, bool(normalized), bool(sparse), _canonical_options(options)]
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()[:40]


def _entry_id(base_id: str, num_eigenvalues: int) -> str:
    return f"{base_id}-h{int(num_eigenvalues):06d}"


def _atomic_write_npz(path: Path, **arrays: np.ndarray) -> int:
    """Write ``arrays`` to ``path`` through a temporary file; returns its size."""
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name + ".", suffix=".npz"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez_compressed(handle, **arrays)
            size = handle.tell()
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    return size


def _lease_is_stale(lease: sqlite3.Row, now: float) -> bool:
    """Whether a lease's holder should be presumed dead.

    Stale iff the row is unreadable (a heartbeat or ttl that is not a
    number), the heartbeat is older than the ttl, or the holder lives on
    *this* host and its pid no longer exists (``os.kill(pid, 0)``) — the
    fast path that hands over a SIGKILLed leader's lease without waiting
    out the ttl.  A live pid (or one we may not signal) defers to the ttl.
    """
    try:
        heartbeat = float(lease["heartbeat_at"])
        ttl = float(lease["ttl"])
    except (TypeError, ValueError):
        return True
    if ttl <= 0 or now - heartbeat > ttl:
        return True
    pid = lease["pid"]
    if lease["host"] == _HOSTNAME and isinstance(pid, int) and pid > 0:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        except OSError:  # pragma: no cover - e.g. EPERM: pid exists
            pass
    return False


class SolveLease:
    """A held cross-process solve lease (returned by ``acquire_lease``).

    A daemon thread refreshes the heartbeat every ``ttl / 4`` seconds, so a
    live leader keeps the lease through an arbitrarily long eigensolve
    while a dead one expires within one ttl.  :meth:`release` (idempotent;
    also the context-manager exit) stops the heartbeat and deletes the
    lease row — but only while it still carries this lease's token, so a
    takeover after a stale verdict is never clobbered.
    """

    def __init__(self, store: "SpectrumStore", key: str, token: str, ttl: float) -> None:
        self._store = store
        self.key = key
        self.token = token
        self.ttl = float(ttl)
        self._stop = threading.Event()
        self._released = False
        self._heartbeat = threading.Thread(
            target=self._heartbeat_loop, name=f"repro-lease-{key[:12]}", daemon=True
        )
        self._heartbeat.start()

    def _heartbeat_loop(self) -> None:
        interval = max(self.ttl / 4.0, 0.02)
        while not self._stop.wait(interval):
            self._store._update_lease(
                "UPDATE leases SET heartbeat_at = ? WHERE base = ? AND token = ?",
                (time.time(), self.key, self.token),
            )

    def release(self) -> None:
        """Drop the lease (idempotent)."""
        if self._released:
            return
        self._released = True
        self._stop.set()
        self._heartbeat.join(timeout=2.0)
        self._store._update_lease(
            "DELETE FROM leases WHERE base = ? AND token = ?", (self.key, self.token)
        )

    def __enter__(self) -> "SolveLease":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


class _StoreView:
    """A handle on one table of a store's :class:`Catalog`: the traffic
    counters and management surface :class:`SpectrumStore` and
    :class:`CutStore` share.  Subclasses describe their rows (``_SUMMARY``,
    ``_describe``) and validate their blobs (``_blob_ok``)."""

    _TABLE = ""
    _BLOB_DIR = ""
    _COUNTER = ""
    #: ``stats()`` keys summarising the table, and the SQL aggregate of each.
    _SUMMARY: Dict[str, str] = {}

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self._root = Path(root) if root is not None else default_store_root()
        self._table = Table(self._TABLE, self._root / self._BLOB_DIR, self._COUNTER)
        self._catalog = Catalog(self._root)
        # Per-handle traffic counters (the persistent ones live in the
        # catalog); one handle may serve many engine threads.
        self._counter_lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._puts = 0

    @property
    def root(self) -> Path:
        return self._root

    @property
    def hits(self) -> int:
        """Lookups this handle served from disk."""
        return self._hits

    @property
    def misses(self) -> int:
        """Lookups this handle could not serve."""
        return self._misses

    @property
    def puts(self) -> int:
        """Writes this handle made."""
        return self._puts

    def __len__(self) -> int:
        return self._catalog.scalar(f"SELECT COUNT(*) FROM {self._TABLE}")

    def entries(self) -> List[Dict[str, object]]:
        """Metadata of every stored entry."""
        rows = self._catalog.read(f"SELECT * FROM {self._TABLE} ORDER BY id")
        return [self._describe(row) for row in rows]

    def stats(self) -> Dict[str, object]:
        """Aggregate store statistics (persisted + this handle's traffic)."""
        summary = {**self._SUMMARY, "total_bytes": "SUM(bytes)"}
        rows = self._catalog.read(
            f"SELECT {', '.join(summary.values())} FROM {self._TABLE}"
        )
        values = [value or 0 for value in rows[0]] if rows else [0] * len(summary)
        return {
            "root": str(self._root),
            **dict(zip(summary, values)),
            self._COUNTER: self._catalog.scalar(
                "SELECT value FROM counters WHERE name = ?", (self._COUNTER,)
            ),
            "handle_hits": self._hits,
            "handle_misses": self._misses,
            "handle_puts": self._puts,
        }

    def clear(
        self, lineage: Optional[str] = None, fingerprint_prefix: Optional[str] = None
    ) -> int:
        """Delete entries; returns the count removed.

        Without filters everything goes (the work counter included).  With
        ``lineage`` only entries recorded under that family name are
        removed; with ``fingerprint_prefix`` only entries whose graph
        fingerprint starts with the prefix.  Filters compose (AND); a
        filtered clear keeps the work counter (the work was still done).
        """
        return self._catalog.clear(self._table, lineage, fingerprint_prefix)

    def verify(self, fix: bool = False) -> Dict[str, object]:
        """Integrity-check the store; optionally repair it.

        Reports **missing** (rows whose blob is gone), **corrupt** (blobs
        that fail to load or are malformed) and **orphaned** blobs (no row
        references them, e.g. after a crash between blob write and insert).
        ``fix=True`` drops missing/corrupt rows with their blobs, and deletes
        orphans a minute old (a younger one may be a put in flight).
        """
        return self._catalog.verify(self._table, self._blob_ok, fix)

    def _record(self, hits: int = 0, misses: int = 0, puts: int = 0) -> None:
        with self._counter_lock:
            self._hits += hits
            self._misses += misses
            self._puts += puts


class SpectrumStore(_StoreView):
    """File-system backed, fingerprint-keyed spectrum archive.

    Parameters
    ----------
    root:
        Store directory (created on first write).  ``None`` uses
        :func:`default_store_root`.
    max_bytes:
        Size budget for the blob directory.  When the total blob size
        exceeds it after a :meth:`put`, least-recently-used entries are
        evicted until the store fits.  ``None`` (default) reads
        ``$REPRO_SPECTRUM_STORE_MAX_BYTES``; unset means unbounded.
    lease_ttl:
        Heartbeat ttl (seconds) of cross-process solve leases.  ``None``
        (default) reads ``$REPRO_LEASE_TTL_SECONDS`` (default 30);
        ``<= 0`` disables leasing (``acquire_lease`` then raises).
    """

    _TABLE = "spectra"
    _BLOB_DIR = "blobs"
    _COUNTER = "solves_recorded"
    _SUMMARY = {"num_entries": "COUNT(*)", "num_graphs": "COUNT(DISTINCT fingerprint)"}

    def __init__(
        self, root: Union[str, Path, None] = None, max_bytes: Optional[int] = None,
        lease_ttl: Optional[float] = None,
    ) -> None:
        super().__init__(root)
        self._max_bytes = max_bytes if max_bytes is not None else default_store_max_bytes()
        if self._max_bytes is not None and self._max_bytes < 1:
            raise ValueError(f"max_bytes must be positive, got {self._max_bytes}")
        self._lease_ttl = max(0.0, float(lease_ttl)) if lease_ttl is not None else default_lease_ttl()

    @property
    def max_bytes(self) -> Optional[int]:
        """Size cap of the blob directory (None = unbounded)."""
        return self._max_bytes

    @property
    def lease_ttl(self) -> float:
        """Solve-lease heartbeat ttl in seconds (0 = leasing disabled)."""
        return self._lease_ttl

    @_timed_io("spectrum", "get")
    def get(
        self, fingerprint: str, num_eigenvalues: int, normalized: bool = True,
        sparse: bool = False, eig_options: Optional[EigenSolverOptions] = None,
    ) -> Optional[StoredSpectrum]:
        """Load a stored spectrum covering ``num_eigenvalues``, or ``None``.

        Any entry with the same (fingerprint, normalisation, assembly,
        options) and a truncation ``h' >= num_eigenvalues`` qualifies
        (eigenvalues are ascending, so a longer vector contains the
        answer); the largest such entry is returned so in-memory tiers can
        cache the most reusable vector.  A blob that is gone or malformed is
        dropped; one the disk cannot read right now (``EMFILE``, ``EIO``) is
        a miss.
        """
        h = int(num_eigenvalues)
        if h <= 0:
            return None
        rows = self._catalog.read(
            "SELECT id, h, backend, dtype FROM spectra "
            "WHERE base = ? AND h >= ? ORDER BY h DESC",
            (_base_id(fingerprint, normalized, sparse, eig_options), h),
        )
        for row in rows:  # longest first; the rest are fallbacks for bad blobs
            try:
                values, solve_seconds = self._load(row["id"])
            except (FileNotFoundError,) + _BAD_BLOB:
                with contextlib.suppress(OSError), self._catalog.write() as conn:
                    conn.execute("DELETE FROM spectra WHERE id = ?", (row["id"],))
                self._table.unlink([row["id"]])
                continue
            except OSError:
                break
            self._record(hits=1)
            if self._max_bytes is not None:  # LRU order matters only under a cap
                with contextlib.suppress(OSError), self._catalog.write() as conn:
                    conn.execute(
                        "UPDATE spectra SET last_used = ? WHERE id = ?",
                        (time.time(), row["id"]),
                    )
            return StoredSpectrum(
                values, solve_seconds, row["h"], backend=row["backend"], dtype=row["dtype"]
            )
        self._record(misses=1)
        return None

    @_timed_io("spectrum", "put")
    def put(
        self, fingerprint: str, eigenvalues: np.ndarray, solve_seconds: float,
        normalized: bool = True, sparse: bool = False,
        eig_options: Optional[EigenSolverOptions] = None, backend: Optional[str] = None,
        lineage: Optional[str] = None,
    ) -> str:
        """Publish one solved spectrum; returns the entry id.

        Records the solve in the persistent ``solves_recorded`` counter even
        when another process raced the same entry in first (both paid for an
        eigensolve; the counter tracks work done, not entries).  ``backend``
        records the resolved backend id and ``lineage`` the family name of
        the producing sweep (``cache clear --family`` filters on it); both
        are metadata only and never part of the content key.
        """
        values = np.ascontiguousarray(eigenvalues, dtype=np.float64)
        h = int(values.shape[0])
        base = _base_id(fingerprint, normalized, sparse, eig_options)
        entry_id = _entry_id(base, h)
        self._table.blob_dir.mkdir(parents=True, exist_ok=True)
        size = _atomic_write_npz(
            self._table.blob(entry_id),
            eigenvalues=values, solve_seconds=np.float64(solve_seconds),
        )
        now = time.time()
        with self._catalog.write() as conn:
            conn.execute(
                "INSERT INTO spectra VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?) "
                "ON CONFLICT(id) DO UPDATE SET last_used = excluded.last_used",
                (entry_id, base, h, fingerprint, int(bool(normalized)),
                 int(bool(sparse)), _canonical_options(eig_options)["dtype"],
                 backend or "unknown", lineage, float(solve_seconds), size, now, now),
            )
            bump(conn, self._COUNTER, 1)
            evicted = self._evict_over_budget(conn, entry_id)
        self._table.unlink(evicted)
        self._record(puts=1)
        return entry_id

    def _evict_over_budget(self, conn: sqlite3.Connection, newest: str) -> List[str]:
        """Delete least-recently-used rows until the blobs fit ``max_bytes``.

        Returns the evicted ids; the caller deletes their blobs after the
        commit.  ``newest`` is never evicted — a single over-budget spectrum
        is better than an empty store that re-solves forever.
        """
        if self._max_bytes is None:
            return []
        total = conn.execute("SELECT SUM(bytes) FROM spectra").fetchone()[0] or 0
        doomed: List[str] = []
        for entry_id, size in conn.execute(
            "SELECT id, bytes FROM spectra WHERE id != ? ORDER BY last_used", (newest,)
        ):
            if total <= self._max_bytes:
                break
            doomed.append(entry_id)
            total -= size
        conn.executemany("DELETE FROM spectra WHERE id = ?", [(d,) for d in doomed])
        return doomed

    def _load(self, entry_id: str) -> Tuple[np.ndarray, float]:
        """Read-only eigenvalues and the solve seconds of a blob."""
        with np.load(self._table.blob(entry_id)) as data:
            values = np.ascontiguousarray(data["eigenvalues"], dtype=np.float64)
            solve_seconds = float(data["solve_seconds"])
        values.flags.writeable = False
        return values, solve_seconds

    def acquire_lease(
        self, fingerprint: str, normalized: bool = True, sparse: bool = False,
        eig_options: Optional[EigenSolverOptions] = None, ttl: Optional[float] = None,
    ) -> Optional[SolveLease]:
        """Try to become the solve leader for one spectrum; ``None`` if held.

        The lease is keyed by the same base id as the stored entries —
        fingerprint, normalisation, assembly, solver options, but *not* the
        truncation ``h`` — so every query shape needing one cold
        spectrum contends for a single lease.  A held-but-stale lease
        (expired heartbeat, a dead pid on this host, or an unreadable row)
        is taken over in place.  The winner gets a heartbeating
        :class:`SolveLease` it must :meth:`~SolveLease.release` after
        publishing via :meth:`put`.
        """
        effective_ttl = max(0.0, float(ttl)) if ttl is not None else self._lease_ttl
        if effective_ttl <= 0:
            raise ValueError("solve leasing is disabled (lease_ttl <= 0)")
        key = _base_id(fingerprint, normalized, sparse, eig_options)
        now = time.time()
        token = f"{_HOSTNAME}:{os.getpid()}:{time.monotonic_ns():x}"
        with self._catalog.write() as conn:
            held = conn.execute(_LEASE_ROW, (key,)).fetchone()
            if held is not None and not _lease_is_stale(held, now):
                return None
            conn.execute(
                "INSERT OR REPLACE INTO leases VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (key, token, os.getpid(), _HOSTNAME, fingerprint, now, now, effective_ttl),
            )
        return SolveLease(self, key, token, effective_ttl)

    def wait_for_lease(
        self, fingerprint: str, normalized: bool = True, sparse: bool = False,
        eig_options: Optional[EigenSolverOptions] = None,
        timeout: Optional[float] = None, poll_interval: float = 0.05,
    ) -> str:
        """Block while another process holds the solve lease.

        Returns ``"released"`` once the lease row is gone (the leader
        published and released — re-read the store), ``"stale"`` if the
        leader died (try :meth:`acquire_lease` again), or ``"timeout"``
        after ``timeout`` seconds (default: twice the ttl, at least 10 s)
        — at which point the caller should just solve; wasteful, never
        wrong.
        """
        key = _base_id(fingerprint, normalized, sparse, eig_options)
        if timeout is None:
            timeout = max(10.0, 2.0 * max(self._lease_ttl, 1.0))
        deadline = time.monotonic() + timeout
        while True:
            held = self._catalog.read(_LEASE_ROW, (key,))
            if not held:
                return "released"
            if _lease_is_stale(held[0], time.time()):
                return "stale"
            if time.monotonic() >= deadline:
                return "timeout"
            time.sleep(poll_interval)

    def leases(self) -> List[Dict[str, object]]:
        """Metadata of every lease (holder, age, staleness)."""
        now = time.time()
        rows = self._catalog.read(
            "SELECT *, ? - COALESCE(created_at, ?) AS age FROM leases ORDER BY base",
            (now, now),
        )
        return [
            {"lease": row["base"], "fingerprint": str(row["fingerprint"])[:12],
             "pid": row["pid"], "host": row["host"], "age_seconds": row["age"],
             "ttl": row["ttl"], "stale": _lease_is_stale(row, now)}
            for row in rows
        ]

    def _update_lease(self, sql: str, params: Sequence) -> None:
        """A token-checked heartbeat or release.  A failure is harmless: the
        lease then expires by ttl or dead pid."""
        with contextlib.suppress(OSError), self._catalog.write() as conn:
            conn.execute(sql, params)

    def stats(self) -> Dict[str, object]:
        """Aggregate store statistics (persisted + this handle's traffic)."""
        stale = [lease["stale"] for lease in self.leases()]
        return {
            **super().stats(),
            "max_bytes": self._max_bytes,
            "lease_ttl": self._lease_ttl,
            "active_leases": stale.count(False),
            "stale_leases": stale.count(True),
        }

    def verify(self, fix: bool = False) -> Dict[str, object]:
        """Integrity-check the store; optionally repair it.

        A blob is corrupt when it fails to load, or its eigenvalues are the
        wrong length, non-finite or not ascending.  Also reports **stale
        leases**, whose holder is dead (live ones are only counted);
        ``fix=True`` deletes those still stale on a re-check inside the
        transaction, as a waiter may have taken one over since the scan.
        """
        report = super().verify(fix)
        rows = self.leases()
        stale = sorted(row["lease"] for row in rows if row["stale"])
        removed = 0
        if fix and stale:
            now = time.time()
            with self._catalog.write() as conn:
                for key in stale:
                    held = conn.execute(_LEASE_ROW, (key,)).fetchone()
                    if held is not None and _lease_is_stale(held, now):
                        conn.execute("DELETE FROM leases WHERE base = ?", (key,))
                        removed += 1
        report.update(active_leases=len(rows) - len(stale), stale_leases=stale,
                      ok=report["ok"] and not stale, leases_removed=removed)
        return report

    def _describe(self, row: sqlite3.Row) -> Dict[str, object]:
        return {
            "entry": row["id"], "fingerprint": row["fingerprint"][:12],
            "lineage": row["lineage"] or "-",
            "normalized": bool(row["normalized"]), "sparse": bool(row["sparse"]),
            "backend": row["backend"], "dtype": row["dtype"],
            "num_eigenvalues": row["h"], "solve_seconds": row["solve_seconds"],
            "bytes": row["bytes"],
        }

    def _blob_ok(self, row: sqlite3.Row) -> bool:
        try:
            values, _ = self._load(row["id"])
        except (OSError,) + _BAD_BLOB:
            return False
        return bool(
            values.shape == (row["h"],)
            and np.all(np.isfinite(values))
            and np.all(np.diff(values) >= -1e-9)
        )


@dataclass(frozen=True)
class StoredCutTable:
    """One graph's per-vertex convex min-cut table loaded from disk.

    ``vertices``/``values`` are aligned int64 arrays (read-only): entry ``i``
    says ``C(vertices[i], G) == values[i]``.  The table may be partial — a
    capped or pruned sweep only ever pays for the cuts it needed — and
    :meth:`CutStore.merge` unions new entries in.
    """

    vertices: np.ndarray
    values: np.ndarray

    def as_dict(self) -> Dict[int, int]:
        return dict(zip(self.vertices.tolist(), self.values.tolist()))

    def __len__(self) -> int:
        return int(self.vertices.shape[0])


class CutStore(_StoreView):
    """Persistent, fingerprint-keyed archive of convex min-cut tables.

    The cut values ``C(v, G)`` of the convex min-cut baseline are independent
    of the memory size ``M`` *and* of the max-flow backend (all backends are
    exact), so one on-disk table per graph fingerprint makes every warm
    re-run — across processes, pool workers, and sessions — perform zero
    max-flow calls.  It shares the root directory and catalog of
    :class:`SpectrumStore`: one ``.npz`` blob per graph under
    ``<root>/cuts/`` and one ``cuts`` row each.  The persistent
    ``flows_recorded`` counter sums the max-flow calls somebody actually
    paid for, which is what the CI warm-run smoke asserts on.
    """

    _TABLE = "cuts"
    _BLOB_DIR = "cuts"
    _COUNTER = "flows_recorded"
    _SUMMARY = {"num_graphs": "COUNT(*)", "num_cuts": "SUM(num_cuts)"}

    @_timed_io("cut", "get")
    def get(self, fingerprint: str) -> Optional[StoredCutTable]:
        """Load the stored cut table for a graph fingerprint, or ``None``."""
        table = self._load(fingerprint)
        self._record(hits=int(table is not None), misses=int(table is None))
        return table

    def _load(self, fingerprint: str) -> Optional[StoredCutTable]:
        """Read a table without counting it: ``cache stats`` reports lookups
        only, not :meth:`merge` unions or :meth:`verify` checks."""
        try:
            with np.load(self._table.blob(fingerprint)) as data:
                vertices = np.ascontiguousarray(data["vertices"], dtype=np.int64)
                values = np.ascontiguousarray(data["values"], dtype=np.int64)
        except (OSError,) + _BAD_BLOB:
            return None
        if vertices.shape != values.shape or vertices.ndim != 1:
            return None
        vertices.flags.writeable = False
        values.flags.writeable = False
        return StoredCutTable(vertices, values)

    @_timed_io("cut", "merge")
    def merge(
        self, fingerprint: str, vertices, values, flow_calls: int = 0,
        backend: Optional[str] = None, lineage: Optional[str] = None,
    ) -> int:
        """Union new ``vertex -> cut`` entries into a graph's table.

        Returns the table size after the merge.  ``flow_calls`` counts the
        max-flow solves paid to produce the new entries; it accumulates into
        the persistent ``flows_recorded`` counter even when a racing writer
        published the same cuts first (the counter tracks work done, not
        entries, exactly like ``solves_recorded``).
        """
        new_vertices = np.asarray(vertices, dtype=np.int64).reshape(-1)
        new_values = np.asarray(values, dtype=np.int64).reshape(-1)
        if new_vertices.shape != new_values.shape:
            raise ValueError("vertices and values must have equal length")
        self._table.blob_dir.mkdir(parents=True, exist_ok=True)
        now = time.time()
        # The transaction serialises concurrent read-union-writes of a table.
        with self._catalog.write() as conn:
            existing = self._load(fingerprint)
            if existing is not None and len(existing):
                merged_v = np.concatenate([existing.vertices, new_vertices])
                merged_c = np.concatenate([existing.values, new_values])
            else:
                merged_v, merged_c = new_vertices, new_values
            # Later entries win on duplicates (they are identical anyway:
            # the cut value of a vertex is a graph invariant).
            order = np.arange(merged_v.shape[0] - 1, -1, -1)
            table_v, first = np.unique(merged_v[order], return_index=True)
            table_c = merged_c[order][first]
            size = _atomic_write_npz(
                self._table.blob(fingerprint), vertices=table_v, values=table_c
            )
            conn.execute(
                "INSERT INTO cuts VALUES (:fp, :fp, :n, COALESCE(:backend, 'unknown'), "
                ":lineage, :size, :now, :now) ON CONFLICT(id) DO UPDATE SET "
                "num_cuts = :n, bytes = :size, last_used = :now, "
                "backend = COALESCE(:backend, backend), "
                "lineage = COALESCE(:lineage, lineage)",
                {"fp": fingerprint, "n": int(table_v.shape[0]), "backend": backend,
                 "lineage": lineage, "size": size, "now": now},
            )
            bump(conn, self._COUNTER, flow_calls)
        self._record(puts=1)
        return int(table_v.shape[0])

    def _describe(self, row: sqlite3.Row) -> Dict[str, object]:
        return {
            "fingerprint": row["id"][:12], "lineage": row["lineage"] or "-",
            "backend": row["backend"], "num_cuts": row["num_cuts"],
            "bytes": row["bytes"],
        }

    def _blob_ok(self, row: sqlite3.Row) -> bool:
        """Readable, as long as its row says, and no negative cut value."""
        table = self._load(row["id"])
        return (
            table is not None
            and len(table) == row["num_cuts"]
            and (len(table) == 0 or int(table.values.min()) >= 0)
        )
