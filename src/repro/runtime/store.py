"""Persistent on-disk archive of Laplacian spectra and convex min-cut tables.

The in-memory :class:`~repro.solvers.spectrum_cache.SpectrumCache` makes an
eigensolve happen at most once *per process*; :class:`SpectrumStore` extends
that guarantee across processes and runs, and :class:`CutStore` does the
same for the convex min-cut baseline's cut values.  Both are views of one
store directory, which holds ``catalog.sqlite``
(:mod:`repro.runtime.catalog`, plus its ``-wal``/``-shm`` files while a
process has it open) and one ``<key>.lock`` file per solve lease held.  A
``spectra`` row holds one spectrum's eigenvalues and solve cost under the
key the in-memory cache uses — the graph's structural fingerprint, the
normalisation and the resolved backend id, hashed by
:func:`~repro.runtime.catalog.spectrum_base` — and the truncation ``h``; a
``cuts`` row holds one graph's cut table.  The catalog also keeps the
``solves_recorded`` / ``flows_recorded`` counters that ``python -m repro
cache stats`` reports.

Many processes (pool workers, fleet workers, CI jobs) share one directory.
A read is one indexed ``SELECT`` and a write one short transaction, so a
reader sees a value whole or not at all.  A racing duplicate solve rewrites
identical bytes into the existing row — wasteful, never wrong.  Cold
solves are coalesced across processes by *solve leases*
(:meth:`~_StoreView.acquire_lease`): an exclusive ``flock`` on the lease's
file, so N workers needing one cold spectrum pay one eigensolve and N
workers needing one cold cut table pay one max-flow pass.  The kernel
drops a ``flock`` when its holder's last descriptor closes, so a leader
killed mid-solve frees its lease the moment its process exits.
:meth:`~_StoreView.claim` is the one acquire/wait/re-read path both kinds
of solve run.  SQLite's locks and ``flock`` are unreliable on network
filesystems: keep a shared store on a local disk, and copy one only while
nothing writes to it, together with its ``catalog.sqlite-wal`` file.
"""

from __future__ import annotations

import contextlib
import fcntl
import functools
import hashlib
import os
import sqlite3
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Union

import numpy as np

from repro.obs.metrics import global_registry
from repro.runtime.catalog import Catalog, bump, spectrum_base

_STORE_IO_SECONDS = global_registry().histogram(
    "repro_store_io_seconds",
    "Wall-clock latency of persistent store operations.",
    labelnames=("store", "op"),
)
_LEASE_TOTAL = global_registry().counter(
    "repro_lease_total",
    "Cross-process solve-lease episodes: leaders solved, followers waited.",
    labelnames=("store", "role"),
)
_LEASE_WAIT_SECONDS = global_registry().histogram(
    "repro_lease_wait_seconds",
    "Time followers spent blocked on another process's solve lease.",
    labelnames=("store",),
)

#: How long a follower waits for another process's solve lease before it
#: solves without one (wasteful, never wrong).
LEASE_WAIT_SECONDS = 60.0

#: How often a waiting follower retries the lease's lock.
_LEASE_POLL_SECONDS = 0.05


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
    "StoredSpectrum", "SpectrumStore", "SolveLease", "Claim", "CutStore",
    "STORE_ENV_VAR", "STORE_MAX_BYTES_ENV_VAR", "LEASE_WAIT_SECONDS",
    "default_store_root", "default_store_max_bytes",
]

#: Environment variable overriding the default store location.
STORE_ENV_VAR = "REPRO_SPECTRUM_STORE"

#: Environment variable giving the default size cap (bytes) of the store;
#: unset/empty/0 means unbounded.
STORE_MAX_BYTES_ENV_VAR = "REPRO_SPECTRUM_STORE_MAX_BYTES"

#: The stored form of eigenvalues and of cut tables.
_FLOAT64 = np.dtype("<f8")
_INT64 = np.dtype("<i8")


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


@dataclass(frozen=True)
class StoredSpectrum:
    """One spectrum read from the store.

    ``eigenvalues`` is the *full* stored vector (``num_eigenvalues`` long,
    possibly more than the caller asked for — callers slice); read-only.
    """

    eigenvalues: np.ndarray
    solve_seconds: float
    num_eigenvalues: int


def _entry_id(base_id: str, num_eigenvalues: int) -> str:
    return f"{base_id}-h{int(num_eigenvalues):06d}"


def _array(value: object, dtype: np.dtype, length: int) -> Optional[np.ndarray]:
    """A read-only array over a row's value; ``None`` unless it holds
    ``length`` items of ``dtype``."""
    if not isinstance(value, bytes) or len(value) != dtype.itemsize * length:
        return None
    return np.frombuffer(value, dtype=dtype)


def _names(path: Path, fd: int) -> bool:
    """Whether ``path`` still names the file open as ``fd``."""
    try:
        return os.path.samestat(os.stat(path), os.fstat(fd))
    except FileNotFoundError:
        return False


class SolveLease:
    """A held cross-process solve lease (returned by ``acquire_lease``).

    An exclusive ``flock`` on ``<root>/<key>.lock``, which holds the
    holder's pid; the kernel drops it with the holder's process, however
    that ends.  :meth:`release` (idempotent; also the context-manager exit)
    unlinks the file, then closes it, so a waiter that opened it before the
    unlink finds it no longer named once it locks it.
    """

    def __init__(self, path: Path, fd: int) -> None:
        self._path = path
        self._fd: Optional[int] = fd

    def release(self) -> None:
        """Drop the lease (idempotent)."""
        fd, self._fd = self._fd, None
        if fd is None:
            return
        with contextlib.suppress(OSError):
            os.unlink(self._path)
        os.close(fd)

    def __enter__(self) -> "SolveLease":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


class Claim(NamedTuple):
    """What :meth:`_StoreView.claim` came back with.

    At most one of ``found`` and ``lease`` is set.  ``found`` is what
    another process's leader published meanwhile: serve it.  ``lease`` is
    held when the caller leads: solve, publish, then release it.  Neither
    means the lease file failed, or the wait timed out: solve anyway
    (wasteful, never wrong).  ``followed`` says the caller waited on
    another process's lease.
    """

    found: object = None
    lease: Optional[SolveLease] = None
    followed: bool = False


class _StoreView:
    """A handle on one table of a store's :class:`Catalog`: the traffic
    counters, management surface and solve leases :class:`SpectrumStore`
    and :class:`CutStore` share.  Subclasses describe their rows
    (``_SUMMARY``, ``_describe``), validate their stored values
    (``_row_ok``) and name their leases (``_lease_key``).
    """

    _TABLE = ""
    _COUNTER = ""
    #: ``stats()`` keys summarising the table, and the SQL aggregate of each.
    _SUMMARY: Dict[str, str] = {}

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self._root = Path(root) if root is not None else default_store_root()
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

    def acquire_lease(self, fingerprint: str, **key) -> Optional[SolveLease]:
        """Try to become the solve leader for one cold result; ``None`` if held.

        ``key`` names the result beyond its graph (see ``_lease_key``).  The
        winner gets a :class:`SolveLease` it must
        :meth:`~SolveLease.release` after publishing.  A lease file that
        cannot be opened or locked raises :class:`OSError`.
        """
        return self._try_lease(self._lease_key(fingerprint, **key))

    def wait_for_lease(self, fingerprint: str, **key) -> Optional[SolveLease]:
        """Block while another handle holds the solve lease, then take it.

        Retries every 50 ms, for at most :data:`LEASE_WAIT_SECONDS`; returns
        ``None`` when that runs out — the caller should then just solve;
        wasteful, never wrong.  A lease won here usually finds its result
        published: re-read the store before solving.
        """
        lease_key = self._lease_key(fingerprint, **key)
        deadline = time.monotonic() + LEASE_WAIT_SECONDS
        while time.monotonic() < deadline:
            time.sleep(_LEASE_POLL_SECONDS)
            lease = self._try_lease(lease_key)
            if lease is not None:
                return lease
        return None

    def _try_lease(self, lease_key: str) -> Optional[SolveLease]:
        """One non-blocking ``flock`` of the lease's file; ``None`` while
        another open of it holds the lock."""
        path = self._root / f"{lease_key}.lock"
        self._root.mkdir(parents=True, exist_ok=True)
        while True:
            fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_CLOEXEC, 0o644)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                if _names(path, fd):
                    # Write, then cut off a dead holder's longer pid: ext4
                    # flushes a file truncated to 0 and rewritten on close.
                    pid = b"%d" % os.getpid()
                    os.write(fd, pid)
                    os.ftruncate(fd, len(pid))
                    return SolveLease(path, fd)
            except BlockingIOError:
                os.close(fd)
                return None
            except BaseException:
                os.close(fd)
                raise
            os.close(fd)  # its last holder unlinked it: open the path again

    def claim(self, fingerprint: str, fetch: Callable[[], object], **key) -> Claim:
        """Contend for the solve lease on one cold result (see :class:`Claim`).

        The one claim path of every cold solve over a store: spectra in
        :class:`~repro.solvers.spectrum_cache.SpectrumCache` and cut tables
        in :class:`~repro.baselines.convex_mincut.MinCutEngine`.  ``fetch``
        reads the published result (``None`` while there is none) and
        ``key`` names the lease as for :meth:`acquire_lease`.  Episodes are
        counted in ``repro_lease_total{store,role}``, follower wait time in
        ``repro_lease_wait_seconds``.
        """
        try:
            lease = self.acquire_lease(fingerprint, **key)
        except OSError:
            return Claim()
        followed = lease is None
        if followed:
            start = time.perf_counter()
            with contextlib.suppress(OSError):
                lease = self.wait_for_lease(fingerprint, **key)
            _LEASE_TOTAL.inc(store=self._TABLE, role="follower")
            _LEASE_WAIT_SECONDS.observe(time.perf_counter() - start, store=self._TABLE)
        # Re-read now that we hold the lease or gave up waiting: a leader
        # may have published and released since our miss.  Without this a
        # late acquirer would solve again what is already published.
        found = fetch()
        if found is not None or lease is None:
            if lease is not None:
                lease.release()
            return Claim(found, followed=followed)
        _LEASE_TOTAL.inc(store=self._TABLE, role="leader")
        return Claim(lease=lease, followed=followed)

    @property
    def hits(self) -> int:
        """Lookups this handle served from the store."""
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
        return self._catalog.clear(self._TABLE, self._COUNTER, lineage, fingerprint_prefix)

    def verify(self, fix: bool = False) -> Dict[str, object]:
        """Integrity-check the store; optionally repair it.

        Reports the **corrupt** rows, whose stored value ``_row_ok``
        rejects; ``fix=True`` deletes them.
        """
        return self._catalog.verify(self._TABLE, self._row_ok, fix)

    def _record(self, hits: int = 0, misses: int = 0, puts: int = 0) -> None:
        with self._counter_lock:
            self._hits += hits
            self._misses += misses
            self._puts += puts


class SpectrumStore(_StoreView):
    """Fingerprint-keyed spectrum archive in a store directory's catalog.

    Parameters
    ----------
    root:
        Store directory (created on first write).  ``None`` uses
        :func:`default_store_root`.
    max_bytes:
        Size budget for the stored eigenvalues.  When their total size
        (``stats()["total_bytes"]``, 8 bytes per eigenvalue) exceeds it
        after a :meth:`put`, least-recently-used entries are evicted until
        the store fits.  ``None`` (default) reads
        ``$REPRO_SPECTRUM_STORE_MAX_BYTES``; unset means unbounded.
    """

    _TABLE = "spectra"
    _COUNTER = "solves_recorded"
    _SUMMARY = {"num_entries": "COUNT(*)", "num_graphs": "COUNT(DISTINCT fingerprint)"}

    def __init__(
        self, root: Union[str, Path, None] = None, max_bytes: Optional[int] = None
    ) -> None:
        super().__init__(root)
        self._max_bytes = max_bytes if max_bytes is not None else default_store_max_bytes()
        if self._max_bytes is not None and self._max_bytes < 1:
            raise ValueError(f"max_bytes must be positive, got {self._max_bytes}")

    @property
    def max_bytes(self) -> Optional[int]:
        """Size cap of the stored eigenvalues in bytes (None = unbounded)."""
        return self._max_bytes

    @_timed_io("spectrum", "get")
    def get(
        self, fingerprint: str, num_eigenvalues: int, normalized: bool = True,
        backend: str = "dense",
    ) -> Optional[StoredSpectrum]:
        """Read a stored spectrum covering ``num_eigenvalues``, or ``None``.

        Any entry with the same (fingerprint, normalisation, resolved
        backend) and a truncation ``h' >= num_eigenvalues`` qualifies
        (eigenvalues are ascending, so a longer vector contains the
        answer); the largest such entry is returned so in-memory tiers can
        cache the most reusable vector.  A row whose value is not ``h'``
        float64 long is dropped and the next-longest served.  A catalog
        that cannot be read raises :class:`OSError`.
        """
        h = int(num_eigenvalues)
        if h <= 0:
            return None
        rows = self._catalog.read(
            "SELECT id, h, solve_seconds, eigenvalues FROM spectra "
            "WHERE base = ? AND h >= ? ORDER BY h DESC",
            (spectrum_base(fingerprint, normalized, backend), h),
        )
        for row in rows:  # longest first; the rest are fallbacks for bad rows
            values = _array(row["eigenvalues"], _FLOAT64, row["h"])
            if values is None:
                with contextlib.suppress(OSError), self._catalog.write() as conn:
                    conn.execute("DELETE FROM spectra WHERE id = ?", (row["id"],))
                continue
            self._record(hits=1)
            if self._max_bytes is not None:  # LRU order matters only under a cap
                with contextlib.suppress(OSError), self._catalog.write() as conn:
                    conn.execute(
                        "UPDATE spectra SET last_used = ? WHERE id = ?",
                        (time.time(), row["id"]),
                    )
            return StoredSpectrum(values, row["solve_seconds"], row["h"])
        self._record(misses=1)
        return None

    @_timed_io("spectrum", "put")
    def put(
        self, fingerprint: str, eigenvalues: np.ndarray, solve_seconds: float,
        normalized: bool = True, backend: str = "dense",
        lineage: Optional[str] = None,
    ) -> str:
        """Publish one solved spectrum; returns the entry id.

        Records the solve in the persistent ``solves_recorded`` counter even
        when another process raced the same entry in first (both paid for an
        eigensolve; the counter tracks work done, not entries).  ``backend``
        is the resolved backend id that computed it.  ``lineage`` records the
        family name of the producing sweep (``cache clear --family`` filters
        on it); it is metadata only, never part of the key.
        """
        values = np.ascontiguousarray(eigenvalues, dtype=_FLOAT64).tobytes()
        h = len(values) // _FLOAT64.itemsize
        base = spectrum_base(fingerprint, normalized, backend)
        entry_id = _entry_id(base, h)
        now = time.time()
        with self._catalog.write() as conn:
            conn.execute(
                "INSERT INTO spectra VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?) "
                "ON CONFLICT(id) DO UPDATE SET last_used = excluded.last_used, "
                "eigenvalues = excluded.eigenvalues, bytes = excluded.bytes",
                (entry_id, base, h, fingerprint, int(bool(normalized)), backend,
                 lineage, float(solve_seconds), len(values), now, now, values),
            )
            bump(conn, self._COUNTER, 1)
            self._evict_over_budget(conn, entry_id)
        self._record(puts=1)
        return entry_id

    def _evict_over_budget(self, conn: sqlite3.Connection, newest: str) -> None:
        """Delete least-recently-used rows until the values fit ``max_bytes``.

        ``newest`` is never evicted — a single over-budget spectrum is
        better than an empty store that re-solves forever.
        """
        if self._max_bytes is None:
            return
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

    def _lease_key(
        self, fingerprint: str, normalized: bool = True, backend: str = "dense"
    ) -> str:
        """A spectrum's lease shares its entries' base id: fingerprint,
        normalisation and resolved backend, but *not* the truncation ``h``,
        so every query shape needing one cold spectrum contends for a single
        lease."""
        return spectrum_base(fingerprint, normalized, backend)

    def leases(self) -> List[Dict[str, object]]:
        """Every solve lease held on the store, spectra's and cuts': key,
        holder pid and age.  A lease file that another open can lock is
        not held (its holder released it or died), so it is not listed."""
        held = []
        for path in sorted(self._root.glob("*.lock")):
            try:
                fd = os.open(path, os.O_RDONLY | os.O_CLOEXEC)
            except FileNotFoundError:
                continue  # released since the listing
            try:
                pid = os.read(fd, 32)
                # A holder writes its pid once it holds the lock: probing a
                # file without one could fail the lock its creator is taking.
                if not pid.isdigit():
                    continue
                fcntl.flock(fd, fcntl.LOCK_SH | fcntl.LOCK_NB)  # free: not held
            except BlockingIOError:  # its holder's lock
                held.append({"lease": path.stem, "pid": int(pid),
                             "age_seconds": time.time() - os.fstat(fd).st_mtime})
            finally:
                os.close(fd)
        return held

    def stats(self) -> Dict[str, object]:
        """Aggregate store statistics (persisted + this handle's traffic)."""
        return {
            **super().stats(),
            "formats_discarded": self._catalog.scalar(
                "SELECT value FROM counters WHERE name = 'formats_discarded'"
            ),
            "max_bytes": self._max_bytes,
            "active_leases": len(self.leases()),
        }

    def _describe(self, row: sqlite3.Row) -> Dict[str, object]:
        return {
            "entry": row["id"], "fingerprint": row["fingerprint"][:12],
            "lineage": row["lineage"] or "-",
            "normalized": bool(row["normalized"]),
            "backend": row["backend"],
            "num_eigenvalues": row["h"], "solve_seconds": row["solve_seconds"],
            "bytes": row["bytes"],
        }

    def _row_ok(self, row: sqlite3.Row) -> bool:
        """``h`` eigenvalues, finite and ascending."""
        values = _array(row["eigenvalues"], _FLOAT64, row["h"])
        return bool(
            values is not None
            and np.all(np.isfinite(values))
            and np.all(np.diff(values) >= -1e-9)
        )


@dataclass(frozen=True)
class StoredCutTable:
    """One graph's per-vertex convex min-cut table read from the store.

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


_CUT_ROW = "SELECT num_cuts, vertices, cut_values FROM cuts WHERE id = ?"


def _cut_table(row: sqlite3.Row) -> Optional[StoredCutTable]:
    """The table of a ``cuts`` row; ``None`` unless both arrays are
    ``num_cuts`` long."""
    vertices = _array(row["vertices"], _INT64, row["num_cuts"])
    values = _array(row["cut_values"], _INT64, row["num_cuts"])
    return None if vertices is None or values is None else StoredCutTable(vertices, values)


class CutStore(_StoreView):
    """Persistent, fingerprint-keyed archive of convex min-cut tables.

    The cut values ``C(v, G)`` of the convex min-cut baseline are independent
    of the memory size ``M`` *and* of the max-flow backend (all backends are
    exact), so one stored table per graph fingerprint makes every warm
    re-run — across processes, pool workers, and sessions — perform zero
    max-flow calls.  It shares the root directory and catalog of
    :class:`SpectrumStore`: one ``cuts`` row per graph, holding its sorted
    vertices and their cut values.  The persistent
    ``flows_recorded`` counter sums the max-flow calls somebody actually
    paid for, which is what the CI warm-run smoke asserts on.  A cold
    max-flow pass takes a solve lease first (see ``_lease_key``), so
    processes needing one cold table pay for it once.
    """

    _TABLE = "cuts"
    _COUNTER = "flows_recorded"
    _SUMMARY = {"num_graphs": "COUNT(*)", "num_cuts": "SUM(num_cuts)"}

    def _lease_key(self, fingerprint: str, candidates: np.ndarray) -> str:
        """A cut lease names the graph *and* the candidate vertices of one
        max-flow pass, so the disjoint candidate chunks a sweep schedules
        over one graph never wait on each other."""
        digest = hashlib.sha256(fingerprint.encode())
        digest.update(np.ascontiguousarray(candidates, dtype=np.int64).tobytes())
        return f"cuts-{digest.hexdigest()[:40]}"

    @_timed_io("cut", "get")
    def get(self, fingerprint: str) -> Optional[StoredCutTable]:
        """The stored cut table of a graph fingerprint, or ``None``.

        A row whose arrays are not ``num_cuts`` long, and a catalog that
        cannot be read right now, are misses.
        """
        try:
            rows = self._catalog.read(_CUT_ROW, (fingerprint,))
        except OSError:
            rows = []
        table = _cut_table(rows[0]) if rows else None
        self._record(hits=int(table is not None), misses=int(table is None))
        return table

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
        now = time.time()
        # The transaction serialises concurrent read-union-writes of a table.
        with self._catalog.write() as conn:
            row = conn.execute(_CUT_ROW, (fingerprint,)).fetchone()
            existing = _cut_table(row) if row is not None else None
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
            stored_v = table_v.astype(_INT64, copy=False).tobytes()
            stored_c = table_c.astype(_INT64, copy=False).tobytes()
            conn.execute(
                "INSERT INTO cuts VALUES (:fp, :fp, :n, COALESCE(:backend, 'unknown'), "
                ":lineage, :size, :now, :now, :vertices, :values) ON CONFLICT(id) "
                "DO UPDATE SET num_cuts = :n, bytes = :size, last_used = :now, "
                "vertices = :vertices, cut_values = :values, "
                "backend = COALESCE(:backend, backend), "
                "lineage = COALESCE(:lineage, lineage)",
                {"fp": fingerprint, "n": int(table_v.shape[0]), "backend": backend,
                 "lineage": lineage, "size": len(stored_v) + len(stored_c), "now": now,
                 "vertices": stored_v, "values": stored_c},
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

    def _row_ok(self, row: sqlite3.Row) -> bool:
        """Both arrays ``num_cuts`` long, and no negative cut value."""
        table = _cut_table(row)
        return table is not None and (len(table) == 0 or int(table.values.min()) >= 0)
