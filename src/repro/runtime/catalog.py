"""The sqlite3 catalog of a store directory.

One database, ``<root>/catalog.sqlite``, indexes the blobs of the
:class:`~repro.runtime.store.SpectrumStore` and
:class:`~repro.runtime.store.CutStore` sharing that root, in four tables:

* ``spectra`` and ``cuts`` — one row per ``.npz`` blob (under ``blobs/``
  and ``cuts/``): its metadata, byte size and LRU stamp;
* ``leases`` — cross-process solve leases, one row per spectrum base id;
* ``counters`` — ``solves_recorded`` and ``flows_recorded``, the
  eigensolves and max-flow calls somebody paid for.

WAL mode lets readers proceed while a writer commits, and every write is
one short ``BEGIN IMMEDIATE`` transaction, so its cost does not grow with
the store.  ``synchronous=NORMAL`` skips the fsync per commit: a power cut
may lose the last commits but never corrupts the catalog (blobs were never
fsynced either).  A :class:`Catalog` opens its connection on first use,
shares it between threads under a lock, and drops — never uses or closes —
it in a forked child.  Every :class:`sqlite3.Error` is raised as
:class:`OSError`, except that a file that is not a database (or is
corrupt) reads as empty and is replaced by the first write.  The JSON
indexes of older builds (``index.json``, ``cuts-index.json``) are imported
once, on first open; so is a catalog of the builds that also stored
interlacing-interval spectra, whose ``variant`` columns and non-exact rows
are dropped.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sqlite3
import threading
import time
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence

CATALOG_NAME = "catalog.sqlite"

#: How long a write waits for another process's transaction to finish.
BUSY_TIMEOUT_SECONDS = 30.0

#: ``verify(fix=True)`` keeps unindexed blobs younger than this: a put
#: writes its blob before its row, and may be waiting out the busy timeout.
ORPHAN_GRACE_SECONDS = 60.0

#: Files of the JSON-indexed layout of older builds.
_LEGACY_INDEXES = ("index.json", "cuts-index.json")
_LEGACY_LOCKS = (".lock", ".cuts.lock", ".leases.lock")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS spectra (
    id TEXT PRIMARY KEY, base TEXT NOT NULL, h INTEGER NOT NULL,
    fingerprint TEXT NOT NULL, normalized INTEGER NOT NULL,
    sparse INTEGER NOT NULL, dtype TEXT NOT NULL,
    backend TEXT NOT NULL, lineage TEXT, solve_seconds REAL NOT NULL,
    bytes INTEGER NOT NULL, created_at REAL NOT NULL, last_used REAL NOT NULL);
CREATE INDEX IF NOT EXISTS spectra_by_base ON spectra (base, h);
CREATE TABLE IF NOT EXISTS cuts (
    id TEXT PRIMARY KEY, fingerprint TEXT NOT NULL, num_cuts INTEGER NOT NULL,
    backend TEXT NOT NULL, lineage TEXT, bytes INTEGER NOT NULL,
    created_at REAL NOT NULL, last_used REAL NOT NULL);
CREATE TABLE IF NOT EXISTS leases (
    base TEXT PRIMARY KEY, token TEXT, pid INTEGER, host TEXT, fingerprint TEXT,
    created_at REAL, heartbeat_at REAL, ttl REAL);
CREATE TABLE IF NOT EXISTS counters (name TEXT PRIMARY KEY, value INTEGER NOT NULL);
"""


@dataclass(frozen=True)
class Table:
    """A blob-backed catalog table: rows keyed by ``id``, one ``<id>.npz``
    each under ``blob_dir``, and the counter of the work its writes record."""

    name: str
    blob_dir: Path
    counter: str

    def blob(self, key: str) -> Path:
        return self.blob_dir / f"{key}.npz"

    def unlink(self, keys: Sequence[str]) -> None:
        for key in keys:
            with contextlib.suppress(OSError):
                self.blob(key).unlink()


def _has_variant(conn: sqlite3.Connection) -> bool:
    """Whether the catalog still has the ``variant`` column of older builds."""
    return any(row[1] == "variant" for row in conn.execute("PRAGMA table_info(spectra)"))


def bump(conn: sqlite3.Connection, counter: str, amount: int) -> None:
    """Add ``amount`` to a persistent counter (inside a transaction)."""
    conn.execute(
        "INSERT INTO counters VALUES (?, ?) "
        "ON CONFLICT(name) DO UPDATE SET value = value + excluded.value",
        (counter, int(amount)),
    )


@contextlib.contextmanager
def _transaction(conn: sqlite3.Connection) -> Iterator[sqlite3.Connection]:
    conn.execute("BEGIN IMMEDIATE")
    try:
        yield conn
        conn.execute("COMMIT")
    except BaseException:
        # Also after a failed COMMIT (a full disk): a transaction left open
        # would make every later BEGIN on this connection fail.
        if conn.in_transaction:
            conn.execute("ROLLBACK")
        raise


#: Every catalog of this process, so a forked child can reset them.
_CATALOGS: "weakref.WeakSet[Catalog]" = weakref.WeakSet()
#: Connections a forked child inherited.  They stay referenced because
#: closing one (as garbage collection would) acts on the parent's database.
_INHERITED: List[sqlite3.Connection] = []


def _drop_inherited_connections() -> None:
    for catalog in list(_CATALOGS):
        catalog._lock = threading.RLock()  # a parent thread may have held it
        if catalog._conn is not None:
            _INHERITED.append(catalog._conn)
            catalog._conn = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_inherited_connections)


class Catalog:
    """The ``catalog.sqlite`` of one store directory (see the module doc).

    Read-only calls on a store that does not exist yet create nothing; the
    first write creates the directory and the database.
    """

    def __init__(self, root: Path) -> None:
        self.root = root
        self.path = root / CATALOG_NAME
        self._lock = threading.RLock()
        self._conn: Optional[sqlite3.Connection] = None
        _CATALOGS.add(self)

    def read(self, sql: str, params: Sequence = ()) -> List[sqlite3.Row]:
        """All rows of one query (none while the catalog does not exist)."""
        try:
            with self._lock:
                conn = self._connect(create=False)
                return conn.execute(sql, params).fetchall() if conn else []
        except sqlite3.Error as exc:
            if type(exc) is sqlite3.DatabaseError:  # not a database, or corrupt
                return []
            raise OSError(f"store catalog {self.path}: {exc}") from exc

    def scalar(self, sql: str, params: Sequence = ()) -> int:
        """The first column of the first row, 0 for none or NULL."""
        rows = self.read(sql, params)
        return (rows[0][0] or 0) if rows else 0

    @contextlib.contextmanager
    def write(self) -> Iterator[sqlite3.Connection]:
        """One ``BEGIN IMMEDIATE`` transaction."""
        try:
            with self._lock, _transaction(self._connect(create=True)) as conn:
                yield conn
        except sqlite3.Error as exc:
            raise OSError(f"store catalog {self.path}: {exc}") from exc

    def close(self) -> None:
        """Close the connection (the next call opens a new one)."""
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None

    def clear(
        self, table: Table, lineage: Optional[str], fingerprint_prefix: Optional[str]
    ) -> int:
        """Delete matching rows and their blobs (all, and the counter, when
        unfiltered); returns the count removed."""
        if not self.root.exists():
            return 0
        where, params = "1", []
        if lineage is not None:
            where += " AND lineage = ?"
            params.append(lineage)
        if fingerprint_prefix is not None:
            where += " AND substr(fingerprint, 1, ?) = ?"
            params += [len(fingerprint_prefix), fingerprint_prefix]
        with self.write() as conn:
            doomed = [key for (key,) in conn.execute(
                f"SELECT id FROM {table.name} WHERE {where}", params
            )]
            conn.execute(f"DELETE FROM {table.name} WHERE {where}", params)
            if lineage is None and fingerprint_prefix is None:
                conn.execute("DELETE FROM counters WHERE name = ?", (table.counter,))
        table.unlink(doomed)
        return len(doomed)

    def verify(
        self, table: Table, blob_ok: Callable[[sqlite3.Row], bool], fix: bool
    ) -> Dict[str, object]:
        """Missing, corrupt (``blob_ok`` false) and orphaned blobs of a table.

        ``fix=True`` drops missing/corrupt rows with their blobs, and deletes
        orphans older than :data:`ORPHAN_GRACE_SECONDS` — re-derived inside
        the transaction, as a racing put may have inserted one since.
        """
        rows = self.read(f"SELECT * FROM {table.name} ORDER BY id")
        missing = [row["id"] for row in rows if not table.blob(row["id"]).exists()]
        corrupt = [
            row["id"] for row in rows if row["id"] not in missing and not blob_ok(row)
        ]
        known = {f"{row['id']}.npz" for row in rows}
        orphaned = sorted(
            blob.name for blob in table.blob_dir.glob("*.npz") if blob.name not in known
        )
        removed = 0
        if fix and (missing or corrupt or orphaned):
            with self.write() as conn:
                for key in missing + corrupt:
                    removed += conn.execute(
                        f"DELETE FROM {table.name} WHERE id = ?", (key,)
                    ).rowcount
                table.unlink(missing + corrupt)
                known = {f"{key}.npz" for (key,) in conn.execute(
                    f"SELECT id FROM {table.name}"
                )}
                cutoff = time.time() - ORPHAN_GRACE_SECONDS
                for name in orphaned:
                    with contextlib.suppress(OSError):
                        blob = table.blob_dir / name
                        if name not in known and blob.stat().st_mtime <= cutoff:
                            blob.unlink()
        return {
            "root": str(self.root),
            "entries_checked": len(rows) - removed,
            "missing": missing,
            "corrupt": corrupt,
            "orphaned_blobs": orphaned,
            "ok": not (missing or corrupt or orphaned),
            "fixed": bool(fix),
            "entries_removed": removed,
        }

    def _connect(self, create: bool) -> Optional[sqlite3.Connection]:
        if self._conn is not None:
            return self._conn
        legacy = [name for name in _LEGACY_INDEXES if (self.root / name).exists()]
        if not (create or legacy or self.path.exists()):
            return None
        self.root.mkdir(parents=True, exist_ok=True)
        found = None
        with contextlib.suppress(FileNotFoundError):
            found = self.path.stat().st_ino
        try:
            self._conn = self._open(legacy)
        except sqlite3.DatabaseError as exc:
            if not create or type(exc) is not sqlite3.DatabaseError:
                raise
            # Not a database, or a corrupt one: it reads as empty, and the
            # first write replaces it as it would a corrupt JSON index (its
            # blobs become orphans for ``verify``).  Only the file found bad
            # goes, not one a racing process has just put in its place.
            with contextlib.suppress(FileNotFoundError):
                if self.path.stat().st_ino == found:
                    for suffix in ("", "-wal", "-shm"):
                        with contextlib.suppress(FileNotFoundError):
                            os.unlink(f"{self.path}{suffix}")
            self._conn = self._open(legacy)
        return self._conn

    def _open(self, legacy: List[str]) -> sqlite3.Connection:
        conn = sqlite3.connect(
            str(self.path),
            timeout=BUSY_TIMEOUT_SECONDS,
            isolation_level=None,
            check_same_thread=False,
        )
        try:
            # Processes creating one catalog together can be refused a lock
            # at once rather than after the busy timeout (SQLite's deadlock
            # avoidance); this setup is idempotent, so retry it meanwhile.
            deadline = time.monotonic() + BUSY_TIMEOUT_SECONDS
            while True:
                try:
                    conn.execute("PRAGMA journal_mode=WAL")
                    conn.executescript(_SCHEMA)
                    break
                except sqlite3.OperationalError as exc:
                    if "locked" not in str(exc) or time.monotonic() > deadline:
                        raise
                    time.sleep(0.01)
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.row_factory = sqlite3.Row
            if _has_variant(conn):
                self._drop_variants(conn)
            if legacy:
                self._import_legacy(conn, legacy)
        except BaseException:
            conn.close()
            raise
        return conn

    def _drop_variants(self, conn: sqlite3.Connection) -> None:
        """Delete the interval spectra of older builds (rows, blobs and
        leases) and drop their ``variant`` columns, once: the column is
        re-checked inside the transaction, so a process that opened the
        catalog at the same time finds it migrated."""
        with _transaction(conn):
            if not _has_variant(conn):
                return
            doomed = [key for (key,) in conn.execute(
                "SELECT id FROM spectra WHERE variant != 'exact'"
            )]
            for table in ("spectra", "leases"):
                conn.execute(f"DELETE FROM {table} WHERE variant != 'exact'")
                conn.execute(f"ALTER TABLE {table} DROP COLUMN variant")
        Table("spectra", self.root / "blobs", "solves_recorded").unlink(doomed)

    def _import_legacy(self, conn: sqlite3.Connection, names: List[str]) -> None:
        """Import the JSON indexes of an older build once, then delete them."""
        with _transaction(conn):
            done = "SELECT 1 FROM counters WHERE name = 'legacy_imported'"
            if not conn.execute(done).fetchall():
                for name in names:
                    self._import_index(conn, name)
                bump(conn, "legacy_imported", 1)
        for name in _LEGACY_INDEXES + _LEGACY_LOCKS:
            with contextlib.suppress(OSError):
                (self.root / name).unlink()
        shutil.rmtree(self.root / "leases", ignore_errors=True)

    def _import_index(self, conn: sqlite3.Connection, name: str) -> None:
        try:
            index = json.loads((self.root / name).read_text())
            entries = dict(index["entries"]) if index["format_version"] == 1 else {}
        except (OSError, ValueError, TypeError, KeyError):
            return
        cuts = name == "cuts-index.json"
        retired: List[str] = []
        for key, meta in entries.items():
            blob = self.root / ("cuts" if cuts else "blobs") / f"{key}.npz"
            try:
                if meta.get("variant", "exact") != "exact":  # an interval spectrum
                    retired.append(key)
                    continue
                created = float(meta.get("created_at", 0.0))
                backend = str(meta.get("backend", "unknown"))
                lineage = meta.get("lineage")
                if cuts:
                    row = (key, key, int(meta.get("num_cuts", 0)), backend, lineage)
                else:
                    dtype = (meta.get("options") or {}).get("dtype", "float64")
                    row = (key, str(meta["base"]), int(meta["h"]),
                           str(meta["fingerprint"]), int(bool(meta["normalized"])),
                           int(bool(meta["sparse"])), str(dtype), backend, lineage,
                           float(meta["solve_seconds"]))
                row += (blob.stat().st_size if blob.exists() else 0, created,
                        float(meta.get("last_used", created)))
            except (AttributeError, KeyError, TypeError, ValueError):
                continue  # a malformed entry: its blob becomes an orphan
            conn.execute(
                f"INSERT OR IGNORE INTO {'cuts' if cuts else 'spectra'} "
                f"VALUES ({', '.join('?' * len(row))})",
                row,
            )
        Table("spectra", self.root / "blobs", "solves_recorded").unlink(retired)
        for counter in ("solves_recorded", "flows_recorded"):
            with contextlib.suppress(TypeError, ValueError):
                bump(conn, counter, int(index.get(counter, 0)))
