"""The sqlite3 catalog of a store directory.

One database, ``<root>/catalog.sqlite``, holds everything the
:class:`~repro.runtime.store.SpectrumStore` and
:class:`~repro.runtime.store.CutStore` sharing that root keep, in four
tables:

* ``spectra`` — one row per stored spectrum: its eigenvalues (a BLOB of
  ``h`` little-endian float64), metadata, byte size and LRU stamp.  Every
  row of one spectrum shares a ``base`` id, :func:`spectrum_base` of (graph
  fingerprint, normalisation, resolved backend id), and differs in its
  truncation ``h``;
* ``cuts`` — one row per graph: its cut table as two BLOBs of ``num_cuts``
  little-endian int64 each (the sorted, unique vertices and their cut
  values);
* ``leases`` — cross-process solve leases, one row per cold spectrum or
  max-flow pass being solved;
* ``counters`` — ``solves_recorded`` and ``flows_recorded``, the
  eigensolves and max-flow calls somebody paid for, and
  ``formats_discarded``.

The schema is stamped ``PRAGMA user_version`` = :data:`FORMAT_VERSION` in
the transaction that creates it.  A catalog of any other version (every
older build's reads 0) is discarded once on open, never migrated: its
tables are dropped and this schema created in one ``BEGIN IMMEDIATE``
transaction that re-reads the version, so processes opening one old
catalog together discard it once, and ``formats_discarded`` counts it.
So does the first write to a directory holding the JSON indexes of the
builds before the catalog.  What older builds kept beside the catalog
(``blobs/``, ``cuts/``, JSON indexes, lock files, ``leases/``) goes after
the commit, and one ``VACUUM`` returns the dropped tables' pages to the
disk (a catalog another process is writing keeps them free for reuse).
The store is a cache of deterministic results, so a discarded catalog
costs re-solves and nothing else.

WAL mode lets readers proceed while a writer commits, and every write is
one short ``BEGIN IMMEDIATE`` transaction, so its cost does not grow with
the store.  ``synchronous=NORMAL`` skips the fsync per commit: a power cut
may lose the last commits but never corrupts the catalog.  A
:class:`Catalog` opens its connection on first use, shares it between
threads under a lock, and drops — never uses or closes — it in a forked
child.  Every :class:`sqlite3.Error` is raised as :class:`OSError`, except
that a file that is not a database (or is corrupt) reads as empty and is
replaced by the first write.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import sqlite3
import threading
import time
import weakref
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from repro.utils.logging import get_logger

CATALOG_NAME = "catalog.sqlite"

#: The ``PRAGMA user_version`` of this schema; any other is discarded.  It
#: also moves when a backend's answers do, so a store never serves an
#: older build's floats beside fresh ones.
FORMAT_VERSION = 5

#: How long a write waits for another process's transaction to finish.
BUSY_TIMEOUT_SECONDS = 30.0

#: The JSON indexes of the builds before the catalog, and everything older
#: builds kept beside it.
_OLD_INDEXES = ("index.json", "cuts-index.json")
_OLD_FILES = _OLD_INDEXES + ("blobs", "cuts", "leases", ".lock", ".cuts.lock", ".leases.lock")

_SCHEMA = (
    """CREATE TABLE spectra (
    id TEXT PRIMARY KEY, base TEXT NOT NULL, h INTEGER NOT NULL,
    fingerprint TEXT NOT NULL, normalized INTEGER NOT NULL,
    backend TEXT NOT NULL, lineage TEXT, solve_seconds REAL NOT NULL,
    bytes INTEGER NOT NULL, created_at REAL NOT NULL, last_used REAL NOT NULL,
    eigenvalues BLOB NOT NULL)""",
    "CREATE INDEX spectra_by_base ON spectra (base, h)",
    """CREATE TABLE cuts (
    id TEXT PRIMARY KEY, fingerprint TEXT NOT NULL, num_cuts INTEGER NOT NULL,
    backend TEXT NOT NULL, lineage TEXT, bytes INTEGER NOT NULL,
    created_at REAL NOT NULL, last_used REAL NOT NULL,
    vertices BLOB NOT NULL, cut_values BLOB NOT NULL)""",
    """CREATE TABLE leases (
    base TEXT PRIMARY KEY, token TEXT, pid INTEGER, host TEXT, fingerprint TEXT,
    created_at REAL, heartbeat_at REAL, ttl REAL)""",
    "CREATE TABLE counters (name TEXT PRIMARY KEY, value INTEGER NOT NULL)",
)

_LOG = get_logger("store")


def spectrum_base(fingerprint: str, normalized: bool, backend: str) -> str:
    """The id of one spectrum: its rows' ``base``, their ids' prefix and its
    solve lease.  ``backend`` is a resolved backend id, never ``auto``."""
    payload = json.dumps([fingerprint, bool(normalized), backend])
    return hashlib.sha256(payload.encode()).hexdigest()[:40]


def bump(conn: sqlite3.Connection, counter: str, amount: int) -> None:
    """Add ``amount`` to a persistent counter (inside a transaction)."""
    conn.execute(
        "INSERT INTO counters VALUES (?, ?) "
        "ON CONFLICT(name) DO UPDATE SET value = value + excluded.value",
        (counter, int(amount)),
    )


def _version(conn: sqlite3.Connection) -> int:
    return conn.execute("PRAGMA user_version").fetchone()[0]


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
        self, table: str, counter: str, lineage: Optional[str],
        fingerprint_prefix: Optional[str],
    ) -> int:
        """Delete matching rows (all, and ``counter``, when unfiltered);
        returns the count removed."""
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
            removed = conn.execute(f"DELETE FROM {table} WHERE {where}", params).rowcount
            if lineage is None and fingerprint_prefix is None:
                conn.execute("DELETE FROM counters WHERE name = ?", (counter,))
        return removed

    def verify(
        self, table: str, row_ok: Callable[[sqlite3.Row], bool], fix: bool
    ) -> Dict[str, object]:
        """The rows of a table whose value ``row_ok`` rejects.

        ``fix=True`` deletes them, each re-checked inside the transaction:
        a racing write may have replaced one since the scan.
        """
        rows = self.read(f"SELECT * FROM {table} ORDER BY id")
        corrupt = [row["id"] for row in rows if not row_ok(row)]
        removed = 0
        if fix and corrupt:
            with self.write() as conn:
                for key in corrupt:
                    row = conn.execute(f"SELECT * FROM {table} WHERE id = ?", (key,)).fetchone()
                    if row is not None and not row_ok(row):
                        conn.execute(f"DELETE FROM {table} WHERE id = ?", (key,))
                        removed += 1
        return {
            "root": str(self.root),
            "entries_checked": len(rows) - removed,
            "corrupt": corrupt,
            "ok": not corrupt,
            "fixed": bool(fix),
            "entries_removed": removed,
        }

    def _connect(self, create: bool) -> Optional[sqlite3.Connection]:
        if self._conn is not None:
            return self._conn
        if not (create or self.path.exists()):
            return None
        self.root.mkdir(parents=True, exist_ok=True)
        found = None
        with contextlib.suppress(FileNotFoundError):
            found = self.path.stat().st_ino
        try:
            self._conn = self._open()
        except sqlite3.DatabaseError as exc:
            if not create or type(exc) is not sqlite3.DatabaseError:
                raise
            # Not a database, or a corrupt one: it reads as empty, and the
            # first write replaces it.  Only the file found bad goes, not
            # one a racing process has just put in its place.
            with contextlib.suppress(FileNotFoundError):
                if self.path.stat().st_ino == found:
                    for suffix in ("", "-wal", "-shm"):
                        with contextlib.suppress(FileNotFoundError):
                            os.unlink(f"{self.path}{suffix}")
            self._conn = self._open()
        return self._conn

    def _open(self) -> sqlite3.Connection:
        conn = sqlite3.connect(
            str(self.path),
            timeout=BUSY_TIMEOUT_SECONDS,
            isolation_level=None,
            check_same_thread=False,
        )
        try:
            conn.row_factory = sqlite3.Row
            # Processes creating one catalog together can be refused a lock
            # at once rather than after the busy timeout (SQLite's deadlock
            # avoidance); this setup is idempotent, so retry it meanwhile.
            deadline = time.monotonic() + BUSY_TIMEOUT_SECONDS
            while True:
                try:
                    conn.execute("PRAGMA journal_mode=WAL")
                    if _version(conn) != FORMAT_VERSION:
                        self._create_schema(conn)
                    break
                except sqlite3.OperationalError as exc:
                    if "locked" not in str(exc) or time.monotonic() > deadline:
                        raise
                    time.sleep(0.01)
            conn.execute("PRAGMA synchronous=NORMAL")
        except BaseException:
            conn.close()
            raise
        return conn

    def _create_schema(self, conn: sqlite3.Connection) -> None:
        """Create and stamp the schema, discarding a catalog of another
        version: the version is re-read inside the transaction, so a
        process that opened the catalog at the same time finds it done."""
        with _transaction(conn):
            if _version(conn) == FORMAT_VERSION:
                return
            tables = [name for (name,) in conn.execute(
                "SELECT name FROM sqlite_master "
                "WHERE type = 'table' AND name NOT LIKE 'sqlite_%'"
            )]
            indexed = any((self.root / name).exists() for name in _OLD_INDEXES)
            for name in tables:
                conn.execute(f"DROP TABLE {name}")
            for statement in _SCHEMA:
                conn.execute(statement)
            conn.execute(f"PRAGMA user_version = {FORMAT_VERSION}")
            if not (tables or indexed):
                return  # a new store: nothing of an older one to delete
            bump(conn, "formats_discarded", 1)
        # Dropping the tables left their pages on the free list.  A busy
        # catalog refuses the VACUUM, and new rows reuse the pages instead.
        with contextlib.suppress(sqlite3.OperationalError):
            conn.execute("VACUUM")
        for path in (self.root / name for name in _OLD_FILES):
            if path.is_dir():
                shutil.rmtree(path, ignore_errors=True)
            else:
                with contextlib.suppress(OSError):
                    path.unlink()
        _LOG.warning("discarded a store of another format at %s: what it held "
                     "will be solved again", self.root)
