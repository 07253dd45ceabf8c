"""Tests for the sqlite3 catalog under a store directory.

Three concerns beyond the store API itself: the write path survives a crash
at any step (a writer killed inside its transaction, a full disk); a store
written by an older build (a catalog of another format version, or the
JSON layout from before the catalog) is discarded once, however many
processes open it together; and a handle stays usable across ``fork`` and
between threads, with readers seeing only whole values while a writer
publishes.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import sqlite3
import sys
import threading
import time

import numpy as np
import pytest

from repro.graphs.generators import chain_graph, fft_graph
from repro.runtime.catalog import FORMAT_VERSION, spectrum_base
from repro.runtime.cli import main
from repro.runtime.families import GraphSpec
from repro.runtime.service import BoundQuery, BoundService
from repro.runtime.store import CutStore, SpectrumStore, _entry_id
from repro.solvers.spectrum_cache import SpectrumCache

FP = "a" * 64
OTHER = "b" * 64

_CATALOG_FILES = {"catalog.sqlite", "catalog.sqlite-wal", "catalog.sqlite-shm"}


def _file_names(root):
    return {path.name for path in root.iterdir()}


class TestWriteFaults:
    def test_writer_killed_inside_its_transaction_does_not_wedge_the_store(
        self, tmp_path
    ):
        root = tmp_path / "spectra"
        SpectrumStore(root).put(OTHER, np.arange(4, dtype=float), 1.0)
        ctx = multiprocessing.get_context("fork")
        ready = ctx.Event()

        def hold_the_write_lock():
            with SpectrumStore(root)._catalog.write():
                ready.set()
                time.sleep(600)

        child = ctx.Process(target=hold_the_write_lock)
        child.start()
        try:
            assert ready.wait(timeout=30)
            # WAL: readers do not wait for the writer.
            assert SpectrumStore(root).get(OTHER, 4) is not None
            os.kill(child.pid, signal.SIGKILL)
            child.join(timeout=10)
            start = time.monotonic()
            store = SpectrumStore(root)
            store.put(FP, np.arange(3, dtype=float), 1.0)
            assert time.monotonic() - start < 30.0  # within the busy timeout
            assert len(store) == 2
            assert store.stats()["solves_recorded"] == 2
        finally:
            if child.is_alive():
                child.kill()
                child.join(timeout=5)

    def test_full_disk_fails_the_put_cleanly(self, tmp_path):
        root = tmp_path / "spectra"
        store = SpectrumStore(root)
        store.put(OTHER, np.arange(4, dtype=float), 1.0)
        # Cap the catalog at its current size: a write that needs one more
        # page fails as on a full disk (SQLITE_FULL).
        conn = store._catalog._conn
        conn.execute(f"PRAGMA max_page_count = {conn.execute('PRAGMA page_count').fetchone()[0]}")
        with pytest.raises(OSError, match="full"):
            store.put(FP, np.linspace(0.0, 1.0, 2000), 1.0)
        assert len(store) == 1 and store.stats()["solves_recorded"] == 1
        assert _file_names(root) <= _CATALOG_FILES
        # The cache swallows the failed publish and still answers.
        cache = SpectrumCache(store=store)
        spectrum = cache.spectrum(chain_graph(600), 600)  # too long for the pages left
        assert spectrum.eigenvalues.shape == (600,) and cache.misses == 1
        assert len(store) == 1
        # Space again: the handle writes.
        conn.execute("PRAGMA max_page_count = 1073741823")
        store.put(FP, np.linspace(0.0, 1.0, 2000), 1.0)
        assert len(store) == 2 and store.get(FP, 2000) is not None

    def test_failed_commit_rolls_back_and_the_handle_stays_usable(self, tmp_path):
        store = SpectrumStore(tmp_path / "spectra")
        store.put(OTHER, np.arange(4, dtype=float), 1.0)
        real = store._catalog._conn

        class FullDiskOnCommit:
            """The handle's connection, but its next COMMIT fails."""

            failures = [sqlite3.OperationalError("database or disk is full")]

            def execute(self, sql, *args):
                if sql == "COMMIT" and self.failures:
                    raise self.failures.pop()
                return real.execute(sql, *args)

            def __getattr__(self, name):
                return getattr(real, name)

        store._catalog._conn = FullDiskOnCommit()
        with pytest.raises(OSError):
            store.put(FP, np.arange(3, dtype=float), 1.0)
        assert len(store) == 1 and store.stats()["solves_recorded"] == 1
        store.put(FP, np.arange(3, dtype=float), 1.0)
        assert len(store) == 2 and store.get(FP, 3) is not None

    def test_corrupt_catalog_is_replaced_by_the_next_write(self, tmp_path):
        root = tmp_path / "spectra"
        store = SpectrumStore(root)
        store.put(OTHER, np.arange(4, dtype=float), 1.0)
        store._catalog.close()
        (root / "catalog.sqlite").write_text("{not a database")

        reopened = SpectrumStore(root)
        assert len(reopened) == 0 and reopened.get(OTHER, 4) is None
        reopened.put(FP, np.arange(3, dtype=float), 1.0)
        assert len(reopened) == 1 and reopened.get(FP, 3) is not None
        assert SpectrumStore(root).verify()["ok"]
        assert reopened.stats()["formats_discarded"] == 0  # replaced, not discarded
        assert reopened.clear() == 1 and len(SpectrumStore(root)) == 0


#: The catalog schema of the builds that kept each value in an ``.npz``
#: file beside its row; they never set ``PRAGMA user_version`` (0).
_PARENT_SCHEMA = """
PRAGMA journal_mode=WAL;
CREATE TABLE spectra (
    id TEXT PRIMARY KEY, base TEXT NOT NULL, h INTEGER NOT NULL,
    fingerprint TEXT NOT NULL, normalized INTEGER NOT NULL, dtype TEXT NOT NULL,
    backend TEXT NOT NULL, lineage TEXT, solve_seconds REAL NOT NULL,
    bytes INTEGER NOT NULL, created_at REAL NOT NULL, last_used REAL NOT NULL);
CREATE INDEX spectra_by_base ON spectra (base, h);
CREATE TABLE cuts (
    id TEXT PRIMARY KEY, fingerprint TEXT NOT NULL, num_cuts INTEGER NOT NULL,
    backend TEXT NOT NULL, lineage TEXT, bytes INTEGER NOT NULL,
    created_at REAL NOT NULL, last_used REAL NOT NULL);
CREATE TABLE leases (
    base TEXT PRIMARY KEY, token TEXT, pid INTEGER, host TEXT, fingerprint TEXT,
    created_at REAL, heartbeat_at REAL, ttl REAL);
CREATE TABLE counters (name TEXT PRIMARY KEY, value INTEGER NOT NULL);
"""


def _write_parent_store(root, graph):
    """A store as the builds before format 2 left it: one ``spectra`` row
    (the normalised spectrum of ``graph``, h=10) whose eigenvalues live in
    ``blobs/<id>.npz``, a cut table under ``cuts/``, and the JSON index of
    the builds before the catalog."""
    fingerprint = graph.fingerprint()
    entry_id = _entry_id(spectrum_base(fingerprint, True, "dense"), 10)
    (root / "blobs").mkdir(parents=True)
    (root / "cuts").mkdir()
    np.savez_compressed(root / "blobs" / f"{entry_id}.npz",
                        eigenvalues=np.linspace(0.0, 1.0, 10), solve_seconds=np.float64(1.0))
    np.savez_compressed(root / "cuts" / f"{fingerprint}.npz",
                        vertices=np.arange(3), values=np.arange(3))
    (root / "index.json").write_text(json.dumps(
        {"format_version": 1, "solves_recorded": 1, "entries": {}}
    ))
    conn = sqlite3.connect(root / "catalog.sqlite")
    conn.executescript(_PARENT_SCHEMA)
    with conn:
        conn.execute(
            "INSERT INTO spectra VALUES (?, ?, 10, ?, 1, 'float64', 'dense', 'fft', "
            "1.0, 500, 1.0, 1.0)",
            (entry_id, entry_id[:40], fingerprint),
        )
        conn.execute("INSERT INTO counters VALUES ('solves_recorded', 1)")
    conn.close()


#: The format-2 catalog: values in the rows, and a ``dtype`` in the key of
#: every spectrum.
_FORMAT_2_SCHEMA = """
PRAGMA journal_mode=WAL;
CREATE TABLE spectra (
    id TEXT PRIMARY KEY, base TEXT NOT NULL, h INTEGER NOT NULL,
    fingerprint TEXT NOT NULL, normalized INTEGER NOT NULL, dtype TEXT NOT NULL,
    backend TEXT NOT NULL, lineage TEXT, solve_seconds REAL NOT NULL,
    bytes INTEGER NOT NULL, created_at REAL NOT NULL, last_used REAL NOT NULL,
    eigenvalues BLOB NOT NULL);
CREATE INDEX spectra_by_base ON spectra (base, h);
CREATE TABLE cuts (
    id TEXT PRIMARY KEY, fingerprint TEXT NOT NULL, num_cuts INTEGER NOT NULL,
    backend TEXT NOT NULL, lineage TEXT, bytes INTEGER NOT NULL,
    created_at REAL NOT NULL, last_used REAL NOT NULL,
    vertices BLOB NOT NULL, cut_values BLOB NOT NULL);
CREATE TABLE leases (
    base TEXT PRIMARY KEY, token TEXT, pid INTEGER, host TEXT, fingerprint TEXT,
    created_at REAL, heartbeat_at REAL, ttl REAL);
CREATE TABLE counters (name TEXT PRIMARY KEY, value INTEGER NOT NULL);
PRAGMA user_version = 2;
"""


def _write_format_2_store(root, graph):
    """A format-2 store: the normalised spectrum of ``graph`` (h=10) and
    400 others (h=100, ~0.3 MB) in their rows, and a cut table."""
    fingerprints = [graph.fingerprint()] + [f"{i:064x}" for i in range(400)]
    root.mkdir(parents=True)
    conn = sqlite3.connect(root / "catalog.sqlite")
    conn.executescript(_FORMAT_2_SCHEMA)
    with conn:
        for fingerprint in fingerprints:
            h = 10 if fingerprint == fingerprints[0] else 100
            base = spectrum_base(fingerprint, True, "dense")
            values = np.linspace(0.0, 1.0, h).tobytes()
            conn.execute(
                "INSERT INTO spectra VALUES (?, ?, ?, ?, 1, 'float64', 'dense', 'fft', "
                "1.0, ?, 1.0, 1.0, ?)",
                (_entry_id(base, h), base, h, fingerprint, len(values), values),
            )
        conn.execute(
            "INSERT INTO cuts VALUES (?, ?, 3, 'scipy', 'fft', 48, 1.0, 1.0, ?, ?)",
            (fingerprints[0], fingerprints[0], np.arange(3).tobytes(), np.arange(3).tobytes()),
        )
        conn.execute("INSERT INTO counters VALUES ('solves_recorded', 401)")
    conn.close()


def _pragma(root, name):
    conn = sqlite3.connect(root / "catalog.sqlite")
    try:
        return conn.execute(f"PRAGMA {name}").fetchone()[0]
    finally:
        conn.close()


def _user_version(root):
    return _pragma(root, "user_version")


class TestFormatReset:
    def test_processes_opening_a_parent_format_store_discard_it_once(self, tmp_path):
        ctx = multiprocessing.get_context("fork")
        query = BoundQuery(GraphSpec(family="fft", size_param=4), 4)
        [solved] = BoundService(store=None, num_eigenvalues=10).submit([query])
        for attempt in range(10):
            # The builds before format 2, and format 2, whose key held a dtype.
            write_old_store = (_write_parent_store, _write_format_2_store)[attempt % 2]
            root = tmp_path / f"spectra-{attempt}"
            write_old_store(root, fft_graph(4))
            barrier = ctx.Barrier(4)

            def first_open():
                barrier.wait(timeout=30)
                assert len(SpectrumStore(root)) == 0

            procs = [ctx.Process(target=first_open) for _ in range(4)]
            for proc in procs:
                proc.start()
            for proc in procs:
                proc.join(timeout=60)
            assert [proc.exitcode for proc in procs] == [0, 0, 0, 0]
            assert _user_version(root) == FORMAT_VERSION
            assert _pragma(root, "freelist_count") == 0  # the discard vacuumed
            assert _file_names(root) <= _CATALOG_FILES
            stats = SpectrumStore(root).stats()
            assert stats["formats_discarded"] == 1
            assert stats["num_entries"] == 0 and stats["solves_recorded"] == 0

            # Re-querying the discarded spectrum pays one eigensolve.
            service = BoundService(store=root, num_eigenvalues=10)
            [served] = service.submit([query])
            assert service.stats()["cache_misses"] == 1
            assert (served.bound, served.raw_value) == (solved.bound, solved.raw_value)
            assert main(["cache", "verify", "--store", str(root)]) == 0
            assert SpectrumStore(root).stats()["formats_discarded"] == 1

    def test_pre_catalog_layout_is_deleted_by_the_first_write(self, tmp_path):
        root = tmp_path / "spectra"
        _write_parent_store(root, fft_graph(4))
        for suffix in ("", "-wal", "-shm"):
            (root / f"catalog.sqlite{suffix}").unlink(missing_ok=True)
        for name in (".lock", ".cuts.lock", ".leases.lock"):
            (root / name).touch()
        (root / "leases").mkdir()
        store = SpectrumStore(root)
        # Its JSON index is not imported: reads see an empty store, and
        # create nothing.
        assert len(store) == 0 and store.stats()["formats_discarded"] == 0
        assert "catalog.sqlite" not in _file_names(root)
        store.put(FP, np.arange(3, dtype=float), 1.0)
        assert _file_names(root) <= _CATALOG_FILES
        assert store.stats()["formats_discarded"] == 1 and len(store) == 1

    @staticmethod
    def _assert_discarded(root, version):
        """A store of this schema stamped ``version`` reads empty and is
        discarded once."""
        SpectrumStore(root).put(FP, np.arange(3, dtype=float), 1.0)
        conn = sqlite3.connect(root / "catalog.sqlite")
        conn.execute(f"PRAGMA user_version = {version}")
        conn.close()
        store = SpectrumStore(root)
        assert len(store) == 0
        assert store.stats()["formats_discarded"] == 1
        assert _user_version(root) == FORMAT_VERSION == 5

    def test_a_format_3_store_is_discarded(self, tmp_path):
        """Format 3 has this schema, but its dense spectra from 1,000
        vertices up came from the one-stage ``eigvalsh``, which the
        two-stage solver does not reproduce to the last digit."""
        self._assert_discarded(tmp_path / "spectra", 3)

    def test_a_format_4_store_is_discarded(self, tmp_path):
        """Format 4 has this schema too, but its iterative spectra came from
        a wider LOBPCG block below h = 32 and, for ``amg``, a tighter
        residual stop, which this build does not reproduce to the last
        digit."""
        self._assert_discarded(tmp_path / "spectra", 4)

    def test_a_new_store_is_not_counted_as_discarded(self, tmp_path):
        root = tmp_path / "spectra"
        (root / "cuts").mkdir(parents=True)  # not a store's: no index, no catalog
        (root / "cuts" / "notes.txt").write_text("kept")
        store = SpectrumStore(root)
        store.put(FP, np.arange(3, dtype=float), 1.0)
        assert store.stats()["formats_discarded"] == 0
        assert _user_version(root) == FORMAT_VERSION
        assert (root / "cuts" / "notes.txt").read_text() == "kept"


def _vector(h):
    """The spectrum the publisher below writes at length ``h``."""
    return np.arange(h, dtype=float) / 7.0


class TestProcessesAndThreads:
    def test_processes_creating_one_catalog_together_all_succeed(self, tmp_path):
        # Creating the database (WAL switch, schema) races between first
        # writers; none may fail where a later write would have waited.
        ctx = multiprocessing.get_context("fork")
        for attempt in range(20):
            store = SpectrumStore(tmp_path / f"spectra-{attempt}", lease_ttl=30.0)
            barrier = ctx.Barrier(4)

            def first_write(index):
                barrier.wait(timeout=30)
                store.acquire_lease(f"{index}" * 40).release()

            procs = [ctx.Process(target=first_write, args=(i,)) for i in range(4)]
            for proc in procs:
                proc.start()
            for proc in procs:
                proc.join(timeout=60)
            assert [proc.exitcode for proc in procs] == [0, 0, 0, 0]
            assert store.leases() == [] and store.verify()["ok"]

    def test_handle_used_before_fork_works_in_the_child(self, tmp_path):
        store = SpectrumStore(tmp_path / "spectra")
        store.put(FP, np.arange(3, dtype=float), 1.0)
        parent_conn = store._catalog._conn
        ctx = multiprocessing.get_context("fork")
        results = ctx.Queue()

        def child():
            found = store.get(FP, 3) is not None
            store.put(OTHER, np.arange(4, dtype=float), 1.0)
            results.put((found, store._catalog._conn is not parent_conn, len(store)))

        proc = ctx.Process(target=child)
        proc.start()
        outcome = results.get(timeout=60)
        proc.join(timeout=30)
        assert proc.exitcode == 0
        assert outcome == (True, True, 2)
        # The parent still holds, and can use, its own connection.
        assert store._catalog._conn is parent_conn
        assert store.get(OTHER, 4) is not None and len(store) == 2

    def test_one_handle_shared_by_many_threads_loses_nothing(self, tmp_path):
        store = SpectrumStore(tmp_path / "spectra", lease_ttl=0.2)
        cuts = CutStore(store.root)
        store.put(FP, _vector(3), 1.0)
        cuts.merge(FP, [2, 0, 1], [7, 5, 6])
        lease = store.acquire_lease(OTHER)  # its heartbeat shares the handle
        errors = []
        barrier = threading.Barrier(8)

        def worker(index):
            try:
                barrier.wait(timeout=30)
                for i in range(10):
                    key = f"{index}-{i}" * 8
                    store.put(key, _vector(4), 1.0)
                    assert store.get(FP, 4) is None  # no row long enough
                    stored = store.get(FP, 3)
                    assert stored.eigenvalues.tobytes() == _vector(3).tobytes()
                    assert store.get(key, 4).eigenvalues.tobytes() == _vector(4).tobytes()
                    assert cuts.get(FP).as_dict() == {0: 5, 1: 6, 2: 7}
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
            lease.release()
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(store) == 81
        assert store.stats()["solves_recorded"] == 81
        assert store.misses == 80 and store.hits == 160 and store.puts == 81
        assert cuts.hits == 80
        assert store.leases() == []

    def test_reader_racing_a_publisher_sees_only_whole_values(self, tmp_path):
        """One process puts ever longer spectra of one key and merges a
        growing cut table while another reads both in a loop: every read is
        nothing yet, a whole written vector, or one merged table."""
        root = tmp_path / "spectra"
        SpectrumStore(root).put(OTHER, _vector(2), 1.0)  # the catalog exists
        steps = 200
        ctx = multiprocessing.get_context("fork")
        done = ctx.Event()
        results = ctx.Queue()

        def publish():
            spectra, cuts = SpectrumStore(root), CutStore(root)
            for h in range(1, steps + 1):
                spectra.put(FP, _vector(h), 1.0)
                cuts.merge(FP, [h - 1], [h + 99])

        def read_until_done():
            spectra, cuts = SpectrumStore(root), CutStore(root)
            reads, bad = 0, []
            while True:
                last = done.is_set()
                stored = spectra.get(FP, 1)
                if stored is not None and (
                    stored.eigenvalues.tobytes() != _vector(stored.num_eigenvalues).tobytes()
                ):
                    bad.append(("spectrum", stored.num_eigenvalues))
                table = cuts.get(FP)
                if table is not None and (
                    table.as_dict() != {v: v + 100 for v in range(len(table))}
                ):
                    bad.append(("cuts", len(table)))
                reads += 1
                if last:
                    break
            results.put((reads, bad, stored.num_eigenvalues, len(table)))

        reader = ctx.Process(target=read_until_done)
        publisher = ctx.Process(target=publish)
        reader.start()
        publisher.start()
        publisher.join(timeout=120)
        done.set()
        reads, bad, final_h, final_cuts = results.get(timeout=120)
        reader.join(timeout=30)
        assert publisher.exitcode == 0 and reader.exitcode == 0
        assert bad == [] and reads > 1
        assert (final_h, final_cuts) == (steps, steps)
