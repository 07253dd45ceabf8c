"""Tests for the sqlite3 catalog under a store directory.

Three concerns beyond the store API itself: the write path survives a crash
at any step (a dead process between blob write and insert, a writer killed
inside its transaction, a full disk); a store written by an older build
(JSON indexes, a catalog holding interval spectra, or one keyed on an
assembly flag and every solver option) is migrated once, with its counters;
and a handle stays usable across ``fork`` and between threads.
"""

from __future__ import annotations

import errno
import hashlib
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

from repro.baselines.convex_mincut import MinCutEngine
from repro.core.engine import BoundEngine
from repro.graphs.generators import fft_graph
from repro.runtime.families import GraphSpec
from repro.runtime.service import BoundQuery, BoundService
from repro.runtime.store import Claim, CutStore, SpectrumStore, _entry_id
from repro.solvers.backends import EigenSolverOptions
from repro.solvers.spectrum_cache import SpectrumCache

FP = "a" * 64
OTHER = "b" * 64

#: The six solver options older builds hashed into every spectrum id, at
#: their defaults.
_OLD_OPTIONS = {"method": "auto", "dense_cutoff": 6000, "tolerance": 1e-8,
                "max_iterations": None, "seed": 0, "dtype": "float64"}


def _old_base(fingerprint, normalized=True, method="auto", *variant):
    """The base id older builds gave a spectrum: the graph, the
    normalisation, the assembly flag (dense below 2,000 vertices), every
    solver option, and the variant in the builds that had one."""
    payload = [fingerprint, bool(normalized), False, {**_OLD_OPTIONS, "method": method},
               *variant]
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:40]


def _blob_names(root):
    return sorted(path.name for path in (root / "blobs").iterdir())


class TestWriteFaults:
    def test_crash_between_blob_write_and_insert_leaves_one_orphan(self, tmp_path):
        root = tmp_path / "spectra"
        store = SpectrumStore(root)
        store.put(OTHER, np.arange(4, dtype=float), 1.0)

        def crash_after_blob_write():
            # The blob is on disk; die where the catalog insert would begin.
            store._catalog.write = lambda: os._exit(0)
            store.put(FP, np.arange(3, dtype=float), 1.0)

        child = multiprocessing.get_context("fork").Process(target=crash_after_blob_write)
        child.start()
        child.join(timeout=60)
        assert child.exitcode == 0

        reopened = SpectrumStore(root)
        assert len(reopened) == 1
        assert reopened.get(FP, 3) is None
        report = reopened.verify()
        assert report["missing"] == [] and report["corrupt"] == []
        [orphan] = report["orphaned_blobs"]
        # A young orphan may be a put in flight: fix leaves it alone...
        reopened.verify(fix=True)
        assert reopened.verify()["orphaned_blobs"] == [orphan]
        # ...until it is older than the grace period.
        old = time.time() - 120
        os.utime(root / "blobs" / orphan, (old, old))
        reopened.verify(fix=True)
        assert reopened.verify()["ok"]
        assert not (root / "blobs" / orphan).exists()
        assert reopened.get(OTHER, 4) is not None

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

    def test_full_disk_fails_the_put_cleanly(self, tmp_path, monkeypatch):
        root = tmp_path / "spectra"
        store = SpectrumStore(root)
        store.put(OTHER, np.arange(4, dtype=float), 1.0)
        before = _blob_names(root)

        def no_space(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(np, "savez_compressed", no_space)
        with pytest.raises(OSError):
            store.put(FP, np.arange(3, dtype=float), 1.0)
        assert _blob_names(root) == before  # no temporary file left behind
        assert len(store) == 1
        # The cache swallows the failed publish and still answers.
        graph = fft_graph(3)
        spectrum = SpectrumCache(store=store).spectrum(graph, 5)
        reference = SpectrumCache().spectrum(graph, 5)
        np.testing.assert_array_equal(spectrum.eigenvalues, reference.eigenvalues)
        assert len(store) == 1

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
        lost = store.put(OTHER, np.arange(4, dtype=float), 1.0)
        store._catalog.close()
        (root / "catalog.sqlite").write_text("{not a database")

        reopened = SpectrumStore(root)
        assert len(reopened) == 0 and reopened.get(OTHER, 4) is None
        reopened.put(FP, np.arange(3, dtype=float), 1.0)
        assert len(reopened) == 1 and reopened.get(FP, 3) is not None
        assert SpectrumStore(root).verify()["orphaned_blobs"] == [f"{lost}.npz"]
        assert reopened.clear() == 1 and len(SpectrumStore(root)) == 0


class _Recorder:
    """Stands in for both stores and records what gets published."""

    def __init__(self):
        self.spectra = []
        self.cuts = []

    def get(self, *args, **kwargs):
        return None

    def claim(self, *args, **kwargs):
        return Claim()  # leasing off: every cold miss solves

    def put(self, fingerprint, eigenvalues, solve_seconds, **kwargs):
        self.spectra.append((fingerprint, np.asarray(eigenvalues), solve_seconds, kwargs))

    def merge(self, fingerprint, vertices, values, flow_calls=0, **kwargs):
        self.cuts.append((fingerprint, list(vertices), list(values), flow_calls))


def _write_json_layout(root, recorder, solves_recorded):
    """A store as older builds wrote it: JSON indexes, lock files, leases."""
    (root / "blobs").mkdir(parents=True)
    (root / "cuts").mkdir()
    entries = {}
    for fingerprint, values, seconds, kwargs in recorder.spectra:
        base = _old_base(fingerprint, kwargs["normalized"])
        entry_id = _entry_id(base, len(values))
        np.savez_compressed(
            root / "blobs" / f"{entry_id}.npz",
            eigenvalues=values, solve_seconds=np.float64(seconds),
        )
        entries[entry_id] = {
            "base": base, "h": len(values), "fingerprint": fingerprint,
            "normalized": kwargs["normalized"], "sparse": False,
            "options": _OLD_OPTIONS, "variant": "exact",
            "backend": kwargs["backend"], "lineage": "fft", "solve_seconds": seconds,
            "created_at": 1.0, "last_used": 2.0,
        }
    (root / "index.json").write_text(json.dumps(
        {"format_version": 1, "solves_recorded": solves_recorded, "entries": entries}
    ))
    cut_entries = {}
    for fingerprint, vertices, values, _ in recorder.cuts:
        np.savez_compressed(
            root / "cuts" / f"{fingerprint}.npz",
            vertices=np.asarray(vertices), values=np.asarray(values),
        )
        cut_entries[fingerprint] = {
            "num_cuts": len(vertices), "backend": "scipy", "lineage": "fft",
            "created_at": 1.0, "last_used": 2.0,
        }
    flows = sum(calls for *_, calls in recorder.cuts)
    (root / "cuts-index.json").write_text(json.dumps(
        {"format_version": 1, "flows_recorded": flows, "entries": cut_entries}
    ))
    for name in (".lock", ".cuts.lock", ".leases.lock"):
        (root / name).touch()
    (root / "leases").mkdir()
    (root / "leases" / f"{'0' * 40}.json").write_text("{}")
    return flows


class TestLegacyImport:
    def test_json_layout_is_imported_once_with_its_counters(self, tmp_path):
        graph = fft_graph(4)
        recorder = _Recorder()
        cache = SpectrumCache(store=recorder)
        expected = {
            normalized: cache.spectrum(graph, 8, normalized=normalized).eigenvalues
            for normalized in (True, False)
        }
        MinCutEngine(graph, store=recorder).max_cut()
        assert len(recorder.spectra) == 2 and len(recorder.cuts) == 1
        root = tmp_path / "old-store"
        # More solves than entries: the counter records work, not entries.
        flows = _write_json_layout(root, recorder, solves_recorded=5)
        legacy = {name: (root / name).read_text() for name in ("index.json", "cuts-index.json")}

        store, cuts = SpectrumStore(root), CutStore(root)
        assert len(store) == 2 and len(cuts) == 1
        assert store.stats()["solves_recorded"] == 5
        assert cuts.stats()["flows_recorded"] == flows > 0
        assert {entry["lineage"] for entry in store.entries()} == {"fft"}
        assert store.verify()["ok"] and cuts.verify()["ok"]
        leftovers = ["index.json", "cuts-index.json", ".lock", ".cuts.lock",
                     ".leases.lock", "leases"]
        assert not any((root / name).exists() for name in leftovers)

        # A second open does not import again, even if the JSON files came
        # back (a crash between the import's commit and their deletion).
        for name, text in legacy.items():
            (root / name).write_text(text)
        again = SpectrumStore(root)
        assert len(again) == 2 and again.stats()["solves_recorded"] == 5
        assert CutStore(root).stats()["flows_recorded"] == flows
        assert not (root / "index.json").exists()

        # Re-querying the imported graphs pays no eigensolve and no flow.
        warm = SpectrumCache(store=SpectrumStore(root))
        for normalized, values in expected.items():
            served = warm.spectrum(graph, 8, normalized=normalized)
            np.testing.assert_array_equal(served.eigenvalues, values)
        assert warm.misses == 0 and warm.store_hits == 2
        engine = MinCutEngine(graph, store=CutStore(root))
        engine.max_cut()
        assert engine.flow_calls == 0 and engine.store_served > 0


#: The catalog schema of the builds that stored interval spectra.
_VARIANT_SCHEMA = """
PRAGMA journal_mode=WAL;
CREATE TABLE spectra (
    id TEXT PRIMARY KEY, base TEXT NOT NULL, h INTEGER NOT NULL,
    fingerprint TEXT NOT NULL, normalized INTEGER NOT NULL,
    sparse INTEGER NOT NULL, dtype TEXT NOT NULL, variant TEXT NOT NULL,
    backend TEXT NOT NULL, lineage TEXT, solve_seconds REAL NOT NULL,
    bytes INTEGER NOT NULL, created_at REAL NOT NULL, last_used REAL NOT NULL);
CREATE INDEX spectra_by_base ON spectra (base, h);
CREATE TABLE cuts (
    id TEXT PRIMARY KEY, fingerprint TEXT NOT NULL, num_cuts INTEGER NOT NULL,
    backend TEXT NOT NULL, lineage TEXT, bytes INTEGER NOT NULL,
    created_at REAL NOT NULL, last_used REAL NOT NULL);
CREATE TABLE leases (
    base TEXT PRIMARY KEY, token TEXT, pid INTEGER, host TEXT, fingerprint TEXT,
    variant TEXT, created_at REAL, heartbeat_at REAL, ttl REAL);
CREATE TABLE counters (name TEXT PRIMARY KEY, value INTEGER NOT NULL);
"""

COARSE = "coarse-r0.5-s0"


def _coarse_base(fingerprint):
    """The base id those builds gave a coarse entry: the variant was hashed in."""
    return _old_base(fingerprint, True, "auto", COARSE)


def _write_variant_catalog(root):
    """A store with one exact spectrum (fft:4, h=10), one coarse interval
    spectrum whose blob carries ``eigenvalues_lo``, and two leases."""
    recorder = _Recorder()
    BoundEngine(fft_graph(4), num_eigenvalues=10, cache=SpectrumCache(store=recorder)).spectral(4)
    [(fingerprint, values, seconds, kwargs)] = recorder.spectra
    (root / "blobs").mkdir(parents=True)
    exact = _entry_id(_old_base(fingerprint, kwargs["normalized"]), 10)
    coarse = _entry_id(_coarse_base(fingerprint), 10)
    np.savez_compressed(root / "blobs" / f"{exact}.npz",
                        eigenvalues=values, solve_seconds=np.float64(seconds))
    np.savez_compressed(root / "blobs" / f"{coarse}.npz", eigenvalues=values + 1.0,
                        eigenvalues_lo=values * 0.0, solve_seconds=np.float64(seconds))
    now = time.time()
    conn = sqlite3.connect(root / "catalog.sqlite")
    conn.executescript(_VARIANT_SCHEMA)
    with conn:
        for entry_id, variant in ((exact, "exact"), (coarse, COARSE)):
            conn.execute(
                "INSERT INTO spectra VALUES (?, ?, 10, ?, 1, 0, 'float64', ?, ?, 'fft', "
                "?, ?, ?, ?)",
                (entry_id, entry_id[:40], fingerprint, variant, kwargs["backend"], seconds,
                 (root / "blobs" / f"{entry_id}.npz").stat().st_size, now, now),
            )
        for base, owner, variant in ((_old_base(OTHER), OTHER, "exact"),
                                     (coarse[:40], fingerprint, COARSE)):
            conn.execute(
                "INSERT INTO leases VALUES (?, 'token', ?, 'elsewhere', ?, ?, ?, ?, 30.0)",
                (base, os.getpid(), owner, variant, now, now),
            )
        conn.execute("INSERT INTO counters VALUES ('solves_recorded', 2)")
    conn.close()
    return exact, coarse


def _catalog_state(root):
    """Everything a migration could change: schema, rows and blob names."""
    conn = sqlite3.connect(root / "catalog.sqlite")
    try:
        state = {
            table: conn.execute(f"SELECT * FROM {table} ORDER BY 1").fetchall()
            for table in ("spectra", "leases", "counters")
        }
        state["schema"] = conn.execute("SELECT sql FROM sqlite_master ORDER BY name").fetchall()
    finally:
        conn.close()
    state["blobs"] = _blob_names(root)
    return state


def _columns(root, table):
    conn = sqlite3.connect(root / "catalog.sqlite")
    try:
        return [row[1] for row in conn.execute(f"PRAGMA table_info({table})")]
    finally:
        conn.close()


class TestVariantMigration:
    def test_interval_rows_are_dropped_once_and_exact_ones_served(self, tmp_path):
        root = tmp_path / "spectra"
        exact, coarse = _write_variant_catalog(root)

        store = SpectrumStore(root)
        assert [entry["entry"] for entry in store.entries()] == [exact]
        assert _blob_names(root) == [f"{exact}.npz"]
        for table in ("spectra", "leases"):
            assert "variant" not in _columns(root, table)
        # Those builds also keyed on the assembly flag and every solver
        # option, so the re-key that follows clears the exact lease too.
        assert store.leases() == []
        assert store.stats()["solves_recorded"] == 2  # work done, not entries
        assert store.verify()["ok"]

        # The exact spectrum serves the bound without an eigensolve.
        query = BoundQuery(GraphSpec(family="fft", size_param=4), 4)
        service = BoundService(store=root, num_eigenvalues=10)
        [served] = service.submit([query])
        assert service.stats()["cache_misses"] == 0 and service.stats()["store_hits"] == 1
        [solved] = BoundService(store=None, num_eigenvalues=10).submit([query])
        assert served.bound == solved.bound and served.raw_value == solved.raw_value

        # A second open changes nothing.
        before = _catalog_state(root)
        SpectrumStore(root).verify()
        assert _catalog_state(root) == before

    def test_processes_opening_it_together_migrate_it_once(self, tmp_path):
        ctx = multiprocessing.get_context("fork")
        for attempt in range(5):
            root = tmp_path / f"spectra-{attempt}"
            exact, _ = _write_variant_catalog(root)
            barrier = ctx.Barrier(4)

            def first_open():
                barrier.wait(timeout=30)
                assert len(SpectrumStore(root)) == 1

            procs = [ctx.Process(target=first_open) for _ in range(4)]
            for proc in procs:
                proc.start()
            for proc in procs:
                proc.join(timeout=60)
            assert [proc.exitcode for proc in procs] == [0, 0, 0, 0]
            assert "variant" not in _columns(root, "spectra")
            assert [entry["entry"] for entry in SpectrumStore(root).entries()] == [exact]
            assert _blob_names(root) == [f"{exact}.npz"]

    def test_legacy_json_interval_entries_are_not_imported(self, tmp_path):
        graph = fft_graph(4)
        recorder = _Recorder()
        SpectrumCache(store=recorder).spectrum(graph, 8)
        root = tmp_path / "old-store"
        _write_json_layout(root, recorder, solves_recorded=2)
        index = json.loads((root / "index.json").read_text())
        [(exact, meta)] = index["entries"].items()
        coarse = _entry_id(_coarse_base(meta["fingerprint"]), 8)
        index["entries"][coarse] = {**meta, "base": coarse[:40], "variant": COARSE}
        (root / "index.json").write_text(json.dumps(index))
        (root / "blobs" / f"{coarse}.npz").write_bytes(
            (root / "blobs" / f"{exact}.npz").read_bytes()
        )

        store = SpectrumStore(root)
        assert [entry["entry"] for entry in store.entries()] == [exact]
        assert _blob_names(root) == [f"{exact}.npz"]
        assert store.verify()["ok"]


#: The catalog schema of the builds that keyed spectra on an assembly flag
#: and every solver option.
_SPARSE_SCHEMA = _VARIANT_SCHEMA.replace(" variant TEXT NOT NULL,", "").replace(
    " variant TEXT,", ""
)


class TestRekeyMigration:
    def test_rows_are_rekeyed_on_what_computed_them(self, tmp_path):
        """Two dense rows of one spectrum (written by ``auto`` and by
        ``dense``) become one key; rows of deleted backends go."""
        graph = fft_graph(6)
        fingerprint = graph.fingerprint()
        values = SpectrumCache().spectrum(graph, 10).eigenvalues
        root = tmp_path / "spectra"
        (root / "blobs").mkdir(parents=True)
        rows = {  # entry id -> (normalized, backend)
            _entry_id(_old_base(fingerprint, True, "auto"), 10): (True, "dense"),
            _entry_id(_old_base(fingerprint, True, "dense"), 10): (True, "dense"),
            _entry_id(_old_base(fingerprint, True, "lanczos"), 10): (True, "lanczos"),
            _entry_id(_old_base(fingerprint, False, "auto"), 10): (False, "unknown"),
        }
        conn = sqlite3.connect(root / "catalog.sqlite")
        conn.executescript(_SPARSE_SCHEMA)
        with conn:
            for entry_id, (normalized, backend) in rows.items():
                blob = root / "blobs" / f"{entry_id}.npz"
                np.savez_compressed(blob, eigenvalues=values, solve_seconds=np.float64(1.0))
                conn.execute(
                    "INSERT INTO spectra VALUES (?, ?, 10, ?, ?, 0, 'float64', ?, 'fft', "
                    "1.0, ?, 1.0, 1.0)",
                    (entry_id, entry_id[:40], fingerprint, int(normalized), backend,
                     blob.stat().st_size),
                )
            for base in (_old_base(fingerprint), "cuts-" + "0" * 40):
                conn.execute(
                    "INSERT INTO leases VALUES (?, 'token', ?, 'elsewhere', ?, ?, ?, 30.0)",
                    (base, os.getpid(), fingerprint, time.time(), time.time()),
                )
            conn.execute("INSERT INTO counters VALUES ('solves_recorded', 4)")
        conn.close()

        store = SpectrumStore(root)
        dense = sorted(entry for entry, (_, backend) in rows.items() if backend == "dense")
        assert [entry["entry"] for entry in store.entries()] == dense
        assert _blob_names(root) == [f"{entry}.npz" for entry in dense]
        assert "sparse" not in _columns(root, "spectra")
        assert [lease["lease"] for lease in store.leases()] == ["cuts-" + "0" * 40]
        assert store.stats()["solves_recorded"] == 4  # work done, not entries
        assert store.verify()["ok"]

        # Both spellings of the dense request read the re-keyed rows.
        for options in (None, EigenSolverOptions(method="dense")):
            cache = SpectrumCache(store=SpectrumStore(root))
            served = cache.spectrum(graph, 10, eig_options=options)
            assert cache.misses == 0 and served.backend == "dense"
            np.testing.assert_array_equal(served.eigenvalues, values)
        assert SpectrumStore(root).stats()["solves_recorded"] == 4


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
        store.put(FP, np.arange(3, dtype=float), 1.0)
        lease = store.acquire_lease(OTHER)  # its heartbeat shares the handle
        errors = []
        barrier = threading.Barrier(8)

        def worker(index):
            try:
                barrier.wait(timeout=30)
                for i in range(10):
                    store.put(f"{index}-{i}" * 8, np.arange(3, dtype=float), 1.0)
                    # A catalog lookup that reads no blob: np.load parses
                    # headers with ast.literal_eval, and at this switch
                    # interval CPython 3.11 can raise a spurious "AST
                    # constructor recursion depth mismatch" SystemError.
                    assert store.get(FP, 4) is None
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
        assert store.misses == 80 and store.puts == 81
        assert store.leases() == []
