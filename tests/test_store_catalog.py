"""Tests for the sqlite3 catalog under a store directory.

Three concerns beyond the store API itself: the write path survives a crash
at any step (a dead process between blob write and insert, a writer killed
inside its transaction, a full disk); a store written by an older build
(JSON indexes) is imported once, with its counters; and a handle stays
usable across ``fork`` and between threads.
"""

from __future__ import annotations

import dataclasses
import errno
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
from repro.graphs.generators import fft_graph
from repro.runtime.store import CutStore, SpectrumStore, _base_id, _entry_id
from repro.solvers.backend import EigenSolverOptions
from repro.solvers.spectrum_cache import SpectrumCache

FP = "a" * 64
OTHER = "b" * 64


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

    lease_ttl = 0.0

    def __init__(self):
        self.spectra = []
        self.cuts = []

    def get(self, *args, **kwargs):
        return None

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
        options = kwargs["eig_options"] or EigenSolverOptions()
        base = _base_id(fingerprint, kwargs["normalized"], kwargs["sparse"], options)
        entry_id = _entry_id(base, len(values))
        np.savez_compressed(
            root / "blobs" / f"{entry_id}.npz",
            eigenvalues=values, solve_seconds=np.float64(seconds),
        )
        entries[entry_id] = {
            "base": base, "h": len(values), "fingerprint": fingerprint,
            "normalized": kwargs["normalized"], "sparse": kwargs["sparse"],
            "options": dataclasses.asdict(options), "variant": "exact",
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
