"""Tests for the persistent SpectrumStore and its two-tier cache wiring.

The contract: a spectrum solved anywhere (any process, any run) against a
store is never solved again by anyone using the same store — the in-memory
cache checks disk before eigensolving and publishes fresh solves back.
"""

from __future__ import annotations

import errno
import threading

import numpy as np
import pytest

from repro.core.engine import BoundEngine
from repro.graphs.generators import fft_graph, hypercube_graph
from repro.runtime.store import STORE_ENV_VAR, SpectrumStore, default_store_root
from repro.solvers.backend import EigenSolverOptions
from repro.solvers.spectrum_cache import SpectrumCache


@pytest.fixture
def store(tmp_path):
    return SpectrumStore(tmp_path / "spectra")


FP = "a" * 64  # an arbitrary fingerprint; the store treats it as opaque


def corrupt_catalog(store: SpectrumStore) -> None:
    """Overwrite the catalog file (closed first, so no WAL survives it)."""
    store._catalog.close()
    (store.root / "catalog.sqlite").write_text("{not json")


class TestStoreBasics:
    def test_put_get_round_trip(self, store):
        values = np.array([0.0, 0.5, 1.25])
        store.put(FP, values, 0.125)
        got = store.get(FP, 3)
        assert got is not None
        np.testing.assert_allclose(got.eigenvalues, values)
        assert got.solve_seconds == 0.125
        assert got.num_eigenvalues == 3

    def test_miss_returns_none(self, store):
        assert store.get(FP, 3) is None
        assert store.misses == 1 and store.hits == 0

    def test_longer_entry_serves_shorter_request(self, store):
        store.put(FP, np.arange(10, dtype=float), 1.0)
        got = store.get(FP, 4)
        assert got is not None
        assert got.num_eigenvalues == 10  # the full vector, caller slices
        np.testing.assert_allclose(got.eigenvalues[:4], [0, 1, 2, 3])

    def test_shorter_entry_does_not_serve_longer_request(self, store):
        store.put(FP, np.arange(4, dtype=float), 1.0)
        assert store.get(FP, 10) is None

    def test_key_includes_normalization_sparse_and_options(self, store):
        store.put(FP, np.arange(3, dtype=float), 1.0, normalized=True, sparse=False)
        assert store.get(FP, 3, normalized=False) is None
        assert store.get(FP, 3, sparse=True) is None
        assert store.get(FP, 3, eig_options=EigenSolverOptions(method="lobpcg")) is None
        assert store.get(FP, 3) is not None

    def test_distinct_fingerprints_do_not_collide(self, store):
        store.put(FP, np.arange(3, dtype=float), 1.0)
        assert store.get("b" * 64, 3) is None

    def test_persists_across_handles(self, tmp_path):
        root = tmp_path / "spectra"
        SpectrumStore(root).put(FP, np.arange(5, dtype=float), 2.0)
        reopened = SpectrumStore(root)
        got = reopened.get(FP, 5)
        assert got is not None and got.solve_seconds == 2.0
        assert len(reopened) == 1

    def test_eigenvalues_read_only(self, store):
        store.put(FP, np.arange(3, dtype=float), 1.0)
        values = store.get(FP, 3).eigenvalues
        with pytest.raises(ValueError):
            values[0] = 99.0

    def test_missing_blob_tolerated_and_entry_dropped(self, store):
        entry_id = store.put(FP, np.arange(3, dtype=float), 1.0)
        (store.root / "blobs" / f"{entry_id}.npz").unlink()
        assert store.get(FP, 3) is None
        assert len(store) == 0  # stale index entry was dropped

    def test_corrupt_blob_removed_and_next_candidate_served(self, store):
        big_id = store.put(FP, np.arange(10, dtype=float), 1.0)
        store.put(FP, np.arange(5, dtype=float), 1.0)
        (store.root / "blobs" / f"{big_id}.npz").write_bytes(b"garbage")
        # The corrupt 10-entry is dropped (index AND file) and the request is
        # served from the smaller-but-sufficient 5-entry.
        got = store.get(FP, 4)
        assert got is not None and got.num_eigenvalues == 5
        assert len(store) == 1
        assert not (store.root / "blobs" / f"{big_id}.npz").exists()

    def test_transient_read_error_is_a_miss_that_keeps_the_entry(
        self, store, monkeypatch
    ):
        # EMFILE/EIO/EACCES say nothing about the blob: only a missing or
        # malformed blob may drop its entry.
        entry_id = store.put(FP, np.arange(3, dtype=float), 1.0)
        real_load = np.load
        failures = [OSError(errno.EMFILE, "Too many open files")]

        def flaky_load(*args, **kwargs):
            if failures:
                raise failures.pop()
            return real_load(*args, **kwargs)

        monkeypatch.setattr(np, "load", flaky_load)
        assert store.get(FP, 3) is None
        assert len(store) == 1
        assert (store.root / "blobs" / f"{entry_id}.npz").exists()
        got = store.get(FP, 3)
        assert got is not None and got.num_eigenvalues == 3

    def test_corrupt_index_treated_as_empty(self, store):
        store.put(FP, np.arange(3, dtype=float), 1.0)
        corrupt_catalog(store)
        assert store.get(FP, 3) is None
        assert len(store) == 0

    def test_clear_removes_entries_and_counters(self, store):
        store.put(FP, np.arange(3, dtype=float), 1.0)
        store.put("b" * 64, np.arange(4, dtype=float), 1.0)
        assert store.clear() == 2
        assert len(store) == 0
        assert store.stats()["solves_recorded"] == 0
        assert not list((store.root / "blobs").glob("*.npz"))

    def test_stats(self, store):
        store.put(FP, np.arange(3, dtype=float), 1.0)
        store.put(FP, np.arange(8, dtype=float), 1.0)  # second h, same graph
        stats = store.stats()
        assert stats["num_entries"] == 2
        assert stats["num_graphs"] == 1
        assert stats["solves_recorded"] == 2
        assert stats["total_bytes"] > 0

    def test_entries_listing(self, store):
        store.put(FP, np.arange(3, dtype=float), 0.5, normalized=False)
        (entry,) = store.entries()
        assert entry["num_eigenvalues"] == 3
        assert entry["normalized"] is False
        assert entry["bytes"] > 0

    def test_duplicate_put_keeps_one_entry_but_counts_both_solves(self, store):
        store.put(FP, np.arange(3, dtype=float), 1.0)
        store.put(FP, np.arange(3, dtype=float), 2.0)
        assert len(store) == 1
        assert store.stats()["solves_recorded"] == 2

    def test_read_only_operations_do_not_create_store_dirs(self, tmp_path):
        # `cache stats` on a mistyped --store path must not scatter empty
        # store directories; only writes create the tree.
        root = tmp_path / "mistyped"
        store = SpectrumStore(root)
        assert store.get(FP, 3) is None
        assert store.stats()["num_entries"] == 0
        assert store.entries() == []
        assert store.clear() == 0
        assert not root.exists()
        store.put(FP, np.arange(3, dtype=float), 1.0)
        assert root.exists()

    def test_env_var_controls_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORE_ENV_VAR, str(tmp_path / "custom"))
        assert default_store_root() == tmp_path / "custom"
        assert SpectrumStore().root == tmp_path / "custom"

    def test_concurrent_writers_lose_nothing(self, tmp_path):
        root = tmp_path / "spectra"
        errors = []

        def writer(worker: int):
            try:
                handle = SpectrumStore(root)
                for i in range(8):
                    handle.put(f"{worker}-{i}" * 8, np.arange(3, dtype=float), 1.0)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(w,)) for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        store = SpectrumStore(root)
        assert len(store) == 32
        assert store.stats()["solves_recorded"] == 32


class TestTwoTierCache:
    def test_solve_publishes_to_store(self, store):
        cache = SpectrumCache(store=store)
        graph = fft_graph(3)
        cache.spectrum(graph, 5)
        assert cache.misses == 1
        assert len(store) == 1
        assert store.puts == 1

    def test_fresh_cache_hits_store_instead_of_solving(self, store):
        graph = fft_graph(3)
        first = SpectrumCache(store=store)
        solved = first.spectrum(graph, 5)
        warm = SpectrumCache(store=store)
        served = warm.spectrum(graph, 5)
        assert warm.misses == 0
        assert warm.hits == 1 and warm.store_hits == 1
        assert served.cache_hit
        assert served.solve_seconds == solved.solve_seconds
        np.testing.assert_allclose(served.eigenvalues, solved.eigenvalues)

    def test_store_hit_promoted_to_memory(self, store):
        graph = fft_graph(3)
        SpectrumCache(store=store).spectrum(graph, 8)
        warm = SpectrumCache(store=store)
        warm.spectrum(graph, 8)
        store_hits_after_first = warm.store_hits
        # Second lookup (even a shorter prefix) must not touch the disk tier.
        warm.spectrum(graph, 3)
        assert warm.store_hits == store_hits_after_first
        assert warm.hits == 2

    def test_prefix_served_across_runs(self, store):
        graph = fft_graph(3)
        SpectrumCache(store=store).spectrum(graph, 10)
        warm = SpectrumCache(store=store)
        small = warm.spectrum(graph, 4)
        assert warm.misses == 0
        assert small.eigenvalues.shape == (4,)

    def test_normalizations_stored_separately(self, store):
        graph = hypercube_graph(3)
        cold = SpectrumCache(store=store)
        cold.spectrum(graph, 4, normalized=True)
        cold.spectrum(graph, 4, normalized=False)
        warm = SpectrumCache(store=store)
        warm.spectrum(graph, 4, normalized=True)
        warm.spectrum(graph, 4, normalized=False)
        assert warm.misses == 0 and warm.store_hits == 2

    def test_clear_resets_store_hit_counter(self, store):
        graph = fft_graph(3)
        SpectrumCache(store=store).spectrum(graph, 4)
        warm = SpectrumCache(store=store)
        warm.spectrum(graph, 4)
        warm.clear()
        assert warm.store_hits == 0 and warm.hits == 0

    def test_storeless_cache_unchanged(self):
        cache = SpectrumCache()
        assert cache.store is None
        cache.spectrum(fft_graph(3), 4)
        assert cache.store_hits == 0


class TestEngineStoreParameter:
    def test_engine_store_round_trip(self, store):
        graph = fft_graph(4)
        cold = BoundEngine(graph, num_eigenvalues=20, store=store)
        r1 = cold.spectral(8)
        assert cold.num_eigensolves == 1
        warm = BoundEngine(graph, num_eigenvalues=20, store=store)
        r2 = warm.spectral(8)
        assert warm.num_eigensolves == 0
        assert r2.raw_value == pytest.approx(r1.raw_value, rel=1e-12)

    def test_engine_rejects_cache_and_store_together(self, store):
        with pytest.raises(ValueError, match="not both"):
            BoundEngine(fft_graph(3), cache=SpectrumCache(), store=store)


class TestCutStore:
    @pytest.fixture
    def cuts(self, tmp_path):
        from repro.runtime.store import CutStore

        return CutStore(tmp_path / "store")

    def test_miss_then_merge_then_hit(self, cuts):
        assert cuts.get("fp") is None
        assert cuts.misses == 1
        assert cuts.merge("fp", [3, 1], [7, 2], flow_calls=2) == 2
        table = cuts.get("fp")
        assert table.as_dict() == {1: 2, 3: 7}
        assert cuts.hits == 1 and cuts.puts == 1

    def test_merge_unions_and_counts_flows(self, cuts):
        cuts.merge("fp", [0, 1], [4, 5], flow_calls=2)
        cuts.merge("fp", [1, 2], [5, 6], flow_calls=1)
        assert cuts.get("fp").as_dict() == {0: 4, 1: 5, 2: 6}
        stats = cuts.stats()
        assert stats["flows_recorded"] == 3
        assert stats["num_graphs"] == 1 and stats["num_cuts"] == 3

    def test_tables_are_per_fingerprint(self, cuts):
        cuts.merge("aa", [0], [1])
        cuts.merge("bb", [0], [9])
        assert cuts.get("aa").as_dict() == {0: 1}
        assert cuts.get("bb").as_dict() == {0: 9}
        assert len(cuts) == 2

    def test_loaded_arrays_are_read_only(self, cuts):
        cuts.merge("fp", [0], [1])
        table = cuts.get("fp")
        with pytest.raises(ValueError):
            table.values[0] = 5

    def test_clear_all_and_filtered(self, cuts):
        cuts.merge("aaa1", [0], [1], flow_calls=1)
        cuts.merge("bbb2", [0], [2], flow_calls=1)
        assert cuts.clear(fingerprint_prefix="aaa") == 1
        assert cuts.get("bbb2") is not None
        # Filtered clears keep the work counter; a full clear resets it.
        assert cuts.stats()["flows_recorded"] == 2
        assert cuts.clear() == 1
        assert cuts.stats()["flows_recorded"] == 0

    def test_clear_filtered_by_lineage(self, cuts):
        cuts.merge("aaa1", [0], [1], lineage="fft")
        cuts.merge("bbb2", [0], [2], lineage="matmul")
        assert cuts.clear(lineage="nope") == 0
        assert cuts.clear(lineage="fft") == 1
        assert cuts.get("aaa1") is None
        assert cuts.get("bbb2") is not None

    def test_mismatched_merge_rejected(self, cuts):
        with pytest.raises(ValueError, match="equal length"):
            cuts.merge("fp", [0, 1], [1])

    def test_corrupt_blob_is_a_miss(self, cuts):
        cuts.merge("fp", [0], [1])
        blob = cuts.root / "cuts" / "fp.npz"
        blob.write_bytes(b"garbage")
        assert cuts.get("fp") is None

    def test_merge_does_not_inflate_lookup_counters(self, cuts):
        cuts.merge("fp", [0], [1])
        cuts.merge("fp", [1], [2])  # internal union read must not count
        assert cuts.hits == 0 and cuts.misses == 0
        cuts.get("fp")
        assert cuts.hits == 1 and cuts.misses == 0

    def test_verify_clean_store(self, cuts):
        cuts.merge("fp", [0, 1], [1, 2])
        report = cuts.verify()
        assert report["ok"] and report["entries_checked"] == 1
        assert not report["missing"] and not report["corrupt"]

    def test_verify_detects_and_fixes_corrupt_and_missing(self, cuts):
        cuts.merge("aa", [0], [1])
        cuts.merge("bb", [0], [2])
        (cuts.root / "cuts" / "aa.npz").write_bytes(b"garbage")
        (cuts.root / "cuts" / "bb.npz").unlink()
        report = cuts.verify()
        assert not report["ok"]
        assert report["corrupt"] == ["aa"] and report["missing"] == ["bb"]
        fixed = cuts.verify(fix=True)
        assert fixed["entries_removed"] == 2
        assert cuts.verify()["ok"]
        assert len(cuts) == 0

    def test_verify_detects_num_cuts_mismatch(self, cuts):
        import numpy as _np

        cuts.merge("fp", [0, 1], [1, 2])
        # Overwrite the blob with a shorter (valid-looking) table: the index
        # still says num_cuts == 2.
        _np.savez_compressed(
            cuts.root / "cuts" / "fp.npz",
            vertices=_np.array([0]), values=_np.array([1]),
        )
        report = cuts.verify()
        assert report["corrupt"] == ["fp"]

    def test_read_only_handle_creates_no_directories(self, tmp_path):
        from repro.runtime.store import CutStore

        root = tmp_path / "never-created"
        store = CutStore(root)
        assert store.get("fp") is None
        assert store.stats()["num_graphs"] == 0
        assert not root.exists()

    def test_concurrent_merges_do_not_lose_entries(self, cuts):
        import threading as _threading

        def writer(offset):
            cuts.merge("fp", [offset], [offset + 100], flow_calls=1)

        threads = [_threading.Thread(target=writer, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert cuts.get("fp").as_dict() == {i: i + 100 for i in range(8)}
        assert cuts.stats()["flows_recorded"] == 8

    def test_shares_root_with_spectrum_store(self, tmp_path):
        from repro.runtime.store import CutStore

        root = tmp_path / "store"
        spectra = SpectrumStore(root)
        cuts = CutStore(root)
        spectra.put("fp", np.array([0.0, 1.0]), 0.1)
        cuts.merge("fp", [0], [1])
        # Different indexes, blobs, locks — no interference.
        assert len(spectra) == 1 and len(cuts) == 1
        assert spectra.stats()["solves_recorded"] == 1
        assert cuts.stats()["flows_recorded"] == 0
