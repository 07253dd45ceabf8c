"""Tests for the sweep orchestrator, graph specs, and pooled execution.

The acceptance contract of the runtime subsystem: a family sweep run twice
against the same store performs eigensolves only on the first run, and
pooled execution produces exactly the rows the serial path produces.
"""

from __future__ import annotations

import sys
import time

import numpy as np
import pytest

from repro.analysis.sweep import sweep
from repro.graphs.generators import fft_graph, inner_product_graph
from repro.graphs.io import load_graph_npz, save_graph_npz
from repro.runtime.families import FAMILY_BUILDERS, GraphSpec, family_builder, resolve_graph
from repro.runtime.orchestrator import SweepOrchestrator, SweepTask
from repro.runtime.store import SpectrumStore
from repro.solvers.dense import TWO_STAGE_MIN

SIZES = [3, 4]
MEMORY_SIZES = [4, 8]
METHODS = ("spectral", "spectral-unnormalized")


def row_key(row):
    """The value-carrying fields of a row (timings excluded)."""
    return (
        row.family,
        row.size_param,
        row.num_vertices,
        row.num_edges,
        row.max_in_degree,
        row.memory_size,
        row.method,
        pytest.approx(row.bound, rel=1e-9, abs=1e-9),
        row.best_k,
    )


def record_key(record):
    """The schedule- and timing-free fields of a task record."""
    return (
        record.family,
        record.size_param,
        record.method,
        record.size_estimate,
        record.backend,
        record.num_eigensolves,
    )


#: The store the two builders below meet in; set per test (fork-started
#: pool workers inherit it).
_STORE_ROOT = None


def _lease_then_block(size_param):
    """Take the normalised fft spectrum's solve lease, as a worker solving
    it would hold it, then block for a minute.  Module-level, so a pool
    can pickle it."""
    graph = fft_graph(size_param)
    SpectrumStore(_STORE_ROOT).acquire_lease(graph.fingerprint(), normalized=True, backend="dense")
    time.sleep(60)
    return graph


def _missing_npz_once_leased(size_param):
    """Load a missing ``.npz`` once the other task holds its lease."""
    deadline = time.monotonic() + 30
    while not SpectrumStore(_STORE_ROOT).leases() and time.monotonic() < deadline:
        time.sleep(0.02)
    return load_graph_npz(f"{_STORE_ROOT}/missing.npz")


class TestFamilies:
    def test_registry_builders_are_generators(self):
        assert family_builder("fft") is fft_graph
        graph = family_builder("hypercube")(3)
        assert graph.num_vertices == 8

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown graph family"):
            family_builder("nope")

    def test_spec_from_family(self):
        spec = GraphSpec(family="fft", size_param=3)
        assert spec.describe() == "fft:3"
        assert spec.build().num_vertices == fft_graph(3).num_vertices

    def test_spec_from_npz_path(self, tmp_path):
        graph = inner_product_graph(3)
        path = tmp_path / "dot.npz"
        save_graph_npz(graph, path)
        spec = GraphSpec(path=str(path))
        rebuilt = spec.build()
        assert rebuilt.num_vertices == graph.num_vertices
        assert rebuilt.fingerprint() == graph.fingerprint()

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GraphSpec()
        with pytest.raises(ValueError):
            GraphSpec(family="fft", size_param=3, path="x.npz")
        with pytest.raises(ValueError):
            GraphSpec(family="fft")

    def test_resolve_graph_accepts_live_graph(self):
        graph = fft_graph(3)
        assert resolve_graph(graph) is graph

    def test_every_registered_family_builds(self):
        for name in FAMILY_BUILDERS:
            # 4 is valid for every registry family (strassen needs a power
            # of two).
            graph = family_builder(name)(4)
            assert graph.num_vertices > 0


class TestOrchestrator:
    def test_serial_matches_legacy_sweep_rows(self):
        legacy = sweep("fft", fft_graph, SIZES, MEMORY_SIZES, methods=METHODS,
                       num_eigenvalues=30)
        report = SweepOrchestrator(num_eigenvalues=30).run_family(
            "fft", fft_graph, SIZES, MEMORY_SIZES, methods=METHODS
        )
        assert [row_key(r) for r in report.rows] == [row_key(r) for r in legacy]
        assert report.num_eigensolves == 2 * len(SIZES)

    def test_pooled_matches_serial(self, tmp_path):
        serial = SweepOrchestrator(num_eigenvalues=30).run_family(
            "fft", fft_graph, SIZES, MEMORY_SIZES, methods=METHODS
        )
        pooled = SweepOrchestrator(
            store=tmp_path / "spectra", processes=2, num_eigenvalues=30
        ).run_family("fft", fft_graph, SIZES, MEMORY_SIZES, methods=METHODS)
        assert [row_key(r) for r in pooled.rows] == [row_key(r) for r in serial.rows]
        assert pooled.processes == 2
        # One task per (graph, method).
        assert len(pooled.tasks) == len(SIZES) * len(METHODS)

    def test_pooled_equals_serial_above_the_two_stage_crossover(self, tmp_path):
        """fft:7 (n = 1,024) gets its spectra from the two-stage dense
        solver in the workers and in-process, at this host's default BLAS
        threads: the same floats either way."""
        assert fft_graph(7).num_vertices >= TWO_STAGE_MIN
        runs = {}
        for processes in (1, 2):
            root = tmp_path / f"spectra-{processes}"
            runs[processes] = (root, SweepOrchestrator(
                store=root, processes=processes, num_eigenvalues=100
            ).run_family("fft", fft_graph, [3, 7], [3, 4], methods=METHODS))
        (serial_root, serial), (pooled_root, pooled) = runs[1], runs[2]
        fields = lambda r: (r.family, r.size_param, r.method, r.memory_size, r.bound, r.best_k)
        assert [fields(r) for r in pooled.rows] == [fields(r) for r in serial.rows]
        assert any(r.bound > 0 for r in pooled.rows if r.size_param == 7)
        fingerprint = fft_graph(7).fingerprint()
        for normalized in (True, False):
            spectra = [SpectrumStore(root).get(fingerprint, 100, normalized=normalized)
                       for root in (serial_root, pooled_root)]
            np.testing.assert_array_equal(spectra[0].eigenvalues, spectra[1].eigenvalues)

    def test_a_failed_task_stops_a_pooled_sweep(self, tmp_path, monkeypatch):
        """The first failed task cancels the rest and terminates the
        workers, instead of raising once the running tasks end (here, in
        a minute).  The lease the blocked worker held dies with it."""
        root = tmp_path / "spectra"
        monkeypatch.setattr(sys.modules[__name__], "_STORE_ROOT", str(root))
        tasks = [
            SweepTask(family="blocking", size_param=4, builder=_lease_then_block),
            SweepTask(family="missing", size_param=1, builder=_missing_npz_once_leased),
        ]
        start = time.monotonic()
        with pytest.raises(FileNotFoundError):
            SweepOrchestrator(store=root, processes=2, num_eigenvalues=10).run(
                tasks, MEMORY_SIZES
            )
        assert time.monotonic() - start < 10
        # The terminated worker held a lease; no one holds it now.
        assert SpectrumStore(root).leases() == []

        start = time.monotonic()
        report = SweepOrchestrator(store=root, processes=2, num_eigenvalues=10).run_family(
            "fft", fft_graph, [3, 4], MEMORY_SIZES
        )
        assert time.monotonic() - start < 10
        assert report.num_eigensolves == 2 and report.num_rows == 4
        assert SpectrumStore(root).leases() == []

    def test_second_run_against_same_store_is_solve_free(self, tmp_path):
        """The PR's acceptance criterion, at test scale."""
        store_root = tmp_path / "spectra"
        cold = SweepOrchestrator(store=store_root, num_eigenvalues=30).run_family(
            "fft", fft_graph, SIZES, MEMORY_SIZES, methods=METHODS
        )
        assert cold.num_eigensolves == 2 * len(SIZES)
        warm = SweepOrchestrator(store=store_root, num_eigenvalues=30).run_family(
            "fft", fft_graph, SIZES, MEMORY_SIZES, methods=METHODS
        )
        assert warm.num_eigensolves == 0
        assert [row_key(r) for r in warm.rows] == [row_key(r) for r in cold.rows]
        assert SpectrumStore(store_root).stats()["solves_recorded"] == 2 * len(SIZES)

    def test_pooled_warm_run_is_solve_free(self, tmp_path):
        store_root = tmp_path / "spectra"
        SweepOrchestrator(store=store_root, processes=2, num_eigenvalues=30).run_family(
            "fft", fft_graph, SIZES, MEMORY_SIZES, methods=METHODS
        )
        warm = SweepOrchestrator(
            store=store_root, processes=2, num_eigenvalues=30
        ).run_family("fft", fft_graph, SIZES, MEMORY_SIZES, methods=METHODS)
        assert warm.num_eigensolves == 0

    def test_run_specs_rehydrates_from_npz(self, tmp_path):
        graph = fft_graph(3)
        path = tmp_path / "fft3.npz"
        save_graph_npz(graph, path)
        specs = [GraphSpec(path=str(path)), GraphSpec(family="fft", size_param=4)]
        report = SweepOrchestrator(num_eigenvalues=30).run_specs(
            specs, MEMORY_SIZES, methods=("spectral",)
        )
        families = {r.family for r in report.rows}
        assert families == {"fft3.npz", "fft:4"}
        # The npz graph is structurally an fft(3): same bounds as the builder.
        direct = SweepOrchestrator(num_eigenvalues=30).run_family(
            "fft", fft_graph, [3], MEMORY_SIZES, methods=("spectral",)
        )
        npz_rows = [r for r in report.rows if r.family == "fft3.npz"]
        assert [r.bound for r in npz_rows] == [r.bound for r in direct.rows]

    def test_family_registry_used_when_builder_omitted(self):
        report = SweepOrchestrator(num_eigenvalues=20).run_family(
            "fft", None, [3], MEMORY_SIZES, methods=("spectral",)
        )
        assert len(report.rows) == len(MEMORY_SIZES)

    def test_task_validation(self):
        with pytest.raises(ValueError):
            SweepTask(family="fft", size_param=3)
        with pytest.raises(ValueError):
            SweepTask(
                family="fft",
                size_param=3,
                builder=fft_graph,
                spec=GraphSpec(family="fft", size_param=3),
            )

    def test_invalid_processes_rejected(self):
        with pytest.raises(ValueError, match="processes"):
            SweepOrchestrator(processes=0)

    def test_unknown_method_rejected_before_any_work(self):
        # Even with an empty task list the typo must fail loudly.
        with pytest.raises(ValueError, match="unknown method"):
            SweepOrchestrator().run([], [4], methods=("spectrl",))
        with pytest.raises(ValueError, match="unknown method"):
            sweep("fft", fft_graph, [], [4], methods=("spectrl",))

    def test_pooled_largest_first_matches_serial(self, tmp_path):
        """CI contract: largest-first pooled rows are identical to serial."""
        sizes = [5, 3, 4]  # deliberately not sorted
        serial = SweepOrchestrator(num_eigenvalues=30).run_family(
            "fft", fft_graph, sizes, MEMORY_SIZES, methods=METHODS
        )
        pooled = SweepOrchestrator(
            store=tmp_path / "spectra", processes=2, num_eigenvalues=30
        ).run_family("fft", fft_graph, sizes, MEMORY_SIZES, methods=METHODS)
        assert [row_key(r) for r in pooled.rows] == [row_key(r) for r in serial.rows]
        # The schedule itself is largest-first: ranks ascend as estimates
        # descend (ties broken by task order).
        records = pooled.tasks
        by_rank = sorted(records, key=lambda r: r.schedule_rank)
        estimates = [r.size_estimate for r in by_rank]
        assert estimates == sorted(estimates, reverse=True)
        assert estimates[0] == max(r.size_estimate for r in records)
        # Pool workers run the serial loop's task function: apart from
        # timings and the schedule, every record matches its serial twin.
        assert [record_key(r) for r in records] == [
            record_key(r) for r in serial.tasks
        ]

    def test_task_records_carry_backend_and_size_estimate(self, tmp_path):
        report = SweepOrchestrator(num_eigenvalues=20).run_family(
            "fft", fft_graph, [3, 4], MEMORY_SIZES, methods=("spectral",)
        )
        assert len(report.tasks) == 2
        for record in report.tasks:
            assert record.method == "spectral"
            assert record.backend == "dense"  # auto resolves dense at this scale
            fields = record.as_dict()
            assert "dtype" not in fields and "methods" not in fields
            assert record.num_eigensolves >= 0
            assert record.solve_seconds >= 0.0
            assert record.size_estimate == (record.size_param + 1) * 2**record.size_param

    def test_tasks_of_one_graph_share_its_build(self):
        built = []

        def builder(size):
            built.append(size)
            return fft_graph(size)

        report = SweepOrchestrator(num_eigenvalues=20).run_family(
            "fft", builder, SIZES, MEMORY_SIZES, methods=METHODS
        )
        assert len(report.tasks) == len(SIZES) * len(METHODS)
        assert built == SIZES

    def test_deleted_scheduling_knobs_are_rejected(self):
        # Largest-first with one convex chunk per worker is the only pooled
        # schedule; the knobs that changed it are gone.
        for knob, value in (
            ("split_methods", False),
            ("largest_first", False),
            ("convex_chunks", 3),
        ):
            with pytest.raises(TypeError):
                SweepOrchestrator(processes=2, **{knob: value})

    def test_report_summary_shape(self, tmp_path):
        report = SweepOrchestrator(store=tmp_path / "s", num_eigenvalues=20).run_family(
            "fft", fft_graph, [3], MEMORY_SIZES, methods=("spectral",)
        )
        summary = report.summary()
        assert summary["num_rows"] == report.num_rows == len(MEMORY_SIZES)
        assert summary["store_root"] == str(tmp_path / "s")
        assert summary["processes"] == 1


class TestConvexMinCutOrchestration:
    CONVEX_METHODS = ("spectral", "convex-min-cut")

    def test_serial_convex_rows_match_legacy_sweep(self):
        legacy = sweep(
            "fft", fft_graph, SIZES, MEMORY_SIZES, methods=self.CONVEX_METHODS,
            num_eigenvalues=30,
        )
        report = SweepOrchestrator(num_eigenvalues=30).run_family(
            "fft", fft_graph, SIZES, MEMORY_SIZES, methods=self.CONVEX_METHODS
        )
        assert [row_key(r) for r in report.rows] == [row_key(r) for r in legacy]
        assert report.num_flow_calls > 0

    def test_pooled_chunked_convex_matches_serial(self, tmp_path):
        serial = SweepOrchestrator(num_eigenvalues=30).run_family(
            "fft", fft_graph, SIZES, MEMORY_SIZES, methods=self.CONVEX_METHODS
        )
        pooled = SweepOrchestrator(
            store=tmp_path / "s", processes=2, num_eigenvalues=30
        ).run_family("fft", fft_graph, SIZES, MEMORY_SIZES, methods=self.CONVEX_METHODS)
        assert [row_key(r) for r in pooled.rows] == [row_key(r) for r in serial.rows]
        # Each graph's convex task split into one chunk per worker, scheduled
        # alongside the spectral tasks.
        convex_records = [r for r in pooled.tasks if r.method == "convex-min-cut"]
        assert len(convex_records) == 2 * len(SIZES)
        assert {r.num_chunks for r in convex_records} == {2}
        assert sorted(r.chunk_index for r in convex_records) == [0, 0, 1, 1]
        assert sum(r.flow_calls for r in convex_records) > 0
        spectral_records = [r for r in pooled.tasks if r.method == "spectral"]
        assert all(r.flow_calls == 0 for r in spectral_records)

    def test_warm_store_run_is_flow_free(self, tmp_path):
        store_root = tmp_path / "s"
        cold = SweepOrchestrator(store=store_root, num_eigenvalues=30).run_family(
            "fft", fft_graph, SIZES, MEMORY_SIZES, methods=self.CONVEX_METHODS
        )
        assert cold.num_flow_calls > 0
        warm = SweepOrchestrator(store=store_root, num_eigenvalues=30).run_family(
            "fft", fft_graph, SIZES, MEMORY_SIZES, methods=self.CONVEX_METHODS
        )
        assert warm.num_flow_calls == 0
        assert warm.num_eigensolves == 0
        assert [row_key(r) for r in warm.rows] == [row_key(r) for r in cold.rows]

    def test_pooled_warm_store_run_is_flow_free(self, tmp_path):
        store_root = tmp_path / "s"
        kwargs = dict(store=store_root, processes=2, num_eigenvalues=30)
        SweepOrchestrator(**kwargs).run_family(
            "fft", fft_graph, SIZES, MEMORY_SIZES, methods=self.CONVEX_METHODS
        )
        warm = SweepOrchestrator(**kwargs).run_family(
            "fft", fft_graph, SIZES, MEMORY_SIZES, methods=self.CONVEX_METHODS
        )
        assert warm.num_flow_calls == 0

    def test_mincut_backend_selection_flows_to_records(self):
        # Max-flow always runs on SciPy: there is no backend to select, and
        # records carry the flow work, not a backend id.
        with pytest.raises(TypeError):
            SweepOrchestrator(num_eigenvalues=30, mincut_backend="array-dinic")
        report = SweepOrchestrator(num_eigenvalues=30).run_family(
            "fft", fft_graph, [3], MEMORY_SIZES, methods=("convex-min-cut",)
        )
        (record,) = report.tasks
        assert "flow_backend" not in record.as_dict()
        assert record.flow_calls > 0
        assert record.cut_seconds > 0.0

    def test_summary_reports_flow_calls(self):
        report = SweepOrchestrator(num_eigenvalues=30).run_family(
            "fft", fft_graph, [3], MEMORY_SIZES, methods=("convex-min-cut",)
        )
        assert report.summary()["num_flow_calls"] == report.num_flow_calls > 0


class TestBlasPinning:
    def test_initializer_pins_unset_vars(self, monkeypatch):
        from repro.runtime.orchestrator import (
            BLAS_THREAD_ENV_VARS,
            pin_worker_blas_threads,
        )

        for name in BLAS_THREAD_ENV_VARS:
            # setenv first so monkeypatch records the original state (and
            # removes the pinned value again on teardown), then delenv to
            # present the "unset" case to the initializer.
            monkeypatch.setenv(name, "sentinel")
            monkeypatch.delenv(name)
        pin_worker_blas_threads()
        import os

        assert all(os.environ[name] == "1" for name in BLAS_THREAD_ENV_VARS)

    def test_initializer_respects_explicit_overrides(self, monkeypatch):
        from repro.runtime.orchestrator import pin_worker_blas_threads

        monkeypatch.setenv("OMP_NUM_THREADS", "4")
        pin_worker_blas_threads()
        import os

        assert os.environ["OMP_NUM_THREADS"] == "4"


class TestSweepFunctionIntegration:
    def test_sweep_with_processes_and_store(self, tmp_path):
        store_root = tmp_path / "spectra"
        rows = sweep(
            "fft",
            fft_graph,
            SIZES,
            MEMORY_SIZES,
            methods=("spectral",),
            num_eigenvalues=30,
            processes=2,
            store=store_root,
        )
        serial = sweep(
            "fft", fft_graph, SIZES, MEMORY_SIZES, methods=("spectral",),
            num_eigenvalues=30,
        )
        assert [row_key(r) for r in rows] == [row_key(r) for r in serial]
        assert len(SpectrumStore(store_root)) == len(SIZES)
