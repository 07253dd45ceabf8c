"""Tests for the BoundService batch front-end and the ``python -m repro`` CLI."""

from __future__ import annotations

import json

import pytest

from repro.graphs.generators import fft_graph
from repro.graphs.io import save_graph_npz
from repro.runtime.cli import main
from repro.runtime.families import GraphSpec
from repro.runtime.service import BoundQuery, BoundService
from repro.runtime.store import SpectrumStore


class TestBoundService:
    def test_batch_answers_in_order(self):
        service = BoundService(num_eigenvalues=30)
        queries = [
            BoundQuery(GraphSpec(family="fft", size_param=4), 4),
            BoundQuery(GraphSpec(family="fft", size_param=3), 8),
            BoundQuery(GraphSpec(family="fft", size_param=4), 16),
        ]
        answers = service.submit(queries)
        assert [a.graph for a in answers] == ["fft:4", "fft:3", "fft:4"]
        assert [a.memory_size for a in answers] == [4, 8, 16]
        for a in answers:
            assert a.bound >= 0.0
            assert a.normalization == "normalized"

    def test_matches_engine_results(self):
        from repro.core.engine import BoundEngine
        from repro.solvers.spectrum_cache import SpectrumCache

        graph = fft_graph(5)
        expected = BoundEngine(graph, num_eigenvalues=100, cache=SpectrumCache())
        service = BoundService()
        answer = service.solve(BoundQuery(GraphSpec(family="fft", size_param=5), 8))
        assert answer.raw_value == pytest.approx(
            expected.spectral(8).raw_value, rel=1e-9
        )

    def test_same_graph_shares_one_eigensolve(self):
        service = BoundService(num_eigenvalues=30)
        spec = GraphSpec(family="fft", size_param=4)
        service.submit([BoundQuery(spec, M) for M in (4, 8, 16, 32)])
        stats = service.stats()
        assert stats["cache_misses"] == 1
        assert stats["engines_cached"] == 1
        assert stats["queries_served"] == 4

    def test_unnormalized_and_parallel_queries(self):
        service = BoundService(num_eigenvalues=30)
        spec = GraphSpec(family="fft", size_param=4)
        answers = service.submit(
            [
                BoundQuery(spec, 4, normalization="unnormalized"),
                BoundQuery(spec, 4, num_processors=4),
            ]
        )
        assert answers[0].normalization == "unnormalized"
        assert answers[1].num_processors == 4

    def test_warm_store_serves_batches_without_solving(self, tmp_path):
        store_root = tmp_path / "spectra"
        spec = GraphSpec(family="fft", size_param=4)
        cold = BoundService(store=store_root, num_eigenvalues=30)
        cold.submit([BoundQuery(spec, 8)])
        assert cold.stats()["cache_misses"] == 1
        warm = BoundService(store=store_root, num_eigenvalues=30)
        warm.submit([BoundQuery(spec, 8), BoundQuery(spec, 16)])
        stats = warm.stats()
        assert stats["cache_misses"] == 0
        assert stats["store_hits"] == 1

    def test_live_graph_and_path_refs(self, tmp_path):
        graph = fft_graph(3)
        path = tmp_path / "g.npz"
        save_graph_npz(graph, path)
        service = BoundService(num_eigenvalues=20)
        answers = service.submit(
            [BoundQuery(graph, 4), BoundQuery(str(path), 4)]
        )
        assert answers[0].bound == pytest.approx(answers[1].bound)
        # Identical structure -> the path-loaded graph reuses the spectrum.
        assert service.stats()["cache_misses"] == 1

    def test_batch_dedup_solves_once_and_fans_out(self):
        service = BoundService(num_eigenvalues=30)
        spec = GraphSpec(family="fft", size_param=4)
        query = BoundQuery(spec, 8)
        answers = service.submit([query, BoundQuery(spec, 16), query, query])
        assert answers[0] is answers[2] is answers[3]
        assert answers[1].memory_size == 16
        stats = service.stats()
        assert stats["deduped"] == 2
        assert stats["queries_served"] == 4

    def test_batch_dedup_respects_query_fields(self):
        service = BoundService(num_eigenvalues=30)
        spec = GraphSpec(family="fft", size_param=3)
        answers = service.submit(
            [
                BoundQuery(spec, 8),
                BoundQuery(spec, 8, normalization="unnormalized"),
                BoundQuery(spec, 8, num_processors=2),
                BoundQuery(spec, 8, method="convex-min-cut"),
            ]
        )
        assert service.stats()["deduped"] == 0
        assert len({id(a) for a in answers}) == 4

    def test_invalid_normalization_rejected(self):
        service = BoundService(num_eigenvalues=20)
        with pytest.raises(ValueError, match="normalization"):
            service.solve(
                BoundQuery(GraphSpec(family="fft", size_param=3), 4, normalization="bogus")
            )

    def test_engine_lru_bounded(self):
        service = BoundService(num_eigenvalues=20, max_engines=2)
        for size in (2, 3, 4):
            service.solve(BoundQuery(GraphSpec(family="fft", size_param=size), 4))
        assert service.stats()["engines_cached"] == 2


class TestCLI:
    def run_cli(self, *argv):
        return main(list(argv))

    def test_sweep_twice_is_solve_free_second_time(self, tmp_path, capsys):
        """CLI half of the acceptance criterion."""
        store = tmp_path / "spectra"
        out1 = tmp_path / "run1.json"
        out2 = tmp_path / "run2.json"
        args = [
            "sweep", "--family", "fft", "--sizes", "3", "4",
            "--memory-sizes", "4", "8", "--store", str(store),
        ]
        assert self.run_cli(*args, "--json", str(out1)) == 0
        assert self.run_cli(*args, "--json", str(out2)) == 0
        run1 = json.loads(out1.read_text())
        run2 = json.loads(out2.read_text())
        assert run1["num_eigensolves"] == 2
        assert run2["num_eigensolves"] == 0
        assert run1["num_rows"] == run2["num_rows"] == 4
        assert [r["bound"] for r in run1["rows"]] == [r["bound"] for r in run2["rows"]]
        stats = SpectrumStore(store).stats()
        assert stats["solves_recorded"] == run1["num_eigensolves"]

    def test_sweep_json_to_stdout(self, tmp_path, capsys):
        assert (
            self.run_cli(
                "sweep", "--family", "fft", "--sizes", "3",
                "--memory-sizes", "4", "--store", str(tmp_path / "s"),
                "--json", "-",
            )
            == 0
        )
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["num_rows"] == 1

    def test_sweep_pooled(self, tmp_path, capsys):
        assert (
            self.run_cli(
                "sweep", "--family", "fft", "--sizes", "3", "4",
                "--memory-sizes", "4", "--store", str(tmp_path / "s"),
                "--processes", "2", "--json", str(tmp_path / "r.json"),
            )
            == 0
        )
        payload = json.loads((tmp_path / "r.json").read_text())
        assert payload["processes"] == 2
        assert payload["num_eigensolves"] == 2

    def test_solve_table_and_json(self, tmp_path, capsys):
        store = str(tmp_path / "s")
        assert (
            self.run_cli(
                "solve", "--family", "fft", "--size", "4",
                "-M", "4", "8", "--store", store,
            )
            == 0
        )
        table = capsys.readouterr().out
        assert "fft:4" in table and "eigensolves: 1" in table
        assert (
            self.run_cli(
                "solve", "--family", "fft", "--size", "4",
                "-M", "4", "8", "--store", store, "--json",
            )
            == 0
        )
        answers = json.loads(capsys.readouterr().out)
        assert len(answers) == 2
        assert answers[0]["graph"] == "fft:4"

    def test_solve_from_saved_graph(self, tmp_path, capsys):
        path = tmp_path / "g.npz"
        save_graph_npz(fft_graph(3), path)
        assert (
            self.run_cli(
                "solve", "--graph", str(path), "-M", "4", "--no-store", "--json"
            )
            == 0
        )
        (answer,) = json.loads(capsys.readouterr().out)
        assert answer["num_vertices"] == 32

    def test_solve_requires_a_graph(self):
        with pytest.raises(SystemExit):
            self.run_cli("solve", "-M", "4", "--no-store")

    def test_cache_stats_list_clear(self, tmp_path, capsys):
        store = str(tmp_path / "s")
        self.run_cli(
            "sweep", "--family", "fft", "--sizes", "3",
            "--memory-sizes", "4", "--store", store,
        )
        capsys.readouterr()
        assert self.run_cli("cache", "stats", "--store", store) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["num_entries"] == 1 and stats["solves_recorded"] == 1
        assert self.run_cli("cache", "list", "--store", store) == 0
        assert "h000032" in capsys.readouterr().out
        assert self.run_cli("cache", "clear", "--store", store) == 0
        assert "removed 1 entries" in capsys.readouterr().out

    def test_cache_needs_store(self):
        with pytest.raises(SystemExit):
            self.run_cli("cache", "stats", "--no-store")

    def test_sweep_solver_and_dtype_flags(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        assert (
            self.run_cli(
                "sweep", "--family", "fft", "--sizes", "3", "4",
                "--memory-sizes", "4", "--store", str(tmp_path / "s"),
                "--solver", "lobpcg", "--dtype", "float32", "--json", str(out),
            )
            == 0
        )
        payload = json.loads(out.read_text())
        assert payload["num_eigensolves"] == 2
        assert len(payload["tasks"]) == 2
        for record in payload["tasks"]:
            assert record["backend"] == "lobpcg"
            assert record["dtype"] == "float32"
            assert record["solve_seconds"] >= 0.0
        # dtype/backend flow into the store key: a float64 run re-solves.
        out2 = tmp_path / "run2.json"
        assert (
            self.run_cli(
                "sweep", "--family", "fft", "--sizes", "3", "4",
                "--memory-sizes", "4", "--store", str(tmp_path / "s"),
                "--json", str(out2),
            )
            == 0
        )
        assert json.loads(out2.read_text())["num_eigensolves"] == 2

    def test_solve_solver_flag(self, tmp_path, capsys):
        assert (
            self.run_cli(
                "solve", "--family", "fft", "--size", "3", "-M", "4",
                "--no-store", "--solver", "lobpcg", "--json",
            )
            == 0
        )
        (answer,) = json.loads(capsys.readouterr().out)
        assert answer["bound"] >= 0.0
        # lanczos was a --solver choice in older builds.
        with pytest.raises(SystemExit):
            self.run_cli(
                "solve", "--family", "fft", "--size", "3", "-M", "4",
                "--no-store", "--solver", "lanczos",
            )

    def test_cache_verify_and_filtered_clear(self, tmp_path, capsys):
        store = str(tmp_path / "s")
        self.run_cli(
            "sweep", "--family", "fft", "--sizes", "3", "4",
            "--memory-sizes", "4", "--store", store,
        )
        capsys.readouterr()
        assert self.run_cli("cache", "verify", "--store", store) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] and report["entries_checked"] == 2
        # Break a blob, verify fails, --fix repairs.
        blobs = list((tmp_path / "s" / "blobs").glob("*.npz"))
        blobs[0].write_bytes(b"garbage")
        assert self.run_cli("cache", "verify", "--store", store) == 1
        capsys.readouterr()
        assert self.run_cli("cache", "verify", "--store", store, "--fix") == 0
        capsys.readouterr()
        assert self.run_cli("cache", "verify", "--store", store) == 0
        assert json.loads(capsys.readouterr().out)["ok"]
        # Filtered clear by family lineage.
        assert self.run_cli("cache", "clear", "--store", store, "--family", "nope") == 0
        assert "removed 0 entries" in capsys.readouterr().out
        assert self.run_cli("cache", "clear", "--store", store, "--family", "fft") == 0
        assert "removed 1 entries" in capsys.readouterr().out

    def test_store_env_var_respected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SPECTRUM_STORE", str(tmp_path / "env-store"))
        self.run_cli("sweep", "--family", "fft", "--sizes", "3", "--memory-sizes", "4")
        assert (tmp_path / "env-store" / "catalog.sqlite").exists()


class TestConvexMinCutCLI:
    def run_cli(self, *argv):
        return main(list(argv))

    def test_sweep_convex_cold_then_warm_is_flow_free(self, tmp_path):
        store = tmp_path / "spectra"
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = [
            "sweep", "--family", "fft", "--sizes", "3",
            "--memory-sizes", "4", "--methods", "spectral", "convex-min-cut",
            "--store", str(store),
        ]
        assert self.run_cli(*args, "--json", str(out1)) == 0
        assert self.run_cli(*args, "--json", str(out2)) == 0
        run1 = json.loads(out1.read_text())
        run2 = json.loads(out2.read_text())
        assert run1["num_flow_calls"] > 0
        assert run2["num_flow_calls"] == 0
        assert run2["num_eigensolves"] == 0
        assert [r["bound"] for r in run1["rows"]] == [r["bound"] for r in run2["rows"]]

    def test_sweep_mincut_backend_flag_in_task_records(self, tmp_path):
        args = [
            "sweep", "--family", "fft", "--sizes", "3",
            "--memory-sizes", "4", "--methods", "convex-min-cut",
            "--store", str(tmp_path / "s"),
        ]
        # --mincut-backend was a flag in older builds; max-flow is SciPy only.
        with pytest.raises(SystemExit):
            self.run_cli(*args, "--mincut-backend", "array-dinic")
        out = tmp_path / "run.json"
        assert self.run_cli(*args, "--json", str(out)) == 0
        payload = json.loads(out.read_text())
        (record,) = payload["tasks"]
        assert "flow_backend" not in record
        assert record["flow_calls"] > 0
        assert record["cut_seconds"] >= 0.0

    def test_solve_method_convex_min_cut(self, tmp_path, capsys):
        assert (
            self.run_cli(
                "solve", "--family", "fft", "--size", "4", "-M", "3", "8",
                "--method", "convex-min-cut", "--store", str(tmp_path / "s"),
                "--json",
            )
            == 0
        )
        answers = json.loads(capsys.readouterr().out)
        assert len(answers) == 2
        assert answers[0]["bound"] >= answers[1]["bound"] >= 0.0
        assert answers[0]["graph"] == "fft:4"

    def test_cache_stats_includes_cut_section(self, tmp_path, capsys):
        store = str(tmp_path / "s")
        self.run_cli(
            "sweep", "--family", "fft", "--sizes", "3", "--memory-sizes", "4",
            "--methods", "convex-min-cut", "--store", store,
        )
        capsys.readouterr()
        assert self.run_cli("cache", "stats", "--store", store) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["cuts"]["num_graphs"] == 1
        assert stats["cuts"]["flows_recorded"] > 0

    def test_cache_clear_removes_cut_tables_too(self, tmp_path, capsys):
        store = str(tmp_path / "s")
        self.run_cli(
            "sweep", "--family", "fft", "--sizes", "3", "--memory-sizes", "4",
            "--methods", "spectral", "convex-min-cut", "--store", store,
        )
        capsys.readouterr()
        assert self.run_cli("cache", "clear", "--store", store) == 0
        assert "removed 2 entries" in capsys.readouterr().out
        assert self.run_cli("cache", "stats", "--store", store) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["num_entries"] == 0 and stats["cuts"]["num_graphs"] == 0

    def test_cache_verify_covers_cut_tables(self, tmp_path, capsys):
        store = str(tmp_path / "s")
        self.run_cli(
            "sweep", "--family", "fft", "--sizes", "3", "--memory-sizes", "4",
            "--methods", "convex-min-cut", "--store", store,
        )
        capsys.readouterr()
        assert self.run_cli("cache", "verify", "--store", store) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] and report["cuts"]["entries_checked"] == 1
        # Corrupt the cut blob: verify fails, --fix repairs.
        (blob,) = list((tmp_path / "s" / "cuts").glob("*.npz"))
        blob.write_bytes(b"garbage")
        assert self.run_cli("cache", "verify", "--store", store) == 1
        capsys.readouterr()
        assert self.run_cli("cache", "verify", "--store", store, "--fix") == 0
        capsys.readouterr()
        assert self.run_cli("cache", "verify", "--store", store) == 0
        assert json.loads(capsys.readouterr().out)["ok"]

    def test_cache_clear_family_filter_covers_cut_tables(self, tmp_path, capsys):
        """A family clear must force a genuinely cold re-run: both the
        spectra and the cut tables of that lineage go."""
        store = str(tmp_path / "s")
        out = tmp_path / "rerun.json"
        args = [
            "sweep", "--family", "fft", "--sizes", "3", "--memory-sizes", "4",
            "--methods", "spectral", "convex-min-cut", "--store", store,
        ]
        self.run_cli(*args)
        capsys.readouterr()
        assert self.run_cli("cache", "clear", "--store", store, "--family", "fft") == 0
        assert "removed 2 entries" in capsys.readouterr().out
        self.run_cli(*args, "--json", str(out))
        rerun = json.loads(out.read_text())
        assert rerun["num_eigensolves"] == 1
        assert rerun["num_flow_calls"] > 0


class TestBoundServiceConvex:
    def test_convex_query_matches_direct_bound(self):
        from repro.baselines.convex_mincut import convex_min_cut_bound
        from repro.graphs.generators import fft_graph as _fft

        service = BoundService()
        answer = service.solve(
            BoundQuery(GraphSpec(family="fft", size_param=4), 3, method="convex-min-cut")
        )
        direct = convex_min_cut_bound(_fft(4), M=3)
        assert answer.bound == direct.value
        assert answer.normalization == "-"

    def test_repeat_convex_queries_share_one_engine(self):
        service = BoundService()
        spec = GraphSpec(family="fft", size_param=3)
        service.submit(
            [BoundQuery(spec, M, method="convex-min-cut") for M in (2, 4, 8)]
        )
        stats = service.stats()
        assert stats["mincut_engines_cached"] == 1
        first_flows = stats["flow_calls"]
        assert first_flows > 0
        service.solve(BoundQuery(spec, 16, method="convex-min-cut"))
        assert service.stats()["flow_calls"] == first_flows  # cached cuts

    def test_warm_store_convex_service_is_flow_free(self, tmp_path):
        store_root = tmp_path / "spectra"
        spec = GraphSpec(family="fft", size_param=3)
        cold = BoundService(store=store_root)
        cold.solve(BoundQuery(spec, 4, method="convex-min-cut"))
        assert cold.stats()["flow_calls"] > 0
        warm = BoundService(store=store_root)
        warm.solve(BoundQuery(spec, 4, method="convex-min-cut"))
        assert warm.stats()["flow_calls"] == 0

    def test_unknown_method_rejected(self):
        service = BoundService()
        with pytest.raises(ValueError, match="method"):
            service.solve(
                BoundQuery(GraphSpec(family="fft", size_param=3), 4, method="bogus")
            )

    def test_flow_calls_survive_engine_eviction(self):
        service = BoundService(max_engines=1)
        for size in (2, 3, 4):
            service.solve(
                BoundQuery(GraphSpec(family="fft", size_param=size), 2,
                           method="convex-min-cut")
            )
        stats = service.stats()
        assert stats["mincut_engines_cached"] == 1  # two engines evicted
        # The cumulative counter keeps the evicted engines' work.
        total_vertices_bound = sum((l + 1) * 2 ** l for l in (2, 3, 4))
        assert 0 < stats["flow_calls"] <= total_vertices_bound
