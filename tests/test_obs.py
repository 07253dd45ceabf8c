"""Tests for :mod:`repro.obs` — tracing, no-op guarantees, pool propagation.

The load-bearing contracts: (1) with no tracer configured the whole
observability surface is a shared no-op (zero file writes, metrics
untouched by span calls); (2) a pooled sweep produces ONE coherent trace
tree — worker spans re-root under the parent sweep span, shards merge
losslessly into the main JSONL file, and the merge happens even when a
worker task fails; (3) the JSON surfaces (``sweep --json`` task records,
HTTP answers) carry trace/span ids that resolve into that tree.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
import urllib.request

import pytest

from repro import obs
from repro.graphs.generators import fft_graph
from repro.obs.report import build_trees, render_report, report_as_json, self_times
from repro.runtime.families import GraphSpec
from repro.runtime.orchestrator import SweepOrchestrator
from repro.runtime.service import BoundService
from repro.server.runner import BoundServer
from repro.solvers.spectrum_cache import SpectrumCache

NUM_EIGENVALUES = 20


@pytest.fixture(autouse=True)
def _tracing_off_after():
    """Every test leaves the process in the default (disabled) state."""
    yield
    obs.disable()


def read_spans(path):
    return obs.load_spans(str(path))


# ---------------------------------------------------------------------------
# tracer core
# ---------------------------------------------------------------------------
class TestTracer:
    def test_nested_spans_share_trace_and_link_parents(self, tmp_path):
        path = tmp_path / "t.jsonl"
        obs.configure(str(path))
        with obs.span("outer", kind="test") as outer:
            with obs.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                ctx = obs.current_context()
                assert ctx.span_id == inner.span_id
        obs.disable()
        spans = read_spans(path)
        assert [s["name"] for s in spans] == ["inner", "outer"]  # finish order
        inner_rec, outer_rec = spans
        assert inner_rec["trace_id"] == outer_rec["trace_id"]
        assert inner_rec["parent_id"] == outer_rec["span_id"]
        assert outer_rec["parent_id"] is None
        assert outer_rec["attrs"] == {"kind": "test"}
        assert outer_rec["pid"] == os.getpid()
        assert outer_rec["wall_seconds"] >= inner_rec["wall_seconds"] >= 0.0
        assert all(s["status"] == "ok" for s in spans)

    def test_sibling_spans_get_distinct_ids(self, tmp_path):
        obs.configure(str(tmp_path / "t.jsonl"))
        with obs.span("root"):
            with obs.span("a") as a:
                pass
            with obs.span("b") as b:
                pass
        assert a.span_id != b.span_id
        assert a.trace_id == b.trace_id

    def test_exception_marks_span_error_and_propagates(self, tmp_path):
        path = tmp_path / "t.jsonl"
        obs.configure(str(path))
        with pytest.raises(ValueError):
            with obs.span("doomed"):
                raise ValueError("boom")
        obs.disable()
        [record] = read_spans(path)
        assert record["status"] == "error"

    def test_set_attr_lands_in_record(self, tmp_path):
        path = tmp_path / "t.jsonl"
        obs.configure(str(path))
        with obs.span("solve", backend=None) as active:
            active.set_attr(backend="dense")
        obs.disable()
        [record] = read_spans(path)
        assert record["attrs"]["backend"] == "dense"

    def test_ring_buffer_holds_recent_spans(self):
        obs.configure(None)  # ring buffer only, no file sink
        with obs.span("only"):
            pass
        [record] = obs.recent_spans()
        assert record.name == "only"

    def test_current_context_none_when_idle(self):
        obs.configure(None)
        assert obs.current_context() is None


# ---------------------------------------------------------------------------
# no-op mode
# ---------------------------------------------------------------------------
class TestDisabled:
    def test_span_is_one_shared_noop_object(self):
        obs.disable()
        assert not obs.enabled()
        first = obs.span("eigensolve", fingerprint="abc")
        second = obs.span("mincut")
        assert first is second  # no per-call allocation on the hot path
        with first as active:
            active.set_attr(backend="dense")
            assert active.trace_id is None and active.span_id is None
        assert obs.current_context() is None
        assert obs.recent_spans() == []

    def test_disabled_sweep_writes_no_trace_files(self, tmp_path, monkeypatch):
        obs.disable()
        monkeypatch.chdir(tmp_path)
        report = SweepOrchestrator(store=None, num_eigenvalues=NUM_EIGENVALUES).run_family(
            "fft", None, [3], [4]
        )
        assert report.num_rows == 1
        assert list(tmp_path.iterdir()) == []  # zero JSONL (or any) writes
        assert obs.recent_spans() == []
        assert all(t.trace_id is None and t.span_id is None for t in report.tasks)

    def test_noop_spans_leave_metrics_unchanged(self):
        obs.disable()
        before = obs.global_registry().snapshot()
        for _ in range(100):
            with obs.span("eigensolve", fingerprint=None, h=100) as active:
                active.set_attr(backend="dense")
        assert obs.global_registry().snapshot() == before


# ---------------------------------------------------------------------------
# eigensolve spans
# ---------------------------------------------------------------------------
class TestEigensolveSpan:
    def test_iterative_solves_record_iterations_and_residual(self, tmp_path):
        """An ``amg`` solve puts its LOBPCG iteration count and largest
        final residual on its span and in the iterations histogram; an
        exact (dense) solve records neither."""
        iterations = obs.global_registry().get("repro_eigensolve_iterations")
        before = {b: iterations.count(backend=b) for b in ("amg", "dense")}
        path = tmp_path / "t.jsonl"
        obs.configure(str(path))
        cache = SpectrumCache()
        for solver in ("amg", "dense"):
            cache.spectrum(fft_graph(8), 16, normalized=False, solver=solver)
        obs.disable()
        solves = {s["attrs"]["backend"]: s["attrs"]
                  for s in read_spans(path) if s["name"] == "eigensolve"}
        assert set(solves) == {"amg", "dense"}
        assert solves["amg"]["iterations"] > 0
        assert math.isfinite(solves["amg"]["max_residual"])
        assert "iterations" not in solves["dense"]
        assert "max_residual" not in solves["dense"]
        assert iterations.count(backend="amg") == before["amg"] + 1
        assert iterations.count(backend="dense") == before["dense"]


# ---------------------------------------------------------------------------
# cross-process propagation
# ---------------------------------------------------------------------------
class TestPoolPropagation:
    def run_pooled(self, tmp_path, **kwargs):
        path = tmp_path / "trace.jsonl"
        obs.configure(str(path))
        orchestrator = SweepOrchestrator(
            store=tmp_path / "spectra",
            processes=2,
            num_eigenvalues=NUM_EIGENVALUES,
            **kwargs,
        )
        report = orchestrator.run_family("fft", None, [3, 4], [4, 8])
        obs.disable()
        return path, report

    def test_worker_spans_re_root_under_the_sweep_span(self, tmp_path):
        path, report = self.run_pooled(tmp_path)
        spans = read_spans(path)
        assert len({s["trace_id"] for s in spans}) == 1  # one coherent trace
        sweeps = [s for s in spans if s["name"] == "sweep"]
        assert len(sweeps) == 1
        tasks = [s for s in spans if s["name"] == "task"]
        assert len(tasks) == len(report.tasks)
        assert all(t["parent_id"] == sweeps[0]["span_id"] for t in tasks)
        # Tasks ran in pool workers, not in this process.
        assert all(t["pid"] != sweeps[0]["pid"] for t in tasks)
        task_ids = {t["span_id"] for t in tasks}
        solves = [s for s in spans if s["name"] == "eigensolve"]
        assert solves and all(s["parent_id"] in task_ids for s in solves)

    def test_shard_merge_is_lossless(self, tmp_path):
        path, report = self.run_pooled(tmp_path)
        leftovers = [n for n in os.listdir(tmp_path) if ".shard-" in n]
        assert leftovers == []  # every shard folded into the main file
        spans = read_spans(path)
        # Each task span written by a worker made it into the merged file,
        # and the ids the TaskRecords advertise resolve against it.
        ids = {s["span_id"] for s in spans}
        for record in report.tasks:
            assert record.trace_id == spans[0]["trace_id"]
            assert record.span_id in ids

    def test_spans_survive_task_failure(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        obs.configure(str(path))
        orchestrator = SweepOrchestrator(
            store=None, processes=2, num_eigenvalues=NUM_EIGENVALUES
        )
        specs = [
            GraphSpec(family="fft", size_param=3),
            GraphSpec(path=str(tmp_path / "no-such-graph.npz")),
        ]
        with pytest.raises(Exception):
            orchestrator.run_specs(specs, [4])
        obs.disable()
        spans = read_spans(path)
        # The failing worker's span was still recorded (status=error) and
        # merged; the sweep span carries the error too.
        assert any(s["name"] == "task" and s["status"] == "error" for s in spans)
        assert any(s["name"] == "sweep" and s["status"] == "error" for s in spans)
        assert [n for n in os.listdir(tmp_path) if ".shard-" in n] == []

    def test_worker_configure_primitives(self, tmp_path):
        base = str(tmp_path / "trace.jsonl")
        parent = obs.TraceContext(trace_id="t" * 16, span_id="s" * 16)
        obs.worker_configure(parent, base)
        with obs.span("task") as active:
            assert active.trace_id == parent.trace_id
            assert active.parent_id == parent.span_id
        shard = obs.shard_path(base)
        assert os.path.exists(shard)
        obs.disable()
        merged = obs.merge_shards(base, base)
        assert merged == 1
        assert not os.path.exists(shard)
        assert read_spans(base)[0]["trace_id"] == parent.trace_id
        # parent=None silences the worker entirely.
        obs.worker_configure(None, base)
        assert not obs.enabled()


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------
def synthetic_span(name, span_id, parent_id, start, wall, cpu=None, **attrs):
    return {
        "trace_id": "deadbeef00000000",
        "span_id": span_id,
        "parent_id": parent_id,
        "name": name,
        "pid": 1234,
        "start_unix": start,
        "wall_seconds": wall,
        "cpu_seconds": cpu if cpu is not None else wall,
        "status": "ok",
        "attrs": attrs,
    }


class TestReport:
    def test_tree_and_self_time(self):
        spans = [
            synthetic_span("sweep", "root", None, 0.0, 1.0),
            synthetic_span("task", "t1", "root", 0.1, 0.4),
            synthetic_span("eigensolve", "e1", "t1", 0.2, 0.3, backend="dense"),
        ]
        roots, children = build_trees(spans)
        assert [r["span_id"] for r in roots] == ["root"]
        assert [c["span_id"] for c in children["root"]] == ["t1"]
        table = dict(
            (name, (count, self_wall)) for name, count, self_wall, _ in self_times(spans)
        )
        assert table["sweep"] == (1, pytest.approx(0.6))
        assert table["task"] == (1, pytest.approx(0.1))
        assert table["eigensolve"] == (1, pytest.approx(0.3))
        text = render_report(spans)
        assert "sweep" in text and "backend=dense" in text
        assert text.index("sweep") < text.index("task") < text.index("eigensolve")

    def test_orphan_parent_becomes_root(self):
        spans = [synthetic_span("task", "t1", "gone", 0.0, 0.5)]
        roots, _ = build_trees(spans)
        assert [r["span_id"] for r in roots] == ["t1"]

    def test_empty_trace(self):
        assert "empty" in render_report([])


# ---------------------------------------------------------------------------
# server surfacing
# ---------------------------------------------------------------------------
def http_get(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, dict(response.headers), response.read().decode()


class TestServerSurfacing:
    def test_trace_id_header_and_query_span(self, tmp_path):
        path = tmp_path / "serve.jsonl"
        obs.configure(str(path))
        service = BoundService(num_eigenvalues=NUM_EIGENVALUES)
        with BoundServer(service, port=0) as server:
            server.start()
            payload = json.dumps(
                {"queries": [{"graph": {"family": "fft", "size": 3}, "memory_size": 4}]}
            ).encode()
            request = urllib.request.Request(
                f"{server.url}/v1/bounds",
                data=payload,
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                trace_id = response.headers["X-Repro-Trace-Id"]
                body = json.loads(response.read().decode())
        obs.disable()
        assert trace_id
        spans = read_spans(path)
        requests = [s for s in spans if s["name"] == "http_request"]
        assert any(s["trace_id"] == trace_id for s in requests)
        # The query span nests under the request span and its id is what
        # the answer advertises, so /v1 answers resolve into the trace.
        queries = [s for s in spans if s["name"] == "query"]
        assert queries and queries[0]["trace_id"] == trace_id
        assert body["answers"][0]["trace_id"] == trace_id

    def test_no_header_when_disabled(self):
        obs.disable()
        service = BoundService(num_eigenvalues=NUM_EIGENVALUES)
        with BoundServer(service, port=0) as server:
            server.start()
            _, headers, _ = http_get(f"{server.url}/healthz")
        assert "X-Repro-Trace-Id" not in headers

    def test_metrics_endpoint_unions_global_registry(self):
        obs.disable()
        service = BoundService(num_eigenvalues=NUM_EIGENVALUES)
        with BoundServer(service, port=0) as server:
            server.start()
            payload = json.dumps(
                {"queries": [{"graph": {"family": "fft", "size": 4}, "memory_size": 4}]}
            ).encode()
            request = urllib.request.Request(
                f"{server.url}/v1/bounds",
                data=payload,
                headers={"Content-Type": "application/json"},
            )
            urllib.request.urlopen(request, timeout=30).read()
            _, _, text = http_get(f"{server.url}/metrics")
        assert "repro_http_requests_total" in text  # per-server registry
        assert "repro_eigensolve_seconds" in text  # process-global registry
        assert "repro_spectrum_lookups_total" in text

    def test_slow_query_log_counts_and_logs(self, monkeypatch, caplog):
        obs.disable()
        monkeypatch.setenv("REPRO_SLOW_QUERY_SECONDS", "0")
        before = obs.global_registry().get("repro_slow_queries_total").value()
        service = BoundService(num_eigenvalues=NUM_EIGENVALUES)
        with BoundServer(service, port=0) as server:
            server.start()
            with caplog.at_level("WARNING", logger="repro.server.slow"):
                http_get(f"{server.url}/healthz")
        after = obs.global_registry().get("repro_slow_queries_total").value()
        assert after >= before + 1
        assert any("slow query" in message for message in caplog.messages)

    def test_threshold_unset_means_no_slow_log(self, monkeypatch):
        obs.disable()
        monkeypatch.delenv("REPRO_SLOW_QUERY_SECONDS", raising=False)
        before = obs.global_registry().get("repro_slow_queries_total").value()
        service = BoundService(num_eigenvalues=NUM_EIGENVALUES)
        with BoundServer(service, port=0) as server:
            server.start()
            http_get(f"{server.url}/healthz")
        assert obs.global_registry().get("repro_slow_queries_total").value() == before


class TestSingleFlightFollowers:
    def test_followers_report_the_original_solve_time(self):
        """Requests that waited on another request's eigensolve are
        ordinary cache hits: the same ``eig_elapsed_seconds`` as the
        solve's own answer, their own trace, and one eigensolve in all."""
        obs.disable()
        service = BoundService(num_eigenvalues=NUM_EIGENVALUES)
        release = threading.Event()
        started: list = []
        solve = service.cache._solve

        def held(*args):
            started.append(args)
            assert release.wait(timeout=30)
            return solve(*args)

        service.cache._solve = held
        payload = json.dumps(
            {"queries": [{"graph": {"family": "fft", "size": 3}, "memory_size": 4}]}
        ).encode()
        with BoundServer(service, port=0) as server:
            server.start()
            outcomes: list = []

            def post():
                request = urllib.request.Request(
                    f"{server.url}/v1/bounds",
                    data=payload,
                    headers={"Content-Type": "application/json"},
                )
                with urllib.request.urlopen(request, timeout=30) as response:
                    outcomes.append(json.loads(response.read().decode()))

            threads = [threading.Thread(target=post, daemon=True) for _ in range(3)]
            threads[0].start()
            deadline = time.monotonic() + 10
            while not started:
                assert time.monotonic() < deadline, "the leader never solved"
                time.sleep(0.005)
            for thread in threads[1:]:
                thread.start()
            time.sleep(0.1)
            release.set()
            for thread in threads:
                thread.join(timeout=10)
        assert len(started) == 1  # the herd paid one solve
        answers = [o["answers"][0] for o in outcomes]
        assert len(answers) == 3
        assert all("served_by_trace_id" not in answer for answer in answers)
        assert len({answer["eig_elapsed_seconds"] for answer in answers}) == 1
        assert answers[0]["eig_elapsed_seconds"] > 0.0
        counters = service.counters()
        assert counters["cache_misses"] == 1 and counters["cache_hits"] == 2


# ---------------------------------------------------------------------------
# head-based sampling + slow-query retention
# ---------------------------------------------------------------------------
class TestSampling:
    def test_default_rate_keeps_everything(self, tmp_path, monkeypatch):
        monkeypatch.delenv(obs.tracing.SAMPLE_ENV_VAR, raising=False)
        path = tmp_path / "t.jsonl"
        obs.configure(str(path))
        for _ in range(5):
            with obs.span("request"):
                pass
        obs.disable()
        assert len(read_spans(path)) == 5

    def test_rate_zero_drops_all_traces_without_io(self, tmp_path):
        path = tmp_path / "t.jsonl"
        obs.configure(str(path), sample_rate=0.0)
        for _ in range(5):
            with obs.span("request") as root:
                with obs.span("solve"):
                    pass
                assert root.trace_id is not None  # ids stay meaningful
        obs.disable()
        assert read_spans(path) == []
        tracer_stats = {"roots": 5, "sampled": 0, "unsampled": 5, "slow_kept": 0}
        # stats were on the tracer we just closed; re-derive from a fresh one
        obs.configure(str(tmp_path / "u.jsonl"), sample_rate=0.0)
        for _ in range(5):
            with obs.span("request"):
                pass
        assert obs.get_tracer().sampling_stats() == tracer_stats

    def test_sampling_decision_rides_the_context(self, tmp_path):
        obs.configure(str(tmp_path / "t.jsonl"), sample_rate=0.0)
        with obs.span("request"):
            context = obs.current_context()
            assert context.sampled is False
            with obs.span("child"):
                assert obs.current_context().sampled is False

    def test_slow_root_keeps_the_whole_trace(self, tmp_path):
        path = tmp_path / "t.jsonl"
        obs.configure(str(path), sample_rate=0.0, slow_keep_seconds=0.02)
        with obs.span("fast"):
            with obs.span("fast_child"):
                pass
        with obs.span("slow"):
            with obs.span("slow_child"):
                time.sleep(0.03)
        obs.disable()
        spans = read_spans(path)
        assert sorted(s["name"] for s in spans) == ["slow", "slow_child"]
        child, root = (
            next(s for s in spans if s["name"] == "slow_child"),
            next(s for s in spans if s["name"] == "slow"),
        )
        assert child["parent_id"] == root["span_id"]

    def test_seeded_sampler_is_deterministic(self, tmp_path):
        def kept(path):
            obs.configure(str(path), sample_rate=0.3, sample_seed=1234)
            for index in range(40):
                with obs.span("request", index=index):
                    pass
            obs.disable()
            return [s["attrs"]["index"] for s in read_spans(path)]

        first = kept(tmp_path / "a.jsonl")
        second = kept(tmp_path / "b.jsonl")
        assert first == second
        assert 0 < len(first) < 40  # sampled out most, kept some

    def test_slow_queries_survive_aggressive_sampling(self, tmp_path):
        """The acceptance shape: REPRO_TRACE_SAMPLE=0.1 with a slow-query
        threshold keeps every slow trace while dropping most of the rest."""
        path = tmp_path / "t.jsonl"
        obs.configure(
            str(path), sample_rate=0.1, sample_seed=7, slow_keep_seconds=0.02
        )
        for index in range(30):
            with obs.span("request", index=index, kind="fast"):
                pass
        for index in range(3):
            with obs.span("request", index=index, kind="slow"):
                time.sleep(0.03)
        stats = obs.get_tracer().sampling_stats()
        obs.disable()
        spans = read_spans(path)
        slow = [s for s in spans if s["attrs"]["kind"] == "slow"]
        fast = [s for s in spans if s["attrs"]["kind"] == "fast"]
        assert len(slow) == 3  # every slow query kept, sampled or not
        assert len(fast) < 30  # most of the fast traffic sampled out
        assert stats["roots"] == 33
        assert stats["slow_kept"] >= 1

    def test_pending_buffer_is_bounded(self, tmp_path):
        path = tmp_path / "t.jsonl"
        obs.configure(str(path), sample_rate=0.0, slow_keep_seconds=0.01)
        with obs.span("burst") as root:
            for index in range(obs.tracing.PENDING_CAPACITY + 50):
                with obs.span("child", index=index):
                    pass
            time.sleep(0.02)  # cross the slow threshold: buffer flushes
        obs.disable()
        spans = read_spans(path)
        children = [s for s in spans if s["name"] == "child"]
        assert len(children) == obs.tracing.PENDING_CAPACITY  # oldest dropped
        assert children[-1]["attrs"]["index"] == obs.tracing.PENDING_CAPACITY + 49

    def test_sample_rate_from_env_parsing(self, monkeypatch):
        cases = [
            (None, 1.0), ("", 1.0), ("garbage", 1.0),
            ("0.25", 0.25), ("7", 1.0), ("-3", 0.0),
        ]
        for raw, expected in cases:
            if raw is None:
                monkeypatch.delenv(obs.tracing.SAMPLE_ENV_VAR, raising=False)
            else:
                monkeypatch.setenv(obs.tracing.SAMPLE_ENV_VAR, raw)
            assert obs.sample_rate_from_env() == expected

    def test_unsampled_worker_context_stays_silent_on_disk(self, tmp_path):
        base = str(tmp_path / "trace.jsonl")
        parent = obs.TraceContext(
            trace_id="t" * 16, span_id="s" * 16, sampled=False
        )
        obs.worker_configure(parent, base)
        with obs.span("task"):
            pass
        obs.disable()
        # The unsampled worker buffered without shard I/O and dropped at
        # close — nothing to merge.
        assert obs.merge_shards(base, base) == 0


# ---------------------------------------------------------------------------
# profiling hooks
# ---------------------------------------------------------------------------
class TestProfiling:
    def test_noop_without_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        base = str(tmp_path / "trace.jsonl")
        with obs.maybe_profile(base, "task-0"):
            sum(range(100))
        assert list(tmp_path.iterdir()) == []
        assert not obs.profiling_enabled()

    def test_noop_with_no_base_even_when_enabled(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "1")
        with obs.maybe_profile(None, "task-0"):
            sum(range(100))
        assert list(tmp_path.iterdir()) == []

    def test_pooled_sweep_writes_parseable_pstats(self, tmp_path, monkeypatch):
        import pstats

        monkeypatch.setenv("REPRO_PROFILE", "1")
        path = tmp_path / "trace.jsonl"
        obs.configure(str(path))
        report = SweepOrchestrator(
            store=tmp_path / "spectra", processes=2, num_eigenvalues=NUM_EIGENVALUES
        ).run_family("fft", None, [3, 4], [4])
        obs.disable()
        profiles = sorted(tmp_path.glob("trace.jsonl.profile-*.pstats"))
        # One profile per pool task (plus possibly the parent's phases).
        assert len(profiles) >= len(report.tasks)
        for profile in profiles:
            stats = pstats.Stats(str(profile))  # parseable == loadable
            assert stats.total_calls > 0


# ---------------------------------------------------------------------------
# machine-readable report
# ---------------------------------------------------------------------------
class TestReportJson:
    def test_report_as_json_mirrors_text_views(self):
        spans = [
            synthetic_span("sweep", "root", None, 0.0, 1.0),
            synthetic_span("task", "t1", "root", 0.1, 0.4),
            synthetic_span("eigensolve", "e1", "t1", 0.2, 0.3, backend="dense"),
        ]
        data = report_as_json(spans)
        assert data["num_spans"] == 3
        assert data["num_traces"] == 1
        [tree] = data["trees"]
        assert tree["name"] == "sweep"
        [task] = tree["children"]
        assert task["name"] == "task"
        assert task["children"][0]["attrs"]["backend"] == "dense"
        names = {row["name"]: row for row in data["self_times"]}
        assert names["sweep"]["self_seconds"] == pytest.approx(0.6)
        assert names["eigensolve"]["total_seconds"] == pytest.approx(0.3)
        json.dumps(data)  # the whole payload is JSON-serialisable

    def test_cli_obs_report_json(self, tmp_path, capsys):
        from repro.runtime.cli import main

        path = tmp_path / "t.jsonl"
        obs.configure(str(path))
        with obs.span("root"):
            with obs.span("child"):
                pass
        obs.disable()
        assert main(["obs", "report", str(path), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["num_spans"] == 2
        assert data["trees"][0]["children"][0]["name"] == "child"
