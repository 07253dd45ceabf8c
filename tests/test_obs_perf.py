"""Tests for :mod:`repro.obs.perf` — the performance-regression sentinel.

The contracts that matter: the history ledger round-trips scalar metrics
with an environment fingerprint and survives corruption; baselines are
built only from *same-environment* records (git sha excluded); counter
metrics regress on ANY increase while decreases are improvements; timing
and throughput metrics are threshold-gated and honour
``REPRO_BENCH_TIMING_ASSERT=0``; and ``python -m repro obs perf check``
turns all of that into an exit code CI can gate on.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import perf
from repro.runtime.cli import main

FINGERPRINT = {
    "git_sha": "aaaaaaaaaaaa",
    "hostname": "ci-box",
    "platform": "Linux-x86_64",
    "cpu_count": 8,
    "python": "3.11.0",
    "numpy": "1.26.0",
    "scipy": "1.11.0",
}


def record(bench, metrics, sha="aaaaaaaaaaaa", timestamp=0.0, **env):
    fingerprint = dict(FINGERPRINT, git_sha=sha, **env)
    return perf.history_record(
        bench, metrics, fingerprint=fingerprint, timestamp=timestamp
    )


class TestFingerprint:
    def test_live_fingerprint_has_every_key_field(self):
        fingerprint = perf.environment_fingerprint()
        for name in ("git_sha", "hostname", "cpu_count", "python", "numpy", "scipy"):
            assert name in fingerprint
        assert fingerprint["cpu_count"] >= 1

    def test_key_excludes_git_sha(self):
        one = dict(FINGERPRINT, git_sha="aaaa")
        two = dict(FINGERPRINT, git_sha="bbbb")
        assert perf.fingerprint_key(one) == perf.fingerprint_key(two)
        assert perf.fingerprint_key(one) != perf.fingerprint_key(
            dict(FINGERPRINT, cpu_count=1)
        )


class TestLedger:
    def test_record_keeps_only_scalar_metrics(self):
        entry = record(
            "BENCH_x.json",
            {
                "warm_seconds": 1.5,
                "cold_eigensolves": 7,
                "flag": True,  # bools are not metrics
                "levels": [1, 2, 3],
                "nested": {"a": 1},
                "benchmark": "test_warm",
            },
        )
        assert entry["metrics"] == {"warm_seconds": 1.5, "cold_eigensolves": 7}
        assert entry["benchmark"] == "test_warm"
        assert entry["fingerprint"]["cpu_count"] == 8

    def test_append_and_load_round_trip(self, tmp_path):
        path = tmp_path / "BENCH_HISTORY.jsonl"
        perf.append_history(record("BENCH_x.json", {"warm_seconds": 1.0}), path)
        perf.append_history(record("BENCH_x.json", {"warm_seconds": 2.0}), path)
        history = perf.load_history(path)
        assert [r["metrics"]["warm_seconds"] for r in history] == [1.0, 2.0]

    def test_load_skips_corrupt_lines(self, tmp_path):
        path = tmp_path / "BENCH_HISTORY.jsonl"
        perf.append_history(record("BENCH_x.json", {"warm_seconds": 1.0}), path)
        with path.open("a") as handle:
            handle.write('{"bench": "BENCH_x.json", "metr\n')  # killed mid-append
            handle.write("not json at all\n")
            handle.write('"a bare string, not a record"\n')
        perf.append_history(record("BENCH_x.json", {"warm_seconds": 2.0}), path)
        assert len(perf.load_history(path)) == 2

    def test_load_missing_file_is_empty(self, tmp_path):
        assert perf.load_history(tmp_path / "absent.jsonl") == []


class TestClassify:
    @pytest.mark.parametrize(
        "name, kind",
        [
            ("cold_eigensolves", "counter"),
            ("fleet_herd_lease_leaders", "counter"),
            ("warm_seconds", "timing"),
            ("p95_latency", "timing"),
            ("fleet_warm_speedup", "throughput"),
            ("cold_rps", "throughput"),
            ("num_eigenvalues", None),  # config scalar, ignored
            ("herd_threads", None),
        ],
    )
    def test_suffix_classification(self, name, kind):
        assert perf.classify_metric(name) == kind


class TestCheck:
    def test_identical_runs_pass(self):
        metrics = {"cold_eigensolves": 10, "warm_seconds": 1.0, "cold_rps": 50.0}
        history = [
            record("BENCH_x.json", metrics, sha="aaa", timestamp=1),
            record("BENCH_x.json", metrics, sha="bbb", timestamp=2),
        ]
        result = perf.check(history, window=5, threshold=0.25, timing_asserts=True)
        assert result.ok
        assert result.checked == 3
        assert result.improvements == []

    def test_counter_increase_is_a_regression(self):
        history = [
            record("BENCH_x.json", {"cold_eigensolves": 10}, sha="aaa", timestamp=1),
            record("BENCH_x.json", {"cold_eigensolves": 11}, sha="bbb", timestamp=2),
        ]
        result = perf.check(history, timing_asserts=True)
        assert not result.ok
        [verdict] = result.regressions
        assert verdict.metric == "cold_eigensolves"
        assert verdict.kind == "counter"
        assert "cold_eigensolves" in result.render()

    def test_counter_decrease_is_an_improvement_not_a_failure(self):
        history = [
            record("BENCH_x.json", {"cold_eigensolves": 10}, timestamp=1),
            record("BENCH_x.json", {"cold_eigensolves": 8}, timestamp=2),
        ]
        result = perf.check(history, timing_asserts=True)
        assert result.ok
        assert [v.metric for v in result.improvements] == ["cold_eigensolves"]

    def test_timing_within_threshold_is_ok(self):
        history = [
            record("BENCH_x.json", {"warm_seconds": 1.0}, timestamp=1),
            record("BENCH_x.json", {"warm_seconds": 1.2}, timestamp=2),
        ]
        assert perf.check(history, threshold=0.25, timing_asserts=True).ok

    def test_timing_beyond_threshold_regresses(self):
        history = [
            record("BENCH_x.json", {"warm_seconds": 1.0}, timestamp=1),
            record("BENCH_x.json", {"warm_seconds": 1.4}, timestamp=2),
        ]
        result = perf.check(history, threshold=0.25, timing_asserts=True)
        assert [v.metric for v in result.regressions] == ["warm_seconds"]

    def test_throughput_drop_regresses(self):
        history = [
            record("BENCH_x.json", {"cold_rps": 100.0}, timestamp=1),
            record("BENCH_x.json", {"cold_rps": 60.0}, timestamp=2),
        ]
        result = perf.check(history, threshold=0.25, timing_asserts=True)
        assert [v.metric for v in result.regressions] == ["cold_rps"]

    def test_timing_assert_switch_skips_timing_but_not_counters(self):
        history = [
            record(
                "BENCH_x.json",
                {"warm_seconds": 1.0, "cold_eigensolves": 10},
                timestamp=1,
            ),
            record(
                "BENCH_x.json",
                {"warm_seconds": 9.0, "cold_eigensolves": 11},
                timestamp=2,
            ),
        ]
        result = perf.check(history, threshold=0.25, timing_asserts=False)
        assert [v.metric for v in result.regressions] == ["cold_eigensolves"]
        assert any("warm_seconds" in reason for reason in result.skipped)

    def test_baseline_is_median_of_window(self):
        # One noisy outlier in the window must not poison the baseline:
        # median(1.0, 1.0, 5.0) = 1.0, so a 1.1 run stays within ±25%.
        history = [
            record("BENCH_x.json", {"warm_seconds": 1.0}, timestamp=1),
            record("BENCH_x.json", {"warm_seconds": 5.0}, timestamp=2),
            record("BENCH_x.json", {"warm_seconds": 1.0}, timestamp=3),
            record("BENCH_x.json", {"warm_seconds": 1.1}, timestamp=4),
        ]
        result = perf.check(history, window=5, threshold=0.25, timing_asserts=True)
        assert result.ok

    def test_other_environment_records_are_ignored(self):
        history = [
            record("BENCH_x.json", {"cold_eigensolves": 5}, cpu_count=1, timestamp=1),
            record("BENCH_x.json", {"cold_eigensolves": 10}, timestamp=2),
        ]
        result = perf.check(history, timing_asserts=True)
        assert result.ok  # 1-cpu baseline never judges the 8-cpu run
        assert any("same-environment" in reason for reason in result.skipped)

    def test_benches_are_independent(self):
        history = [
            record("BENCH_x.json", {"cold_eigensolves": 10}, timestamp=1),
            record("BENCH_y.json", {"cold_eigensolves": 3}, timestamp=2),
            record("BENCH_x.json", {"cold_eigensolves": 10}, timestamp=3),
            record("BENCH_y.json", {"cold_eigensolves": 4}, timestamp=4),
        ]
        result = perf.check(history, timing_asserts=True)
        assert [v.bench for v in result.regressions] == ["BENCH_y.json"]


class TestTrajectory:
    def test_render_shows_series_and_environments(self):
        history = [
            record("BENCH_x.json", {"warm_seconds": 1.0}, sha="aaa", timestamp=1),
            record("BENCH_x.json", {"warm_seconds": 1.2}, sha="bbb", timestamp=2),
        ]
        text = perf.render_trajectory(history)
        assert "BENCH_x.json" in text
        assert "warm_seconds" in text
        assert "1 -> 1.2" in text
        assert "1 environment" in text

    def test_empty_history(self):
        assert "empty" in perf.render_trajectory([])


class TestCli:
    def write_history(self, tmp_path, records):
        path = tmp_path / "BENCH_HISTORY.jsonl"
        for entry in records:
            perf.append_history(entry, path)
        return path

    def test_check_passes_on_identical_runs(self, tmp_path, capsys):
        path = self.write_history(
            tmp_path,
            [
                record("BENCH_x.json", {"cold_eigensolves": 10}, timestamp=1),
                record("BENCH_x.json", {"cold_eigensolves": 10}, timestamp=2),
            ],
        )
        assert main(["obs", "perf", "check", "--history", str(path)]) == 0
        assert "0 regression(s)" in capsys.readouterr().out

    def test_check_fails_and_names_the_metric(self, tmp_path, capsys):
        path = self.write_history(
            tmp_path,
            [
                record("BENCH_x.json", {"cold_eigensolves": 10}, timestamp=1),
                record("BENCH_x.json", {"cold_eigensolves": 12}, timestamp=2),
            ],
        )
        assert main(["obs", "perf", "check", "--history", str(path)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "cold_eigensolves" in out

    def test_check_missing_history_fails_with_message(self, tmp_path, capsys):
        path = tmp_path / "absent.jsonl"
        assert main(["obs", "perf", "check", "--history", str(path)]) == 1
        assert "history" in capsys.readouterr().err.lower()

    def test_report_renders_trajectory(self, tmp_path, capsys):
        path = self.write_history(
            tmp_path,
            [record("BENCH_x.json", {"warm_seconds": 1.0}, timestamp=1)],
        )
        assert main(["obs", "perf", "report", "--history", str(path)]) == 0
        assert "warm_seconds" in capsys.readouterr().out

    def test_check_honours_threshold_flag(self, tmp_path):
        path = self.write_history(
            tmp_path,
            [
                record("BENCH_x.json", {"warm_seconds": 1.0}, timestamp=1),
                record("BENCH_x.json", {"warm_seconds": 1.4}, timestamp=2),
            ],
        )
        assert main(["obs", "perf", "check", "--history", str(path)]) == 1
        args = ["obs", "perf", "check", "--history", str(path), "--threshold", "0.5"]
        assert main(args) == 0


class TestWriteRecordShape:
    def test_bench_snapshot_embeds_fingerprint(self, tmp_path, monkeypatch):
        """The shape write_perf_record produces: cpu_count + environment in
        the snapshot, and a matching ledger line (exercised via the same
        helpers against a temp root, not the real repo files)."""
        fingerprint = perf.environment_fingerprint()
        payload = {"cold_eigensolves": 4, "warm_seconds": 0.5, "levels": [1, 2]}
        snapshot = dict(payload)
        snapshot["cpu_count"] = fingerprint["cpu_count"]
        snapshot["environment"] = fingerprint
        (tmp_path / "BENCH_x.json").write_text(json.dumps(snapshot))
        perf.append_history(
            perf.history_record("BENCH_x.json", payload, fingerprint=fingerprint),
            tmp_path / perf.HISTORY_FILENAME,
        )
        loaded = json.loads((tmp_path / "BENCH_x.json").read_text())
        assert loaded["environment"]["git_sha"] == fingerprint["git_sha"]
        [entry] = perf.load_history(tmp_path / perf.HISTORY_FILENAME)
        assert entry["metrics"] == {"cold_eigensolves": 4, "warm_seconds": 0.5}
        assert perf.fingerprint_key(entry["fingerprint"]) == perf.fingerprint_key(
            fingerprint
        )
