"""The repository benchmark: one command, four workloads, every metric by name.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run it from the root of a checkout.  Workloads (see ``BENCHMARK.json`` for why
each was chosen): ``serve-warm``, ``sweep-cold``, ``store-churn`` and
``paper-scale-solve``.  With ``--trace 0`` it prints the end-to-end metrics,
measured with no instrumentation; with ``--trace 1`` it runs the workload once
more with stage timers and prints the per-layer metrics.  Human-readable lines
come first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Program state (store copies, stage files, result files) lives under
``.perfbench/`` in the checkout; seed-independent artefacts are cached there
across invocations (see :mod:`workloads`).  ``--smoke`` runs every workload at
a small size with both ``--trace`` settings and checks every printed metric
name against ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: (name, unit) of every end-to-end metric, in output order.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def _end_to_end(m, setups) -> dict:
    from layers import quantile

    latencies = m.latencies()
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(m.walls),
        "ops_per_s": m.answers / sum(m.walls),
        "latency_p50_ms": 1000.0 * quantile(latencies, 0.5),
        "latency_p95_ms": 1000.0 * quantile(latencies, 0.95),
        "peak_rss_mb": m.peak_rss_mb,
    }


def _instance(workload, traced: bool, seconds: float, setups: int = 1):
    """Launch ``setups`` instances, keep the last, measure it, stop it."""
    setup_times = []
    for index in range(setups):
        instance = workload.launch(traced)
        setup_times.append(instance.setup_s)
        if index < setups - 1:
            workload.discard(instance)
    m = workload.measure(instance, seconds)
    workload.teardown(instance, m)
    return m, setup_times


def run(name: str, seed: int, seconds: float, trace: bool, small: bool = False):
    """One invocation; returns (result JSON object, printable lines)."""
    from layers import PER_LAYER, per_layer
    from repro.obs.perf import environment_fingerprint
    from workloads import WORKLOADS, Context

    ctx = Context(ROOT, small)
    shutil.rmtree(ctx.work, ignore_errors=True)
    (ctx.state / "tmp").mkdir(parents=True, exist_ok=True)
    ctx.work.mkdir(parents=True)
    try:
        workload = WORKLOADS[name](ctx, seed)
        workload.prepare()
        if trace:
            plain, _ = _instance(workload, False, seconds)
            traced, _ = _instance(workload, True, seconds)
            values = per_layer(workload.kind, plain, traced)
            units = {n: u for n, u, _ in PER_LAYER}
            checked = [plain, traced]
        else:
            m, setup_times = _instance(workload, False, seconds, setups=workload.setups)
            values = _end_to_end(m, setup_times)
            units = dict(END_TO_END)
            checked = [m]
    finally:
        ctx.procs.close_all()
        shutil.rmtree(ctx.work, ignore_errors=True)

    attempted = sum(m.attempted for m in checked)
    failed = sum(m.failed for m in checked)
    problems = [p for m in checked for p in m.problems]
    lines = [f"# {name} seed={seed} seconds={seconds:g} trace={int(trace)}"]
    samples = len(checked[-1].latencies())
    for metric, value in values.items():
        note = f"  (n={samples})" if "latency" in metric else ""
        lines.append(f"{metric:34s} {value:14.6g} {units[metric]}{note}")
    lines.append(f"error_rate {failed / attempted:.6g} ({failed} of {attempted})")
    if trace:
        ratio = values["budget.unaccounted_ratio"]
        verdict = "within" if abs(ratio) <= 0.10 else "OUTSIDE"
        lines.append(
            f"stage budget: {values['budget.stages_ms']:.6g} of "
            f"{values['budget.e2e_ms']:.6g} ms accounted, unaccounted "
            f"{values['budget.unaccounted_ms']:.6g} ms ({ratio:+.1%}, {verdict} 10%)"
        )
    env = dict(environment_fingerprint(), nproc=os.cpu_count())
    lines.append("environment " + json.dumps(env, sort_keys=True))
    lines.extend(f"problem: {p}" for p in problems[:20])
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": units[metric]}
                    for metric, value in values.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload small, both trace settings, and "
                        "check the printed names against BENCHMARK.json")
    args = parser.parse_args(argv)
    # Stopped from outside: unwind through run()'s cleanup, which kills
    # every program process it launched.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}; run "
              "this from the root of a full checkout", file=sys.stderr)
        return 2
    # One BLAS thread here too, before numpy loads: the references computed
    # in this process must round exactly like the single-threaded program
    # processes (workloads.Context.env pins those with the program's own
    # BLAS_THREAD_ENV_VARS list, which cannot be imported before numpy).
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[name] = "1"
    sys.path.insert(1, str(ROOT / "src"))
    if args.smoke:
        from smoke import smoke

        return smoke(run, ROOT / "BENCHMARK.json")
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
