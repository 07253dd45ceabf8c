"""Smoke mode of the benchmark: ``python3 perfbench/run.py --smoke``.

Runs every workload of ``BENCHMARK.json`` at a small size for one second,
untraced and traced, and fails (exit 1) unless every run is correct and
prints exactly the metric names ``BENCHMARK.json`` declares, with their units.
About a minute on two cores, most of it waiting out the fleet's
shutdown deadline.
"""

from __future__ import annotations

import json
from pathlib import Path


def smoke(run, benchmark_json: Path) -> int:
    spec = json.loads(benchmark_json.read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result, lines = run(workload, seed=1, seconds=1.0, trace=bool(trace), small=True)
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            label = f"{workload} --trace {trace}"
            if not result["correct"]:
                failures.append(f"{label}: incorrect ({result['failed']} failed)")
                failures.extend(f"  {line}" for line in lines if line.startswith("problem"))
            if printed != declared[trace]:
                extra = sorted(set(printed.items()) - set(declared[trace].items()))
                missing = sorted(set(declared[trace].items()) - set(printed.items()))
                failures.append(f"{label}: undeclared {extra}, not printed {missing}")
            print(f"smoke {label}: {len(printed)} metrics, {result['attempted']} attempted")
    for failure in failures:
        print(f"smoke FAILED {failure}")
    print("smoke ok" if not failures else f"smoke: {len(failures)} failure(s)")
    return 1 if failures else 0
