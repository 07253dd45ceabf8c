"""The program process of the in-process workloads.

``run.py`` launches ``python3 perfbench/program.py SPEC.json`` for
``sweep-cold``, ``store-churn`` and ``paper-scale-solve``.  This process is
the caller of the system's public Python entry points -- ``SweepOrchestrator``
or ``BoundService.submit`` -- exactly as a notebook or script would be, so its
peak RSS and exit time are the program's.  It talks to ``run.py`` in JSON
lines: it prints ``{"event": "ready"}`` once set up, runs timed rounds on
``{"cmd": "rounds", "seconds": S}`` and prints ``{"event": "done"}`` after
writing its measurements to ``<work_dir>/result.json``, and exits on
``{"cmd": "exit"}``.

Every round does the same fixed work on fresh state: a fresh copy of the
base store (or a fresh empty store) and a fresh service or orchestrator,
prepared outside the timer.  Rounds repeat until ``S`` timed seconds have
passed.
"""

from __future__ import annotations

import json
import resource
import shutil
import sys
import time
from pathlib import Path

# perfbench/ is sys.path[0]: this file's directory.
import stages
from procs import vm_hwm_mb

SPEC = json.loads(Path(sys.argv[1]).read_text())
WORK = Path(SPEC["work_dir"])
if SPEC["trace_dir"]:
    stages.install(Path(SPEC["trace_dir"]))

from common import answer_dict, query, store_footprint  # noqa: E402
from repro.obs.metrics import global_registry  # noqa: E402
from repro.runtime.families import GraphSpec  # noqa: E402
from repro.runtime.orchestrator import SweepOrchestrator, SweepTask  # noqa: E402
from repro.runtime.service import BoundService  # noqa: E402
from repro.runtime.store import SpectrumStore  # noqa: E402


class ServiceRounds:
    """Calls ``BoundService.submit`` once per call of the spec, in order."""

    def __init__(self) -> None:
        self.calls = [[query(q) for q in call] for call in SPEC["calls"]]
        self.round = 0
        self.service, self.root = self._fresh()
        for call in SPEC["warmup"]:
            self.service.submit([query(q) for q in call])

    def _fresh(self):
        root = WORK / f"round-{self.round}"
        if root.exists():
            pass  # round 0's copy is made by run.py before it starts the setup clock
        elif SPEC["base_store"]:
            shutil.copytree(SPEC["base_store"], root)
        else:
            root.mkdir(parents=True)
        service = BoundService(
            store=SpectrumStore(root), num_eigenvalues=SPEC["num_eigenvalues"]
        )
        return service, root

    def run_round(self) -> dict:
        if self.service is None:
            shutil.rmtree(self.root)
            self.round += 1
            self.service, self.root = self._fresh()
        latencies, answers = [], []
        start = time.perf_counter()
        for queries in self.calls:
            t0 = time.perf_counter()
            result = self.service.submit(queries)
            latencies.append(time.perf_counter() - t0)
            answers.append([answer_dict(a) for a in result])
        end = time.perf_counter()
        self.service = None
        return {"start": start, "end": end, "latencies": latencies,
                "kinds": SPEC["call_kinds"], "answers": answers,
                **store_footprint(self.root)}


class SweepRounds:
    """One cold ``SweepOrchestrator.run`` per round, on a fresh empty store."""

    def __init__(self) -> None:
        self.tasks = [self._task(f, s) for f, s in SPEC["graphs"]]
        self.round = 0
        self._orchestrator(WORK / "warmup").run(
            [self._task(f, s) for f, s in SPEC["warmup_graphs"]],
            SPEC["memory_sizes"],
            methods=SPEC["methods"],
        )

    @staticmethod
    def _task(family: str, size: int) -> SweepTask:
        return SweepTask(family=family, size_param=size,
                         spec=GraphSpec(family=family, size_param=size))

    @staticmethod
    def _orchestrator(root: Path) -> SweepOrchestrator:
        return SweepOrchestrator(
            store=SpectrumStore(root),
            processes=SPEC["processes"],
            num_eigenvalues=SPEC["num_eigenvalues"],
            max_vertices={"convex-min-cut": SPEC["convex_max_vertices"]},
        )

    def run_round(self) -> dict:
        root = WORK / f"round-{self.round}"
        self.round += 1
        orchestrator = self._orchestrator(root)
        start = time.perf_counter()
        report = orchestrator.run(self.tasks, SPEC["memory_sizes"], methods=SPEC["methods"])
        end = time.perf_counter()
        rows = [
            {"family": r.family, "size": r.size_param, "method": r.method,
             "M": r.memory_size, "bound": r.bound, "best_k": r.best_k}
            for r in report.rows
        ]
        footprint = store_footprint(root)
        shutil.rmtree(root)
        return {"start": start, "end": end, "latencies": [end - start],
                "kinds": ["sweep"], "answers": [rows],
                "num_eigensolves": report.num_eigensolves,
                "tasks": [t.as_dict() for t in report.tasks],
                "processes": report.processes, **footprint}


def _say(event: dict) -> None:
    sys.stdout.write(json.dumps(event) + "\n")
    sys.stdout.flush()


def main() -> int:
    rounds = SweepRounds() if SPEC["kind"] == "sweep" else ServiceRounds()
    _say({"event": "ready"})
    for line in sys.stdin:
        command = json.loads(line)
        if command["cmd"] == "exit":
            break
        before = global_registry().render()
        results, timed = [], 0.0
        while not results or timed < command["seconds"]:
            results.append(rounds.run_round())
            timed += results[-1]["end"] - results[-1]["start"]
        after = global_registry().render()
        # Pool workers are forked, not exec'd, so their ru_maxrss is their own.
        peak = max(vm_hwm_mb(Path("/proc/self/status").read_text()),
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)
        (WORK / "result.json").write_text(json.dumps(
            {"rounds": results, "metrics_before": before, "metrics_after": after,
             "peak_rss_mb": peak}
        ))
        _say({"event": "done"})
    return 0


if __name__ == "__main__":
    sys.exit(main())
