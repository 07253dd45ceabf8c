"""The four workloads: seeded inputs, per-invocation preparation, and runs.

Each workload is driven the same way by ``run.py``:

* ``prepare()`` -- generate the seeded inputs and the references the answers
  are checked against.  Artefacts that do not depend on the seed (the warm
  store, the 1,000-entry store, the serial sweep reference) are built once
  per checkout under ``.perfbench/cache``, keyed by a digest of ``src/``.
* ``launch(traced)`` -- copy the store it needs, then set up one program
  instance; the time the program takes to boot and warm up is a ``setup_s``
  sample.
* ``measure(instance, seconds)`` -- timed rounds of fixed work until
  ``seconds`` have passed, then the answer checks.
* ``teardown(instance, measurement)`` -- stop the program (the fleet's stop
  is timed: ``server.teardown_s``); ``discard(instance)`` stops an instance
  used only for a setup sample.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import signal
import sys
import threading
import time
from dataclasses import dataclass, field
from http.client import HTTPConnection
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.formula import evaluate_bound_formula
from repro.core.spectra import butterfly_spectrum_array
from repro.runtime.families import FAMILY_SIZE_ESTIMATORS, GraphSpec
from repro.runtime.orchestrator import BLAS_THREAD_ENV_VARS, SweepOrchestrator, SweepTask
from repro.runtime.service import BoundQuery, BoundService
from repro.runtime.store import SpectrumStore
from repro.server.client import BoundsClient, parse_metric

import stages
from common import answer_dict, query, store_footprint
from layers import Measurement
from procs import Proc, ProgramError, Processes, session_peak_rss_mb

PYTHON = sys.executable
READY_TIMEOUT = 120.0
EXIT_TIMEOUT = 60.0


@dataclass
class Context:
    """Where one invocation keeps its state, and what it has launched."""

    root: Path
    small: bool
    procs: Processes = field(default_factory=Processes)

    @property
    def state(self) -> Path:
        return self.root / ".perfbench"

    @property
    def work(self) -> Path:
        return self.state / f"work-{os.getpid()}"

    def env(self, **extra: str) -> Dict[str, str]:
        """Environment of a program process: in-tree sources, one BLAS thread."""
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(self.root / "src")
        env["PYTHONUNBUFFERED"] = "1"
        env["TMPDIR"] = str(self.state / "tmp")
        for name in BLAS_THREAD_ENV_VARS:
            env[name] = "1"
        env.update(extra)
        return env

    def cached(self, name: str, build) -> Path:
        """``build(path)`` once per checkout and source digest; returns the path."""
        digest = hashlib.sha256()
        for path in sorted((self.root / "src" / "repro").rglob("*.py")):
            digest.update(str(path.relative_to(self.root)).encode())
            digest.update(path.read_bytes())
        size = "small" if self.small else "full"
        target = self.state / "cache" / f"{name}-{size}-{digest.hexdigest()[:16]}"
        if not target.exists():
            partial = target.with_name(target.name + f".partial-{os.getpid()}")
            shutil.rmtree(partial, ignore_errors=True)
            partial.mkdir(parents=True)
            build(partial)
            partial.rename(target)
        return target


def _key(item: dict) -> Tuple:
    return (item["family"], item["size"], item["M"], item["normalization"], item["method"])


# ----------------------------------------------------------------------
# serve-warm: the HTTP fleet on a warm store
# ----------------------------------------------------------------------
SERVE_GRAPHS = [("fft", s) for s in range(3, 9)] + [("bhk", s) for s in range(6, 12)] + [
    ("matmul", s) for s in range(3, 6)
]
SERVE_GRAPHS_SMALL = [("fft", 3), ("fft", 4), ("bhk", 6), ("matmul", 3)]
SERVE_KINDS = (
    ("spectral", "normalized"),
    ("spectral", "unnormalized"),
    ("spectral-coarse", "normalized"),
)
CONVEX_MAX_VERTICES = 500


class _ConnectCounter:
    """Counts TCP connections the load generator opens (its own client)."""

    def __init__(self) -> None:
        self.count = 0
        self._lock = threading.Lock()
        original = HTTPConnection.connect
        counter = self

        def connect(conn):
            with counter._lock:
                counter.count += 1
            return original(conn)

        HTTPConnection.connect = connect


_CONNECTS: Optional[_ConnectCounter] = None


class _LoadThread:
    """One closed-loop client: sends its queries one request at a time."""

    def __init__(self, client: BoundsClient) -> None:
        self._client = client
        self._jobs: List[Optional[List[BoundQuery]]] = []
        self._ready = threading.Condition()
        self._result = None
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        while True:
            with self._ready:
                while not self._jobs:
                    self._ready.wait()
                job = self._jobs.pop(0)
            if job is None:
                return
            outcomes = []
            for request in job:
                start = time.perf_counter()
                try:
                    [answer] = self._client.bounds([request])
                    outcome = answer_dict(answer)
                except Exception as exc:  # noqa: BLE001 - a failed request is a result
                    outcome = f"{type(exc).__name__}: {exc}"
                outcomes.append((time.perf_counter() - start, outcome))
            with self._ready:
                self._result = (time.perf_counter(), outcomes)
                self._ready.notify_all()

    def submit(self, queries: List[BoundQuery]) -> None:
        with self._ready:
            self._result = None
            self._jobs.append(queries)
            self._ready.notify_all()

    def result(self, timeout: float):
        with self._ready:
            if not self._ready.wait_for(lambda: self._result is not None, timeout):
                raise ProgramError(f"a client request took longer than {timeout:.0f}s")
            return self._result

    def stop(self) -> None:
        with self._ready:
            self._jobs.append(None)
            self._ready.notify_all()
        self._thread.join(10.0)


@dataclass
class _Fleet:
    proc: Proc
    url: str
    client: BoundsClient
    threads: List[_LoadThread]
    store: Path
    stage_dir: Optional[Path]
    setup_s: float = 0.0

    def run_pass(self, halves: Sequence[List[BoundQuery]], timeout: float = 300.0):
        start = time.perf_counter()
        for thread, queries in zip(self.threads, halves):
            thread.submit(queries)
        results = [thread.result(timeout) for thread in self.threads]
        return start, max(end for end, _ in results), [o for _, outs in results for o in outs]

    def close_clients(self) -> None:
        for thread in self.threads:
            thread.stop()
        self.client.close()


class ServeWarm:
    """2-worker fleet over the CLI on a warm store, 2 keep-alive clients."""

    name = "serve-warm"
    kind = "fleet"
    clients = 2
    #: Fleet boots per untraced run (each with a warm-up pass).
    setups = 3

    def __init__(self, ctx: Context, seed: int) -> None:
        global _CONNECTS
        if _CONNECTS is None:
            _CONNECTS = _ConnectCounter()
        self.ctx = ctx
        graphs = SERVE_GRAPHS_SMALL if ctx.small else SERVE_GRAPHS
        self.pairs = []
        for family, size in graphs:
            kinds = list(SERVE_KINDS)
            if FAMILY_SIZE_ESTIMATORS[family](size) <= CONVEX_MAX_VERTICES:
                kinds.append(("convex-min-cut", "normalized"))
            self.pairs += [(family, size, m, n) for m, n in kinds]
        # Every (graph, method) pair twice per round, so the mix -- and the
        # work -- is the same for every seed; the seed orders it and picks M.
        rng = random.Random(seed)
        pairs = self.pairs * 2
        rng.shuffle(pairs)
        self.items = [{"family": f, "size": s, "M": rng.randint(4, 64),
                       "method": m, "normalization": n} for f, s, m, n in pairs]
        self.launches = 0

    def _warm_items(self) -> List[dict]:
        return [{"family": f, "size": s, "M": 64, "method": m, "normalization": n}
                for f, s, m, n in self.pairs]

    def _build_store(self, root: Path) -> None:
        service = BoundService(store=SpectrumStore(root))
        service.submit([query(item) for item in self._warm_items()])

    def prepare(self) -> None:
        self.base = self.ctx.cached("warm-store", self._build_store)
        reference = self.ctx.work / "reference-store"
        shutil.copytree(self.base, reference)
        service = BoundService(store=SpectrumStore(reference))
        unique = {_key(item): item for item in self.items}
        answers = service.submit([query(item) for item in unique.values()])
        self.expected = {key: answer_dict(a) for key, a in zip(unique, answers)}
        queries = [query(item) for item in self.items]
        self.halves = [queries[i :: self.clients] for i in range(self.clients)]

    def launch(self, traced: bool) -> _Fleet:
        self.launches += 1
        store = self.ctx.work / f"store-{self.launches}"
        shutil.copytree(self.base, store)
        start = time.perf_counter()
        serve = ["serve", "--workers", "2", "--port", "0", "--store", str(store)]
        stage_dir = None
        if traced:
            stage_dir = self.ctx.work / f"stages-{self.launches}"
            trace = self.ctx.work / f"trace-{self.launches}.jsonl"
            argv = [PYTHON, str(self.ctx.root / "perfbench" / "serve_traced.py"),
                    str(stage_dir), *serve, "--trace", str(trace)]
        else:
            argv = [PYTHON, "-m", "repro", *serve]
        proc = self.ctx.procs.launch(argv, self.ctx.env(), self.ctx.root)
        url = None
        while url is None:
            line = proc.readline(READY_TIMEOUT)
            if line.startswith("serving bounds on "):
                url = line.split()[3]
        client = BoundsClient(url)
        fleet = _Fleet(proc, url, client, [_LoadThread(client) for _ in range(self.clients)],
                       store, stage_dir)
        warm = [query(item) for item in self._warm_items()]
        _, _, outcomes = fleet.run_pass([warm[i :: self.clients] for i in range(self.clients)])
        failures = [o for _, o in outcomes if isinstance(o, str)]
        if failures:
            raise ProgramError(f"warm-up failed: {failures[0]}")
        fleet.setup_s = time.perf_counter() - start
        return fleet

    def discard(self, fleet: _Fleet) -> None:
        """Stop a setup-only instance (no client connected, so it exits fast)."""
        fleet.close_clients()
        os.kill(fleet.proc.pid, signal.SIGTERM)
        fleet.proc.wait(EXIT_TIMEOUT)

    def measure(self, fleet: _Fleet, seconds: float) -> Measurement:
        with BoundsClient(fleet.url) as scraper:
            before = scraper.metrics_text()
            connects = _CONNECTS.count
            rounds, timed = [], 0.0
            while not rounds or timed < seconds:
                start, end, outcomes = fleet.run_pass(self.halves)
                rounds.append({"start": start, "end": end,
                               "latencies": [lat for lat, _ in outcomes],
                               "kinds": ["request"] * len(outcomes),
                               "outcomes": [o for _, o in outcomes]})
                timed += end - start
            connects = _CONNECTS.count - connects
            after = scraper.metrics_text()
        ordered = [item for i in range(self.clients) for item in self.items[i :: self.clients]]
        failed, problems = 0, []
        for r in rounds:
            for item, outcome in zip(ordered, r.pop("outcomes")):
                if outcome != self.expected[_key(item)]:
                    failed += 1
                    problems.append(f"{_key(item)}: {outcome}")
        for name in ("repro_eigensolves_total", "repro_flow_calls_total"):
            added = parse_metric(after, name) - parse_metric(before, name)
            if added:
                problems.append(f"timed phase added {added:g} to {name} (must be 0)")
        attempted = sum(len(r["latencies"]) for r in rounds)
        return Measurement(rounds=rounds, attempted=attempted, failed=failed,
                           answers=attempted, setup_s=fleet.setup_s,
                           metrics_before=before, metrics_after=after,
                           connects=connects, problems=problems)

    def teardown(self, fleet: _Fleet, m: Measurement) -> None:
        """SIGTERM while both client connections are still open."""
        m.peak_rss_mb = session_peak_rss_mb(fleet.proc.pid)  # serve process + workers
        fleet.proc.start_reaper()
        start = time.perf_counter()
        os.kill(fleet.proc.pid, signal.SIGTERM)
        m.teardown_s = fleet.proc.wait(EXIT_TIMEOUT) - start
        fleet.close_clients()
        m.footprint = store_footprint(fleet.store)
        if fleet.stage_dir is not None:
            m.records = stages.load(fleet.stage_dir)
            m.worker_exit_codes = [
                int(r.duration) for r in m.records if r.stage == "count:server.worker_exit"
            ]


# ----------------------------------------------------------------------
# the in-process workloads, run by perfbench/program.py
# ----------------------------------------------------------------------
@dataclass
class _Program:
    proc: Proc
    directory: Path
    stage_dir: Optional[Path]
    setup_s: float = 0.0


class _ProgramWorkload:
    """Drives ``program.py``; subclasses supply the spec and the checks."""

    kind = "service"
    env: Dict[str, str] = {}
    #: Launches per untraced run; ``setup_s`` is their median, since one
    #: ~0.5 s boot is noisy on a shared host.
    setups = 7

    def __init__(self, ctx: Context, seed: int) -> None:
        self.ctx = ctx
        self.rng = random.Random(seed)
        self.launches = 0

    def spec(self) -> dict:
        raise NotImplementedError

    def check(self, result: dict, m: Measurement) -> None:
        raise NotImplementedError

    def launch(self, traced: bool) -> _Program:
        self.launches += 1
        directory = self.ctx.work / f"instance-{self.launches}"
        directory.mkdir(parents=True)
        stage_dir = directory / "stages" if traced else None
        spec = dict(self.spec(), work_dir=str(directory),
                    trace_dir=str(stage_dir) if stage_dir else None)
        spec_path = directory / "spec.json"
        spec_path.write_text(json.dumps(spec))
        if spec.get("base_store"):
            # Copying a store is the benchmark's work, not the program's, and
            # creating ~2,000 files is the noisiest step on a shared host.
            shutil.copytree(spec["base_store"], directory / "round-0")
        start = time.perf_counter()
        proc = self.ctx.procs.launch(
            [PYTHON, str(self.ctx.root / "perfbench" / "program.py"), str(spec_path)],
            self.ctx.env(**self.env),
            self.ctx.root,
        )
        proc.expect("ready", READY_TIMEOUT)
        return _Program(proc, directory, stage_dir, time.perf_counter() - start)

    def discard(self, program: _Program) -> None:
        program.proc.send({"cmd": "exit"})
        program.proc.wait(EXIT_TIMEOUT)

    def measure(self, program: _Program, seconds: float) -> Measurement:
        program.proc.send({"cmd": "rounds", "seconds": seconds})
        program.proc.expect("done", seconds + 300.0)
        result = json.loads((program.directory / "result.json").read_text())
        rounds = result["rounds"]
        attempted = sum(len(r["latencies"]) for r in rounds)
        m = Measurement(
            rounds=rounds, attempted=attempted, failed=0,
            answers=sum(len(call) for r in rounds for call in r["answers"]),
            setup_s=program.setup_s, peak_rss_mb=result["peak_rss_mb"],
            metrics_before=result["metrics_before"], metrics_after=result["metrics_after"],
            footprint={k: rounds[-1][k] for k in ("store_entries", "store_index_bytes")},
        )
        self.check(result, m)
        return m

    def teardown(self, program: _Program, m: Measurement) -> None:
        self.discard(program)
        if program.stage_dir is not None:
            m.records = stages.load(program.stage_dir)


def _family_sizes(spans: Sequence[Tuple[str, int, int]]) -> List[Tuple[str, int]]:
    return [(family, size) for family, lo, hi in spans for size in range(lo, hi)]


# store-churn: ~1,000 stored spectra of small graphs, plus cut tables.
CHURN_STORED = (("chain", 4, 254), ("diamond", 2, 252), ("binary-tree", 2, 127),
                ("prefix-sum", 2, 127), ("inner-product", 1, 64))
CHURN_NEW = (("chain", 254, 354), ("diamond", 252, 352), ("binary-tree", 127, 177),
             ("prefix-sum", 127, 177), ("inner-product", 64, 89))
CHURN_STORED_SMALL = (("chain", 4, 24), ("diamond", 2, 22), ("binary-tree", 2, 12),
                      ("prefix-sum", 2, 12), ("inner-product", 1, 6))
CHURN_NEW_SMALL = (("chain", 24, 34), ("diamond", 22, 32))
CHURN_CUT_MAX_VERTICES = 130


class StoreChurn(_ProgramWorkload):
    """Fresh ``BoundService`` on a copy of a ~1,000-entry store: 4 reads : 1 write."""

    name = "store-churn"

    def __init__(self, ctx: Context, seed: int) -> None:
        super().__init__(ctx, seed)
        small = ctx.small
        self.stored = _family_sizes(CHURN_STORED_SMALL if small else CHURN_STORED)
        self.new = _family_sizes(CHURN_NEW_SMALL if small else CHURN_NEW)
        self.cycles = 6 if small else 50

    def _vertices(self, graph: Tuple[str, int]) -> int:
        return FAMILY_SIZE_ESTIMATORS[graph[0]](graph[1])

    def _pools(self):
        """Stored spectra: normalized for every graph, unnormalized for every
        4th; stored cut tables for every 4th (offset 1) small graph."""
        cut_small = [g for g in self.stored if self._vertices(g) <= CHURN_CUT_MAX_VERTICES]
        return {
            "normalized": list(self.stored),
            "unnormalized": self.stored[0::4],
            "convex": [g for i, g in enumerate(self.stored)
                       if i % 4 == 1 and g in cut_small],
            "convex-new": [g for i, g in enumerate(self.stored)
                           if i % 4 != 1 and g in cut_small],
            "new": list(self.new),
        }

    @staticmethod
    def _item(graph, normalization="normalized", method="spectral", M=64) -> dict:
        return {"family": graph[0], "size": graph[1], "M": M,
                "normalization": normalization, "method": method}

    def _build_store(self, root: Path) -> None:
        pools = self._pools()
        service = BoundService(store=SpectrumStore(root))
        for g in pools["normalized"]:
            service.submit([query(self._item(g))])
        for g in pools["unnormalized"]:
            service.submit([query(self._item(g, "unnormalized"))])
        for g in pools["convex"]:
            service.submit([query(self._item(g, method="convex-min-cut"))])

    def prepare(self) -> None:
        self.base = self.ctx.cached("churn-store", self._build_store)
        pools = self._pools()
        rng = self.rng
        # Fixed counts of each query kind, so every seed does the same work:
        # a fifth of reads and of writes are convex-min-cut, a fifth of reads
        # unnormalized.  No graph is read twice, so every read reaches the
        # store tier; the warm-up reads two graphs no timed query touches.
        reads, writes = 4 * self.cycles, self.cycles
        taken = set()

        def sample(pool: str, count: int) -> list:
            graphs = rng.sample([g for g in pools[pool] if g not in taken], count)
            taken.update(graphs)
            return graphs

        self.warmup = [[self._item(g)] for g in sample("normalized", 1)] + [
            [self._item(g, method="convex-min-cut")] for g in sample("convex", 1)
        ]
        read_items = (
            [self._item(g, method="convex-min-cut") for g in sample("convex", reads // 5)]
            + [self._item(g, "unnormalized") for g in sample("unnormalized", reads // 5)]
            + [self._item(g) for g in sample("normalized", reads - 2 * (reads // 5))]
        )
        write_items = [
            self._item(g, method="convex-min-cut") for g in sample("convex-new", writes // 5)
        ] + [self._item(g) for g in sample("new", writes - writes // 5)]
        rng.shuffle(read_items)
        rng.shuffle(write_items)
        calls, kinds = [], []
        for cycle in range(self.cycles):
            for item in read_items[4 * cycle : 4 * cycle + 4] + [write_items[cycle]]:
                calls.append([dict(item, M=rng.randint(4, 64))])
            kinds += ["read"] * 4 + ["write"]
        self.calls, self.kinds = calls, kinds
        reference = BoundService(store=None)
        self.expected = [[answer_dict(a) for a in reference.submit([query(q) for q in call])]
                         for call in calls]

    def spec(self) -> dict:
        return {"kind": "service", "base_store": str(self.base), "num_eigenvalues": 100,
                "warmup": self.warmup, "calls": self.calls, "call_kinds": self.kinds}

    def check(self, result: dict, m: Measurement) -> None:
        for r in result["rounds"]:
            for call, got, want in zip(self.calls, r["answers"], self.expected):
                if got != want:
                    m.failed += 1
                    m.problems.append(f"{call}: got {got}, want {want}")


class PaperScaleSolve(_ProgramWorkload):
    """One cold ``BoundService.submit`` of fft:13 (n = 114,688), h = 16."""

    name = "paper-scale-solve"

    def __init__(self, ctx: Context, seed: int) -> None:
        super().__init__(ctx, seed)
        # The small size forces the amg backend, which auto picks only above
        # 50k vertices, so the smoke run still reaches the same path.
        self.levels = 8 if ctx.small else 13
        self.env = {"REPRO_SOLVER_BACKEND": "amg"} if ctx.small else {}
        extra = self.rng.sample(range(4, 64), 3)
        self.items = [{"family": "fft", "size": self.levels, "M": M,
                       "normalization": "unnormalized", "method": "spectral"}
                      for M in [64] + extra]

    def prepare(self) -> None:
        graph = GraphSpec(family="fft", size_param=self.levels).build()
        self.num_vertices = graph.num_vertices
        # The engine's unnormalized scaling: lambda(L) / max out-degree.
        oracle = butterfly_spectrum_array(self.levels)[:16] / graph.max_out_degree
        self.expected = {
            item["M"]: evaluate_bound_formula(oracle, self.num_vertices, item["M"])
            for item in self.items
        }

    def spec(self) -> dict:
        warmup = [[{"family": "fft", "size": 4, "M": 64,
                    "normalization": "unnormalized", "method": "spectral"}]]
        return {"kind": "service", "base_store": None, "num_eigenvalues": 16,
                "warmup": warmup, "calls": [self.items], "call_kinds": ["solve"]}

    def check(self, result: dict, m: Measurement) -> None:
        for r in result["rounds"]:
            for got in r["answers"][0]:
                raw, best_k, _ = self.expected[got["memory_size"]]
                ok = (
                    abs(got["raw_value"] - raw) <= 1e-9 * abs(raw)
                    and got["bound"] == max(0.0, got["raw_value"])
                    and got["best_k"] == best_k
                    and got["num_vertices"] == self.num_vertices
                )
                if not ok:
                    m.failed += 1
                    m.problems.append(
                        f"M={got['memory_size']}: bound {got['raw_value']!r} (k={got['best_k']}),"
                        f" closed form {raw!r} (k={best_k})"
                    )


SWEEP_GRAPHS = (
    [("fft", s) for s in range(4, 9)]
    + [("bhk", s) for s in range(6, 12)]
    + [("matmul", s) for s in (3, 4, 5, 6, 7, 8, 10, 11, 12, 15)]
)
SWEEP_GRAPHS_SMALL = [("fft", 3), ("fft", 4), ("fft", 5), ("bhk", 6), ("matmul", 3), ("matmul", 4)]
SWEEP_METHODS = ("spectral", "spectral-unnormalized", "convex-min-cut")
#: Memory sizes the sweep draws from; all are feasible for every graph
#: (the largest in-degree, bhk:11's, is 11).
SWEEP_MEMORY = range(16, 65)


class SweepCold(_ProgramWorkload):
    """``SweepOrchestrator(processes=2)`` on a fresh empty store each round."""

    name = "sweep-cold"
    kind = "sweep"

    def __init__(self, ctx: Context, seed: int) -> None:
        super().__init__(ctx, seed)
        self.graphs = list(SWEEP_GRAPHS_SMALL if ctx.small else SWEEP_GRAPHS)
        self.rng.shuffle(self.graphs)
        self.memory_sizes = sorted(self.rng.sample(SWEEP_MEMORY, 4))

    def _orchestrator_args(self) -> dict:
        return {"num_eigenvalues": 100,
                "max_vertices": {"convex-min-cut": CONVEX_MAX_VERTICES}}

    def _build_reference(self, root: Path) -> None:
        """Every row at every memory size, from the serial in-process path."""
        tasks = [SweepTask(family=f, size_param=s, spec=GraphSpec(family=f, size_param=s))
                 for f, s in sorted(self.graphs)]
        report = SweepOrchestrator(store=None, processes=1, **self._orchestrator_args()).run(
            tasks, SWEEP_MEMORY, methods=SWEEP_METHODS
        )
        rows = [[r.family, r.size_param, r.method, r.memory_size, r.bound, r.best_k]
                for r in report.rows]
        (root / "rows.json").write_text(json.dumps(rows))

    def prepare(self) -> None:
        reference = self.ctx.cached("sweep-reference", self._build_reference)
        rows = json.loads((reference / "rows.json").read_text())
        wanted = set(self.memory_sizes)
        self.expected = {(f, s, method, M): (bound, best_k)
                         for f, s, method, M, bound, best_k in rows if M in wanted}

    def spec(self) -> dict:
        return {"kind": "sweep", "graphs": self.graphs, "memory_sizes": self.memory_sizes,
                "methods": list(SWEEP_METHODS), "processes": 2,
                "convex_max_vertices": CONVEX_MAX_VERTICES, "num_eigenvalues": 100,
                "warmup_graphs": [["fft", 3]]}

    def check(self, result: dict, m: Measurement) -> None:
        for r in result["rounds"]:
            rows = r["answers"][0]
            iterative = {(t["family"], t["size_param"]) for t in r["tasks"]
                         if t["num_eigensolves"] and t["backend"] != "dense"}
            got = {(x["family"], x["size"], x["method"], x["M"]): (x["bound"], x["best_k"])
                   for x in rows}
            wrong = []
            for key, want in self.expected.items():
                have = got.get(key)
                if have == want:
                    continue
                # ARPACK's start vector depends on the process's call history,
                # so iterative spectra agree to rounding, not bit for bit.
                close = (have is not None and key[:2] in iterative and have[1] == want[1]
                         and abs(have[0] - want[0]) <= 1e-9 * max(1.0, abs(want[0])))
                if not close:
                    wrong.append(f"{key}: got {have}, want {want}")
            if len(got) != len(self.expected):
                wrong.append(f"{len(got)} rows, want {len(self.expected)}")
            solves = 2 * len(self.graphs)
            if r["num_eigensolves"] != solves:
                wrong.append(f"{r['num_eigensolves']} eigensolves, want {solves} "
                             f"(one per graph and normalization)")
            if wrong:
                m.failed += 1
                m.problems.extend(wrong)


WORKLOADS = {w.name: w for w in (ServeWarm, SweepCold, StoreChurn, PaperScaleSolve)}
