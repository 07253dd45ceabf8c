"""``python -m repro`` — batch bounds from the command line.

Four subcommands expose the runtime subsystem without writing any Python:

* ``solve`` — evaluate the spectral bound for one graph at one or more
  memory sizes (optionally the Theorem 6 parallel bound via ``-p``);
* ``sweep`` — run a family sweep (the paper's figure workloads) across
  optional worker processes, printing the row table and a summary (the
  ``--json`` payload also carries per solve-task backend/dtype/solve-time
  records, so scheduling and backend choices are observable);
* ``cache`` — inspect (``stats``, ``list``), integrity-check (``verify
  [--fix]``) or reset (``clear``, optionally filtered by ``--family`` /
  ``--fingerprint``) the persistent spectrum store;
* ``serve`` — expose the same :class:`~repro.runtime.service.BoundService`
  over HTTP (the :mod:`repro.server` subsystem: versioned ``/v1`` JSON
  batch queries, Prometheus ``/metrics``, admission control and in-flight
  coalescing).  Against a pre-warmed ``--store`` the whole HTTP path
  answers without a single eigensolve or max-flow call, which the CI serve
  smoke asserts via ``repro_eigensolves_total`` / ``repro_flow_calls_total``.
  ``--workers N`` (or ``$REPRO_SERVE_WORKERS``) boots a pre-forked sharded
  fleet instead: N shared-nothing worker processes over the same store,
  shard-routed by consistent hashing on the graph identity, with
  cross-process solve coalescing via store leases (``--lease-ttl`` /
  ``$REPRO_LEASE_TTL_SECONDS``);
* ``obs`` — observability utilities over :mod:`repro.obs`: ``obs report
  trace.jsonl`` renders a trace (written via ``--trace`` on ``solve`` /
  ``sweep`` / ``serve``) as a top-down span tree plus a self-time table
  (``--json`` for the same as machine-readable data), and ``obs perf
  check`` / ``obs perf report`` run the performance-regression sentinel
  over the ``BENCH_HISTORY.jsonl`` ledger the benchmark harness appends
  to (see :mod:`repro.obs.perf`: counters compare exactly, wall-clock is
  threshold-gated and disabled by ``REPRO_BENCH_TIMING_ASSERT=0``).

``--trace PATH`` on ``solve``, ``sweep`` and ``serve`` enables span-based
tracing for the invocation and writes one JSON span per line to PATH;
sweeps running with worker processes propagate the trace context into each
task and fold the workers' span shards back into the same file.  Setting
``REPRO_PROFILE=1`` additionally cProfiles each sweep task into
``PATH.profile-<task>-<pid>.pstats``.

``solve`` and ``sweep`` take ``--solver`` (``auto``/``dense``/``sparse``/
``lanczos``/``power``/``lobpcg``/``amg``) and ``--dtype``
(``float64``/``float32``) to pick the spectral backend; every cache tier
keys on both, so variants coexist.  ``auto`` routes large graphs to the
AMG-preconditioned LOBPCG backend, and ``$REPRO_SOLVER_BACKEND`` forces a
backend id for every ``auto`` solve (mirroring ``$REPRO_MINCUT_BACKEND``)
without touching scripts — it applies to ``solve``, ``sweep`` and ``serve``
alike.  ``--mincut-backend`` (``auto``/``dinic``/``array-dinic``/
``scipy``) picks the max-flow backend of the convex min-cut baseline
(``sweep --methods convex-min-cut`` / ``solve --method convex-min-cut``);
cut values are exact, so all backends share one fingerprint-keyed cut table
and a warm re-run performs zero max-flow calls (``num_flow_calls`` in the
``sweep --json`` payload, ``cuts.flows_recorded`` in ``cache stats``).

All subcommands share one persistent :class:`~repro.runtime.store
.SpectrumStore` (``--store DIR``, ``$REPRO_SPECTRUM_STORE``, or
``~/.cache/repro/spectra`` in that order; ``--no-store`` disables
persistence), so a sweep run twice against the same store performs zero
eigensolves the second time — which is exactly what the CI smoke test
asserts using the ``num_eigensolves`` field of ``sweep --json`` output and
the ``solves_recorded`` counter of ``cache stats``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro import obs
from repro.analysis.reporting import format_table
from repro.baselines.flow_backends import available_flow_backends
from repro.runtime.families import FAMILY_BUILDERS, GraphSpec
from repro.runtime.orchestrator import SweepOrchestrator
from repro.runtime.service import BoundQuery, BoundService
from repro.runtime.store import CutStore, SpectrumStore, default_store_root
from repro.solvers.backend import EigenSolverOptions
from repro.solvers.backends import available_backends

__all__ = ["main", "build_parser"]


def _store_from_args(args: argparse.Namespace) -> Optional[SpectrumStore]:
    if getattr(args, "no_store", False):
        return None
    root = args.store if args.store is not None else default_store_root()
    return SpectrumStore(root, lease_ttl=getattr(args, "lease_ttl", None))


def _add_store_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        type=Path,
        default=None,
        help="spectrum store directory (default: $REPRO_SPECTRUM_STORE or "
        "~/.cache/repro/spectra)",
    )
    parser.add_argument(
        "--no-store",
        action="store_true",
        help="disable the persistent spectrum store for this invocation",
    )


def _add_solver_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--solver",
        choices=("auto",) + available_backends(),
        default="auto",
        help="spectral backend (default: auto = dense / sparse / amg by size; "
        "$REPRO_SOLVER_BACKEND forces a backend for auto solves)",
    )
    parser.add_argument(
        "--dtype",
        choices=["float64", "float32"],
        default="float64",
        help="eigensolve precision (float32 trades ~1e-6 accuracy for speed)",
    )


def _eig_options_from_args(args: argparse.Namespace) -> Optional[EigenSolverOptions]:
    solver = getattr(args, "solver", "auto")
    dtype = getattr(args, "dtype", "float64")
    if solver == "auto" and dtype == "float64":
        return None
    return EigenSolverOptions(method=solver, dtype=dtype)


def _add_trace_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="PATH",
        help="write a JSONL span trace to PATH (render it with "
        "'python -m repro obs report PATH'; REPRO_PROFILE=1 adds per-task "
        "cProfile dumps next to it)",
    )


def _add_mincut_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--mincut-backend",
        choices=("auto",) + available_flow_backends(),
        default="auto",
        help="max-flow backend for the convex min-cut baseline "
        "(default: auto = scipy when available; dinic forces the "
        "pure-Python reference)",
    )


def _mincut_backend_from_args(args: argparse.Namespace) -> Optional[str]:
    backend = getattr(args, "mincut_backend", "auto")
    return None if backend == "auto" else backend


def _add_graph_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--family",
        choices=sorted(FAMILY_BUILDERS),
        help="named graph family (generator)",
    )
    parser.add_argument("--size", type=int, help="family size parameter")
    parser.add_argument(
        "--graph", type=Path, help="path to a saved graph (.npz or .json)"
    )


def _graph_spec_from_args(args: argparse.Namespace) -> GraphSpec:
    if args.graph is not None:
        if args.family is not None:
            raise SystemExit("error: pass either --family/--size or --graph, not both")
        return GraphSpec(path=str(args.graph))
    if args.family is None or args.size is None:
        raise SystemExit("error: pass --family NAME --size N, or --graph PATH")
    return GraphSpec(family=args.family, size_param=args.size)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Spectral I/O lower bounds: batch solver, family sweeps, "
        "and persistent spectrum cache management.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="bound one graph at given memory sizes")
    _add_graph_arguments(solve)
    solve.add_argument(
        "--memory-sizes",
        "-M",
        type=int,
        nargs="+",
        required=True,
        help="fast-memory sizes M to evaluate",
    )
    solve.add_argument(
        "--processors", "-p", type=int, default=1, help="processor count (Theorem 6)"
    )
    solve.add_argument(
        "--unnormalized",
        action="store_true",
        help="use the unnormalized Laplacian bound (Theorem 5)",
    )
    solve.add_argument(
        "--method",
        choices=["spectral", "convex-min-cut"],
        default="spectral",
        help="bound method (convex-min-cut = the Elango et al. baseline)",
    )
    solve.add_argument(
        "--num-eigenvalues", type=int, default=100, help="eigenvalue truncation h"
    )
    solve.add_argument("--json", action="store_true", help="print JSON instead of a table")
    _add_solver_arguments(solve)
    _add_mincut_arguments(solve)
    _add_store_arguments(solve)
    _add_trace_argument(solve)

    sweep = sub.add_parser("sweep", help="sweep a graph family (figure workloads)")
    sweep.add_argument(
        "--family",
        required=True,
        choices=sorted(FAMILY_BUILDERS),
        help="graph family to sweep",
    )
    sweep.add_argument(
        "--sizes", type=int, nargs="+", required=True, help="family size parameters"
    )
    sweep.add_argument(
        "--memory-sizes", "-M", type=int, nargs="+", required=True, help="memory sizes M"
    )
    sweep.add_argument(
        "--methods",
        nargs="+",
        default=["spectral"],
        choices=["spectral", "spectral-unnormalized", "convex-min-cut"],
        help="bound methods to evaluate",
    )
    sweep.add_argument(
        "--processes",
        type=int,
        default=1,
        help="worker processes (0 = one per CPU)",
    )
    sweep.add_argument(
        "--num-eigenvalues", type=int, default=100, help="eigenvalue truncation h"
    )
    sweep.add_argument(
        "--json",
        type=Path,
        default=None,
        metavar="PATH",
        help="also write rows + summary as JSON ('-' for stdout)",
    )
    _add_solver_arguments(sweep)
    _add_mincut_arguments(sweep)
    _add_store_arguments(sweep)
    _add_trace_argument(sweep)

    serve = sub.add_parser("serve", help="serve bounds over HTTP (repro.server)")
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8080, help="bind port (0 = ephemeral)"
    )
    serve.add_argument(
        "--num-eigenvalues", type=int, default=100, help="eigenvalue truncation h"
    )
    serve.add_argument(
        "--max-in-flight",
        type=int,
        default=4,
        help="solve batches allowed to run concurrently",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=16,
        help="solve batches allowed to wait for a slot before 429s start",
    )
    serve.add_argument(
        "--retry-after",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="Retry-After hint attached to 429 responses",
    )
    serve.add_argument(
        "--no-coalesce",
        action="store_true",
        help="disable in-flight coalescing of identical queries",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes; >1 boots a pre-forked sharded fleet "
        "(default: $REPRO_SERVE_WORKERS or 1)",
    )
    serve.add_argument(
        "--lease-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="solve-lease heartbeat ttl for cross-process coalescing "
        "(default: $REPRO_LEASE_TTL_SECONDS or 30; 0 disables leasing)",
    )
    _add_solver_arguments(serve)
    _add_mincut_arguments(serve)
    _add_store_arguments(serve)
    _add_trace_argument(serve)

    obs_cmd = sub.add_parser(
        "obs", help="observability utilities (render traces, perf sentinel)"
    )
    obs_sub = obs_cmd.add_subparsers(dest="obs_command", required=True)
    obs_report = obs_sub.add_parser(
        "report", help="render a --trace JSONL file (span tree + self times)"
    )
    obs_report.add_argument(
        "trace_file", type=Path, metavar="TRACE", help="trace JSONL file to render"
    )
    obs_report.add_argument(
        "--json",
        action="store_true",
        help="emit the span tree and self-time table as JSON instead of text",
    )
    obs_perf = obs_sub.add_parser(
        "perf",
        help="benchmark-history sentinel: check for regressions / report the trajectory",
    )
    obs_perf.add_argument(
        "action",
        choices=["check", "report"],
        help="check: exit non-zero on regressions; report: render the trajectory",
    )
    obs_perf.add_argument(
        "--history",
        type=Path,
        default=None,
        metavar="PATH",
        help="history ledger (default: ./BENCH_HISTORY.jsonl)",
    )
    obs_perf.add_argument(
        "--window",
        type=int,
        default=None,
        metavar="K",
        help="baseline = median of the last K same-environment runs "
        "(default: $REPRO_PERF_WINDOW or 5)",
    )
    obs_perf.add_argument(
        "--threshold",
        type=float,
        default=None,
        metavar="FRACTION",
        help="wall-clock/throughput tolerance, e.g. 0.25 = ±25%% "
        "(default: $REPRO_PERF_THRESHOLD or 0.25)",
    )

    cache = sub.add_parser("cache", help="inspect/verify/reset the persistent spectrum store")
    cache.add_argument(
        "action",
        choices=["stats", "list", "clear", "verify"],
        help="what to do with the store",
    )
    cache.add_argument(
        "--family",
        default=None,
        metavar="NAME",
        help="clear: only remove entries recorded under this family lineage",
    )
    cache.add_argument(
        "--fingerprint",
        default=None,
        metavar="PREFIX",
        help="clear: only remove entries whose graph fingerprint starts with PREFIX",
    )
    cache.add_argument(
        "--fix",
        action="store_true",
        help="verify: drop corrupt/missing catalog entries and delete orphaned blobs",
    )
    _add_store_arguments(cache)

    return parser


def _cmd_solve(args: argparse.Namespace) -> int:
    spec = _graph_spec_from_args(args)
    service = BoundService(
        store=_store_from_args(args),
        num_eigenvalues=args.num_eigenvalues,
        eig_options=_eig_options_from_args(args),
        mincut_backend=_mincut_backend_from_args(args),
    )
    normalization = "unnormalized" if args.unnormalized else "normalized"
    queries = [
        BoundQuery(
            graph=spec,
            memory_size=M,
            num_processors=args.processors,
            normalization=normalization,
            method=args.method,
        )
        for M in args.memory_sizes
    ]
    answers = service.submit(queries)
    if args.json:
        print(json.dumps([a.as_dict() for a in answers], indent=2))
    else:
        print(format_table(answers, float_format=".3f"))
        stats = service.stats()
        print(
            f"[eigensolves: {stats['cache_misses']}, memory hits: "
            f"{stats['cache_hits'] - stats['store_hits']}, store hits: "
            f"{stats['store_hits']}, flow calls: {stats['flow_calls']}]"
        )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    store = _store_from_args(args)
    orchestrator = SweepOrchestrator(
        store=store,
        processes=args.processes if args.processes > 0 else None,
        num_eigenvalues=args.num_eigenvalues,
        eig_options=_eig_options_from_args(args),
        mincut_backend=_mincut_backend_from_args(args),
    )
    report = orchestrator.run_family(
        args.family, None, args.sizes, args.memory_sizes, methods=tuple(args.methods)
    )
    print(format_table(report.rows, title=f"== sweep: {args.family} =="))
    summary = report.summary()
    print(
        f"[{summary['num_rows']} rows, {summary['num_eigensolves']} eigensolves, "
        f"{summary['num_flow_calls']} flow calls, "
        f"{summary['elapsed_seconds']}s, processes={summary['processes']}, "
        f"store={summary['store_root'] or 'disabled'}]"
    )
    if args.json is not None:
        payload = dict(summary)
        payload["rows"] = [row.as_dict() for row in report.rows]
        payload["tasks"] = [record.as_dict() for record in report.tasks]
        text = json.dumps(payload, indent=2)
        if str(args.json) == "-":
            print(text)
        else:
            args.json.write_text(text + "\n")
    return 0


def build_server_from_args(args: argparse.Namespace):
    """Construct the :class:`~repro.server.runner.BoundServer` ``serve`` runs.

    Factored out of :func:`_cmd_serve` so tests can boot the exact CLI
    server wiring on an ephemeral port without blocking in
    ``serve_forever``.  Imported lazily: the other subcommands must not pay
    for (or depend on) the serving stack.
    """
    from repro.server.runner import BoundServer

    service = BoundService(
        store=_store_from_args(args),
        num_eigenvalues=args.num_eigenvalues,
        eig_options=_eig_options_from_args(args),
        mincut_backend=_mincut_backend_from_args(args),
    )
    return BoundServer(
        service,
        host=args.host,
        port=args.port,
        max_in_flight=args.max_in_flight,
        max_queue=args.max_queue,
        retry_after_seconds=args.retry_after,
        coalesce=not args.no_coalesce,
    )


def _serve_workers(args: argparse.Namespace) -> int:
    if args.workers is not None:
        return max(1, int(args.workers))
    import os

    from repro.server.runner import SERVE_WORKERS_ENV_VAR

    raw = os.environ.get(SERVE_WORKERS_ENV_VAR)
    try:
        return max(1, int(raw)) if raw else 1
    except ValueError:
        return 1


def build_fleet_from_args(args: argparse.Namespace, workers: int):
    """Construct the :class:`~repro.server.runner.ServerFleet` for ``--workers N``.

    Like :func:`build_server_from_args`, factored out (and lazily
    importing) so tests can boot the exact CLI fleet wiring on ephemeral
    ports without blocking in ``serve_forever``.  The fleet does not take
    a live service: each forked worker builds its own from the config.
    """
    from repro.server.runner import FleetConfig, ServerFleet

    if getattr(args, "no_store", False):
        store_root = None
    else:
        root = args.store if args.store is not None else default_store_root()
        store_root = str(root)
    trace_path = getattr(args, "trace", None)
    config = FleetConfig(
        store_root=store_root,
        num_eigenvalues=args.num_eigenvalues,
        eig_options=_eig_options_from_args(args),
        mincut_backend=_mincut_backend_from_args(args),
        max_in_flight=args.max_in_flight,
        max_queue=args.max_queue,
        retry_after_seconds=args.retry_after,
        coalesce=not args.no_coalesce,
        lease_ttl=getattr(args, "lease_ttl", None),
        trace_path=str(trace_path) if trace_path is not None else None,
    )
    return ServerFleet(config, host=args.host, port=args.port, workers=workers)


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    # CI (and any sane supervisor) stops the server with SIGTERM; route it
    # through the same KeyboardInterrupt path as ^C so the fleet/server is
    # drained and reaped instead of orphaning forked workers.
    def _sigterm(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _sigterm)
    workers = _serve_workers(args)
    if workers > 1:
        fleet = build_fleet_from_args(args, workers)
        fleet.start()
        store_label = fleet.config.store_root or "disabled"
        print(
            f"serving bounds on {fleet.url} with {workers} workers "
            f"(store: {store_label})"
        )
        for worker_id, url in enumerate(fleet.worker_urls):
            print(f"  worker {worker_id}: {url}")
        print("endpoints: POST /v1/bounds  GET /v1/stats  GET /healthz  GET /metrics")
        try:
            fleet.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            fleet.close()
        return 0
    server = build_server_from_args(args)
    store = server.service.store
    # `is not None`, not truthiness: an empty SpectrumStore has len() == 0.
    store_label = store.root if store is not None else "disabled"
    print(f"serving bounds on {server.url} (store: {store_label})")
    print("endpoints: POST /v1/bounds  GET /v1/stats  GET /healthz  GET /metrics")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    if args.obs_command == "perf":
        return _cmd_obs_perf(args)
    from repro.obs.report import render_report, report_as_json

    try:
        spans = obs.load_spans(str(args.trace_file))
    except FileNotFoundError:
        raise SystemExit(f"error: no such trace file: {args.trace_file}")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"error: {args.trace_file} is not valid JSONL: {exc}")
    if args.json:
        print(json.dumps(report_as_json(spans), indent=2))
    else:
        print(render_report(spans), end="")
    return 0


def _cmd_obs_perf(args: argparse.Namespace) -> int:
    from repro.obs import perf

    history_path = args.history if args.history is not None else perf.default_history_path()
    history = perf.load_history(history_path)
    if args.action == "report":
        print(perf.render_trajectory(history), end="")
        return 0
    if not history:
        print(
            f"error: no benchmark history at {history_path}; run "
            f"'python -m pytest benchmarks/' first (it appends to the ledger)",
            file=sys.stderr,
        )
        return 1
    result = perf.check(history, window=args.window, threshold=args.threshold)
    print(result.render(), end="")
    return 0 if result.ok else 1


def _cmd_cache(args: argparse.Namespace) -> int:
    store = _store_from_args(args)
    if store is None:
        raise SystemExit("error: cache management needs a store (drop --no-store)")
    cut_store = CutStore(store.root)
    if args.action == "stats":
        stats = store.stats()
        stats["cuts"] = cut_store.stats()
        print(json.dumps(stats, indent=2))
    elif args.action == "list":
        entries = store.entries()
        print(format_table(entries, title=f"== spectrum store: {store.root} =="))
        cut_entries = cut_store.entries()
        if cut_entries:
            print(format_table(cut_entries, title=f"== cut store: {store.root} =="))
    elif args.action == "verify":
        report = store.verify(fix=args.fix)
        report["cuts"] = cut_store.verify(fix=args.fix)
        report["ok"] = bool(report["ok"] and report["cuts"]["ok"])
        print(json.dumps(report, indent=2))
        return 0 if report["ok"] or args.fix else 1
    else:  # clear
        removed = store.clear(
            lineage=args.family, fingerprint_prefix=args.fingerprint
        )
        removed += cut_store.clear(
            lineage=args.family, fingerprint_prefix=args.fingerprint
        )
        print(f"removed {removed} entries from {store.root}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(list(argv) if argv is not None else None)
    handlers = {
        "solve": _cmd_solve,
        "sweep": _cmd_sweep,
        "cache": _cmd_cache,
        "serve": _cmd_serve,
        "obs": _cmd_obs,
    }
    trace_path = getattr(args, "trace", None)
    if trace_path is None:
        return handlers[args.command](args)
    obs.configure(str(trace_path))
    try:
        return handlers[args.command](args)
    finally:
        obs.disable()  # flush + close the JSONL sink


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
