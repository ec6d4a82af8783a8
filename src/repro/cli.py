"""Command-line interface: ``python -m repro <command>``.

Commands
--------
- ``workloads`` — list the benchmark suite (Table 1 style).
- ``trace NAME`` — capture a value trace, print stats, optionally save.
- ``run EXPERIMENT`` — run a registered paper experiment and print it.
- ``predict NAME`` — measure one predictor configuration on a benchmark.
- ``compare NAME`` — measure every predictor class on a benchmark.
- ``bench`` — engine throughput benchmark (writes BENCH_predictors.json).
- ``tables`` — table-usage efficiency report: families at matched
  storage budgets, occupancy/aliasing heatmaps, the paper's
  DFCM-beats-FCM efficiency check (``--json`` for CI).
- ``compile FILE`` — compile a MinC source file to R32 assembly.
- ``exec FILE`` — compile and execute a MinC source file on the VM.
- ``disasm NAME`` — disassemble a workload's compiled text segment.
- ``cache ls|verify|clear|warm`` — inspect and manage the trace cache.
- ``state ls|verify|compact`` — inspect and manage durable session
  arenas written by ``serve --state-dir`` (see docs/state.md).
- ``telemetry summary|export|tail`` — inspect recorded telemetry runs.
- ``serve`` — run the online prediction server (graceful SIGTERM drain;
  ``--obs-port`` adds the HTTP /metrics /healthz /slo /slow endpoint;
  ``--state-dir`` spills session table state to durable arenas,
  ``--max-resident`` adds LRU eviction on top).
- ``loadgen NAME`` — replay a trace against a server, report throughput
  and latency percentiles, verify accuracy against the offline engine
  (``--cluster-workers`` sweeps self-hosted fleet sizes instead).
- ``cluster serve|status`` — run a session-affine router over N worker
  processes, or show a running router's fleet report.
- ``soak NAME`` — hold a self-hosted fleet under sustained load and
  gate on the multi-window SLO burn and offline parity.
- ``top URL|PORT`` — live dashboard over a server's obs endpoint
  (``--once`` prints a single plain snapshot).

``bench`` also maintains a history: ``bench --history`` appends the
run (git SHA + timestamp) to ``BENCH_history.jsonl``; ``bench diff``
compares the two most recent records and exits nonzero on a
throughput regression beyond ``--max-regression-pct``.

Every ``--json`` payload carries a ``"schema"`` integer so consumers
can detect shape changes; every failure path exits nonzero with an
``error: ...`` line on stderr.

``run``, ``predict`` and ``compare`` accept ``--telemetry DIR`` to
record the invocation as a telemetry run (manifest + JSONL spans/probes
+ metrics) under DIR; ``predict`` and ``compare`` accept ``--json`` for
machine-readable output carrying the telemetry run id.

``run`` accepts ``--jobs N`` to fan the suite's measurement cells
across N worker processes (output is byte-identical to the serial
run).  The replay engine is chosen from each spec: the batch kernels
where they exist, the scalar loop otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import List, Optional

__all__ = ["main", "build_parser"]


def default_telemetry_dir() -> str:
    """Where ``repro telemetry`` looks for runs
    (``REPRO_TELEMETRY_DIR``, default ``.telemetry``)."""
    return os.environ.get("REPRO_TELEMETRY_DIR", ".telemetry")


def default_state_dir() -> str:
    """Where ``repro state`` looks for session arenas
    (``REPRO_STATE_DIR``, default ``.state``)."""
    return os.environ.get("REPRO_STATE_DIR", ".state")


def _maybe_telemetry(args):
    """Context manager yielding the active TelemetryRun (or None) for
    commands carrying a ``--telemetry DIR`` flag."""
    directory = getattr(args, "telemetry", None)
    if not directory:
        return contextlib.nullcontext(None)
    from repro.telemetry import telemetry_run
    return telemetry_run(directory, command=args.command,
                         argv=getattr(args, "_argv", None))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DFCM value prediction reproduction (HPCA 2001)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list the benchmark suite")

    trace = sub.add_parser(
        "trace",
        help="capture a value trace, or (--from) look up a request "
             "trace on a serve/cluster obs endpoint")
    trace.add_argument("name",
                       help="workload name (see 'workloads'), or with "
                            "--from a 16-hex-digit request trace id")
    trace.add_argument("--limit", type=int, default=100_000,
                       help="predictions to capture (default 100000)")
    trace.add_argument("--out", help="write the trace to this .npz file")
    trace.add_argument("--head", type=int, default=0,
                       help="print the first N (pc, value) records")
    trace.add_argument("-O", "--optimize", type=int, default=0,
                       choices=[0, 1, 2], help="compiler optimisation level")
    trace.add_argument("--from", dest="from_target", metavar="OBS",
                       default=None,
                       help="distributed-trace mode: fetch /trace/<id> "
                            "from this obs endpoint (router or worker; "
                            "base URL or bare port on 127.0.0.1) and "
                            "render the cross-process timeline")
    trace.add_argument("--json", action="store_true",
                       help="print the raw trace JSON (--from mode)")
    trace.add_argument("--timeout", type=float, default=5.0,
                       help="HTTP timeout (default 5s; --from mode)")

    run = sub.add_parser("run", help="run a paper experiment")
    run.add_argument("experiment", help="experiment id, or 'list'")
    run.add_argument("--fast", action="store_true",
                     help="reduced sweep (for a quick look)")
    run.add_argument("--limit", type=int, default=None,
                     help="trace length per benchmark")
    run.add_argument("--telemetry", metavar="DIR", default=None,
                     help="record this invocation as a telemetry run "
                          "under DIR")
    run.add_argument("--jobs", type=int, default=None,
                     help="worker processes for suite measurement "
                          "(default 1 = serial)")

    predict = sub.add_parser("predict",
                             help="measure one predictor on one benchmark")
    predict.add_argument("name", help="workload name")
    predict.add_argument("--predictor", default="dfcm",
                         choices=["lvp", "lastn", "stride", "stride2d",
                                  "fcm", "dfcm"])
    predict.add_argument("--l1", type=int, default=16,
                         help="log2 level-1 entries (context predictors) "
                              "or log2 table entries (simple predictors)")
    predict.add_argument("--l2", type=int, default=12,
                         help="log2 level-2 entries (context predictors)")
    predict.add_argument("--limit", type=int, default=100_000)
    predict.add_argument("--json", action="store_true",
                         help="machine-readable JSON output")
    predict.add_argument("--telemetry", metavar="DIR", default=None,
                         help="record this invocation as a telemetry run "
                              "under DIR")

    compare = sub.add_parser("compare",
                             help="measure every predictor on one benchmark")
    compare.add_argument("name", help="workload name")
    compare.add_argument("--limit", type=int, default=50_000)
    compare.add_argument("--json", action="store_true",
                         help="machine-readable JSON output")
    compare.add_argument("--telemetry", metavar="DIR", default=None,
                         help="record this invocation as a telemetry run "
                              "under DIR")

    bench = sub.add_parser(
        "bench", help="engine throughput benchmark (scalar vs batch)")
    bench.add_argument("action", nargs="?", default="run",
                       choices=["run", "diff"],
                       help="run the benchmark (default) or diff the two "
                            "most recent history records")
    bench.add_argument("--fast", action="store_true",
                       help="small trace; record the guard, don't "
                            "enforce it")
    bench.add_argument("--out", default="BENCH_predictors.json",
                       help="report path (default BENCH_predictors.json; "
                            "'-' = skip the file)")
    bench.add_argument("--json", action="store_true",
                       help="print the report JSON instead of the table")
    bench.add_argument("--history", action="store_true",
                       help="append this run (git SHA + timestamp) to the "
                            "history file")
    bench.add_argument("--history-file", default="BENCH_history.jsonl",
                       help="history path (default BENCH_history.jsonl)")
    bench.add_argument("--max-regression-pct", type=float, default=None,
                       help="bench diff: fail when batch throughput drops "
                            "more than this percent (default 10)")

    tables = sub.add_parser(
        "tables", help="table-usage efficiency report across families "
                       "at matched storage budgets")
    tables.add_argument("name", nargs="?", default="li",
                        help="workload name (default li)")
    tables.add_argument("--limit", type=int, default=50_000,
                        help="trace length to audit (default 50000)")
    tables.add_argument("--budgets", default=None,
                        help="comma-separated storage budgets in Kbit "
                             "(default 64,128,256,512,1024)")
    tables.add_argument("--families", default=None,
                        help="comma-separated families to sweep "
                             "(default lvp,stride,fcm,dfcm,hybrid)")
    tables.add_argument("--json", action="store_true",
                        help="machine-readable JSON output")
    tables.add_argument("--out", default=None,
                        help="also write the report JSON to this file")

    compile_cmd = sub.add_parser("compile",
                                 help="compile MinC to R32 assembly")
    compile_cmd.add_argument("file", help="MinC source file ('-' = stdin)")
    compile_cmd.add_argument("-O", "--optimize", type=int, default=0,
                             choices=[0, 1, 2],
                             help="compiler optimisation level")

    exec_cmd = sub.add_parser("exec", help="compile and run MinC on the VM")
    exec_cmd.add_argument("file", help="MinC source file ('-' = stdin)")
    exec_cmd.add_argument("--max-instructions", type=int,
                          default=100_000_000)
    exec_cmd.add_argument("-O", "--optimize", type=int, default=0,
                          choices=[0, 1, 2],
                          help="compiler optimisation level")

    disasm = sub.add_parser("disasm",
                            help="disassemble a workload's text segment")
    disasm.add_argument("name", help="workload name")
    disasm.add_argument("--head", type=int, default=40,
                        help="lines to print (0 = all)")

    cache = sub.add_parser("cache", help="inspect/manage the trace cache")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_ls = cache_sub.add_parser("ls", help="list cache entries")
    cache_verify = cache_sub.add_parser(
        "verify", help="integrity-check every entry (exit 1 on defects)")
    cache_verify.add_argument(
        "--repair", action="store_true",
        help="quarantine defective entries and recapture them")
    cache_clear = cache_sub.add_parser(
        "clear", help="delete all entries (and tmp/quarantine files)")
    cache_warm = cache_sub.add_parser(
        "warm", help="pre-capture entries for a benchmark (or 'all')")
    cache_warm.add_argument("name", help="workload name, or 'all'")
    cache_warm.add_argument("limit", type=int,
                            help="predictions per benchmark")
    cache_warm.add_argument("-O", "--optimize", type=int, default=0,
                            choices=[0, 1, 2],
                            help="compiler optimisation level")
    for sub_parser in (cache_ls, cache_verify, cache_clear, cache_warm):
        sub_parser.add_argument("--dir", default=None,
                                help="cache directory (default "
                                     ".trace_cache / REPRO_TRACE_CACHE)")

    state = sub.add_parser(
        "state", help="inspect/manage durable session arenas "
                      "(written by serve --state-dir)")
    state_sub = state.add_subparsers(dest="state_command", required=True)
    state_ls = state_sub.add_parser("ls", help="list session arenas")
    state_verify = state_sub.add_parser(
        "verify", help="integrity-check arenas (exit 1 on defects); "
                       "pass a file path to check just that arena")
    state_verify.add_argument("path", nargs="?", default=None,
                              help="one arena file to check (default: "
                                   "sweep the whole directory)")
    state_compact = state_sub.add_parser(
        "compact", help="remove tmp/quarantine litter and arenas that "
                        "no longer verify")
    for sub_parser in (state_ls, state_verify, state_compact):
        sub_parser.add_argument("--dir", default=None,
                                help="state directory (default "
                                     ".state / REPRO_STATE_DIR)")
        sub_parser.add_argument("--json", action="store_true",
                                help="machine-readable JSON output")

    telemetry = sub.add_parser("telemetry",
                               help="inspect recorded telemetry runs")
    telemetry_sub = telemetry.add_subparsers(dest="telemetry_command",
                                             required=True)
    tel_summary = telemetry_sub.add_parser(
        "summary", help="human-readable digest of one run")
    tel_export = telemetry_sub.add_parser(
        "export", help="dump a run's data for other tools")
    tel_export.add_argument("--format", default="jsonl",
                            choices=["jsonl", "prom"],
                            help="jsonl = raw event log, "
                                 "prom = Prometheus text exposition")
    tel_tail = telemetry_sub.add_parser(
        "tail", help="print the last N events of a run")
    tel_tail.add_argument("-n", "--lines", type=int, default=20,
                          help="events to print (default 20)")
    for sub_parser in (tel_summary, tel_export, tel_tail):
        sub_parser.add_argument("--dir", default=None,
                                help="telemetry root (default .telemetry "
                                     "/ REPRO_TELEMETRY_DIR)")
        sub_parser.add_argument("--run", default=None,
                                help="run id (default: most recent run)")

    # Flags shared by `serve` and `cluster serve`; a cluster applies the
    # server ones (queue bound, timeout, state) to every worker it
    # spawns.
    serving = argparse.ArgumentParser(add_help=False)
    serving.add_argument("--host", default="127.0.0.1")
    serving.add_argument("--port", type=int, default=0,
                         help="listen port (default 0 = ephemeral)")
    serving.add_argument("--obs-port", type=int, default=None,
                         help="serve HTTP /metrics /healthz /slo /slow "
                              "on this port (0 = ephemeral; default off)")
    serving.add_argument("--queue-depth", type=int, default=1024,
                         help="per-server queue bound / backpressure "
                              "point (default 1024)")
    serving.add_argument("--request-timeout-s", type=float, default=30.0,
                         help="per-request response deadline "
                              "(default 30s)")
    serving.add_argument("--state-dir", default=None,
                         help="durable session state: spill/restore "
                              "per-session table arenas under this "
                              "directory (a cluster shares it for hot "
                              "migration and failover; default: "
                              "in-memory only)")
    serving.add_argument("--max-resident", type=int, default=None,
                         help="LRU-evict spillable sessions to the state "
                              "directory beyond this many resident "
                              "sessions per server (requires "
                              "--state-dir; default: spill only on "
                              "drain)")
    serving.add_argument("--telemetry", metavar="DIR", default=None,
                         help="record this invocation as a telemetry run "
                              "under DIR")
    serving.add_argument("--json", action="store_true",
                         help="print listening/drained lines as JSON")

    serve = sub.add_parser("serve", parents=[serving],
                           help="run the online prediction server")
    serve.add_argument("--slo-p99-ms", type=float, default=250.0,
                       help="latency SLO: p99 of data-path requests "
                            "must stay under this (default 250ms)")
    serve.add_argument("--slo-queue-depth", type=float, default=512.0,
                       help="queue SLO: queue depth ceiling "
                            "(default 512)")
    serve.add_argument("--slow-out", metavar="FILE", default=None,
                       help="write the slow-request sample JSON here on "
                            "drain")

    # Flags shared by `loadgen` and `soak`.  `--limit` stays on each
    # command: its defaults differ, and a parent's actions are shared,
    # so a default set on one command would change the other's too.
    replaying = argparse.ArgumentParser(add_help=False)
    replaying.add_argument("name", help="workload name (see 'workloads')")
    replaying.add_argument("--predictor", default="dfcm",
                           choices=["lvp", "lastn", "stride", "stride2d",
                                    "fcm", "dfcm"])
    replaying.add_argument("--l1", type=int, default=16,
                           help="log2 level-1 entries")
    replaying.add_argument("--l2", type=int, default=12,
                           help="log2 level-2 entries")
    replaying.add_argument("--window", type=int, default=0,
                           help="delayed-update window (default 0)")
    replaying.add_argument("--block", type=int, default=256,
                           help="records per STEP_BLOCK frame "
                                "(default 256)")
    replaying.add_argument("--sessions", type=int, default=4,
                           help="concurrent replay sessions (default 4; "
                                "loadgen: per fleet size, with "
                                "--cluster-workers only)")
    replaying.add_argument("--state-dir", default=None,
                           help="shared state directory for the "
                                "self-hosted fleet (loadgen: with "
                                "--cluster-workers only)")
    replaying.add_argument("--json", action="store_true",
                           help="print the full report JSON")
    replaying.add_argument("--out", default=None,
                           help="also write the report JSON to this file")

    loadgen = sub.add_parser(
        "loadgen", parents=[replaying],
        help="replay a trace against a prediction server")
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, default=None,
                         help="server port")
    loadgen.add_argument("--limit", type=int, default=1000,
                         help="records to replay (default 1000)")
    loadgen.add_argument("--mode", default="both",
                         choices=["naive", "batched", "both"])
    loadgen.add_argument("--min-speedup", type=float, default=None,
                         help="fail unless batched beats naive by this "
                              "factor (needs --port and --mode both)")
    loadgen.add_argument("--cluster-workers", default=None,
                         help="scaling mode: comma-separated fleet "
                              "sizes (e.g. 1,2,3) to self-host and "
                              "sweep instead of targeting --port")
    loadgen.add_argument("--min-scaling", type=float, default=None,
                         help="fail unless the largest fleet beats one "
                              "worker by this factor (scaling mode, "
                              "two or more fleet sizes)")

    cluster = sub.add_parser(
        "cluster", help="multi-worker cluster serving (router + fleet)")
    cluster_sub = cluster.add_subparsers(dest="cluster_command",
                                         required=True)
    cserve = cluster_sub.add_parser(
        "serve", parents=[serving],
        help="run a session-affine router over N workers")
    cserve.add_argument("--workers", type=int, default=2,
                        help="worker processes (default 2)")
    cserve.add_argument("--no-auto-restart", action="store_true",
                        help="do not respawn crashed workers")
    cstatus = cluster_sub.add_parser(
        "status", help="show a running router's fleet report")
    cstatus.add_argument("target",
                         help="router obs endpoint: a base URL "
                              "(http://host:port) or a bare port on "
                              "127.0.0.1")
    cstatus.add_argument("--json", action="store_true",
                         help="print the raw /cluster JSON")
    cstatus.add_argument("--timeout", type=float, default=5.0,
                         help="HTTP timeout (default 5s)")

    soak = sub.add_parser(
        "soak", parents=[replaying],
        help="sustained cluster soak gated on multi-window "
             "SLO burn (self-hosts a fleet)")
    soak.add_argument("--workers", type=int, default=2,
                      help="fleet size (default 2)")
    soak.add_argument("--duration-s", type=float, default=60.0,
                      help="wall-clock soak duration (default 60)")
    soak.add_argument("--limit", type=int, default=2000,
                      help="records per replay pass (default 2000)")
    soak.add_argument("--max-burn", type=float, default=2.0,
                      help="fail when the sustained SLO burn rate "
                           "reaches this (default 2.0, the alerting "
                           "threshold)")
    soak.add_argument("--trace-out", metavar="FILE", default=None,
                      help="write the router's trace-store dump (the "
                           "most recent cross-process spans) to FILE")

    top = sub.add_parser(
        "top", help="live dashboard over a serve --obs-port endpoint")
    top.add_argument("target",
                     help="obs endpoint: a base URL "
                          "(http://host:port) or a bare port on "
                          "127.0.0.1")
    top.add_argument("--interval", type=float, default=1.0,
                     help="poll interval in seconds (default 1)")
    top.add_argument("--once", action="store_true",
                     help="print one plain snapshot and exit "
                          "(no screen control; for scripts/CI)")
    top.add_argument("--iterations", type=int, default=None,
                     help="stop after N frames (default: until Ctrl-C)")
    top.add_argument("--timeout", type=float, default=5.0,
                     help="per-request HTTP timeout (default 5s)")
    return parser


def _cmd_workloads(args, out) -> int:
    from repro.harness.report import format_table
    from repro.workloads.registry import WORKLOADS, workload_names
    rows = []
    for name in workload_names():
        workload = WORKLOADS[name]
        rows.append([name, workload.paper_options, workload.description])
    out.write(format_table(["benchmark", "paper input", "mini-kernel"],
                           rows) + "\n")
    return 0


def _normalize_obs_target(target: str) -> str:
    """``8900`` -> ``http://127.0.0.1:8900``; ``host:port`` gains a
    scheme; full URLs pass through."""
    if target.isdigit():
        return f"http://127.0.0.1:{target}"
    if "://" not in target:
        return f"http://{target}"
    return target


def _trace_lookup(args, out) -> int:
    """``repro trace <id> --from <obs>``: render one request's
    cross-process timeline from a worker's or the router's trace
    store."""
    from repro.serve.top import fetch_json
    from repro.serve.tracing import (format_trace_id, parse_trace_id,
                                     render_trace_report)
    trace_id = parse_trace_id(args.name)
    report = fetch_json(_normalize_obs_target(args.from_target),
                        f"/trace/{format_trace_id(trace_id)}",
                        timeout=args.timeout)
    if args.json:
        out.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    else:
        out.write(render_trace_report(report))
    return 0 if report.get("found") else 1


def _cmd_trace(args, out) -> int:
    if args.from_target is not None:
        return _trace_lookup(args, out)
    from repro.trace.capture import capture_trace
    trace = capture_trace(args.name, limit=args.limit,
                          optimize=args.optimize)
    stats = trace.stats()
    out.write(f"{trace.name}: {stats.predictions} predictions, "
              f"{stats.static_instructions} static instructions, "
              f"{stats.distinct_values} distinct values\n")
    for pc, value in trace.records()[:args.head]:
        out.write(f"  {pc:#010x} {value}\n")
    if args.out:
        trace.save(args.out)
        out.write(f"saved to {args.out}\n")
    return 0


def _cmd_run(args, out) -> int:
    from repro.harness.experiments import experiment_ids, run_experiment
    if args.experiment == "list":
        for experiment_id in experiment_ids():
            out.write(experiment_id + "\n")
        return 0
    with _maybe_telemetry(args) as telemetry:
        result = run_experiment(args.experiment, fast=args.fast,
                                limit=args.limit, jobs=args.jobs)
    out.write(result.render())
    if telemetry is not None:
        out.write(f"telemetry: {telemetry.dir}\n")
    return 0


def _cmd_predict(args, out) -> int:
    from repro.core.spec import spec_from_cli
    from repro.harness.simulate import measure_accuracy
    from repro.trace.cache import cached_trace

    predictor = spec_from_cli(args.predictor, 1 << args.l1, 1 << args.l2)
    with _maybe_telemetry(args) as telemetry:
        trace = cached_trace(args.name, args.limit)
        result = measure_accuracy(predictor, trace)
    if args.json:
        out.write(json.dumps({
            "schema": 1,
            "command": "predict",
            "predictor": predictor.name,
            "benchmark": trace.name,
            "accuracy": round(result.accuracy, 6),
            "correct": result.correct,
            "total": result.total,
            "storage_kbit": round(predictor.storage_kbit(), 3),
            "params": {"predictor": args.predictor, "l1": args.l1,
                       "l2": args.l2, "limit": args.limit},
            "telemetry_run_id": telemetry.run_id if telemetry else None,
        }, sort_keys=True) + "\n")
        return 0
    out.write(f"{predictor.name} on {trace.name}: "
              f"accuracy {result.accuracy:.4f} "
              f"({result.correct}/{result.total}), "
              f"{predictor.storage_kbit():.0f} Kbit\n")
    if telemetry is not None:
        out.write(f"telemetry: {telemetry.dir}\n")
    return 0


def _cmd_compare(args, out) -> int:
    from repro.core.spec import (DFCMSpec, FCMSpec, LastNSpec, LastValueSpec,
                                 StrideSpec, TwoDeltaStrideSpec)
    from repro.harness.report import format_table
    from repro.harness.simulate import measure_accuracy
    from repro.trace.cache import cached_trace

    with _maybe_telemetry(args) as telemetry:
        trace = cached_trace(args.name, args.limit)
        results = []
        for predictor in [LastValueSpec(1 << 12),
                          LastNSpec(1 << 12),
                          StrideSpec(1 << 12),
                          TwoDeltaStrideSpec(1 << 12),
                          FCMSpec(1 << 16, 1 << 12),
                          DFCMSpec(1 << 16, 1 << 12)]:
            result = measure_accuracy(predictor, trace)
            results.append((predictor, result))
    if args.json:
        out.write(json.dumps({
            "schema": 1,
            "command": "compare",
            "benchmark": trace.name,
            "limit": args.limit,
            "predictions": len(trace),
            "results": [{
                "predictor": predictor.name,
                "storage_kbit": round(predictor.storage_kbit(), 3),
                "accuracy": round(result.accuracy, 6),
                "correct": result.correct,
                "total": result.total,
            } for predictor, result in results],
            "telemetry_run_id": telemetry.run_id if telemetry else None,
        }, sort_keys=True) + "\n")
        return 0
    rows = [[predictor.name, f"{predictor.storage_kbit():.0f}",
             f"{result.accuracy:.4f}"] for predictor, result in results]
    out.write(format_table(["predictor", "Kbit", "accuracy"], rows,
                           title=f"{trace.name} ({len(trace)} predictions)")
              + "\n")
    if telemetry is not None:
        out.write(f"telemetry: {telemetry.dir}\n")
    return 0


def _cmd_bench(args, out) -> int:
    from repro.harness.bench import (append_history, diff_history,
                                     history_entry, render_bench,
                                     render_history_diff, run_bench,
                                     write_report)
    if args.action == "diff":
        diff = diff_history(args.history_file,
                            max_regression_pct=args.max_regression_pct)
        if args.json:
            out.write(json.dumps(diff, indent=2, sort_keys=True) + "\n")
        else:
            out.write(render_history_diff(diff))
        return 0 if diff["passed"] else 1
    report = run_bench(fast=args.fast)
    if args.out and args.out != "-":
        write_report(report, args.out)
    if args.history:
        entry = append_history(history_entry(report), args.history_file)
        if not args.json:
            out.write(f"history: appended {entry['git_sha'] or '?'} "
                      f"to {args.history_file}\n")
    if args.json:
        out.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    else:
        out.write(render_bench(report))
        if args.out and args.out != "-":
            out.write(f"report: {args.out}\n")
    return 0 if report["guard"]["passed"] else 1


def _cmd_tables(args, out) -> int:
    from repro.harness.tables_report import (render_tables_report,
                                             run_tables_report)
    from repro.trace.cache import cached_trace

    budgets = ([float(b) for b in args.budgets.split(",") if b]
               if args.budgets else None)
    families = ([f.strip() for f in args.families.split(",") if f.strip()]
                if args.families else None)
    trace = cached_trace(args.name, args.limit)
    report = run_tables_report(trace, budgets_kbit=budgets,
                               families=families)
    _write_report(args, out, report, render_tables_report)
    return 0


def _write_report(args, out, report: dict, render) -> None:
    """Write *report* as JSON to ``--out`` when given, and print it:
    the JSON with ``--json``, else ``render(report)`` and where the
    file went."""
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.json:
        out.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
        return
    out.write(render(report))
    if args.out:
        out.write(f"report: {args.out}\n")


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as handle:
        return handle.read()


def _cmd_compile(args, out) -> int:
    from repro.lang import compile_source
    out.write(compile_source(_read_source(args.file),
                             optimize=args.optimize))
    return 0


def _cmd_exec(args, out) -> int:
    from repro.lang import compile_to_program
    from repro.vm import Machine
    machine = Machine(compile_to_program(_read_source(args.file),
                                          optimize=args.optimize))
    exit_code = machine.run(args.max_instructions)
    out.write(machine.stdout)
    out.write(f"[exit {exit_code}, {machine.instructions_executed} "
              "instructions]\n")
    return exit_code


def _cmd_disasm(args, out) -> int:
    from repro.lang import compile_to_program
    from repro.workloads.registry import get_workload
    program = compile_to_program(get_workload(args.name).source)
    listing = program.disassemble().splitlines()
    shown = listing if args.head == 0 else listing[:args.head]
    out.write("\n".join(shown) + "\n")
    if args.head and len(listing) > args.head:
        out.write(f"... ({len(listing)} instructions total)\n")
    return 0


def _cmd_cache(args, out) -> int:
    from pathlib import Path

    from repro.harness.report import format_table
    from repro.trace.cache import (cache_entries, cache_stats, clear_cache,
                                   default_cache_dir, verify_cache,
                                   warm_cache)
    from repro.workloads.registry import SPEC_NAMES

    directory = Path(args.dir) if args.dir else default_cache_dir()

    if args.cache_command == "ls":
        entries = cache_entries(directory)
        rows = [[e.benchmark,
                 "full" if e.limit is None else str(e.limit),
                 f"O{e.optimize}",
                 str(e.size), e.path.name] for e in entries]
        out.write(format_table(["benchmark", "limit", "opt", "bytes",
                                "file"], rows,
                               title=f"{directory} ({len(entries)} entries)")
                  + "\n")
        return 0

    if args.cache_command == "clear":
        removed = clear_cache(directory)
        out.write(f"removed {removed} entries from {directory}\n")
        return 0

    # verify and warm print the cache traffic of this command alone.
    before = cache_stats()
    if args.cache_command == "verify":
        result = verify_cache(directory, repair=args.repair)
        for path, reason in result.defects:
            out.write(f"BAD  {path.name}: {reason}\n")
        out.write(f"checked {result.checked} entries, "
                  f"{len(result.defects)} defective")
        if args.repair:
            out.write(f", {len(result.repaired)} recaptured, "
                      f"{len(result.defects) - len(result.repaired)} "
                      "quarantined only")
        out.write("\n")
        if result.defects:
            out.write(f"cache stats: {(cache_stats() - before).render()}\n")
        return 0 if (result.ok or args.repair) else 1

    # warm
    names = SPEC_NAMES if args.name == "all" else [args.name]
    warm_cache(names, args.limit, cache_dir=directory,
               optimize=args.optimize)
    out.write(f"warmed {len(names)} benchmark(s) at {args.limit} "
              f"predictions\ncache stats: "
              f"{(cache_stats() - before).render()}\n")
    return 0


def _cmd_state(args, out) -> int:
    from pathlib import Path

    from repro.core.state import (STATE_VERSION, ArenaStore, arena_info,
                                  verify_arena)
    from repro.harness.report import format_table

    if getattr(args, "path", None):
        # Single-file verify: no store needed, no directory side effects.
        path = Path(args.path)
        if not path.exists():
            raise ValueError(f"{path}: no such arena file")
        if path.stat().st_size == 0:
            raise ValueError(f"{path}: empty arena file")
        reason = verify_arena(path)
        if reason is not None:
            if args.json:
                out.write(json.dumps({"schema": 1, "path": str(path),
                                      "ok": False, "reason": reason},
                                     sort_keys=True) + "\n")
            else:
                out.write(f"BAD  {path}: {reason}\n")
            return 1
        info = arena_info(path)
        stale = info.state_version != STATE_VERSION
        if args.json:
            out.write(json.dumps({
                "schema": 1, "path": str(path), "ok": True,
                "stale": stale, "state_version": info.state_version,
                "spec": info.spec_name, "arrays": info.arrays,
                "bytes": info.nbytes}, sort_keys=True) + "\n")
        else:
            note = (f" (STALE: state v{info.state_version}, this build "
                    f"speaks v{STATE_VERSION})" if stale else "")
            out.write(f"OK   {path}: {info.spec_name or '?'}, "
                      f"{info.arrays} arrays, {info.nbytes} bytes{note}\n")
        return 0

    directory = Path(args.dir) if args.dir else Path(default_state_dir())
    if not directory.is_dir():
        raise ValueError(
            f"{directory}: no state directory (start a server with "
            f"'repro serve --state-dir {directory}' to create one)")
    store = ArenaStore(directory)

    if args.state_command == "ls":
        infos = store.infos()
        if args.json:
            out.write(json.dumps({
                "schema": 1,
                "directory": str(directory),
                "state_version": STATE_VERSION,
                "arenas": [{
                    "session": store.session_id_of(info.path),
                    "spec": info.spec_name,
                    "state_version": info.state_version,
                    "arrays": info.arrays,
                    "bytes": info.nbytes,
                    "predictions": info.meta.get("predictions"),
                    "hits": info.meta.get("hits"),
                    "file": info.path.name,
                } for info in infos],
            }, sort_keys=True) + "\n")
            return 0
        rows = [[str(store.session_id_of(info.path)),
                 info.spec_name or "?",
                 f"v{info.state_version}",
                 str(info.arrays),
                 str(info.nbytes),
                 str(info.meta.get("predictions", "?")),
                 info.path.name] for info in infos]
        out.write(format_table(
            ["session", "spec", "state", "arrays", "bytes",
             "steps", "file"], rows,
            title=f"{directory} ({len(infos)} arenas)") + "\n")
        return 0

    if args.state_command == "verify":
        result = store.verify()
        if args.json:
            out.write(json.dumps({
                "schema": 1,
                "directory": str(directory),
                "checked": result["checked"],
                "defects": [{"file": path.name, "reason": reason}
                            for path, reason in result["defects"]],
                "stale": [{"file": path.name, "state_version": version}
                          for path, version in result["stale"]],
            }, sort_keys=True) + "\n")
            return 1 if result["defects"] else 0
        for path, reason in result["defects"]:
            out.write(f"BAD    {path.name}: {reason}\n")
        for path, version in result["stale"]:
            out.write(f"STALE  {path.name}: state v{version} "
                      f"(this build speaks v{STATE_VERSION})\n")
        out.write(f"checked {result['checked']} arenas, "
                  f"{len(result['defects'])} defective, "
                  f"{len(result['stale'])} stale\n")
        return 1 if result["defects"] else 0

    # compact
    result = store.compact()
    if args.json:
        out.write(json.dumps(dict(result, schema=1,
                                  directory=str(directory)),
                             sort_keys=True) + "\n")
        return 0
    removed = result["removed"]
    out.write(f"removed {removed['tmp']} tmp, {removed['corrupt']} "
              f"quarantined, {removed['defective']} defective "
              f"({result['reclaimed_bytes']} bytes reclaimed); "
              f"kept {result['kept']} arenas "
              f"({result['kept_bytes']} bytes)\n")
    return 0


def _cmd_telemetry(args, out) -> int:
    from repro.telemetry.export import (find_run, prometheus_text,
                                        read_events, summary_text,
                                        tail_text)
    run = find_run(args.dir or default_telemetry_dir(), args.run)

    if args.telemetry_command == "summary":
        out.write(summary_text(run))
        return 0
    if args.telemetry_command == "export":
        if args.format == "prom":
            out.write(prometheus_text(run))
            return 0
        for event in read_events(run):
            out.write(json.dumps(event, sort_keys=True) + "\n")
        return 0
    # tail
    out.write(tail_text(run, args.lines))
    return 0


def _emitter(args, out):
    """``emit(event, human)`` for the serving commands' lifecycle
    lines: one JSON object per line under ``--json``, else the human
    line."""
    def emit(event: dict, human: str) -> None:
        if args.json:
            out.write(json.dumps(dict(event, schema=1), sort_keys=True)
                      + "\n")
        else:
            out.write(human + "\n")
        out.flush()
    return emit


def _run_signalled(make_service, announce) -> dict:
    """Build a server or router on a fresh event loop (its asyncio
    objects bind to that loop) and serve it until SIGINT/SIGTERM;
    returns the stats its ``stop()`` reports."""
    import asyncio

    from repro.serve.service import serve_until_signalled

    async def serve() -> dict:
        return await serve_until_signalled(make_service(), announce)

    return asyncio.run(serve())


def _cmd_serve(args, out) -> int:
    from repro.serve.server import PredictionServer
    from repro.telemetry.slo import default_serve_slos

    emit = _emitter(args, out)

    def make_server():
        slos = default_serve_slos(
            p99_latency_s=args.slo_p99_ms / 1e3,
            queue_depth_ceiling=args.slo_queue_depth)
        return PredictionServer(
            host=args.host, port=args.port, queue_depth=args.queue_depth,
            request_timeout=args.request_timeout_s,
            obs_port=args.obs_port, slos=slos,
            state_dir=args.state_dir, max_resident=args.max_resident)

    def announce(server) -> None:
        obs_note = (f", obs http://{args.host}:{server.obs_port}"
                    if server.obs_port is not None else "")
        if args.state_dir:
            obs_note += (f", state {args.state_dir} "
                         f"({server.server_stats()['sessions_spilled']} "
                         f"spilled session(s) adopted)")
        emit({"event": "listening", "host": args.host, "port": server.port,
              "obs_port": server.obs_port, "state_dir": args.state_dir,
              "sessions_spilled": (server.server_stats()["sessions_spilled"]
                                   if args.state_dir else 0)},
             f"listening on {args.host}:{server.port} "
             f"(queue<={args.queue_depth}{obs_note}) -- SIGTERM/SIGINT "
             f"drains and exits")

    with _maybe_telemetry(args) as telemetry:
        stats = _run_signalled(make_server, announce)
    if args.slow_out:
        with open(args.slow_out, "w") as handle:
            json.dump(stats.get("slow_requests", {}), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
    emit({"event": "drained", "stats": stats,
          "telemetry_run_id": telemetry.run_id if telemetry else None},
         f"drained: {stats['batches']} batches, "
         f"{stats['requests_batched']} requests, "
         f"{stats['sessions_open']} session(s) still open")
    if args.slow_out and not args.json:
        out.write(f"slow-request sample: {args.slow_out}\n")
    if telemetry is not None and not args.json:
        out.write(f"telemetry: {telemetry.dir}\n")
    return 0


def _cmd_loadgen(args, out) -> int:
    from repro.core.spec import spec_from_cli
    from repro.serve.loadgen import render_loadgen, run_loadgen
    from repro.trace.cache import cached_trace

    scaling = args.cluster_workers is not None
    if scaling and args.min_speedup is not None:
        raise ValueError(
            "--min-speedup compares --mode naive and batched against "
            "--port; a --cluster-workers sweep gates with --min-scaling")
    if not scaling and args.min_scaling is not None:
        raise ValueError(
            "--min-scaling gates a --cluster-workers sweep; against "
            "--port, gate with --min-speedup")
    spec = spec_from_cli(args.predictor, 1 << args.l1, 1 << args.l2)
    trace = cached_trace(args.name, args.limit)
    if scaling:
        return _loadgen_scaling(args, out, spec, trace)
    if args.port is None:
        raise ValueError(
            "--port is required (or use --cluster-workers to self-host "
            "a fleet)")
    report = run_loadgen(spec, trace, args.host, args.port,
                         window=args.window, mode=args.mode,
                         block=args.block, min_speedup=args.min_speedup)
    _write_report(args, out, report, render_loadgen)
    failed = (report.get("speedup_ok") is False
              or not report["verify"]["matched"])
    return 1 if failed else 0


def _loadgen_scaling(args, out, spec, trace) -> int:
    from repro.serve.cluster.loadgen import (render_scaling,
                                             run_scaling_loadgen)
    try:
        workers = [int(n) for n in args.cluster_workers.split(",") if n]
    except ValueError:
        raise ValueError(
            f"--cluster-workers must be comma-separated integers, got "
            f"{args.cluster_workers!r}") from None
    report = run_scaling_loadgen(
        spec, trace, workers=workers, sessions=args.sessions,
        window=args.window, block=args.block, state_dir=args.state_dir,
        min_scaling=args.min_scaling)
    _write_report(args, out, report, render_scaling)
    failed = (not report["parity_ok"]
              or report.get("scaling_ok") is False)
    return 1 if failed else 0


def _cmd_cluster(args, out) -> int:
    if args.cluster_command == "status":
        return _cluster_status(args, out)
    return _cluster_serve(args, out)


def _cluster_status(args, out) -> int:
    from repro.harness.report import format_table
    from repro.serve.top import fetch_json
    target = _normalize_obs_target(args.target)
    report = fetch_json(target, "/cluster", timeout=args.timeout)
    if args.json:
        out.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
        return 0
    rows = [[f"{w['worker']}", f"{w['pid']}", f"{w['port']}",
             ("up" if w.get("connected") else "down"),
             f"{w.get('sessions', 0)}", f"{w.get('pending', 0)}",
             f"{w.get('restarts', 0)}",
             f"{w.get('uptime_s', 0):.0f}s"]
            for w in report["workers"]]
    out.write(format_table(
        ["worker", "pid", "port", "state", "sessions", "in-flight",
         "restarts", "uptime"], rows,
        title=(f"cluster @ {target}: "
               f"{report['workers_alive']}/{len(report['workers'])} "
               f"workers, {report['sessions_open']} session(s)")) + "\n")
    out.write(f"frames {report['frames_proxied']:,}  "
              f"records {report['records_proxied']:,}  "
              f"migrations {report['migrations_total']}  "
              f"lost {report['sessions_lost_total']}  "
              f"parked {report['sessions_parked']}\n")
    if report.get("state_dir"):
        out.write(f"state: {report['state_dir']}\n")
    return 0


def _cluster_serve(args, out) -> int:
    from repro.serve.cluster.router import Router
    from repro.serve.cluster.supervisor import ClusterSupervisor

    emit = _emitter(args, out)

    def make_router():
        return Router(supervisor, host=args.host, port=args.port,
                      obs_port=args.obs_port,
                      auto_restart=not args.no_auto_restart)

    def announce(router) -> None:
        obs_note = (f", obs http://{args.host}:{router.obs_port}"
                    if router.obs_port is not None else "")
        if args.state_dir:
            obs_note += (f", state {args.state_dir} "
                         f"({router.adopted_at_start} spilled "
                         f"session(s) adopted)")
        emit({"event": "listening", "host": args.host,
              "port": router.port, "obs_port": router.obs_port,
              "workers": supervisor.describe(),
              "state_dir": args.state_dir,
              "sessions_adopted": router.adopted_at_start},
             f"router listening on {args.host}:{router.port} "
             f"({args.workers} workers{obs_note}) -- SIGTERM/SIGINT "
             f"drains the fleet and exits")

    # The run opens first: workers buffer telemetry events only if a
    # run is recording when they spawn.
    with _maybe_telemetry(args) as telemetry:
        supervisor = ClusterSupervisor(
            args.workers, host="127.0.0.1", queue_depth=args.queue_depth,
            request_timeout=args.request_timeout_s,
            state_dir=args.state_dir,
            max_resident=args.max_resident).start()
        try:
            stats = _run_signalled(make_router, announce)
        finally:
            supervisor.stop()
    emit({"event": "drained", "stats": stats,
          "telemetry_run_id": telemetry.run_id if telemetry else None},
         f"drained: {stats['frames_proxied']} frames proxied, "
         f"{stats['migrations_total']} migration(s), "
         f"{stats['sessions_open']} session(s) still open")
    if telemetry is not None and not args.json:
        out.write(f"telemetry: {telemetry.dir}\n")
    return 0


def _cmd_soak(args, out) -> int:
    from repro.core.spec import spec_from_cli
    from repro.serve.cluster.soak import render_soak, run_soak
    from repro.trace.cache import cached_trace

    spec = spec_from_cli(args.predictor, 1 << args.l1, 1 << args.l2)
    trace = cached_trace(args.name, args.limit)
    report = run_soak(
        spec, trace, workers=args.workers, sessions=args.sessions,
        duration_s=args.duration_s, window=args.window, block=args.block,
        state_dir=args.state_dir, max_burn=args.max_burn)
    if args.trace_out:
        with open(args.trace_out, "w") as handle:
            json.dump(report["trace_dump"], handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
    _write_report(args, out, report, render_soak)
    if args.trace_out and not args.json:
        out.write(f"trace dump: {args.trace_out}\n")
    return 0 if report["soak_ok"] else 1


def _cmd_top(args, out) -> int:
    from repro.serve.top import run_top
    return run_top(_normalize_obs_target(args.target),
                   interval=args.interval,
                   iterations=args.iterations, once=args.once,
                   out=out, timeout=args.timeout)


_COMMANDS = {
    "workloads": _cmd_workloads,
    "trace": _cmd_trace,
    "run": _cmd_run,
    "predict": _cmd_predict,
    "compare": _cmd_compare,
    "bench": _cmd_bench,
    "tables": _cmd_tables,
    "compile": _cmd_compile,
    "exec": _cmd_exec,
    "disasm": _cmd_disasm,
    "cache": _cmd_cache,
    "state": _cmd_state,
    "telemetry": _cmd_telemetry,
    "serve": _cmd_serve,
    "loadgen": _cmd_loadgen,
    "cluster": _cmd_cluster,
    "soak": _cmd_soak,
    "top": _cmd_top,
}


def _expected_error_types() -> tuple:
    """Exception types that are user/environment errors, not bugs.

    These exit 1 with an ``error:`` line; anything else propagates as
    a traceback (a bug should never be silently downgraded).  Name
    lookups therefore surface as dedicated KeyError subclasses rather
    than bare KeyError, and only the OSError flavours a user can cause
    (missing/unreadable paths, refused or dropped connections, socket
    timeouts) are listed -- a stray KeyError or OSError from a genuine
    bug still produces a traceback.
    """
    from repro.core.state import ArenaError
    from repro.harness.experiments import UnknownExperimentError
    from repro.serve.client import ServeError
    from repro.serve.protocol import ProtocolError
    from repro.trace.trace import TraceCacheError
    from repro.workloads.registry import UnknownWorkloadError
    return (ValueError, FileNotFoundError, IsADirectoryError,
            PermissionError, ConnectionError, TimeoutError,
            TraceCacheError, ProtocolError, ServeError, ArenaError,
            UnknownWorkloadError, UnknownExperimentError)


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code.

    Expected failures (bad arguments, missing files, protocol/server
    errors) print ``error: ...`` on stderr and return 1; programming
    errors still raise.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "max_resident", None) is not None \
            and not args.state_dir:
        parser.error("--max-resident requires --state-dir (without a "
                     "state directory there is nowhere to spill to)")
    if getattr(args, "cache_command", None) == "warm" and args.limit <= 0:
        parser.error(f"limit must be positive, got {args.limit}")
    # Recorded verbatim in the telemetry run manifest.
    args._argv = list(argv) if argv is not None else sys.argv[1:]
    try:
        return _COMMANDS[args.command](args, out or sys.stdout)
    except Exception as exc:  # noqa: BLE001 - filtered just below
        if not isinstance(exc, _expected_error_types()):
            raise
        message = exc.args[0] if (isinstance(exc, KeyError)
                                  and exc.args) else exc
        sys.stderr.write(f"error: {message}\n")
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
