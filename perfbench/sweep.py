"""paper-sweep: the Figure 16 grid through the harness, as a batch job.

FCM, DFCM, stride+FCM and stride+DFCM (perfect meta) at L1 = 2^16 and
L2 = 2^8 ... 2^20, over the eight SPEC-mini traces, measured through
``repro.harness.measure_suite`` with the batch engine and the serial
executor -- one call per (configuration, trace) cell, each pass over
the grid in its own seeded order.  A cell is the unit whose latency is
reported.

The job runs in a child process of its own, so its peak RSS is the
job's and nothing of the benchmark's.  Set-up is the child's launch up
to the moment its eight traces are captured into a fresh trace cache;
it is repeated :data:`SETUPS` times, and the median of all but the
first (a warm-up) is reported.  The timed phase repeats the whole grid
:func:`repetitions` times: a fixed amount of work, so the sample count
(and hence which percentile the tail is) does not change with the
program's speed.  Like every timing of the benchmark, set-up and the
timed phase are reported net of host steal (``stats.net_figures``).

Every cell's correct count must equal the scalar reference engine's,
which is computed once per program source and kept in the work
directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from typing import List, Optional

from perfbench import gen, procs, stats
from perfbench.parity import ParityGate

#: Launches per run: a warm-up, then the ones whose median is set-up.
SETUPS = 4
#: Seconds of ``--seconds`` budget per grid repetition.
SECONDS_PER_REPETITION = 7.5
L2_BITS = (8, 10, 12, 14, 16, 18, 20)
#: The configurations at each level-2 size, in :func:`grid_specs` order.
KINDS = ("fcm", "dfcm", "stride_fcm", "stride_dfcm")
TRACES = 8
CELLS = len(L2_BITS) * len(KINDS) * TRACES


def repetitions(seconds: float) -> int:
    return max(1, int(seconds // SECONDS_PER_REPETITION))


def grid_specs():
    """The Figure 16 configurations, in the paper's order."""
    from repro.core.spec import (DFCMSpec, FCMSpec, OracleHybridSpec,
                                 StrideSpec)
    l1 = 1 << 16
    specs = []
    for bits in L2_BITS:
        specs += [
            FCMSpec(l1, 1 << bits),
            DFCMSpec(l1, 1 << bits),
            OracleHybridSpec((StrideSpec(l1), FCMSpec(l1, 1 << bits)),
                             label="stride+fcm"),
            OracleHybridSpec((StrideSpec(l1), DFCMSpec(l1, 1 << bits)),
                             label="stride+dfcm"),
        ]
    return specs


def cell_label(index: int) -> str:
    """Short name of a cell's configuration, e.g. ``dfcm_l2_12``."""
    spec_index = index // TRACES
    return (f"{KINDS[spec_index % len(KINDS)]}_l2_"
            f"{L2_BITS[spec_index // len(KINDS)]}")


def cell_key(spec, trace_name: str) -> str:
    """Unique cell name (hybrid labels omit the level-2 size)."""
    return f"{json.dumps(spec.to_config(), sort_keys=True)}|{trace_name}"


# ------------------------------------------------------------------ child

def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def child_main(argv: List[str]) -> int:
    """Body of the sweep process: capture, then measure or reference."""
    job = json.loads(argv[0])
    os.environ["REPRO_TRACE_CACHE"] = job["cache"]
    from repro.core.engines import run_spec
    from repro.harness import simulate
    from repro.trace.cache import cached_trace
    from repro.trace.trace import payload_checksum
    from repro.workloads.registry import SPEC_NAMES
    from perfbench.spans import Tracer
    tracer = Tracer() if job.get("trace") else None
    traces = []
    for name in SPEC_NAMES:
        if tracer:
            with tracer.span("trace.capture", trace=name):
                traces.append(cached_trace(name, procs.TRACE_LEN))
        else:
            traces.append(cached_trace(name, procs.TRACE_LEN))
    _emit({"event": "ready",
           "checksums": {t.name: payload_checksum(t.pcs, t.values)
                         for t in traces},
           "records": {t.name: len(t) for t in traces}})
    if job["mode"] == "setup":
        return 0
    specs = grid_specs()
    cells = [(spec, trace) for spec in specs for trace in traces]
    if job["mode"] == "reference":
        _emit({"event": "reference",
               "correct": {cell_key(spec, trace.name):
                           run_spec(spec, trace, engine="scalar").correct
                           for spec, trace in cells}})
        return 0
    results = []
    passes = []
    for order in job["orders"]:
        started = time.perf_counter()
        for index in order:
            spec, trace = cells[index]
            cell_started = time.perf_counter()
            cpu_started = time.process_time()
            if tracer:
                with tracer.span("harness.measure_suite", request=index,
                                 spec=spec.name, family=spec.family,
                                 trace=trace.name, records=len(trace)), \
                        tracer.shim(simulate, "run_spec",
                                    "engines.run_spec"):
                    suite = simulate.measure_suite(
                        spec, [trace], engine="batch", executor="serial")
            else:
                suite = simulate.measure_suite(
                    spec, [trace], engine="batch", executor="serial")
            results.append([index, suite.correct, suite.total,
                            cell_started, time.perf_counter(),
                            time.process_time() - cpu_started])
        passes.append(time.perf_counter() - started)
    out = {"event": "measured", "cells": results, "passes": passes,
           "vm_hwm_kb": procs.vm_hwm_kb(os.getpid())}
    if tracer:
        from dataclasses import asdict
        out["spans"] = [asdict(span) for span in tracer.spans]
    _emit(out)
    return 0


# ----------------------------------------------------------------- parent

class _Child:
    """One sweep process; construction waits for its ``ready`` line."""

    def __init__(self, job: dict):
        env = procs.program_env()
        env["PYTHONPATH"] = os.pathsep.join([str(procs.ROOT),
                                             str(procs.SRC)])
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-c",
             "import sys; from perfbench.sweep import child_main; "
             "sys.exit(child_main(sys.argv[1:]))", json.dumps(job)],
            cwd=procs.ROOT, env=env, stdout=subprocess.PIPE, text=True)
        try:
            self.ready = self.next_event("ready")
        except BaseException:
            self.kill()
            raise
        self.ready_at = time.perf_counter()

    def next_event(self, name: str) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise procs.BenchError(f"sweep process exited before {name!r}")
        event = json.loads(line)
        if event.get("event") != name:
            raise procs.BenchError(f"sweep process sent {event.get('event')}"
                                   f", expected {name!r}")
        return event

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()

    def close(self) -> None:
        try:
            self.proc.wait(timeout=600)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        if self.proc.returncode != 0:
            raise procs.BenchError(
                f"sweep process exited with {self.proc.returncode}")


def _fresh_cache(tag: str):
    path = procs.WORK / "sweep-cache" / f"{os.getpid()}-{tag}"
    shutil.rmtree(path, ignore_errors=True)
    return path


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((procs.SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(procs.SRC)).encode())
        digest.update(path.read_bytes())
    digest.update(str(procs.TRACE_LEN).encode())
    return digest.hexdigest()[:24]


def reference() -> dict:
    """Scalar-engine correct counts per cell, computed once per source."""
    path = procs.WORK / "reference" / f"fig16-{_source_digest()}.json"
    if path.exists():
        return json.loads(path.read_text())
    child = _Child({"mode": "reference",
                    "cache": str(procs.WORK / "traces")})
    try:
        counts = child.next_event("reference")["correct"]
    except BaseException:
        child.kill()
        raise
    child.close()
    payload = {"checksums": child.ready["checksums"], "correct": counts}
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload))
    os.replace(tmp, path)
    return payload


def measure(seed: int, reps: int, trace: bool = False,
            setups: int = SETUPS) -> dict:
    """Set up *setups* times, then time *reps* grid passes in the last."""
    setup = []
    child: Optional[_Child] = None
    caches = []
    steal = procs.StealMeter()
    try:
        for attempt in range(setups):
            cache = _fresh_cache(str(attempt))
            caches.append(cache)
            last = attempt == setups - 1
            job = {"mode": "measure" if last else "setup",
                   "cache": str(cache), "trace": trace,
                   "orders": [gen.sweep_order(seed, CELLS, rep)
                              for rep in range(reps)]}
            child = _Child(job)
            setup.append(steal.net(child.started, child.ready_at))
            if not last:
                child.close()
                child = None
        measured = child.next_event("measured")
        ready = child.ready
        child.close()
        child = None
    finally:
        steal.stop()
        if child is not None:
            child.kill()
        for cache in caches:
            shutil.rmtree(cache, ignore_errors=True)
    measured["setup"] = setup
    measured["ready"] = ready
    measured["steal"] = steal
    return measured


def check(measured: dict, ref: dict) -> ParityGate:
    from repro.workloads.registry import SPEC_NAMES
    gate = ParityGate()
    for name, crc in measured["ready"]["checksums"].items():
        gate.check(f"trace {name} checksum", crc, ref["checksums"][name])
    specs = grid_specs()
    for index, correct, *_ in measured["cells"]:
        spec = specs[index // TRACES]
        name = SPEC_NAMES[index % TRACES]
        gate.check(f"{spec.name} on {name}", correct,
                   ref["correct"][cell_key(spec, name)])
    return gate


def figures(measured: dict) -> dict:
    """The grid passes' figures, net of host steal: cell latencies of
    every pass, and throughput over the cells' summed time."""
    cells = measured["cells"]
    steal = measured["steal"]
    wall = sum(end - start for _, _, _, start, end, _ in cells)
    net = sum(steal.net(start, end) for _, _, _, start, end, _ in cells)
    return stats.net_figures(sum(cell[2] for cell in cells), wall,
                             net,
                             [end - start for _, _, _, start, end, _
                              in cells], float("inf"))


def run(seed: int, seconds: float, setups: int = SETUPS) -> dict:
    ref = reference()
    reps = repetitions(seconds)
    measured = measure(seed, reps, setups=setups)
    gate = check(measured, ref)
    records = sum(cell[2] for cell in measured["cells"])
    run_figures = figures(measured)
    return {
        "gate": gate,
        "attempted": len(measured["cells"]),
        "failed": 0,
        "metrics": {
            "setup_s": procs.setup_figure(measured["setup"]),
            "records_per_s": run_figures["records_per_s"],
            "latency_p50_ms": run_figures["p50"] * 1e3,
            "latency_p99_ms": run_figures["tail"] * 1e3,
            "peak_rss_mb": measured["vm_hwm_kb"] / 1024.0,
        },
        "report": [
            f"paper-sweep: {reps} pass(es) of the Figure 16 grid "
            f"({len(measured['cells'])} cells, {records:,} records) in "
            + ", ".join(f"{wall:.2f}s" for wall in measured["passes"]),
            "  setup samples (s, net of host steal, first is a warm-up): "
            + ", ".join(f"{s:.3f}" for s in measured["setup"]),
            "  cell latency: " + stats.describe(run_figures),
            "  " + measured["steal"].describe(measured["cells"][0][3],
                                              measured["cells"][-1][4]),
            "  " + gate.summary(),
        ],
    }
