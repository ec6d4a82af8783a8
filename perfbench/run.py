"""Entry point of the repository benchmark.

    python3 perfbench/run.py
        --workload {paper-sweep,solo-64,fleet-churn,fleet-closed,all}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  With ``--trace 0`` the workload runs
untraced, prints its report -- every end-to-end figure with its unit and
sample counts -- and then one JSON line with the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the traced layer ledger runs
instead and the JSON carries its per-layer metrics (see
:mod:`perfbench.ledger`).  ``all`` runs every workload in turn, each
ending in its JSON line.
A run whose outputs fail a correctness gate prints ``correct: false``
with no metrics and exits 1; a run that cannot start (no ``src/repro``
beside this directory) prints no result and exits 2.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Figures a workload reports beyond BENCHMARK.json's end-to-end
#: metrics: printed, not gated.  The tail swings on a shared two-vCPU
#: host with outside interference by more than any usable bound.
UNGATED_UNITS = {"latency_p99_ms": "ms"}


def _units(trace: int) -> dict:
    """Name -> unit of the metrics the JSON line carries: BENCHMARK.json's
    end-to-end metrics, or its per-layer metrics for the traced run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {metric["name"]: metric["unit"] for metric in spec[key]}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _run(name: str, args) -> dict:
    if args.trace:
        from perfbench import ledger
        return ledger.run(name, args.seed)
    from perfbench import run_workload
    return run_workload(name, args.seed, args.seconds)


def _emit(result: dict, units: dict) -> int:
    """Print the report and the JSON line; returns the exit code."""
    for line in result["report"]:
        print(line)
    moves = result.get("moves", {})
    for name, value in result["metrics"].items():
        note = moves.get(name, "" if name in units else
                         "(reported, not gated)")
        print(f"  {name:42s} {value:14.4f} "
              f"{units.get(name) or UNGATED_UNITS[name]:12s} {note}")
    correct = result["gate"].ok
    metrics = {}
    if correct:
        for name, unit in units.items():
            value = result["metrics"][name]
            if not math.isfinite(value):
                print(f"error: {name} is {value}", file=sys.stderr)
                return 1
            metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} "
              "is missing", file=sys.stderr)
        return 2
    # Import the benchmark package and the checkout's program, never
    # modules that merely share a name with files in this directory.
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]
    from perfbench import WORKLOADS
    if args.workload not in WORKLOADS + ("all",):
        print(f"error: unknown workload {args.workload!r}; choose from "
              + ", ".join(WORKLOADS + ("all",)), file=sys.stderr)
        return 2
    units = _units(args.trace)
    # SIGTERM unwinds like an error, so every launched process is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    code = 0
    for name in names:
        try:
            result = _run(name, args)
        except Exception:
            traceback.print_exc()
            print(f"error: {name} could not complete", file=sys.stderr)
            return 1
        code = max(code, _emit(result, units))
    return code


if __name__ == "__main__":
    sys.exit(main())
