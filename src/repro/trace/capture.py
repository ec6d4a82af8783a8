"""Run workloads on the VM and capture their value traces."""

from __future__ import annotations

from typing import Optional

from repro.lang import compile_to_program
from repro.telemetry import run as _telemetry_run
from repro.telemetry.spans import span
from repro.trace.trace import ValueTrace
from repro.vm import Machine
from repro.vm.errors import ExecutionLimitExceeded
from repro.workloads.registry import get_workload

__all__ = ["capture_trace", "capture_source"]


def capture_source(name: str, source: str, limit: Optional[int],
                   max_instructions: int = 500_000_000,
                   optimize: int = 0) -> ValueTrace:
    """Compile MinC *source*, run it, return the value trace.

    ``limit`` bounds the number of captured predictions (the stand-in
    for the paper's 200M-instruction cut-off); None runs to completion.
    ``optimize`` selects the compiler's peephole level (0 or 1).

    With a telemetry run active the capture is wrapped in a ``capture``
    span and the VM runs with a sampling profile (retired instructions,
    opcode mix, syscall counts, hot PCs) emitted as a ``vm_profile``
    probe; otherwise the VM runs the plain, unhooked loop.
    """
    with span("capture", benchmark=name, limit=limit,
              optimize=optimize) as sp:
        program = compile_to_program(source, optimize=optimize)
        profile = None
        if _telemetry_run.enabled():
            from repro.vm.profile import VMProfile
            profile = VMProfile()
        machine = Machine(program, collect_trace=True, trace_limit=limit,
                          profile=profile)
        try:
            machine.run(max_instructions)
        except ExecutionLimitExceeded:
            # An unfinished but non-empty trace is still a valid sample
            # of the workload, matching the paper's truncated
            # simulations.
            if not machine.trace:
                raise
        if profile is not None:
            from repro.telemetry.probes import record_vm_profile
            record_vm_profile(profile, name)
            sp.set("instructions", machine.instructions_executed)
            sp.set("records", len(machine.trace))
    pcs = [pc for pc, _ in machine.trace]
    values = [value for _, value in machine.trace]
    return ValueTrace(name, pcs, values)


def capture_trace(name: str, limit: Optional[int] = 100_000,
                  optimize: int = 0) -> ValueTrace:
    """Capture the trace of a registered workload (see the registry)."""
    workload = get_workload(name)
    return capture_source(workload.name, workload.source, limit,
                          optimize=optimize)
