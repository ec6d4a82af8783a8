"""The R32 functional simulator core.

Semantics notes:

- 32-bit two's-complement wrap-around arithmetic everywhere (registers
  hold unsigned images in ``[0, 2**32)``).
- No branch delay slots (a deliberate simplification relative to real
  MIPS; SimpleScalar's PISA made the same choice for sim-safe-level
  semantics, and value traces are unaffected).
- Division truncates toward zero, as in C; division by zero faults.
- Register 0 is hardwired to zero.
- A ``jr``/function return to :data:`HALT_ADDRESS` stops the machine,
  which is how the startup convention terminates ``main``.

Value tracing (the whole point of the substrate): when ``collect_trace``
is set, every retired instruction that architecturally writes an
integer register -- ALU ops and loads, but not branches, jumps, stores
or syscalls, matching the paper's prediction set -- appends
``(pc, value)`` to :attr:`Machine.trace`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.vm.errors import (ArithmeticFault, ExecutionLimitExceeded,
                             MemoryFault, VMError)
from repro.vm.memory import Memory
from repro.vm.syscalls import do_syscall

__all__ = ["Machine", "HALT_ADDRESS"]

MASK32 = 0xFFFFFFFF
HALT_ADDRESS = 0xFFFF_FFF0

_SP_INIT = 0x7FFF_FF00


def _s32(value: int) -> int:
    """Unsigned 32-bit image -> signed Python int."""
    return value - 0x100000000 if value >= 0x80000000 else value


class Machine:
    """One R32 hart plus memory, loader and tracing hooks.

    Parameters
    ----------
    program:
        A loadable image as produced by
        :func:`repro.asm.assembler.assemble`: needs ``text_base``,
        ``instructions``, ``data_base``, ``data``, ``symbols`` and
        ``entry`` attributes.
    collect_trace:
        When True, (pc, value) pairs of value-producing instructions
        are appended to :attr:`trace`.
    trace_limit:
        Stop execution (cleanly) once this many trace records have been
        collected; None means unlimited.  This is the knob that stands
        in for the paper's "simulate only the first 200 million
        instructions".
    profile:
        A :class:`repro.vm.profile.VMProfile` to fill, or None.  With
        a profile attached, :meth:`run` executes in
        ``profile.sample_interval``-sized chunks, sampling the PC (and
        mnemonic) at each boundary; the interpreter loop itself is
        untouched, so a ``profile=None`` machine pays nothing.
    """

    def __init__(self, program, collect_trace: bool = False,
                 trace_limit: Optional[int] = None,
                 profile=None):
        self.program = program
        self.memory = Memory()
        self.regs: List[int] = [0] * 32
        self.pc = program.entry
        self.exit_code: Optional[int] = None
        self.output: List[str] = []
        self.instructions_executed = 0
        self.collect_trace = collect_trace
        self.trace: List[Tuple[int, int]] = []
        self.trace_limit = trace_limit
        self.truncated = False
        self.profile = profile

        # Load the data segment and set up the runtime environment.
        if program.data:
            self.memory.write_bytes(program.data_base, bytes(program.data))
        self.brk = (program.data_base + len(program.data) + 0xFFF) & ~0xFFF
        self.regs[29] = _SP_INIT       # $sp
        self.regs[31] = HALT_ADDRESS   # $ra: returning from main halts

        # Pre-extract instruction fields into flat tuples; the
        # interpreter loop indexes this list instead of re-reading
        # dataclass attributes every cycle.
        self._decoded = [
            (instr.mnemonic, instr.rd, instr.rs, instr.rt,
             instr.shamt, instr.imm, instr.target, instr.dest_register)
            for instr in program.instructions
        ]
        self._text_base = program.text_base
        self._text_end = program.text_base + 4 * len(self._decoded)

    # ------------------------------------------------------------------

    def register(self, name_or_number) -> int:
        """Read a register by ABI name or number (for tests/debugging)."""
        if isinstance(name_or_number, str):
            from repro.isa.registers import register_number
            return self.regs[register_number(name_or_number)]
        return self.regs[name_or_number]

    @property
    def stdout(self) -> str:
        """Everything the program printed, concatenated."""
        return "".join(self.output)

    # ------------------------------------------------------------------

    def run(self, max_instructions: int = 50_000_000) -> int:
        """Execute until exit/halt; returns the exit code.

        Raises :class:`ExecutionLimitExceeded` when *max_instructions*
        retire without the program terminating -- unless a
        ``trace_limit`` was hit first, in which case the run stops
        cleanly with :attr:`truncated` set.

        With a :attr:`profile` attached, execution is chunked at the
        profile's sample interval (see :meth:`_run_profiled`); the
        interpreter loop itself is identical either way.
        """
        if self.profile is not None:
            return self._run_profiled(max_instructions)
        return self._run(max_instructions)

    def _run_profiled(self, max_instructions: int) -> int:
        """Run in sample-interval chunks, recording a PC sample at each
        chunk boundary; exact retired/syscall counts come for free."""
        profile = self.profile
        interval = profile.sample_interval
        while True:
            target = min(self.instructions_executed + interval,
                         max_instructions)
            try:
                code = self._run(target)
            except ExecutionLimitExceeded:
                if target >= max_instructions:
                    profile.retired = self.instructions_executed
                    raise
                profile.record_sample(self.pc, self._mnemonic_at(self.pc))
                continue
            profile.retired = self.instructions_executed
            return code

    def _mnemonic_at(self, pc: int) -> Optional[str]:
        """Mnemonic of the instruction at *pc*, or None off-text."""
        index = (pc - self._text_base) >> 2
        if 0 <= index < len(self._decoded):
            return self._decoded[index][0]
        return None

    def _run(self, max_instructions: int) -> int:
        regs = self.regs
        memory = self.memory
        decoded = self._decoded
        text_base = self._text_base
        trace = self.trace
        collect = self.collect_trace
        limit = self.trace_limit
        pc = self.pc
        executed = self.instructions_executed
        budget = max_instructions

        while True:
            if pc == HALT_ADDRESS:
                # Returned from main: exit code is $v0.
                self.exit_code = _s32(regs[2])
                break
            index = (pc - text_base) >> 2
            if not 0 <= index < len(decoded):
                self.pc = pc
                raise MemoryFault(
                    f"pc {pc:#010x} outside the text segment")
            if executed >= budget:
                self.pc = pc
                self.instructions_executed = executed
                raise ExecutionLimitExceeded(
                    f"no exit after {budget} instructions")
            executed += 1

            mnem, rd, rs, rt, shamt, imm, target, dest = decoded[index]
            next_pc = pc + 4

            if mnem == "addi":
                value = (regs[rs] + imm) & MASK32
                regs[rt] = value
            elif mnem == "lw":
                value = memory.read_u32((regs[rs] + imm) & MASK32)
                regs[rt] = value
            elif mnem == "sw":
                memory.write_u32((regs[rs] + imm) & MASK32, regs[rt])
                value = None
            elif mnem == "add":
                value = (regs[rs] + regs[rt]) & MASK32
                regs[rd] = value
            elif mnem == "sub":
                value = (regs[rs] - regs[rt]) & MASK32
                regs[rd] = value
            elif mnem == "beq":
                if regs[rs] == regs[rt]:
                    next_pc = pc + 4 + (imm << 2)
                value = None
            elif mnem == "bne":
                if regs[rs] != regs[rt]:
                    next_pc = pc + 4 + (imm << 2)
                value = None
            elif mnem == "slt":
                value = 1 if _s32(regs[rs]) < _s32(regs[rt]) else 0
                regs[rd] = value
            elif mnem == "sltu":
                value = 1 if regs[rs] < regs[rt] else 0
                regs[rd] = value
            elif mnem == "slti":
                value = 1 if _s32(regs[rs]) < imm else 0
                regs[rt] = value
            elif mnem == "sltiu":
                value = 1 if regs[rs] < (imm & MASK32) else 0
                regs[rt] = value
            elif mnem == "mul":
                value = (_s32(regs[rs]) * _s32(regs[rt])) & MASK32
                regs[rd] = value
            elif mnem == "mulh":
                value = ((_s32(regs[rs]) * _s32(regs[rt])) >> 32) & MASK32
                regs[rd] = value
            elif mnem == "div":
                divisor = _s32(regs[rt])
                if divisor == 0:
                    self.pc = pc
                    raise ArithmeticFault(f"division by zero at {pc:#010x}")
                dividend = _s32(regs[rs])
                quotient = abs(dividend) // abs(divisor)
                if (dividend < 0) != (divisor < 0):
                    quotient = -quotient
                value = quotient & MASK32
                regs[rd] = value
            elif mnem == "rem":
                divisor = _s32(regs[rt])
                if divisor == 0:
                    self.pc = pc
                    raise ArithmeticFault(f"remainder by zero at {pc:#010x}")
                dividend = _s32(regs[rs])
                remainder = abs(dividend) % abs(divisor)
                if dividend < 0:
                    remainder = -remainder
                value = remainder & MASK32
                regs[rd] = value
            elif mnem == "and":
                value = regs[rs] & regs[rt]
                regs[rd] = value
            elif mnem == "or":
                value = regs[rs] | regs[rt]
                regs[rd] = value
            elif mnem == "xor":
                value = regs[rs] ^ regs[rt]
                regs[rd] = value
            elif mnem == "nor":
                value = ~(regs[rs] | regs[rt]) & MASK32
                regs[rd] = value
            elif mnem == "andi":
                value = regs[rs] & (imm & 0xFFFF)
                regs[rt] = value
            elif mnem == "ori":
                value = regs[rs] | (imm & 0xFFFF)
                regs[rt] = value
            elif mnem == "xori":
                value = regs[rs] ^ (imm & 0xFFFF)
                regs[rt] = value
            elif mnem == "lui":
                value = (imm & 0xFFFF) << 16
                regs[rt] = value
            elif mnem == "sll":
                value = (regs[rt] << shamt) & MASK32
                regs[rd] = value
            elif mnem == "srl":
                value = regs[rt] >> shamt
                regs[rd] = value
            elif mnem == "sra":
                value = (_s32(regs[rt]) >> shamt) & MASK32
                regs[rd] = value
            # Variable shifts: R32 takes the value in rs and the shift
            # amount in rt, matching the assembly order
            # "sllv rd, value, amount" (a deliberate simplification of
            # MIPS' swapped rt/rs fields).
            elif mnem == "sllv":
                value = (regs[rs] << (regs[rt] & 31)) & MASK32
                regs[rd] = value
            elif mnem == "srlv":
                value = regs[rs] >> (regs[rt] & 31)
                regs[rd] = value
            elif mnem == "srav":
                value = (_s32(regs[rs]) >> (regs[rt] & 31)) & MASK32
                regs[rd] = value
            elif mnem == "lb":
                byte = memory.read_u8((regs[rs] + imm) & MASK32)
                value = (byte - 0x100 if byte >= 0x80 else byte) & MASK32
                regs[rt] = value
            elif mnem == "lbu":
                value = memory.read_u8((regs[rs] + imm) & MASK32)
                regs[rt] = value
            elif mnem == "lh":
                half = memory.read_u16((regs[rs] + imm) & MASK32)
                value = (half - 0x10000 if half >= 0x8000 else half) & MASK32
                regs[rt] = value
            elif mnem == "lhu":
                value = memory.read_u16((regs[rs] + imm) & MASK32)
                regs[rt] = value
            elif mnem == "sb":
                memory.write_u8((regs[rs] + imm) & MASK32, regs[rt])
                value = None
            elif mnem == "sh":
                memory.write_u16((regs[rs] + imm) & MASK32, regs[rt])
                value = None
            elif mnem == "blez":
                if _s32(regs[rs]) <= 0:
                    next_pc = pc + 4 + (imm << 2)
                value = None
            elif mnem == "bgtz":
                if _s32(regs[rs]) > 0:
                    next_pc = pc + 4 + (imm << 2)
                value = None
            elif mnem == "bltz":
                if _s32(regs[rs]) < 0:
                    next_pc = pc + 4 + (imm << 2)
                value = None
            elif mnem == "bgez":
                if _s32(regs[rs]) >= 0:
                    next_pc = pc + 4 + (imm << 2)
                value = None
            elif mnem == "j":
                next_pc = (pc & 0xF0000000) | (target << 2)
                value = None
            elif mnem == "jal":
                regs[31] = pc + 4
                next_pc = (pc & 0xF0000000) | (target << 2)
                value = None
            elif mnem == "jr":
                next_pc = regs[rs]
                value = None
            elif mnem == "jalr":
                regs[rd or 31] = pc + 4
                next_pc = regs[rs]
                value = None
            elif mnem == "syscall":
                self.pc = pc
                if do_syscall(self):
                    self.instructions_executed = executed
                    break
                value = None
            else:  # pragma: no cover - the opcode table is closed
                self.pc = pc
                raise VMError(f"unimplemented mnemonic {mnem!r}")

            # Register 0 stays zero no matter what was written.
            regs[0] = 0

            if collect and dest is not None and value is not None:
                trace.append((pc, value))
                if limit is not None and len(trace) >= limit:
                    self.truncated = True
                    pc = next_pc
                    break

            pc = next_pc

        self.pc = pc
        self.instructions_executed = executed
        return self.exit_code if self.exit_code is not None else 0
