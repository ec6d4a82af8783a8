"""The two-pass assembler driver.

Pass 1 lexes every line, expands pseudo-instructions (their sizes are
operand-dependent but symbol-independent), lays out the text and data
segments and collects the symbol table.  Pass 2 resolves symbolic
operands and builds :class:`~repro.isa.instruction.Instruction` objects
and the data image.

Memory layout (SimpleScalar-like):

- text at ``0x0040_0000``
- data at ``0x1000_0000`` (heap grows above it via ``sbrk``)
- stack near ``0x7FFF_FF00`` growing down (set up by the VM)

The entry point is the ``__start`` symbol if defined, else ``main``,
else the first text address.  The VM pre-loads ``$ra`` with the halt
address, so ``main`` may simply ``jr ra`` to exit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.asm.directives import (DIRECTIVES, data_directive_size,
                                  decode_string_literal)
from repro.asm.lexer import LexError, lex_line
from repro.asm.operands import (OperandError, parse_memory_operand,
                                parse_register, resolve_value)
from repro.asm.pseudo import PSEUDO_MNEMONICS, expand_pseudo
from repro.isa.instruction import Instruction
from repro.isa.opcodes import MNEMONICS

__all__ = ["AssemblyError", "Program", "assemble",
           "TEXT_BASE", "DATA_BASE"]

TEXT_BASE = 0x0040_0000
DATA_BASE = 0x1000_0000


class AssemblyError(ValueError):
    """Any error detected while assembling, with line context."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass
class Program:
    """A loadable program image."""

    text_base: int
    instructions: List[Instruction]
    data_base: int
    data: bytearray
    symbols: Dict[str, int]
    entry: int
    globals: List[str] = field(default_factory=list)

    def encoded_text(self) -> List[int]:
        """The text segment as binary instruction words."""
        from repro.isa.encoding import encode
        return [encode(instr) for instr in self.instructions]

    def reencoded(self) -> "Program":
        """Round-trip the text segment through the binary encoding.

        Decoding the encoded words must yield a program with identical
        behaviour; the VM tests execute both images and compare traces.
        """
        from repro.isa.encoding import decode
        return Program(
            text_base=self.text_base,
            instructions=[decode(word) for word in self.encoded_text()],
            data_base=self.data_base,
            data=bytearray(self.data),
            symbols=dict(self.symbols),
            entry=self.entry,
            globals=list(self.globals),
        )

    def disassemble(self) -> str:
        """Address-annotated listing of the text segment."""
        lines = []
        for i, instr in enumerate(self.instructions):
            lines.append(f"{self.text_base + 4 * i:#010x}: {instr.text()}")
        return "\n".join(lines)


@dataclass
class _ProtoInstr:
    address: int
    mnemonic: str
    operands: List[str]
    line_number: int


@dataclass
class _ProtoData:
    offset: int
    directive: str
    operands: List[str]
    line_number: int


def assemble(source: str, text_base: int = TEXT_BASE,
             data_base: int = DATA_BASE) -> Program:
    """Assemble R32 source into a :class:`Program`."""
    symbols: Dict[str, int] = {}
    globals_: List[str] = []
    proto_text: List[_ProtoInstr] = []
    proto_data: List[_ProtoData] = []
    text_offset = 0
    data_offset = 0
    segment = "text"

    # ---- pass 1: layout and symbol collection ----
    for number, raw in enumerate(source.splitlines(), start=1):
        try:
            line = lex_line(raw, number)
        except LexError as exc:
            raise AssemblyError(str(exc), number) from None
        try:
            # SPIM-style auto-alignment: .word/.half are naturally
            # aligned, and the padding must precede any label on the
            # same line so the label names the aligned datum.
            if segment == "data" and line.opcode in (".word", ".half"):
                natural = 4 if line.opcode == ".word" else 2
                data_offset += (-data_offset) % natural
            for label in line.labels:
                if label in symbols:
                    raise OperandError(f"duplicate label {label!r}")
                if segment == "text":
                    symbols[label] = text_base + text_offset
                else:
                    symbols[label] = data_base + data_offset
            if line.opcode is None:
                continue
            opcode = line.opcode
            if opcode.startswith("."):
                if opcode not in DIRECTIVES:
                    raise OperandError(f"unknown directive {opcode!r}")
                if opcode == ".text":
                    segment = "text"
                elif opcode == ".data":
                    segment = "data"
                elif opcode in (".globl", ".global"):
                    globals_.extend(line.operands)
                else:
                    if segment != "data":
                        raise OperandError(
                            f"{opcode} outside the .data segment")
                    size = data_directive_size(opcode, line.operands,
                                               data_offset)
                    proto_data.append(_ProtoData(
                        data_offset, opcode, line.operands, number))
                    data_offset += size
                continue
            if segment != "text":
                raise OperandError("instruction outside the .text segment")
            if opcode in PSEUDO_MNEMONICS:
                expansion = expand_pseudo(opcode, line.operands)
            elif opcode in MNEMONICS:
                expansion = [(opcode, line.operands)]
            else:
                raise OperandError(f"unknown instruction {opcode!r}")
            for mnemonic, operands in expansion:
                proto_text.append(_ProtoInstr(
                    text_base + text_offset, mnemonic, list(operands), number))
                text_offset += 4
        except OperandError as exc:
            raise AssemblyError(str(exc), number) from None

    # ---- pass 2: operand resolution ----
    instructions = [_bind(proto, symbols) for proto in proto_text]
    data = bytearray(data_offset)
    for proto in proto_data:
        _emit_data(proto, symbols, data)

    entry = symbols.get("__start", symbols.get("main", text_base))
    return Program(
        text_base=text_base,
        instructions=instructions,
        data_base=data_base,
        data=data,
        symbols=symbols,
        entry=entry,
        globals=globals_,
    )


def _bind(proto: _ProtoInstr, symbols: Dict[str, int]) -> Instruction:
    """Resolve one proto-instruction against the symbol table."""
    spec = MNEMONICS[proto.mnemonic]
    shape = spec.operands
    ops = proto.operands
    try:
        if len(ops) != (shape.count(",") + 1 if shape else 0):
            raise OperandError(
                f"{proto.mnemonic} expects operands '{shape}', got {ops}")
        if shape == "rd,rs,rt":
            return Instruction(proto.mnemonic, rd=parse_register(ops[0]),
                               rs=parse_register(ops[1]),
                               rt=parse_register(ops[2]))
        if shape == "rd,rt,sh":
            shamt = resolve_value(ops[2], symbols)
            return Instruction(proto.mnemonic, rd=parse_register(ops[0]),
                               rt=parse_register(ops[1]), shamt=shamt)
        if shape == "rt,rs,imm":
            imm = _check_imm(resolve_value(ops[2], symbols), proto)
            return Instruction(proto.mnemonic, rt=parse_register(ops[0]),
                               rs=parse_register(ops[1]), imm=imm)
        if shape == "rt,imm":
            imm = _check_imm(resolve_value(ops[1], symbols), proto)
            return Instruction(proto.mnemonic, rt=parse_register(ops[0]),
                               imm=imm)
        if shape == "rt,off(rs)":
            offset, base = parse_memory_operand(ops[1], symbols)
            imm = _check_imm(offset, proto)
            return Instruction(proto.mnemonic, rt=parse_register(ops[0]),
                               rs=base, imm=imm)
        if shape == "rs,rt,label":
            displacement = _branch_disp(ops[2], proto, symbols)
            return Instruction(proto.mnemonic, rs=parse_register(ops[0]),
                               rt=parse_register(ops[1]), imm=displacement)
        if shape == "rs,label":
            displacement = _branch_disp(ops[1], proto, symbols)
            return Instruction(proto.mnemonic, rs=parse_register(ops[0]),
                               imm=displacement)
        if shape == "label":
            address = resolve_value(ops[0], symbols)
            if address & 3:
                raise OperandError(f"jump target {address:#x} is unaligned")
            if (address >> 28) != (proto.address >> 28):
                raise OperandError(
                    f"jump target {address:#x} outside the 256MB region")
            return Instruction(proto.mnemonic,
                               target=(address >> 2) & 0x3FFFFFF)
        if shape == "rs":
            return Instruction(proto.mnemonic, rs=parse_register(ops[0]))
        if shape == "rd,rs":
            return Instruction(proto.mnemonic, rd=parse_register(ops[0]),
                               rs=parse_register(ops[1]))
        if shape == "":
            return Instruction(proto.mnemonic)
        raise OperandError(f"unhandled operand shape {shape!r}")
    except (OperandError, ValueError) as exc:
        raise AssemblyError(str(exc), proto.line_number) from None


_UNSIGNED_IMM = frozenset({"andi", "ori", "xori", "lui"})


def _check_imm(value: int, proto: _ProtoInstr) -> int:
    """Validate a 16-bit immediate against the mnemonic's range.

    Logical immediates and ``lui`` are zero-extended (``[0, 0xFFFF]``);
    arithmetic immediates and load/store offsets are sign-extended
    (``[-0x8000, 0x7FFF]``).
    """
    if proto.mnemonic in _UNSIGNED_IMM:
        low, high = 0, 0xFFFF
    else:
        low, high = -0x8000, 0x7FFF
    if not low <= value <= high:
        raise OperandError(
            f"{proto.mnemonic}: immediate {value} does not fit 16 bits "
            f"(range [{low}, {high}])")
    return value


def _branch_disp(token: str, proto: _ProtoInstr,
                 symbols: Dict[str, int]) -> int:
    """Branch displacement in instructions, relative to PC+4."""
    target = resolve_value(token, symbols)
    delta = target - (proto.address + 4)
    if delta & 3:
        raise OperandError(f"branch target {target:#x} is unaligned")
    displacement = delta >> 2
    if not -0x8000 <= displacement < 0x8000:
        raise OperandError(
            f"branch to {token!r} out of the 16-bit range "
            f"({displacement} instructions)")
    return displacement


def _emit_data(proto: _ProtoData, symbols: Dict[str, int],
               data: bytearray) -> None:
    """Fill the data image for one directive (pass 2)."""
    offset = proto.offset
    name = proto.directive
    try:
        if name == ".word":
            for op in proto.operands:
                value = resolve_value(op, symbols) & 0xFFFFFFFF
                data[offset:offset + 4] = value.to_bytes(4, "little")
                offset += 4
        elif name == ".half":
            for op in proto.operands:
                value = resolve_value(op, symbols) & 0xFFFF
                data[offset:offset + 2] = value.to_bytes(2, "little")
                offset += 2
        elif name == ".byte":
            for op in proto.operands:
                data[offset] = resolve_value(op, symbols) & 0xFF
                offset += 1
        elif name in (".asciiz", ".ascii"):
            for op in proto.operands:
                blob = decode_string_literal(op).encode("latin-1")
                data[offset:offset + len(blob)] = blob
                offset += len(blob)
                if name == ".asciiz":
                    data[offset] = 0
                    offset += 1
        # .space and .align leave zero bytes; nothing to emit.
    except OperandError as exc:
        raise AssemblyError(str(exc), proto.line_number) from None
