"""Pseudo-instruction expansion.

Pseudos expand to one or two real instructions.  The expansion happens
in pass 1 (sizes must be known to lay out addresses), so symbolic
operands are carried through as strings and resolved in pass 2; the
``%hi()``/``%lo()`` relocation syntax bridges ``la``/wide-``li`` across
the passes.

========================  =========================================
pseudo                    expansion
========================  =========================================
``nop``                   ``sll zero, zero, 0``
``move rd, rs``           ``add rd, rs, zero``
``not rd, rs``            ``nor rd, rs, zero``
``neg rd, rs``            ``sub rd, zero, rs``
``li rt, imm``            ``addi``/``ori`` (16-bit) or ``lui``+``ori``
``la rt, label``          ``lui rt, %hi(label)`` + ``ori rt, rt, %lo(label)``
``b label``               ``beq zero, zero, label``
``beqz rs, label``        ``beq rs, zero, label``
``bnez rs, label``        ``bne rs, zero, label``
``blt rs, rt, label``     ``slt at, rs, rt`` + ``bne at, zero, label``
``bgt rs, rt, label``     ``slt at, rt, rs`` + ``bne at, zero, label``
``ble rs, rt, label``     ``slt at, rt, rs`` + ``beq at, zero, label``
``bge rs, rt, label``     ``slt at, rs, rt`` + ``beq at, zero, label``
``subi rt, rs, imm``      ``addi rt, rs, -imm``
========================  =========================================
"""

from __future__ import annotations

from typing import List, Tuple

from repro.asm.operands import OperandError, parse_immediate

__all__ = ["PSEUDO_MNEMONICS", "expand_pseudo"]

# One expanded item: (mnemonic, operand strings).
Proto = Tuple[str, List[str]]

PSEUDO_MNEMONICS = frozenset(
    {"nop", "move", "not", "neg", "li", "la", "b",
     "beqz", "bnez", "blt", "bgt", "ble", "bge", "subi"})


def _require(operands: List[str], count: int, mnemonic: str) -> None:
    if len(operands) != count:
        raise OperandError(
            f"{mnemonic} expects {count} operand(s), got {len(operands)}")


def expand_pseudo(mnemonic: str, operands: List[str]) -> List[Proto]:
    """Expand one pseudo instruction; raises for unknown mnemonics."""
    if mnemonic == "nop":
        _require(operands, 0, mnemonic)
        return [("sll", ["zero", "zero", "0"])]
    if mnemonic == "move":
        _require(operands, 2, mnemonic)
        rd, rs = operands
        return [("add", [rd, rs, "zero"])]
    if mnemonic == "not":
        _require(operands, 2, mnemonic)
        rd, rs = operands
        return [("nor", [rd, rs, "zero"])]
    if mnemonic == "neg":
        _require(operands, 2, mnemonic)
        rd, rs = operands
        return [("sub", [rd, "zero", rs])]
    if mnemonic == "li":
        _require(operands, 2, mnemonic)
        rt, imm_text = operands
        imm = parse_immediate(imm_text)
        if imm is None:
            raise OperandError(f"li needs a literal immediate, got {imm_text!r}")
        imm &= 0xFFFFFFFF
        signed = imm - 0x100000000 if imm >= 0x80000000 else imm
        if -0x8000 <= signed < 0x8000:
            return [("addi", [rt, "zero", str(signed)])]
        if 0 <= imm <= 0xFFFF:
            return [("ori", [rt, "zero", str(imm)])]
        high = (imm >> 16) & 0xFFFF
        low = imm & 0xFFFF
        expansion = [("lui", [rt, str(high)])]
        if low:
            expansion.append(("ori", [rt, rt, str(low)]))
        return expansion
    if mnemonic == "la":
        _require(operands, 2, mnemonic)
        rt, label = operands
        return [("lui", [rt, f"%hi({label})"]),
                ("ori", [rt, rt, f"%lo({label})"])]
    if mnemonic == "b":
        _require(operands, 1, mnemonic)
        return [("beq", ["zero", "zero", operands[0]])]
    if mnemonic == "beqz":
        _require(operands, 2, mnemonic)
        rs, label = operands
        return [("beq", [rs, "zero", label])]
    if mnemonic == "bnez":
        _require(operands, 2, mnemonic)
        rs, label = operands
        return [("bne", [rs, "zero", label])]
    if mnemonic in ("blt", "bgt", "ble", "bge"):
        _require(operands, 3, mnemonic)
        rs, rt, label = operands
        prefix: List[Proto] = []
        if parse_immediate(rt) is not None:
            # Comparison against a literal: materialise it in $at first
            # ($at is reserved for exactly this kind of expansion).
            prefix = expand_pseudo("li", ["at", rt])
            rt = "at"
        swapped = mnemonic in ("bgt", "ble")
        compare = ("slt", ["at"] + ([rt, rs] if swapped else [rs, rt]))
        branch_op = "bne" if mnemonic in ("blt", "bgt") else "beq"
        return prefix + [compare, (branch_op, ["at", "zero", label])]
    if mnemonic == "subi":
        _require(operands, 3, mnemonic)
        rt, rs, imm_text = operands
        imm = parse_immediate(imm_text)
        if imm is None:
            raise OperandError(f"subi needs a literal immediate, got {imm_text!r}")
        return [("addi", [rt, rs, str(-imm)])]
    raise OperandError(f"unknown pseudo instruction {mnemonic!r}")
