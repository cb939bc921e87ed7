"""Two-pass assembler for the VR32 ISA.

Supports labels, ``.text``/``.data`` sections, ``.word``/``.half``/
``.byte``/``.space``/``.align`` data directives, character/decimal/hex
immediates, and the usual pseudo-instructions (``li``, ``la``, ``mv``,
``not``, ``neg``, ``j``, ``call``, ``ret``, ``nop``, ``beqz``/``bnez``,
``bgt``/``ble``/``bgtu``/``bleu``).

The output :class:`Program` carries decoded instructions (PC = index*4),
an initialized data image, the symbol table, and the set of basic-block
leader PCs used by profile-guided test integration (§3.4.2).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from .isa import FREG_NAMES, Fmt, Instruction, REG_NAMES, SPECS

#: Data segment base address; code addresses start at 0.
DATA_BASE = 0x10000


class AsmError(Exception):
    """Raised with a line number for any parse/resolve failure."""


@dataclass
class Program:
    """An assembled program ready for the CPU simulator."""

    instructions: List[Instruction] = field(default_factory=list)
    data: bytearray = field(default_factory=bytearray)
    symbols: Dict[str, int] = field(default_factory=dict)
    leaders: Set[int] = field(default_factory=set)
    source: str = ""

    @property
    def size(self) -> int:
        return len(self.instructions)


def _parse_int(token: str, line: int) -> int:
    token = token.strip()
    try:
        if token.startswith("'") and token.endswith("'") and len(token) >= 3:
            return ord(token[1:-1].encode().decode("unicode_escape"))
        return int(token, 0)
    except ValueError:
        raise AsmError(f"line {line}: bad integer {token!r}") from None


_RELOC_RE = re.compile(r"^%(hi|lo)\(\s*([A-Za-z_.$][\w.$]*)\s*([+-]\s*\d+)?\s*\)$")


def _split_reloc(token: str):
    """Parse ``%hi(sym+off)`` / ``%lo(sym+off)``; None if not a reloc.

    These are the standard RISC-V relocation operators: ``%hi`` is the
    upper 20 bits (with the +0x800 rounding that pairs with a
    sign-extended ``%lo``), letting code materialize any absolute
    address with ``lui`` + a load/store offset — without touching the
    ALU, which matters for self-checking aging tests (see
    :mod:`repro.integration.library_gen`).
    """
    match = _RELOC_RE.match(token.strip())
    if not match:
        return None
    kind, symbol, offset = match.groups()
    delta = int(offset.replace(" ", "")) if offset else 0
    return kind, symbol, delta


def _apply_reloc(kind: str, address: int) -> int:
    if kind == "hi":
        return ((address + 0x800) >> 12) & 0xFFFFF
    low = address & 0xFFF
    return low - 0x1000 if low >= 0x800 else low


def _reg(token: str, line: int) -> int:
    token = token.strip()
    if token not in REG_NAMES:
        raise AsmError(f"line {line}: unknown register {token!r}")
    return REG_NAMES[token]


def _freg(token: str, line: int) -> int:
    token = token.strip()
    if token not in FREG_NAMES:
        raise AsmError(f"line {line}: unknown FP register {token!r}")
    return FREG_NAMES[token]


_MEM_RE = re.compile(r"^\s*(.*?)\s*\(\s*(\w+)\s*\)\s*$")


def _mem_operand(token: str, line: int, value=None) -> Tuple[int, int]:
    """Parse ``imm(rs1)`` (imm may be a ``%lo(...)`` relocation)."""
    match = _MEM_RE.match(token)
    if not match:
        raise AsmError(f"line {line}: expected imm(reg), got {token!r}")
    imm_text = match.group(1) or "0"
    imm = value(imm_text) if value else _parse_int(imm_text, line)
    return imm, _reg(match.group(2), line)


@dataclass
class _PendingInstr:
    mnemonic: str
    operands: List[str]
    line: int
    pc: int


def assemble(source: str) -> Program:
    """Assemble ``source`` into a :class:`Program`."""
    program = Program(source=source)
    pending: List[_PendingInstr] = []
    data = bytearray()
    section = "text"
    pc = 0

    def expand_pseudo(mnemonic: str, ops: List[str], line: int) -> List[Tuple[str, List[str]]]:
        if mnemonic == "nop":
            return [("addi", ["x0", "x0", "0"])]
        if mnemonic == "mv":
            return [("addi", [ops[0], ops[1], "0"])]
        if mnemonic == "not":
            return [("xori", [ops[0], ops[1], "-1"])]
        if mnemonic == "neg":
            return [("sub", [ops[0], "x0", ops[1]])]
        if mnemonic == "j":
            return [("jal", ["x0", ops[0]])]
        if mnemonic == "call":
            return [("jal", ["ra", ops[0]])]
        if mnemonic == "ret":
            return [("jalr", ["x0", "0(ra)"])]
        if mnemonic == "beqz":
            return [("beq", [ops[0], "x0", ops[1]])]
        if mnemonic == "bnez":
            return [("bne", [ops[0], "x0", ops[1]])]
        if mnemonic == "bgt":
            return [("blt", [ops[1], ops[0], ops[2]])]
        if mnemonic == "ble":
            return [("bge", [ops[1], ops[0], ops[2]])]
        if mnemonic == "bgtu":
            return [("bltu", [ops[1], ops[0], ops[2]])]
        if mnemonic == "bleu":
            return [("bgeu", [ops[1], ops[0], ops[2]])]
        if mnemonic in ("li", "la"):
            # Resolved in pass 2 (symbols may not exist yet): kept as a
            # pseudo and expanded to lui+addi or addi there.  We always
            # reserve two slots so addresses are stable.
            return [("__li0", ops), ("__li1", ops)]
        return [(mnemonic, ops)]

    for line_number, raw in enumerate(source.splitlines(), start=1):
        text = raw.split("#")[0].split("//")[0].strip()
        if not text:
            continue
        while True:
            label_match = re.match(r"^([A-Za-z_.$][\w.$]*)\s*:\s*(.*)$", text)
            if not label_match:
                break
            label, text = label_match.groups()
            address = pc if section == "text" else DATA_BASE + len(data)
            if label in program.symbols:
                raise AsmError(f"line {line_number}: duplicate label {label!r}")
            program.symbols[label] = address
            if section == "text":
                program.leaders.add(pc)
            text = text.strip()
        if not text:
            continue

        if text.startswith("."):
            parts = text.split(None, 1)
            directive = parts[0]
            rest = parts[1] if len(parts) > 1 else ""
            if directive == ".text":
                section = "text"
            elif directive == ".data":
                section = "data"
            elif directive == ".word":
                for token in rest.split(","):
                    value = _parse_int(token, line_number) & 0xFFFFFFFF
                    data += value.to_bytes(4, "little")
            elif directive == ".half":
                for token in rest.split(","):
                    value = _parse_int(token, line_number) & 0xFFFF
                    data += value.to_bytes(2, "little")
            elif directive == ".byte":
                for token in rest.split(","):
                    data.append(_parse_int(token, line_number) & 0xFF)
            elif directive == ".space":
                data += bytes(_parse_int(rest, line_number))
            elif directive == ".align":
                boundary = 1 << _parse_int(rest, line_number)
                while len(data) % boundary:
                    data.append(0)
            elif directive in (".globl", ".global", ".section"):
                pass  # accepted and ignored
            else:
                raise AsmError(
                    f"line {line_number}: unknown directive {directive!r}"
                )
            continue

        if section != "text":
            raise AsmError(
                f"line {line_number}: instruction outside .text"
            )
        parts = text.split(None, 1)
        mnemonic = parts[0]
        operand_text = parts[1] if len(parts) > 1 else ""
        operands = [o.strip() for o in operand_text.split(",")] if operand_text else []
        for real_mnemonic, real_ops in expand_pseudo(mnemonic, operands, line_number):
            pending.append(
                _PendingInstr(real_mnemonic, real_ops, line_number, pc)
            )
            pc += 4

    program.data = data
    program.leaders.add(0)

    # Pass 2: resolve symbols and build Instruction objects.
    def resolve(token: str, line: int) -> int:
        token = token.strip()
        if token in program.symbols:
            return program.symbols[token]
        return _parse_int(token, line)

    for item in pending:
        program.instructions.append(_build(item, program, resolve))

    # Leaders: entry, every branch/jump target, every fall-through.
    for index, instr in enumerate(program.instructions):
        if instr.target is not None:
            program.leaders.add(instr.target)
            program.leaders.add((index + 1) * 4)
        if instr.mnemonic == "jalr":
            program.leaders.add((index + 1) * 4)
    return program


def _build(item: _PendingInstr, program: Program, resolve) -> Instruction:
    name, ops, line = item.mnemonic, item.operands, item.line

    def value(token: str) -> int:
        reloc = _split_reloc(token)
        if reloc:
            kind, symbol, delta = reloc
            return _apply_reloc(kind, resolve(symbol, line) + delta)
        return resolve(token, line)

    if name == "__li0":
        value = resolve(ops[1], line) & 0xFFFFFFFF
        upper = (value + 0x800) >> 12 & 0xFFFFF
        return Instruction("lui", rd=_reg(ops[0], line), imm=upper, source_line=line)
    if name == "__li1":
        value = resolve(ops[1], line) & 0xFFFFFFFF
        low = value & 0xFFF
        if low >= 0x800:
            low -= 0x1000
        return Instruction(
            "addi", rd=_reg(ops[0], line), rs1=_reg(ops[0], line),
            imm=low, source_line=line,
        )
    if name not in SPECS:
        raise AsmError(f"line {line}: unknown mnemonic {name!r}")
    fmt = SPECS[name].fmt

    def need(count: int) -> None:
        if len(ops) != count:
            raise AsmError(
                f"line {line}: {name} expects {count} operands, got {len(ops)}"
            )

    if fmt is Fmt.R:
        need(3)
        return Instruction(
            name, rd=_reg(ops[0], line), rs1=_reg(ops[1], line),
            rs2=_reg(ops[2], line), source_line=line,
        )
    if fmt is Fmt.I:
        need(3)
        return Instruction(
            name, rd=_reg(ops[0], line), rs1=_reg(ops[1], line),
            imm=value(ops[2]), source_line=line,
        )
    if fmt is Fmt.LOAD:
        need(2)
        imm, rs1 = _mem_operand(ops[1], line, value)
        return Instruction(name, rd=_reg(ops[0], line), rs1=rs1, imm=imm, source_line=line)
    if fmt is Fmt.STORE:
        need(2)
        imm, rs1 = _mem_operand(ops[1], line, value)
        return Instruction(name, rs2=_reg(ops[0], line), rs1=rs1, imm=imm, source_line=line)
    if fmt is Fmt.BRANCH:
        need(3)
        return Instruction(
            name, rs1=_reg(ops[0], line), rs2=_reg(ops[1], line),
            target=resolve(ops[2], line), source_line=line,
        )
    if fmt is Fmt.JAL:
        need(2)
        return Instruction(
            name, rd=_reg(ops[0], line), target=resolve(ops[1], line),
            source_line=line,
        )
    if fmt is Fmt.JALR:
        need(2)
        imm, rs1 = _mem_operand(ops[1], line, value)
        return Instruction(name, rd=_reg(ops[0], line), rs1=rs1, imm=imm, source_line=line)
    if fmt is Fmt.U:
        need(2)
        return Instruction(
            name, rd=_reg(ops[0], line), imm=value(ops[1]) & 0xFFFFF,
            source_line=line,
        )
    if fmt is Fmt.FR:
        need(3)
        return Instruction(
            name, fd=_freg(ops[0], line), fs1=_freg(ops[1], line),
            fs2=_freg(ops[2], line), source_line=line,
        )
    if fmt is Fmt.FCMP:
        need(3)
        return Instruction(
            name, rd=_reg(ops[0], line), fs1=_freg(ops[1], line),
            fs2=_freg(ops[2], line), source_line=line,
        )
    if fmt is Fmt.FLOAD:
        need(2)
        imm, rs1 = _mem_operand(ops[1], line, value)
        return Instruction(name, fd=_freg(ops[0], line), rs1=rs1, imm=imm, source_line=line)
    if fmt is Fmt.FSTORE:
        need(2)
        imm, rs1 = _mem_operand(ops[1], line, value)
        return Instruction(name, fs2=_freg(ops[0], line), rs1=rs1, imm=imm, source_line=line)
    if fmt is Fmt.FMVXH:
        need(2)
        return Instruction(name, rd=_reg(ops[0], line), fs1=_freg(ops[1], line), source_line=line)
    if fmt is Fmt.FMVHX:
        need(2)
        return Instruction(name, fd=_freg(ops[0], line), rs1=_reg(ops[1], line), source_line=line)
    if fmt is Fmt.FCVTWH:
        need(2)
        return Instruction(name, rd=_reg(ops[0], line), fs1=_freg(ops[1], line), source_line=line)
    if fmt is Fmt.FCVTHW:
        need(2)
        return Instruction(name, fd=_freg(ops[0], line), rs1=_reg(ops[1], line), source_line=line)
    if fmt is Fmt.SYS:
        if name == "frflags":
            need(1)
            return Instruction(name, rd=_reg(ops[0], line), source_line=line)
        if name == "fsflags":
            need(1)
            return Instruction(name, rs1=_reg(ops[0], line), source_line=line)
        return Instruction(name, source_line=line)
    raise AsmError(f"line {line}: unhandled format for {name}")  # pragma: no cover
