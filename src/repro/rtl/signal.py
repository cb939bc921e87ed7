"""Bit-level RTL construction DSL.

The paper's hardware (the CV32E40P ALU and the FPnew FPU) is written in
SystemVerilog and synthesized by commercial tools.  This module is our
substitute for that front end: designs are described as Python
expressions over :class:`Signal` objects, producing a hash-consed DAG of
single-bit operations that :mod:`repro.rtl.synth` maps onto the vega28
cell library.

Everything is built from five bit operators — AND, OR, XOR, NOT, MUX —
plus constants, inputs, and register outputs.  Word-level operations
(addition, shifts, comparisons, multiplication) are constructed
structurally the same way a synthesizer would elaborate them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union


class RtlError(Exception):
    """Raised for width mismatches and malformed module structure."""


class Bit:
    """One node of the bit-level DAG.

    ``op`` is one of ``const``, ``in``, ``reg``, ``and``, ``or``,
    ``xor``, ``not``, ``mux``.  ``args`` holds operand bits; ``tag``
    disambiguates leaves (constant value, or ``(name, index)``).

    Bits are interned by their :class:`Module`, so identity comparison
    is structural equality; the class deliberately keeps the default
    identity hash to avoid O(depth) recursive hashing on deep DAGs.
    """

    __slots__ = ("op", "args", "tag", "uid")

    def __init__(
        self,
        op: str,
        args: Tuple["Bit", ...] = (),
        tag: object = None,
        uid: int = 0,
    ):
        self.op = op
        self.args = args
        self.tag = tag
        self.uid = uid

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.op in ("in", "reg"):
            return f"Bit({self.op}:{self.tag[0]}[{self.tag[1]}])"
        if self.op == "const":
            return f"Bit({self.tag})"
        return f"Bit({self.op}/{len(self.args)})"


class Module:
    """An RTL module under construction.

    Inputs, registers, and outputs are declared through methods; all
    combinational structure is built by :class:`Signal` operators.  Bits
    are interned so identical subexpressions share one node (structural
    CSE, mirroring what logic synthesis would do).
    """

    def __init__(self, name: str):
        self.name = name
        self.inputs: Dict[str, "Signal"] = {}
        self.outputs: Dict[str, "Signal"] = {}
        self.registers: Dict[str, "Register"] = {}
        self._intern: Dict[Tuple, Bit] = {}
        self._next_uid = 0

    # -- bit factory ---------------------------------------------------
    def _mk(self, op: str, args: Tuple[Bit, ...] = (), tag: object = None) -> Bit:
        # Children are interned before parents, so their ids identify
        # them structurally; keying on ids keeps interning O(1) per node.
        key = (op, tuple(id(a) for a in args), tag)
        bit = self._intern.get(key)
        if bit is None:
            bit = Bit(op, args, tag, uid=self._next_uid)
            self._next_uid += 1
            self._intern[key] = bit
        return bit

    def const_bit(self, value: int) -> Bit:
        return self._mk("const", tag=value & 1)

    # -- constant folding + simplification -----------------------------
    def b_not(self, a: Bit) -> Bit:
        if a.op == "const":
            return self.const_bit(1 - a.tag)
        if a.op == "not":
            return a.args[0]
        return self._mk("not", (a,))

    def b_and(self, a: Bit, b: Bit) -> Bit:
        if a is b:
            return a
        if a.op == "const":
            return b if a.tag else self.const_bit(0)
        if b.op == "const":
            return a if b.tag else self.const_bit(0)
        if a.op == "not" and a.args[0] is b:
            return self.const_bit(0)
        if b.op == "not" and b.args[0] is a:
            return self.const_bit(0)
        if a.uid > b.uid:  # canonical (deterministic) operand order
            a, b = b, a
        return self._mk("and", (a, b))

    def b_or(self, a: Bit, b: Bit) -> Bit:
        if a is b:
            return a
        if a.op == "const":
            return self.const_bit(1) if a.tag else b
        if b.op == "const":
            return self.const_bit(1) if b.tag else a
        if a.op == "not" and a.args[0] is b:
            return self.const_bit(1)
        if b.op == "not" and b.args[0] is a:
            return self.const_bit(1)
        if a.uid > b.uid:
            a, b = b, a
        return self._mk("or", (a, b))

    def b_xor(self, a: Bit, b: Bit) -> Bit:
        if a is b:
            return self.const_bit(0)
        if a.op == "const":
            return b if not a.tag else self.b_not(b)
        if b.op == "const":
            return a if not b.tag else self.b_not(a)
        if a.uid > b.uid:
            a, b = b, a
        return self._mk("xor", (a, b))

    def b_mux(self, sel: Bit, a: Bit, b: Bit) -> Bit:
        """``b if sel else a`` (matches the MUX2 cell's S semantics)."""
        if a is b:
            return a
        if sel.op == "const":
            return b if sel.tag else a
        if a.op == "const" and b.op == "const":
            return sel if b.tag else self.b_not(sel)
        if a.op == "const":
            if a.tag:  # mux(s, 1, b) = ~s | b
                return self.b_or(self.b_not(sel), b)
            return self.b_and(sel, b)  # mux(s, 0, b) = s & b
        if b.op == "const":
            if b.tag:  # mux(s, a, 1) = s | a
                return self.b_or(sel, a)
            return self.b_and(self.b_not(sel), a)  # mux(s, a, 0) = ~s & a
        return self._mk("mux", (a, b, sel))

    # -- declarations ---------------------------------------------------
    def input(self, name: str, width: int = 1) -> "Signal":
        if name in self.inputs:
            raise RtlError(f"input {name!r} already declared")
        bits = tuple(self._mk("in", tag=(name, i)) for i in range(width))
        sig = Signal(self, bits)
        self.inputs[name] = sig
        return sig

    def register(self, name: str, width: int = 1, init: int = 0) -> "Register":
        if name in self.registers:
            raise RtlError(f"register {name!r} already declared")
        reg = Register(self, name, width, init)
        self.registers[name] = reg
        return reg

    def output(self, name: str, sig: "Signal") -> None:
        if name in self.outputs:
            raise RtlError(f"output {name!r} already declared")
        self.outputs[name] = sig

    # -- constants -------------------------------------------------------
    def const(self, value: int, width: int) -> "Signal":
        if value < 0:
            value &= (1 << width) - 1
        bits = tuple(self.const_bit((value >> i) & 1) for i in range(width))
        return Signal(self, bits)

    def finalize(self) -> None:
        """Validate that every register has a next-state expression."""
        for reg in self.registers.values():
            if reg.next is None:
                raise RtlError(f"register {reg.name!r} has no next-state")


class Register:
    """A named bank of DFFs.  ``.q`` reads it; assign ``.next`` to drive it."""

    def __init__(self, module: Module, name: str, width: int, init: int):
        self.module = module
        self.name = name
        self.width = width
        self.init = init & ((1 << width) - 1)
        bits = tuple(module._mk("reg", tag=(name, i)) for i in range(width))
        self.q = Signal(module, bits)
        self._next: Optional[Signal] = None

    @property
    def next(self) -> Optional["Signal"]:
        return self._next

    @next.setter
    def next(self, sig: "Signal") -> None:
        if sig.width != self.width:
            raise RtlError(
                f"register {self.name!r} is {self.width} bits; "
                f"next-state is {sig.width}"
            )
        self._next = sig


def _coerce(module: Module, other: Union["Signal", int], width: int) -> "Signal":
    if isinstance(other, Signal):
        return other
    return module.const(other, width)


class Signal:
    """An immutable vector of bits (LSB first) with word-level operators."""

    __slots__ = ("module", "bits")

    def __init__(self, module: Module, bits: Tuple[Bit, ...]):
        self.module = module
        self.bits = bits

    @property
    def width(self) -> int:
        return len(self.bits)

    # -- slicing / shaping ------------------------------------------------
    def __getitem__(self, idx) -> "Signal":
        if isinstance(idx, int):
            return Signal(self.module, (self.bits[idx],))
        return Signal(self.module, tuple(self.bits[idx]))

    def bit(self, i: int) -> Bit:
        return self.bits[i]

    def concat(self, *others: "Signal") -> "Signal":
        """Concatenate self (low) with others (progressively higher)."""
        bits = list(self.bits)
        for other in others:
            bits.extend(other.bits)
        return Signal(self.module, tuple(bits))

    def zext(self, width: int) -> "Signal":
        if width < self.width:
            raise RtlError("zext target narrower than signal")
        pad = tuple(
            self.module.const_bit(0) for _ in range(width - self.width)
        )
        return Signal(self.module, self.bits + pad)

    def sext(self, width: int) -> "Signal":
        if width < self.width:
            raise RtlError("sext target narrower than signal")
        pad = tuple(self.bits[-1] for _ in range(width - self.width))
        return Signal(self.module, self.bits + pad)

    def repeat(self, count: int) -> "Signal":
        if self.width != 1:
            raise RtlError("repeat requires a 1-bit signal")
        return Signal(self.module, self.bits * count)

    def _check(self, other: "Signal") -> None:
        if self.width != other.width:
            raise RtlError(
                f"width mismatch: {self.width} vs {other.width}"
            )

    # -- bitwise ----------------------------------------------------------
    def __and__(self, other) -> "Signal":
        other = _coerce(self.module, other, self.width)
        self._check(other)
        m = self.module
        return Signal(
            m, tuple(m.b_and(a, b) for a, b in zip(self.bits, other.bits))
        )

    def __or__(self, other) -> "Signal":
        other = _coerce(self.module, other, self.width)
        self._check(other)
        m = self.module
        return Signal(
            m, tuple(m.b_or(a, b) for a, b in zip(self.bits, other.bits))
        )

    def __xor__(self, other) -> "Signal":
        other = _coerce(self.module, other, self.width)
        self._check(other)
        m = self.module
        return Signal(
            m, tuple(m.b_xor(a, b) for a, b in zip(self.bits, other.bits))
        )

    def __invert__(self) -> "Signal":
        m = self.module
        return Signal(m, tuple(m.b_not(a) for a in self.bits))

    # -- reductions ---------------------------------------------------------
    def _reduce(self, fn) -> "Signal":
        acc = self.bits[0]
        for b in self.bits[1:]:
            acc = fn(acc, b)
        return Signal(self.module, (acc,))

    def any(self) -> "Signal":
        """OR-reduce: 1 if any bit is set."""
        return self._reduce(self.module.b_or)

    def all(self) -> "Signal":
        """AND-reduce: 1 if every bit is set."""
        return self._reduce(self.module.b_and)

    def parity(self) -> "Signal":
        """XOR-reduce."""
        return self._reduce(self.module.b_xor)

    # -- arithmetic -----------------------------------------------------
    def _adder(self, other: "Signal", carry_in: Bit) -> Tuple[Tuple[Bit, ...], Bit]:
        """Ripple-carry addition; returns (sum bits, carry out)."""
        m = self.module
        carry = carry_in
        out: List[Bit] = []
        for a, b in zip(self.bits, other.bits):
            axb = m.b_xor(a, b)
            out.append(m.b_xor(axb, carry))
            carry = m.b_or(m.b_and(a, b), m.b_and(axb, carry))
        return tuple(out), carry

    def add(self, other, carry_in: int = 0) -> "Signal":
        other = _coerce(self.module, other, self.width)
        self._check(other)
        cin = self.module.const_bit(carry_in)
        bits, _ = self._adder(other, cin)
        return Signal(self.module, bits)

    def __add__(self, other) -> "Signal":
        return self.add(other)

    def __sub__(self, other) -> "Signal":
        other = _coerce(self.module, other, self.width)
        self._check(other)
        bits, _ = self._adder(~other, self.module.const_bit(1))
        return Signal(self.module, bits)

    def sub_with_borrow(self, other) -> Tuple["Signal", "Signal"]:
        """Returns (a - b, borrow) where borrow=1 iff a < b (unsigned)."""
        other = _coerce(self.module, other, self.width)
        self._check(other)
        bits, cout = self._adder(~other, self.module.const_bit(1))
        borrow = self.module.b_not(cout)
        return Signal(self.module, bits), Signal(self.module, (borrow,))

    def neg(self) -> "Signal":
        return self.module.const(0, self.width) - self

    def __mul__(self, other) -> "Signal":
        """Unsigned array multiplier; result has 2x width."""
        other = _coerce(self.module, other, self.width)
        self._check(other)
        m = self.module
        total = m.const(0, 2 * self.width)
        for i, b in enumerate(other.bits):
            pp = (self & Signal(m, (b,)).repeat(self.width)).zext(2 * self.width)
            shifted = Signal(
                m,
                tuple(m.const_bit(0) for _ in range(i)) + pp.bits[: 2 * self.width - i],
            )
            total = total + shifted
        return total

    # -- comparisons ------------------------------------------------------
    def eq(self, other) -> "Signal":
        other = _coerce(self.module, other, self.width)
        self._check(other)
        return (~(self ^ other)).all()

    def ult(self, other) -> "Signal":
        other = _coerce(self.module, other, self.width)
        _, borrow = self.sub_with_borrow(other)
        return borrow

    def ule(self, other) -> "Signal":
        other = _coerce(self.module, other, self.width)
        return ~other.ult(self)

    def slt(self, other) -> "Signal":
        """Signed less-than (two's complement)."""
        other = _coerce(self.module, other, self.width)
        self._check(other)
        diff, borrow = self.sub_with_borrow(other)
        sa, sb = self[-1], other[-1]
        # Signs differ -> a < b iff a negative; else use unsigned borrow.
        differs = sa ^ sb
        m = self.module
        return Signal(
            m, (m.b_mux(differs.bits[0], borrow.bits[0], sa.bits[0]),)
        )

    def sle(self, other) -> "Signal":
        other = _coerce(self.module, other, self.width)
        return ~other.slt(self)

    # -- shifts -----------------------------------------------------------
    def shl_const(self, amount: int) -> "Signal":
        m = self.module
        amount = min(amount, self.width)
        bits = (
            tuple(m.const_bit(0) for _ in range(amount))
            + self.bits[: self.width - amount]
        )
        return Signal(m, bits)

    def shr_const(self, amount: int, arith: bool = False) -> "Signal":
        m = self.module
        amount = min(amount, self.width)
        fill = self.bits[-1] if arith else m.const_bit(0)
        bits = self.bits[amount:] + tuple(fill for _ in range(amount))
        return Signal(m, bits)

    def _barrel(self, shamt: "Signal", stage_fn) -> "Signal":
        # Every shamt bit gets a stage: the per-stage constant shift
        # clamps at the signal width, so amounts >= width correctly
        # saturate to all-zero (or all-sign for arithmetic shifts)
        # instead of wrapping.
        result = self
        for stage, sel_bit in enumerate(shamt.bits):
            shifted = stage_fn(result, min(1 << stage, self.width))
            result = mux(Signal(self.module, (sel_bit,)), result, shifted)
        return result

    def shl(self, shamt: "Signal") -> "Signal":
        """Logical left shift by a signal amount (barrel shifter)."""
        return self._barrel(shamt, lambda s, k: s.shl_const(k))

    def shr(self, shamt: "Signal") -> "Signal":
        """Logical right shift by a signal amount."""
        return self._barrel(shamt, lambda s, k: s.shr_const(k, arith=False))

    def sra(self, shamt: "Signal") -> "Signal":
        """Arithmetic right shift by a signal amount."""
        return self._barrel(shamt, lambda s, k: s.shr_const(k, arith=True))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Signal({self.width}b)"


def mux(sel: Signal, a: Signal, b: Signal) -> Signal:
    """Word-level 2:1 mux: ``b`` when ``sel`` else ``a``."""
    if sel.width != 1:
        raise RtlError("mux select must be 1 bit")
    if a.width != b.width:
        raise RtlError("mux arm width mismatch")
    m = a.module
    s = sel.bits[0]
    return Signal(m, tuple(m.b_mux(s, x, y) for x, y in zip(a.bits, b.bits)))


def mux_by_index(sel: Signal, arms: Sequence[Signal]) -> Signal:
    """N-way mux: selects ``arms[sel]``; out-of-range selects arm 0."""
    if not arms:
        raise RtlError("mux_by_index needs at least one arm")
    result = arms[0]
    for index, arm in enumerate(arms[1:], start=1):
        result = mux(sel.eq(index), result, arm)
    return result


def leading_zero_count(sig: Signal) -> Signal:
    """Count of leading zeros (from MSB); width = ceil(log2(w))+1 bits.

    Built as a priority encoder: positionally the first 1 from the top
    selects its index.  Used by the FPU normalizer.
    """
    m = sig.module
    w = sig.width
    out_width = max(1, (w).bit_length())
    result = m.const(w, out_width)  # all-zero input -> count == width
    seen = m.const(0, 1)
    for i in range(w - 1, -1, -1):
        bit = sig[i]
        is_first = bit & ~seen
        count_here = m.const(w - 1 - i, out_width)
        result = mux(is_first, result, count_here)
        seen = seen | bit
    return result
