"""Software test cases lifted from module-level traces (§3.3.5).

Instruction Construction translates a cycle-accurate module trace into
assembly.  Per the paper, the values of input/output registers are fixed
here, while *register allocation is deferred* to Test Integration so the
tests can be woven into an application without clobbering live state.

The :class:`IsaMapper` protocol is the "expert knowledge of the CPU's
microarchitecture": one implementation per (microarchitecture, unit)
knows which instruction activates which module-level signals and builds
the lookup tables the paper describes.  Mappers live in
:mod:`repro.cpu.mappers`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Protocol, Sequence

from ..formal.bmc import InputAssumption
from ..formal.trace import Trace
from .models import FailureModel


class UnmappableTraceError(Exception):
    """A waveform that cannot be converted into a practical test case.

    Mirrors the paper's "FC" outcome: e.g. the only observable
    corruption is a status flag that an earlier instruction of the same
    trace already sets, leaving nothing to compare against (§5.2.2).
    """


@dataclass
class TestInstruction:
    """One checked instruction of a test case.

    (Domain vocabulary, not a pytest suite: ``__test__ = False``.)

    ``operands`` holds symbolic register slots mapped to immediate
    values (e.g. ``{"rs1": 0x7fff, "rs2": 3}``); ``expected`` is the
    golden destination value to compare against, or None when the
    instruction is set-up only; ``expected_flags`` optionally checks a
    status-flag register after the instruction.
    """

    __test__ = False  # keep pytest from collecting this dataclass

    mnemonic: str
    operands: Dict[str, int] = field(default_factory=dict)
    expected: Optional[int] = None
    expected_flags: Optional[int] = None
    comment: str = ""


@dataclass
class TestCase:
    """A compact, self-checking aging test for one failure model."""

    __test__ = False  # keep pytest from collecting this dataclass

    name: str
    unit: str
    model: FailureModel
    instructions: List[TestInstruction] = field(default_factory=list)
    source_trace: Optional[Trace] = None

    def describe(self) -> str:
        lines = [f"; test {self.name} ({self.unit}, {self.model.label})"]
        for ins in self.instructions:
            ops = ", ".join(f"{k}={v:#x}" for k, v in ins.operands.items())
            check = ""
            if ins.expected is not None:
                check = f" -> expect {ins.expected:#x}"
            if ins.expected_flags is not None:
                check += f" flags {ins.expected_flags:#x}"
            lines.append(f";   {ins.mnemonic} {ops}{check}")
        return "\n".join(lines)


class IsaMapper(Protocol):
    """Microarchitecture knowledge for one functional unit."""

    #: Unit tag, e.g. "alu" or "fpu".
    unit: str

    def assumptions(self) -> Sequence[InputAssumption]:
        """``assume property`` restrictions for realistic module input
        (§3.3.3), e.g. the opcode range of valid operations."""
        ...

    def trace_to_test(
        self,
        trace: Trace,
        golden_outputs: Sequence[Mapping[str, int]],
        model: FailureModel,
        name: str,
    ) -> TestCase:
        """Convert a BMC witness into a test case.

        ``golden_outputs[t]`` holds the fault-free module outputs at
        cycle ``t`` (from simulating the original netlist on the
        trace).  Raises :class:`UnmappableTraceError` for FC cases.
        """
        ...
