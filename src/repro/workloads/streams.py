"""Operand-stream capture for signal-probability profiling.

Aging Analysis (§3.2.1) simulates the netlist under representative
workloads.  Here the workload runs once on the ISA simulator with
operand logging enabled; the recorded per-operation input vectors are
then replayed — bit-parallel — through the gate-level netlist by
:func:`repro.sim.probes.profile_operand_stream`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..cpu.asm import assemble
from ..cpu.cpu import Cpu, GoldenAlu, GoldenFpu, GoldenMdu
from .programs import REPRESENTATIVE, WORKLOADS


def collect_operand_streams(
    names: Sequence[str] = (REPRESENTATIVE,),
    max_ops_per_unit: int = 20_000,
) -> Tuple[List[Dict[str, int]], List[Dict[str, int]]]:
    """Run workloads and capture (alu_stream, fpu_stream).

    Each stream entry maps the unit's input-port names to the values of
    one dynamic operation, ready for bit-parallel SP profiling.
    """
    streams = collect_unit_streams(names, max_ops_per_unit)
    return streams["alu"], streams["fpu"]


class _OperandLog(list):
    """An operand log that keeps only its first ``limit`` entries.

    A workload issues far more operations than a stream keeps (minver:
    70k ALU and 44k FPU operations for 20k-entry streams), so dropping
    the rest as they arrive avoids holding the whole run's log at once.
    """

    def __init__(self, limit: int):
        super().__init__()
        self.limit = limit

    def append(self, entry: Dict[str, int]) -> None:
        if len(self) < self.limit:
            super().append(entry)


def collect_unit_streams(
    names: Sequence[str] = (REPRESENTATIVE,),
    max_ops_per_unit: int = 20_000,
) -> Dict[str, List[Dict[str, int]]]:
    """Operand streams for all three units: alu, fpu, and mdu."""
    alu = GoldenAlu()
    fpu = GoldenFpu()
    mdu = GoldenMdu()
    for backend in (alu, fpu, mdu):
        backend.log_operands = True
        backend.operand_log = _OperandLog(max_ops_per_unit)
    for name in names:
        workload = WORKLOADS[name]
        cpu = Cpu(assemble(workload.source), alu=alu, fpu=fpu, mdu=mdu)
        cpu.run()
    return {
        "alu": list(alu.operand_log),
        "fpu": list(fpu.operand_log),
        "mdu": list(mdu.operand_log),
    }
