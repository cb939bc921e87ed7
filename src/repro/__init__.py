"""repro — a full reproduction of Vega (ASPLOS'24).

Vega is a bottom-up workflow for proactive, runtime detection of
aging-related silent data corruptions.  The package rebuilds the paper's
entire stack in pure Python: a gate-level netlist substrate, RTL
synthesis, bit-parallel simulation, BTI aging models, aging-aware static
timing analysis, a CDCL SAT solver + bounded model checker, failure-model
instrumentation, a RISC-V-style CPU with gate-level co-simulation,
embench-style workloads, and two test-integration backends.

Quickstart::

    from repro import VegaWorkflow, VegaConfig
    from repro.cpu.alu_design import build_alu
    from repro.cpu.mappers import AluMapper
    from repro.workloads import collect_unit_streams

    stream = collect_unit_streams(["minver"])["alu"]
    workflow = VegaWorkflow(VegaConfig())
    report = workflow.run(build_alu(), stream, AluMapper())
    print(report.summary())
"""

from .core.config import VegaConfig
from .core.workflow import VegaWorkflow

__version__ = "1.0.0"

__all__ = ["VegaConfig", "VegaWorkflow", "__version__"]
