"""ML aging surrogate for fleet triage, kept for one benchmark stage.

The exact bottom-up pipeline (SP profiling -> charlib aging -> STA)
labels every device; following Genssler et al. (arXiv 2207.04134),
this package learns workload-dependent aging from compact features so
that a sampled fleet's predicted-clean cohort could skip that pipeline.
Measured on the ALU, it is no faster than labeling every device
exactly at 64 or 512 devices, and no CLI verb runs it.  It stays only
because the repository benchmark's alu-fleet train/triage stage calls
the five names below; it goes with that stage.

* :func:`generate_dataset` labels workload-skewed SP profiles with the
  exact pipeline (:mod:`dataset`, :mod:`oracle`);
* :func:`train_surrogate` fits a numpy ridge regressor
  (:mod:`model`), calibrates its triage threshold and fails closed
  with :class:`SurrogateValidationError` when held-out risky-tail
  recall lands below the floor (:mod:`validate`);
* :func:`triage_fleet` scores a fleet, and :func:`profiled_fleet`
  builds the exactly analyzed device specs of any index subset, which
  :class:`~repro.campaign.engine.CampaignEngine` runs as its ``fleet``
  (:mod:`triage`).
"""

from .dataset import generate_dataset
from .model import train_surrogate
from .triage import profiled_fleet, triage_fleet
from .validate import SurrogateValidationError

__all__ = [
    "SurrogateValidationError",
    "generate_dataset",
    "profiled_fleet",
    "train_surrogate",
    "triage_fleet",
]
