"""ML aging surrogate for fleet-scale triage (ROADMAP item 3).

The exact bottom-up pipeline (SP profiling -> charlib aging -> STA) is
the ground truth for one device, but proving a device *clean* costs a
full lifetime sweep — far too expensive per device once the campaign
layer samples fleets of thousands.  Following Genssler et al. (arXiv
2207.04134), workload-dependent aging is learnable from compact
features, so this package:

* generates labeled (features -> onset, slack) pairs by sweeping
  workload-skewed SP profiles through the exact pipeline
  (:mod:`dataset`, :mod:`oracle`),
* trains a dependency-light numpy ridge regressor with bit-reproducible
  JSON snapshots (:mod:`model`),
* validates held-out onset MAE / slack rank correlation / risky-tail
  recall and fails closed below the recall floor (:mod:`validate`), and
* triages sampled fleets: the surrogate-cleared cohort skips the exact
  pipeline entirely while the predicted-risky tail is re-verified
  exactly, byte-identical to the all-exact path (:mod:`triage`).
"""

from .dataset import (
    DATASET_SCHEMA,
    SurrogateDataset,
    device_sp_vector,
    generate_dataset,
)
from .features import (
    FEATURE_SCHEMA,
    FleetFeaturizer,
    device_features,
    feature_names,
)
from .model import MODEL_SCHEMA, RidgeSurrogate, train_surrogate
from .oracle import ExactAgingOracle
from .triage import (
    TriageOutcome,
    TriagedDevice,
    profiled_fleet,
    run_surrogate_campaign,
    triage_fleet,
)
from .validate import (
    SurrogateValidationError,
    ValidationReport,
    calibrate_threshold,
    validate_model,
)

__all__ = [
    "DATASET_SCHEMA",
    "FEATURE_SCHEMA",
    "MODEL_SCHEMA",
    "ExactAgingOracle",
    "FleetFeaturizer",
    "RidgeSurrogate",
    "SurrogateDataset",
    "SurrogateValidationError",
    "TriageOutcome",
    "TriagedDevice",
    "ValidationReport",
    "calibrate_threshold",
    "device_features",
    "device_sp_vector",
    "feature_names",
    "generate_dataset",
    "profiled_fleet",
    "run_surrogate_campaign",
    "train_surrogate",
    "triage_fleet",
    "validate_model",
]
