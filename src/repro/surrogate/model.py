"""Dependency-light ridge regressor with bit-reproducible snapshots.

Plain numpy closed-form ridge — deliberately no sklearn (the container
has no ML stack and the point of the surrogate is a tiny, auditable
model).  Features standardize to zero mean / unit variance, a bias
column is appended (unpenalized), and one ``np.linalg.solve`` fits
both targets (violation onset, worst slack) at once.

Snapshots are canonical JSON: ``json.dumps`` emits shortest
round-trip ``repr`` floats, so ``from_json(to_json(m))`` reproduces
every coefficient bit for bit and :meth:`digest` is a stable model
fingerprint.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..core import telemetry
from ..core.config import SurrogateConfig
from .dataset import SurrogateDataset
from .features import FEATURE_SCHEMA

#: Bumped on any incompatible change to the snapshot layout.
MODEL_SCHEMA = 1


class RidgeSurrogate:
    """Multi-output ridge: features -> (onset_years, slack_ns)."""

    def __init__(
        self,
        feature_names: List[str],
        mean: np.ndarray,
        scale: np.ndarray,
        weights: np.ndarray,
        ridge_lambda: float,
        calibration: Optional[Dict[str, Any]] = None,
    ):
        self.feature_names = list(feature_names)
        self.mean = np.asarray(mean, dtype=np.float64)
        self.scale = np.asarray(scale, dtype=np.float64)
        #: (n_features + 1) x 2 — last row is the bias, columns are
        #: (onset, slack).
        self.weights = np.asarray(weights, dtype=np.float64)
        self.ridge_lambda = float(ridge_lambda)
        #: Triage calibration (threshold, floors) attached by
        #: :func:`repro.surrogate.validate.calibrate_threshold`.
        self.calibration: Dict[str, Any] = dict(calibration or {})

    # -- fitting --------------------------------------------------------
    @classmethod
    def fit(
        cls,
        X: np.ndarray,
        y: np.ndarray,
        feature_names: List[str],
        ridge_lambda: float = 1e-2,
    ) -> "RidgeSurrogate":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        mean = X.mean(axis=0)
        scale = X.std(axis=0)
        scale = np.where(scale > 0.0, scale, 1.0)
        Z = np.hstack([
            (X - mean) / scale,
            np.ones((X.shape[0], 1), dtype=np.float64),
        ])
        penalty = ridge_lambda * np.eye(Z.shape[1], dtype=np.float64)
        penalty[-1, -1] = 0.0  # bias is unpenalized
        weights = np.linalg.solve(Z.T @ Z + penalty, Z.T @ y)
        return cls(feature_names, mean, scale, weights, ridge_lambda)

    # -- inference ------------------------------------------------------
    def predict(self, X: np.ndarray) -> np.ndarray:
        """(n, 2) predictions; columns are (onset_years, slack_ns)."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        Z = np.hstack([
            (X - self.mean) / self.scale,
            np.ones((X.shape[0], 1), dtype=np.float64),
        ])
        return Z @ self.weights

    def predict_onset(self, X: np.ndarray) -> np.ndarray:
        return self.predict(X)[:, 0]

    @property
    def threshold(self) -> Optional[float]:
        """Calibrated triage threshold (None before calibration)."""
        value = self.calibration.get("threshold")
        return None if value is None else float(value)

    # -- serialization --------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        return {
            "schema": MODEL_SCHEMA,
            "feature_schema": FEATURE_SCHEMA,
            "feature_names": list(self.feature_names),
            "mean": self.mean.tolist(),
            "scale": self.scale.tolist(),
            "weights": [row.tolist() for row in self.weights],
            "ridge_lambda": self.ridge_lambda,
            "calibration": self.calibration,
        }

    def to_json(self) -> str:
        # json emits shortest round-trip floats: loads(dumps(x)) == x
        # bit for bit, which makes the snapshot digest-stable.
        return json.dumps(
            self.snapshot(), sort_keys=True, separators=(",", ":")
        )

    @classmethod
    def from_json(cls, text: str) -> "RidgeSurrogate":
        data = json.loads(text)
        if data.get("schema") != MODEL_SCHEMA:
            raise ValueError(
                f"unsupported surrogate model schema "
                f"{data.get('schema')!r} (this build reads {MODEL_SCHEMA})"
            )
        if data.get("feature_schema") != FEATURE_SCHEMA:
            raise ValueError(
                f"model feature schema {data.get('feature_schema')!r} "
                f"does not match this build's {FEATURE_SCHEMA}"
            )
        return cls(
            feature_names=list(data["feature_names"]),
            mean=np.asarray(data["mean"], dtype=np.float64),
            scale=np.asarray(data["scale"], dtype=np.float64),
            weights=np.asarray(data["weights"], dtype=np.float64),
            ridge_lambda=float(data["ridge_lambda"]),
            calibration=dict(data.get("calibration") or {}),
        )

    def digest(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()


def train_surrogate(
    dataset: SurrogateDataset,
    config: Optional[SurrogateConfig] = None,
    risky_horizon: float = 10.0,
) -> Tuple["RidgeSurrogate", "ValidationReport"]:
    """Split, fit, calibrate, validate — the whole training recipe.

    Returns the calibrated model plus its held-out validation report.
    Raises :class:`~repro.surrogate.validate.SurrogateValidationError`
    (fail closed) when held-out risky-tail recall lands below
    ``config.recall_floor`` — an uncalibratable model must never reach
    triage.
    """
    from .validate import ValidationReport, calibrate_threshold, validate_model

    config = config or SurrogateConfig()
    train_rows, holdout_rows = dataset.split(
        config.holdout_fraction, config.seed
    )
    with telemetry.span(
        "surrogate.train",
        rows=len(dataset.rows),
        train=len(train_rows),
        holdout=len(holdout_rows),
    ):
        X, y = dataset.matrices(train_rows)
        model = RidgeSurrogate.fit(
            X, y, dataset.feature_names, ridge_lambda=config.ridge_lambda
        )
        model.calibration = calibrate_threshold(
            model,
            train_rows,
            risky_horizon=risky_horizon,
            recall_floor=config.recall_floor,
            margin=config.threshold_margin,
        )
        report = validate_model(
            model,
            holdout_rows,
            risky_horizon=risky_horizon,
            recall_floor=config.recall_floor,
        )
        telemetry.add("surrogate.train.runs")
    return model, report
