"""Dependency-light ridge regressor.

Plain numpy closed-form ridge — deliberately no sklearn (the container
has no ML stack and the point of the surrogate is a tiny, auditable
model).  Features standardize to zero mean / unit variance, a bias
column is appended (unpenalized), and one ``np.linalg.solve`` fits
both targets (violation onset, worst slack) at once.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..core import telemetry
from ..core.config import SurrogateConfig
from .dataset import SurrogateDataset
from .validate import ValidationReport, calibrate_threshold, validate_model


class RidgeSurrogate:
    """Multi-output ridge: features -> (onset_years, slack_ns)."""

    def __init__(
        self,
        mean: np.ndarray,
        scale: np.ndarray,
        weights: np.ndarray,
        calibration: Optional[Dict[str, Any]] = None,
    ):
        self.mean = np.asarray(mean, dtype=np.float64)
        self.scale = np.asarray(scale, dtype=np.float64)
        #: (n_features + 1) x 2 — last row is the bias, columns are
        #: (onset, slack).
        self.weights = np.asarray(weights, dtype=np.float64)
        #: Triage calibration (threshold, floors) attached by
        #: :func:`repro.surrogate.validate.calibrate_threshold`.
        self.calibration: Dict[str, Any] = dict(calibration or {})

    # -- fitting --------------------------------------------------------
    @classmethod
    def fit(
        cls,
        X: np.ndarray,
        y: np.ndarray,
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
        return cls(mean, scale, weights)

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


def train_surrogate(
    dataset: SurrogateDataset,
    config: Optional[SurrogateConfig] = None,
    risky_horizon: float = 10.0,
) -> Tuple[RidgeSurrogate, ValidationReport]:
    """Split, fit, calibrate, validate — the whole training recipe.

    Returns the calibrated model plus its held-out validation report.
    Raises :class:`~repro.surrogate.validate.SurrogateValidationError`
    (fail closed) when held-out risky-tail recall lands below
    ``config.recall_floor`` — an uncalibratable model must never reach
    triage.
    """
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
        model = RidgeSurrogate.fit(X, y, ridge_lambda=config.ridge_lambda)
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
