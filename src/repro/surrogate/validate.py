"""Held-out validation and triage-threshold calibration.

The surrogate's one unforgivable failure mode is clearing a device
that would have violated in the field: a cleared device never reaches
the exact pipeline again.  Validation therefore measures *risky-tail
recall* — the fraction of held-out devices with a true onset inside
the risky horizon that the calibrated threshold would flag — and
**fails closed**: :func:`validate_model` raises
:class:`SurrogateValidationError` below the recall floor, so an
under-trained model can never be handed to triage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Sequence

import numpy as np


class SurrogateValidationError(RuntimeError):
    """Raised when a trained surrogate misses the recall floor."""


@dataclass
class ValidationReport:
    """Held-out quality of one trained surrogate."""

    rows: int
    risky_rows: int
    recall: float
    threshold: float


def _matrices(rows: Sequence[Dict[str, Any]]):
    X = np.asarray([row["features"] for row in rows], dtype=np.float64)
    onset = np.asarray([row["onset_years"] for row in rows], dtype=np.float64)
    return X, onset


def calibrate_threshold(
    model,
    train_rows: Sequence[Dict[str, Any]],
    risky_horizon: float = 10.0,
    recall_floor: float = 0.95,
    margin: float = 0.10,
) -> Dict[str, Any]:
    """Pick the flag threshold on the *training* rows.

    A device is flagged when its predicted onset falls at or below the
    threshold.  The threshold is the smallest predicted-onset value
    covering ``recall_floor`` of the training risky tail (true onset
    inside ``risky_horizon``), inflated by ``margin`` — the safety
    margin buys recall on unseen devices at the price of a slightly
    fatter flagged tail, which the exact pipeline re-verifies anyway.
    """
    X, onset = _matrices(train_rows)
    predicted = model.predict_onset(X)
    risky = predicted[onset <= risky_horizon]
    if len(risky) == 0:
        # Nothing risky in training: flag the horizon itself.
        base = risky_horizon
    else:
        ranked = np.sort(risky)
        cover = max(1, int(np.ceil(recall_floor * len(ranked))))
        base = float(ranked[cover - 1])
    return {
        "threshold": base * (1.0 + margin),
        "risky_horizon": risky_horizon,
        "recall_floor": recall_floor,
        "margin": margin,
    }


def validate_model(
    model,
    holdout_rows: Sequence[Dict[str, Any]],
    risky_horizon: float = 10.0,
    recall_floor: float = 0.95,
) -> ValidationReport:
    """Score the calibrated model on held-out rows; fail closed.

    Raises :class:`SurrogateValidationError` when the held-out risky
    tail's recall lands below ``recall_floor`` (or when the model was
    never calibrated).
    """
    threshold = model.threshold
    if threshold is None:
        raise SurrogateValidationError(
            "surrogate model carries no calibrated threshold; run "
            "calibrate_threshold (or train_surrogate) first"
        )
    if not holdout_rows:
        raise SurrogateValidationError(
            "no held-out rows to validate on; increase the dataset "
            "size or the holdout fraction"
        )
    X, onset = _matrices(holdout_rows)
    flagged = model.predict_onset(X) <= threshold
    risky = onset <= risky_horizon
    recall = (
        float(flagged[risky].sum() / risky.sum()) if risky.any() else 1.0
    )
    report = ValidationReport(
        rows=len(holdout_rows),
        risky_rows=int(risky.sum()),
        recall=recall,
        threshold=float(threshold),
    )
    if recall < recall_floor:
        raise SurrogateValidationError(
            f"held-out risky-tail recall {recall:.3f} is below the "
            f"floor {recall_floor:.3f} ({report.risky_rows} risky of "
            f"{report.rows} held-out rows); the surrogate must not be "
            f"used for triage — enlarge the training sweep or widen "
            f"the threshold margin"
        )
    return report
