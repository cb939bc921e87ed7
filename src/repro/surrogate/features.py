"""Feature extraction: (SP vector, corner, age) -> fixed-width vector.

The vector concatenates a netlist-level SP summary (global SP
statistics plus per-logic-depth aggregates), a one-hot over the corner
catalogue with the corner's physical knobs (temperature, voltage
scale, late derate), and a small basis over the device age (linear,
the BTI 1/6 power law, log).  ``FEATURE_SCHEMA`` versions the layout,
and datasets carry it.

:class:`FleetFeaturizer` precomputes the name ordering and depth-bucket
index arrays once per netlist, then featurizes raw numpy SP vectors
without building per-device dicts — scoring a device costs
microseconds, which is what makes clearing the cohort essentially free
next to the exact pipeline.
"""

from __future__ import annotations

import math
from typing import Dict, List

import numpy as np

from ..aging.corners import TYPICAL_CORNER, WORST_CORNER, OperatingCorner
from ..netlist.netlist import Netlist
from ..sim.probes import SPProfile, net_levels

#: Version of the feature layout below.  Bump on any change to the
#: ordering, widths, or transforms: a cached dataset of another schema
#: is refused.
FEATURE_SCHEMA = 1

#: Corner catalogue order for the one-hot block (sorted by name).
CORNER_ORDER = tuple(
    sorted([TYPICAL_CORNER.name, WORST_CORNER.name])
)

_CORNERS: Dict[str, OperatingCorner] = {
    TYPICAL_CORNER.name: TYPICAL_CORNER,
    WORST_CORNER.name: WORST_CORNER,
}

#: Reference span (years) normalizing the age basis.
_AGE_SCALE = 10.0


def feature_names(buckets: int = 8) -> List[str]:
    """Stable column names of the feature vector (schema 1)."""
    names = [
        "sp_mean",
        "sp_std",
        "sp_low_frac",
        "sp_high_frac",
        "toggle_proxy",
        "dff_sp_mean",
        "comb_sp_mean",
    ]
    for bucket in range(buckets):
        names += [
            f"level{bucket}_mean",
            f"level{bucket}_min",
            f"level{bucket}_max",
        ]
    names += [f"corner_{name}" for name in CORNER_ORDER]
    names += ["corner_temp_c", "corner_voltage", "corner_late_derate"]
    names += ["age_years", "age_bti_pow", "age_log1p"]
    return names


def corner_features(corner_name: str) -> List[float]:
    """One-hot + physical knobs for one operating corner."""
    onehot = [1.0 if corner_name == name else 0.0 for name in CORNER_ORDER]
    corner = _CORNERS.get(corner_name)
    if corner is None:
        raise ValueError(f"unknown corner {corner_name!r}")
    return onehot + [
        corner.temperature_c / 100.0,
        corner.voltage_scale,
        corner.late_derate,
    ]


def age_features(age_years: float) -> List[float]:
    """Normalized age basis: linear, BTI t^(1/6) law, log."""
    scaled = age_years / _AGE_SCALE
    return [scaled, scaled ** (1.0 / 6.0), math.log1p(age_years)]


class FleetFeaturizer:
    """Vectorized featurizer over raw SP vectors (triage hot path).

    ``names`` fixes the net ordering (sorted); ``vector(sp)`` accepts a
    float64 array in that order.  Every reduction runs in name-sorted
    order, so the features are bit-identical for any profile dict
    order.  Empty depth buckets report the neutral (0.5, 0.5, 0.5), so
    the width is fixed for any netlist.
    """

    def __init__(self, netlist: Netlist, buckets: int = 8):
        self.netlist = netlist
        self.buckets = buckets
        self.names: List[str] = sorted(netlist.nets)
        self._col = {name: i for i, name in enumerate(self.names)}
        levels = net_levels(netlist)
        max_level = max(levels.values(), default=0)
        self._bucket_cols: List[List[int]] = [[] for _ in range(buckets)]
        for name in sorted(levels):
            bucket = min(
                buckets - 1,
                (levels[name] - 1) * buckets // max(1, max_level),
            )
            self._bucket_cols[bucket].append(self._col[name])
        self._comb_cols = [self._col[name] for name in sorted(levels)]
        self._dff_cols = [
            self._col[name]
            for name in sorted(
                dff.output_net.name for dff in netlist.dffs()
            )
        ]

    def base_vector(self, profile: SPProfile) -> np.ndarray:
        """The profile's SPs in this featurizer's name order."""
        return np.asarray(
            [profile.sp[name] for name in self.names], dtype=np.float64
        )

    def profile(self, sp: np.ndarray) -> SPProfile:
        """Materialize a dict-based profile (for the exact oracle)."""
        return SPProfile(
            netlist_name=self.netlist.name,
            sp=dict(zip(self.names, sp.tolist())),
            samples=1,
        )

    def vector(
        self, sp: np.ndarray, corner_name: str, age_years: float
    ) -> np.ndarray:
        values = sp.tolist()
        n = max(1, len(values))
        mean = sum(values) / n
        var = sum((v - mean) ** 2 for v in values) / n
        low = sum(1 for v in values if v <= 0.1) / n
        high = sum(1 for v in values if v >= 0.9) / n
        toggle = sum(2.0 * v * (1.0 - v) for v in values) / n
        dff = [values[i] for i in self._dff_cols]
        dff_mean = sum(dff) / len(dff) if dff else 0.5
        comb = [values[i] for i in self._comb_cols]
        comb_mean = sum(comb) / len(comb) if comb else 0.5
        head = [mean, var ** 0.5, low, high, toggle, dff_mean, comb_mean]
        tail: List[float] = []
        for cols in self._bucket_cols:
            if cols:
                bucket = [values[i] for i in cols]
                tail += [sum(bucket) / len(bucket), min(bucket), max(bucket)]
            else:
                tail += [0.5, 0.5, 0.5]
        return np.concatenate([
            np.asarray(head + tail, dtype=np.float64),
            np.asarray(corner_features(corner_name), dtype=np.float64),
            np.asarray(age_features(age_years), dtype=np.float64),
        ])
