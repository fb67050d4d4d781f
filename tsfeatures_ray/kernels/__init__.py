"""Feature kernel registry.

Every kernel has the reference contract ``f(x: np.ndarray, freq: int) ->
dict[str, float]`` (reference tsfeatures/tsfeatures.py:35+) and is NumPy
plus the compiled loops of _steps.c -- no statsmodels/scipy/sklearn, no
BLAS. ``DEFAULT_FEATURES`` mirrors the reference's default feature list
(tsfeatures.py:932-937) in the same order; like the reference's ChainMap
merge (tsfeatures.py:926), the FIRST kernel producing a key wins on
collision.

One kernel protocol: the only implementation of each default kernel is
its batch form ``f.batch(off, v, freqs) -> {column: array}`` over a
ragged batch (int64 offsets, lane i is ``v[off[i]:off[i + 1]]``; float64
values; an int64 freq per lane), called once per batch by the feature
stage. ``scalar_of`` builds the scalar kernel as its 1-lane call (the
seasonal-only keys left out at freq 1); ``per_row`` builds the batch
form of a kernel that has only the scalar contract (the opt-in extras,
user callables): f on each series in turn.
"""

from __future__ import annotations

from collections import ChainMap
from collections.abc import Callable

import numpy as np

from ._math import FREQS, scale_lanes, scalets
from ._batch import per_row, scalar_of
from .ets import holt_parameters, hw_parameters
from .het import heterogeneity
from .simple import (
    acf_features,
    arch_stat,
    count_entropy,
    crossing_points,
    entropy,
    flat_spots,
    frequency,
    guerrero,
    hurst,
    intervals,
    lumpiness,
    nonlinearity,
    pacf_features,
    series_length,
    sparsity,
    stability,
    statistics,
    unitroot_kpss,
    unitroot_pp,
)
from .stl import stl_features

# Reference default feature set + order (tsfeatures.py:932-937)
DEFAULT_FEATURES: list[Callable] = [
    acf_features,
    arch_stat,
    crossing_points,
    entropy,
    flat_spots,
    heterogeneity,
    holt_parameters,
    lumpiness,
    nonlinearity,
    pacf_features,
    stl_features,
    stability,
    hw_parameters,
    unitroot_kpss,
    unitroot_pp,
    series_length,
    hurst,
]

# Opt-in extras (reference exposes but excludes from the default set)
EXTRA_FEATURES: list[Callable] = [
    count_entropy,
    frequency,
    guerrero,
    intervals,
    sparsity,
    statistics,
]

ALL_FEATURES: dict[str, Callable] = {
    f.__name__: f for f in DEFAULT_FEATURES + EXTRA_FEATURES
}


def compute_features(
    x: np.ndarray,
    freq: int,
    features: list[Callable] | None = None,
    scale: bool = True,
) -> dict[str, float]:
    """Run a feature list over one series, reference merge semantics
    (scale -> per-kernel dicts -> ChainMap, tsfeatures.py:923-926)."""
    if features is None:
        features = DEFAULT_FEATURES
    x = np.asarray(x, dtype=float)
    if scale:
        x = scalets(x)
    c_map = ChainMap(*[f(x, freq) for f in features])
    return dict(c_map)


__all__ = [
    "ALL_FEATURES",
    "DEFAULT_FEATURES",
    "EXTRA_FEATURES",
    "FREQS",
    "compute_features",
    "per_row",
    "scalar_of",
    "scale_lanes",
    "scalets",
    "acf_features",
    "arch_stat",
    "count_entropy",
    "crossing_points",
    "entropy",
    "flat_spots",
    "frequency",
    "guerrero",
    "heterogeneity",
    "holt_parameters",
    "hurst",
    "hw_parameters",
    "intervals",
    "lumpiness",
    "nonlinearity",
    "pacf_features",
    "series_length",
    "sparsity",
    "stability",
    "statistics",
    "stl_features",
    "unitroot_kpss",
    "unitroot_pp",
]
