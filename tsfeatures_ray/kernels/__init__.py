"""Feature kernel registry.

Every kernel has the reference contract ``f(x: np.ndarray, freq: int) ->
dict[str, float]`` (reference tsfeatures/tsfeatures.py:35+) and is NumPy
plus the compiled loops of _steps.c -- no statsmodels/scipy/sklearn, no
BLAS. ``DEFAULT_FEATURES`` mirrors the reference's default feature list
(tsfeatures.py:932-937) in the same order; like the reference's ChainMap
merge (tsfeatures.py:926), the FIRST kernel producing a key wins on
collision. ``BATCH_KERNELS`` maps a kernel to its batch form
``f(xs, freqs) -> {column: array}``, which the feature stage calls once
per batch; the kernel itself is that form's 1-series call.
"""

from __future__ import annotations

from collections import ChainMap
from collections.abc import Callable

import numpy as np

from ._math import FREQS, scalets
from ._batch import holt_parameters_batch, hw_parameters_batch
from .ets import holt_parameters, hw_parameters
from .het import heterogeneity, heterogeneity_batch
from .simple import (
    acf_features,
    acf_features_batch,
    arch_stat,
    arch_stat_batch,
    count_entropy,
    crossing_points,
    entropy,
    flat_spots,
    frequency,
    guerrero,
    hurst,
    hurst_batch,
    intervals,
    lumpiness,
    lumpiness_batch,
    nonlinearity,
    nonlinearity_batch,
    pacf_features,
    pacf_features_batch,
    series_length,
    sparsity,
    stability,
    stability_batch,
    statistics,
    unitroot_kpss,
    unitroot_pp,
    unitroot_pp_batch,
)
from .stl import stl_features, stl_features_batch

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

BATCH_KERNELS: dict[Callable, Callable] = {
    acf_features: acf_features_batch,
    arch_stat: arch_stat_batch,
    heterogeneity: heterogeneity_batch,
    holt_parameters: holt_parameters_batch,
    hurst: hurst_batch,
    hw_parameters: hw_parameters_batch,
    lumpiness: lumpiness_batch,
    nonlinearity: nonlinearity_batch,
    pacf_features: pacf_features_batch,
    stability: stability_batch,
    stl_features: stl_features_batch,
    unitroot_pp: unitroot_pp_batch,
}

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
    "BATCH_KERNELS",
    "DEFAULT_FEATURES",
    "EXTRA_FEATURES",
    "FREQS",
    "compute_features",
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
