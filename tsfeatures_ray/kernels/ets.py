"""Exponential-smoothing kernels: Holt and Holt-Winters parameters.

Reimplements what the reference gets from statsmodels
``ExponentialSmoothing(...).fit()`` (reference tsfeatures.py:340-368
``holt_parameters``, :392-423 ``hw_parameters``): additive-trend (and
additive-seasonal) innovations recursions fit by SSE minimization under
the usual constraint region (0<alpha<1, 0<beta<alpha, 0<gamma<1-alpha),
with Hyndman's heuristic initial level/trend/seasonal states. The fits
are the batch forms ``holt_parameters_batch`` / ``hw_parameters_batch``
of _batch.py (grids over the compiled SSE loops, then a compiled
Nelder-Mead per lane); the kernels here are their 1-lane calls
(``scalar_of``).

These are optimizer-backed features: even R vs Python reference
implementations diverge here (reference README.md:95-141), and the
reference's own unit tests use loose tolerances (0.02-0.1,
tests/test_holt_parameters.py). We match those tolerances.
"""

from __future__ import annotations

import numpy as np

from ._batch import _ragged, holt_parameters_batch, hw_parameters_batch, scalar_of, seasonal_heuristic

__all__ = ["holt_parameters", "hw_parameters"]


@scalar_of(holt_parameters_batch)
def holt_parameters(x: np.ndarray, freq: int = 1) -> dict:
    """alpha / beta of an additive-trend Holt fit (reference
    tsfeatures.py:340-368). NaN when the fit cannot run (short series).

    Delegates to the lane-batched fit (_batch.py: coarse vectorized
    grid, two zoom rounds, then a batched Nelder-Mead polish over all 4
    params) with a single lane -- one optimizer implementation serves
    both the per-series API and the cross-series feature stage."""


def _heuristic_seasonal(y: np.ndarray, m: int) -> tuple[float, float, np.ndarray]:
    """Hyndman-style initial (level, trend, seasonal indices) of one
    series at period m: a 1-lane _batch.seasonal_heuristic."""
    l0, b0, s0 = seasonal_heuristic(*_ragged([np.asarray(y, dtype=float)]), m)
    return float(l0[0]), float(b0[0]), s0[0]


@scalar_of(hw_parameters_batch)
def hw_parameters(x: np.ndarray, freq: int = 1) -> dict:
    """alpha / beta / gamma of an additive Holt-Winters fit (reference
    tsfeatures.py:392-423). NaN when freq < 2 or fewer than two full
    seasonal cycles exist (statsmodels raises there -> reference except).

    Delegates to the lane-batched fit (_batch.py: coarse vectorized grid
    + one zoom round, then a batched Nelder-Mead polish) with a single
    lane -- one optimizer implementation for both execution shapes."""
