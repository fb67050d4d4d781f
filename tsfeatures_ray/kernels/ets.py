"""Exponential-smoothing kernels: Holt and Holt-Winters parameters.

Reimplements what the reference gets from statsmodels
``ExponentialSmoothing(...).fit()`` (reference tsfeatures.py:340-368
``holt_parameters``, :392-423 ``hw_parameters``): additive-trend (and
additive-seasonal) innovations recursions fit by SSE minimization under
the usual constraint region (0<alpha<1, 0<beta<alpha, 0<gamma<1-alpha),
with Hyndman's heuristic initial level/trend/seasonal states.

These are optimizer-backed features: even R vs Python reference
implementations diverge here (reference README.md:95-141), and the
reference's own unit tests use loose tolerances (0.02-0.1,
tests/test_holt_parameters.py). We match those tolerances.
"""

from __future__ import annotations

import numpy as np

__all__ = ["holt_parameters", "hw_parameters"]


def _heuristic_level_trend(y: np.ndarray) -> tuple[float, float]:
    """OLS line through the first min(10, n) observations."""
    k = min(10, len(y))
    t = np.arange(k, dtype=float)
    A = np.column_stack([np.ones(k), t])
    coef, _, _, _ = np.linalg.lstsq(A, y[:k], rcond=None)
    return float(coef[0]), float(coef[1])


def holt_parameters(x: np.ndarray, freq: int = 1) -> dict:
    """alpha / beta of an additive-trend Holt fit (reference
    tsfeatures.py:340-368). NaN when the fit cannot run (short series).

    Delegates to the lane-batched fit (_batch.py: coarse vectorized
    grid, two zoom rounds, then a batched Nelder-Mead polish over all 4
    params) with a single lane -- one optimizer implementation serves
    both the per-series API and the cross-series feature stage."""
    from ._batch import holt_parameters_batch

    y = np.asarray(x, dtype=float)
    try:
        out = holt_parameters_batch([y])
        params = {"alpha": float(out["alpha"][0]), "beta": float(out["beta"][0])}
    except Exception:
        params = {"alpha": np.nan, "beta": np.nan}
    return params


def _heuristic_seasonal(y: np.ndarray, m: int) -> tuple[float, float, np.ndarray]:
    """Hyndman-style heuristic: centered-MA detrend over the first cycles ->
    seasonal indices (sum 0); level/trend line from the adjusted series."""
    n = len(y)
    ncycles = min(5, n // m)
    yy = y[: ncycles * m]
    # centered moving average of window m
    if m % 2 == 0:
        kernel = np.concatenate([[0.5], np.ones(m - 1), [0.5]]) / m
    else:
        kernel = np.ones(m) / m
    trend = np.convolve(yy, kernel, mode="valid")
    pad = (len(yy) - len(trend)) // 2
    detr = yy[pad : pad + len(trend)] - trend
    idx = (np.arange(pad, pad + len(trend))) % m
    s = np.zeros(m)
    for j in range(m):
        vals = detr[idx == j]
        s[j] = vals.mean() if len(vals) else 0.0
    s -= s.mean()
    adj = y - s[np.arange(n) % m]
    l0, b0 = _heuristic_level_trend(adj)
    return l0, b0, s


def hw_parameters(x: np.ndarray, freq: int = 1) -> dict:
    """alpha / beta / gamma of an additive Holt-Winters fit (reference
    tsfeatures.py:392-423). NaN when freq < 2 or fewer than two full
    seasonal cycles exist (statsmodels raises there -> reference except).

    Delegates to the lane-batched fit (_batch.py: coarse vectorized grid
    + one zoom round, then a batched Nelder-Mead polish) with a single
    lane -- one optimizer implementation for both execution shapes."""
    from ._batch import hw_parameters_batch

    y = np.asarray(x, dtype=float)
    try:
        out = hw_parameters_batch([y], np.array([int(freq)]))
        params = {
            "hw_alpha": float(out["hw_alpha"][0]),
            "hw_beta": float(out["hw_beta"][0]),
            "hw_gamma": float(out["hw_gamma"][0]),
        }
    except Exception:
        params = {"hw_alpha": np.nan, "hw_beta": np.nan, "hw_gamma": np.nan}
    return params
