"""Heterogeneity kernel (reference tsfeatures.py:278-338).

The reference uses the (long-removed) statsmodels ``AR(x).fit(maxlag,
ic='aic', trend='c')`` for pre-whitening and the ``arch`` package's
GARCH(1,1) (constant mean, normal errors, rescale=False) fit. Both are
reimplemented here on the compiled primitives of _batch.py:

- AR-by-AIC: candidate lags 1..maxlag are fit by conditional OLS on the
  sample conditioned at maxlag (so every candidate sees the same
  observations), AIC = log(sigma2) + 2*(lag+1)/nobs; the winner is refit
  on its own full conditional sample and its residuals are the whitened
  series (matching the legacy AR 'cmle' behavior). The candidates are
  nested (columns [const, lag1..lagk] are a prefix of [const,
  lag1..lagmaxlag]), so ONE least-squares call gives every candidate's
  RSS: the prefix RSS of the full-maxlag design.
- GARCH(1,1): (mu, omega, alpha, beta) by Gaussian MLE (Nelder-Mead,
  backcast initialization like the arch package). Note the reference
  consumes ``garch_fit.resid`` which in the arch package is the MEAN
  model residual, i.e. x - mu -- not the standardized residual.

The kernel is the batch form ``heterogeneity_batch(off, x, freqs)`` over
the ragged batch; ``heterogeneity`` is its 1-lane call (``scalar_of``).

Optimizer-backed outputs: reference README.md:95-141 shows these diverge
even between R and the reference itself (garch_acf sum-abs-diff 5.53 on
100 series), so the conformance bar here is structural, not 1e-6.
"""

from __future__ import annotations

import numpy as np

from ._batch import (
    _lag_design,
    _offsets,
    _seg_all_finite,
    _take,
    garch_mean_resid_batch,
    lsq,
    scalar_of,
)
from .simple import acf_sq_sum, arch_stat_lanes

__all__ = ["heterogeneity", "heterogeneity_batch"]


def ar_by_aic_resid(off, x):
    """Whiten every lane of (off, x) with an AR(p) model, p chosen by AIC
    (trend='c'); a candidate that fits exactly (RSS 0, so log sigma^2 =
    -inf) is skipped, and with none left p is 1. Returns (offsets,
    residuals, ok): lanes that cannot be fit (non-finite, or too short
    for one lag) are not ok and empty."""
    n = np.diff(off)
    with np.errstate(divide="ignore"):
        maxlag = np.where(n > 0, np.minimum(n - 1, np.floor(10 * np.log10(np.maximum(n, 1)))), 0)
    maxlag = maxlag.astype(np.int64)
    ok = (maxlag >= 1) & _seg_all_finite(off, x)
    lanes = np.flatnonzero(ok)
    lag = np.ones(len(n), dtype=np.int64)
    if len(lanes):
        loff, lv = _take(off, x, lanes)
        ml = maxlag[lanes]
        roff, q, X, y = _lag_design(loff, lv, ml)
        _, rss, _ = lsq(roff, q, X, y)
        nobs = np.diff(roff)
        # candidate k (k lags) reads rss at column k of its lane
        K = int(ml.max())
        cand = np.arange(1, K + 1)
        qoff = _offsets(q)
        at = np.minimum(qoff[:-1, None] + cand[None, :], qoff[1:, None] - 1)
        sigma2 = rss[at] / nobs[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            aic = np.log(sigma2) + 2.0 * (cand + 1) / nobs[:, None]
        aic = np.where((sigma2 > 0) & (cand[None, :] <= ml[:, None]), aic, np.inf)
        k = np.argmin(aic, axis=1)
        lag[lanes] = np.where(np.isfinite(aic[np.arange(len(lanes)), k]), k + 1, 1)
    # refit the winner on its own full conditional sample
    woff = _offsets(np.where(ok, n - lag, 0))
    wht = np.empty(woff[-1])
    if len(lanes):
        roff, q, X, y = _lag_design(*_take(off, x, lanes), lag[lanes])
        wht[:] = lsq(roff, q, X, y)[2]
    return woff, wht, ok


def heterogeneity_batch(off, x, freqs) -> dict:
    """Heterogeneity of every series of a batch: one AR-by-AIC whitening
    pass, one ARCH-LM least-squares call and one autocovariance call per
    stage, and the lane-batched GARCH(1,1) fit. Same NaN gates as the
    reference: whitening failure blanks all four outputs; GARCH failure
    blanks only the garch_* pair."""
    woff, wht, ok = ar_by_aic_resid(off, x)
    nan = np.full(len(off) - 1, np.nan)
    arch_r2 = np.where(ok, arch_stat_lanes(woff, wht), nan)
    arch_acf = np.where(ok, acf_sq_sum(woff, wht * wht, 12), nan)
    resid, gok = garch_mean_resid_batch(woff, wht)
    gok &= ok
    return {
        "arch_acf": arch_acf,
        "garch_acf": np.where(gok, acf_sq_sum(woff, resid * resid, 12), nan),
        "arch_r2": arch_r2,
        "garch_r2": np.where(gok, arch_stat_lanes(woff, resid), nan),
    }


@scalar_of(heterogeneity_batch)
def heterogeneity(x: np.ndarray, freq: int = 1) -> dict:
    """ARCH/GARCH heterogeneity features (reference tsfeatures.py:278-338)."""
