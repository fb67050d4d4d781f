"""Heterogeneity kernel (reference tsfeatures.py:278-338).

The reference uses the (long-removed) statsmodels ``AR(x).fit(maxlag,
ic='aic', trend='c')`` for pre-whitening and the ``arch`` package's
GARCH(1,1) (constant mean, normal errors, rescale=False) fit. Both are
reimplemented here in pure NumPy:

- AR-by-AIC: candidate lags 1..maxlag are fit by conditional OLS on the
  sample conditioned at maxlag (so every candidate sees the same
  observations), AIC = log(sigma2) + 2*(lag+1)/nobs; the winner is refit
  on its own full conditional sample and its residuals are the whitened
  series (matching the legacy AR 'cmle' behavior).
- GARCH(1,1): (mu, omega, alpha, beta) by Gaussian MLE (Nelder-Mead,
  backcast initialization like the arch package). Note the reference
  consumes ``garch_fit.resid`` which in the arch package is the MEAN
  model residual, i.e. x - mu -- not the standardized residual.

Optimizer-backed outputs: reference README.md:95-141 shows these diverge
even between R and the reference itself (garch_acf sum-abs-diff 5.53 on
100 series), so the conformance bar here is structural, not 1e-6.
"""

from __future__ import annotations

import numpy as np

from ._math import acf, embed
from .simple import arch_stat

__all__ = ["heterogeneity", "heterogeneity_batch"]


def _ar_by_aic_resid(x: np.ndarray) -> np.ndarray:
    """Whiten x with an AR(p) model, p chosen by AIC (trend='c').

    Lag selection via ONE reduced QR of the full-maxlag design matrix:
    the candidate models are nested (columns [const, lag1..lagk] are a
    prefix of [const, lag1..lagmaxlag]), so RSS_k = ||y||^2 - sum_{j<=k}
    (q_j.y)^2 gives every candidate's sigma^2 from a single
    factorization instead of maxlag separate lstsq solves (the AR stage
    was the heterogeneity kernel's second-largest cost). Ties/guards
    mirror the loop form: strict-improvement argmin, sigma2<=0 skipped,
    non-finite falls back to the per-lag lstsq path."""
    n = len(x)
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite input")
    maxlag = int(min(n - 1, np.floor(10 * np.log10(n)))) if n else 0
    if maxlag < 1:
        raise ValueError("series too short for AR fit")
    # candidate fits share the sample conditioned at maxlag
    mat = embed(x, maxlag + 1)  # rows: [x_t, x_{t-1}, ..., x_{t-maxlag}]
    y = mat[:, 0]
    nobs = len(y)
    lag = None
    if nobs > maxlag + 1:  # QR prefix-RSS needs a tall design matrix
        try:
            X = np.column_stack([np.ones(nobs), mat[:, 1:]])
            q, _ = np.linalg.qr(X, mode="reduced")
            qty = q.T @ y
            rss = float(y @ y) - np.cumsum(qty**2)
            sigma2 = rss[1:] / nobs  # candidate k uses columns 0..k
            # ||y||^2 - cumsum can cancel to a small NEGATIVE value for
            # near-perfectly-fitting lags; the lstsq path would compute a
            # tiny positive sigma2 and could select such a candidate, so
            # a negative rss must route to the fallback loop rather than
            # silently excluding the candidate via aic=inf
            if np.any(sigma2 < 0):
                sigma2 = np.array([np.nan])  # force the lstsq fallback
            if np.all(np.isfinite(sigma2)):
                with np.errstate(divide="ignore", invalid="ignore"):
                    aic = np.log(sigma2) + 2.0 * (np.arange(1, maxlag + 1) + 1) / nobs
                aic = np.where(sigma2 > 0, aic, np.inf)
                k = int(np.argmin(aic))
                lag = k + 1 if np.isfinite(aic[k]) else 1
        except np.linalg.LinAlgError:
            pass
    if lag is None:  # degenerate design: per-lag lstsq fallback
        best = (np.inf, 1)
        for cand in range(1, maxlag + 1):
            X = np.column_stack([np.ones(nobs), mat[:, 1 : cand + 1]])
            params, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
            resid = y - X @ params
            s2 = float(np.sum(resid**2)) / nobs
            if s2 <= 0:
                continue
            a = np.log(s2) + 2.0 * (cand + 1) / nobs
            if a < best[0]:
                best = (a, cand)
        lag = best[1]
    # refit the winner on its own full conditional sample
    mat = embed(x, lag + 1)
    y = mat[:, 0]
    X = np.column_stack([np.ones(len(y)), mat[:, 1 : lag + 1]])
    params, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
    return y - X @ params


def _garch11_mean_resid(x: np.ndarray) -> np.ndarray:
    """Fit GARCH(1,1) with constant mean by Gaussian MLE; return x - mu
    (the arch package's ``.resid`` for a constant-mean model).

    Profile-likelihood split: conditional on the volatility path the MLE
    of mu is the closed-form 1/sigma^2-weighted mean, so we fit
    (omega, a, b) with mu fixed (3-param simplex) and update mu in
    closed form -- same estimate as the joint 4-param search at a
    fraction of the cost. Only mu feeds the kernel's outputs.

    Delegates to the lane-batched implementation (_batch.py) with a
    single lane, so the per-series and cross-series paths are the SAME
    optimizer by construction.
    """
    from ._batch import garch_mean_resid_batch

    x = np.asarray(x, dtype=float)
    out = garch_mean_resid_batch([x])[0]
    if out is None:
        raise ValueError("GARCH fit not available (short/degenerate series)")
    return out


def heterogeneity(x: np.ndarray, freq: int = 1) -> dict:
    """ARCH/GARCH heterogeneity features (reference tsfeatures.py:278-338)."""
    out = heterogeneity_batch([np.asarray(x, dtype=float)], [freq])
    return {k: float(v[0]) for k, v in out.items()}


def heterogeneity_batch(ys: list, freqs) -> dict:
    """Cross-series heterogeneity: AR-by-AIC whitening and the
    Ljung-Box / ARCH-LM statistics stay per-series (cheap, lstsq-bound);
    the GARCH(1,1) MLE -- the expensive stage -- runs lane-batched
    (_batch.garch_mean_resid_batch). Same NaN gates as the reference:
    whitening failure blanks all four outputs; GARCH failure blanks only
    the garch_* pair."""
    S = len(ys)
    out = {
        "arch_acf": np.full(S, np.nan),
        "garch_acf": np.full(S, np.nan),
        "arch_r2": np.full(S, np.nan),
        "garch_r2": np.full(S, np.nan),
    }
    whitened: list = []
    for y in ys:
        try:
            whitened.append(_ar_by_aic_resid(np.asarray(y, dtype=float)))
        except Exception:
            whitened.append(None)
    for i, wht in enumerate(whitened):
        if wht is None:
            continue
        out["arch_r2"][i] = arch_stat(wht, freqs[i])["arch_lm"]
        try:
            out["arch_acf"][i] = float((acf(wht**2, nlags=12)[1:] ** 2).sum())
        except Exception:
            pass
    lanes = [i for i, w in enumerate(whitened) if w is not None]
    from ._batch import garch_mean_resid_batch

    resids = garch_mean_resid_batch([whitened[i] for i in lanes])
    for i, r in zip(lanes, resids):
        if r is None:
            continue
        try:
            out["garch_r2"][i] = arch_stat(r, freqs[i])["arch_lm"]
            out["garch_acf"][i] = float((acf(r**2, nlags=12)[1:] ** 2).sum())
        except Exception:
            out["garch_r2"][i] = np.nan
            out["garch_acf"][i] = np.nan
    return out
