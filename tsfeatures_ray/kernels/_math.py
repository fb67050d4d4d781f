"""Shared numerical primitives for the feature kernels.

Pure-NumPy re-implementations of the statistical building blocks the
reference delegates to statsmodels / scipy / antropy (none of which exist
in this environment). Semantics are pinned to the reference's call sites:

- ``acf``         -> statsmodels.tsa.stattools.acf(x, nlags, fft=False)
                     as used at reference tsfeatures/tsfeatures.py:63-70
- ``pacf_ldb``    -> statsmodels pacf(x, nlags, method='ldb')
                     (Levinson-Durbin on the biased autocovariance),
                     reference tsfeatures.py:535
- ``embed``       -> reference tsfeatures/utils.py:45-62 (R-style embed)
- ``poly``        -> reference tsfeatures/utils.py:25-43 (QR orthogonal poly)
- ``scalets``     -> reference tsfeatures/utils.py:19-23
- ``ols``         -> minimal OLS with intercept (replaces sm.OLS/sklearn
                     LinearRegression at tsfeatures.py:130, utils.py:100)
"""

from __future__ import annotations

import numpy as np

FREQS = {"H": 24, "D": 1, "M": 12, "Q": 4, "W": 1, "Y": 1}


def scalets(x: np.ndarray) -> np.ndarray:
    """Mean-std scale with ddof=1 (reference utils.py:19-23). Below two
    points, or for a constant series, the ddof=1 spread gives 0/0 and the
    result is NaN -- the same bits ``x.std(ddof=1)`` gives, without its
    RuntimeWarnings."""
    with np.errstate(all="ignore"):
        if len(x) >= 2:
            return (x - x.mean()) / x.std(ddof=1)
        # x.std(ddof=1)'s own steps: mean, squared deviations, / (n - 1)
        d = x - np.add.reduce(x) / len(x)
        return d / np.sqrt(np.add.reduce(d * d) / 0)


def embed(x: np.ndarray, p: int) -> np.ndarray:
    """R-style embedding matrix (reference utils.py:45-62).

    Row i = [x[i+p-1], x[i+p-2], ..., x[i]]; shape (n-p+1, p).
    """
    x = np.asarray(x)
    out = np.empty((len(x) - p + 1, p), dtype=x.dtype)
    for k in range(p):
        out[:, k] = x[p - 1 - k : len(x) - k]
    return out


def poly(x: np.ndarray, p: int) -> np.ndarray:
    """Orthogonal polynomials of degree 1..p via QR (reference utils.py:25-43)."""
    X = np.transpose(np.vstack([x.astype(float) ** k for k in range(p + 1)]))
    return np.linalg.qr(X)[0][:, 1:]


def acovf_biased(x: np.ndarray, nlags: int) -> np.ndarray:
    """Biased sample autocovariance gamma_0..gamma_nlags (divide by n).

    Matches statsmodels acovf(adjusted=False) which underlies
    acf(fft=False) and pacf(method='ldb').
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    xm = x - (x.mean() if n else 0.0)  # empty: no lags (and no warning)
    nlags = min(nlags, n - 1)
    # FFT-free direct computation (vectorized dot per lag; nlags is small)
    out = np.empty(nlags + 1)
    for k in range(nlags + 1):
        out[k] = np.dot(xm[: n - k], xm[k:]) / n
    return out


def acf(x: np.ndarray, nlags: int) -> np.ndarray:
    """Autocorrelation function, statsmodels ``acf(x, nlags, fft=False)``.

    Returns array of length min(nlags, n-1)+1 with acf[0] == 1.
    """
    acov = acovf_biased(x, nlags)
    with np.errstate(divide="ignore", invalid="ignore"):
        return acov / acov[0]


def pacf_ldb(x: np.ndarray, nlags: int) -> np.ndarray:
    """Partial ACF via Levinson-Durbin on biased autocovariance.

    Matches statsmodels ``pacf(x, nlags=nlags, method='ldb')``
    (reference tsfeatures.py:535, 548, 557). Returns length nlags+1,
    pacf[0] == 1. Raises on degenerate (zero-variance) input like the
    statsmodels recursion would produce inf/nan.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    if nlags >= n:
        raise ValueError("nlags must be < len(x)")
    acov = acovf_biased(x, nlags)
    pacf = np.empty(nlags + 1)
    pacf[0] = 1.0
    phi = np.zeros((nlags + 1, nlags + 1))
    sig = np.zeros(nlags + 1)
    if nlags >= 1:
        with np.errstate(divide="ignore", invalid="ignore"):
            phi[1, 1] = acov[1] / acov[0]
        sig[1] = acov[0] - phi[1, 1] * acov[1]
        pacf[1] = phi[1, 1]
    for k in range(2, nlags + 1):
        with np.errstate(divide="ignore", invalid="ignore"):
            phi[k, k] = (acov[k] - np.dot(phi[1:k, k - 1], acov[1:k][::-1])) / sig[k - 1]
        for j in range(1, k):
            phi[j, k] = phi[j, k - 1] - phi[k, k] * phi[k - j, k - 1]
        sig[k] = sig[k - 1] * (1.0 - phi[k, k] ** 2)
        pacf[k] = phi[k, k]
    return pacf


def ols_fit(X: np.ndarray, y: np.ndarray, add_intercept: bool = True):
    """OLS via lstsq. Returns (params, resid, fitted).

    With ``add_intercept`` the intercept is the FIRST parameter,
    matching statsmodels ``add_constant`` + ``OLS`` ordering.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if add_intercept:
        X = np.column_stack([np.ones(len(X)), X])
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        # fail fast (callers' except->NaN paths); avoids LAPACK stderr noise
        raise ValueError("non-finite values in OLS input")
    params, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
    fitted = X @ params
    return params, y - fitted, fitted


def ols_r2(X: np.ndarray, y: np.ndarray) -> float:
    """R^2 of OLS with intercept (sklearn LinearRegression().score)."""
    _, resid, _ = ols_fit(X, y, add_intercept=True)
    ssr = float(np.sum(resid**2))
    sst = float(np.sum((y - y.mean()) ** 2))
    if sst == 0.0:
        # sklearn returns 1.0 when the model is perfect, 0.0-ish otherwise;
        # for constant y with perfect fit r2 = 1. Mirror sklearn behavior.
        return 1.0 if ssr < 1e-12 else 0.0
    return 1.0 - ssr / sst


def periodogram_psd(x: np.ndarray) -> np.ndarray:
    """One-sided periodogram PSD, scipy.signal.periodogram defaults.

    Matches ``periodogram(x, fs=1.0)``: boxcar window, constant detrend,
    density scaling, one-sided with doubling of non-DC/non-Nyquist bins.
    Used by the spectral entropy kernel (antropy spectral_entropy with
    method='fft'; reference tsfeatures.py:197).
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    xd = x - (x.mean() if n else 0.0)  # detrend='constant'; empty: rfft raises
    spec = np.abs(np.fft.rfft(xd)) ** 2 / n  # fs = 1.0
    if n % 2 == 0:
        spec[1:-1] *= 2.0
    else:
        spec[1:] *= 2.0
    return spec
