"""Shared numerical primitives for the feature kernels: single-series
forms of the statistical building blocks the reference delegates to
statsmodels / scipy / antropy (none of which exist in this environment),
over the compiled loops of _steps.c (no BLAS). Semantics are pinned to
the reference's call sites:

- ``acf``         -> statsmodels.tsa.stattools.acf(x, nlags, fft=False)
                     as used at reference tsfeatures/tsfeatures.py:63-70
- ``pacf_ldb``    -> statsmodels pacf(x, nlags, method='ldb')
                     (Levinson-Durbin on the biased autocovariance),
                     reference tsfeatures.py:535
- ``poly_lanes``  -> reference tsfeatures/utils.py:25-43 (QR orthogonal poly)
- ``scalets``     -> reference tsfeatures/utils.py:19-23
- ``periodogram_psd`` -> scipy.signal.periodogram defaults

The batch kernels call the lane forms (``_batch.lsq``, ``_batch.acovf``)
directly.
"""

from __future__ import annotations

import numpy as np

from ._batch import _STEPS, _f64, _ragged, acovf

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


def poly_lanes(xs: list[np.ndarray], p: int) -> np.ndarray:
    """Orthogonal polynomials (reference utils.py:25-43) of every x of xs
    in one compiled call: Q of the Householder QR of [x^0, ..., x^p]
    (_steps.c qr_q, LAPACK's sign convention), the rows of all of them
    one after another, (sum n) x (p + 1); columns 1..p are poly(x, p)."""
    off, v = _ragged([np.asarray(x, dtype=float) for x in xs])
    X = np.column_stack([v**k for k in range(p + 1)])
    Q = np.empty((len(v), p + 1))
    _STEPS.qr_q(len(xs), off, p + 1, _f64(X), Q)
    return Q


def acf(x: np.ndarray, nlags: int) -> np.ndarray:
    """Autocorrelation function, statsmodels ``acf(x, nlags, fft=False)``
    (biased autocovariance over its lag 0; _steps.c acovf). Returns an
    array of length min(nlags, n-1)+1 with acf[0] == 1."""
    x = np.asarray(x, dtype=float)
    ac = acovf(*_ragged([x]), [nlags])[0, : min(nlags, len(x) - 1) + 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        return ac / ac[0]


def pacf_ldb(x: np.ndarray, nlags: int) -> np.ndarray:
    """Partial ACF via Levinson-Durbin on the biased autocovariance
    (_steps.c acovf). Matches statsmodels ``pacf(x, nlags=nlags,
    method='ldb')`` (reference tsfeatures.py:535, 548, 557). Returns
    length nlags+1, pacf[0] == 1; zero-variance input gives NaN."""
    x = np.asarray(x, dtype=float)
    if nlags >= len(x):
        raise ValueError("nlags must be < len(x)")
    return acovf(*_ragged([x]), [nlags], pacf=True)[1][0]


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
