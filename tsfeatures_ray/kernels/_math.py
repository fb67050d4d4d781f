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
- ``scalets``     -> reference tsfeatures/utils.py:19-23; ``scale_lanes``
                     is its batch form, and scalets the 1-lane call
- ``periodogram_psd`` -> scipy.signal.periodogram defaults

The batch kernels call the lane forms (``_batch.lsq``, ``_batch.acovf``)
directly.
"""

from __future__ import annotations

import warnings

import numpy as np

from ._batch import _f64, _offsets, _ragged, acovf, length_groups

FREQS = {"H": 24, "D": 1, "M": 12, "Q": 4, "W": 1, "Y": 1}


def scale_lanes(off, v) -> np.ndarray:
    """Mean-std scale with ddof=1 (reference utils.py:19-23) of every lane
    of the ragged batch (off, v), one group of equal-length lanes at a
    time along axis 1. Below two points, or for a constant
    series, the ddof=1 spread gives 0/0 and the result is NaN, without
    x.std(ddof=1)'s RuntimeWarnings."""
    out = np.empty(len(v))
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore", RuntimeWarning)  # ddof=1 below two points
        for _, idx in length_groups(off):
            a = v[idx]
            out[idx] = (a - a.mean(1)[:, None]) / a.std(1, ddof=1)[:, None]
    return out


def scalets(x: np.ndarray) -> np.ndarray:
    """Mean-std scale with ddof=1 of one series: a 1-lane scale_lanes."""
    x = _f64(x)
    return scale_lanes(_offsets([len(x)]), x)


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
    method='fft'; reference tsfeatures.py:197). Runs along the last axis,
    so an (R, n) array gives each row's periodogram.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    xd = x - (x.mean(-1)[..., None] if n else 0.0)  # detrend='constant'; empty: rfft raises
    spec = np.abs(np.fft.rfft(xd)) ** 2 / n  # fs = 1.0
    if n % 2 == 0:
        spec[..., 1:-1] *= 2.0
    else:
        spec[..., 1:] *= 2.0
    return spec
