"""STL decomposition features (reference tsfeatures.py:647-791).

Reimplements, without statsmodels or the supersmoother package:

- STL (Cleveland et al. 1990) as exposed by statsmodels ``STL(x, period,
  seasonal=13).fit()`` with statsmodels' default secondary parameters:
  trend window = smallest odd int > 1.5*period/(1 - 1.5/seasonal),
  low-pass window = smallest odd int > period, all loess degrees 1,
  jumps 1, inner=2 / outer=0 iterations (non-robust defaults). The
  decomposition is the compiled lane loop ``stl_fit`` in _steps.c: one
  call decomposes every seasonal series of a batch, and its fixed-order
  sums make the result independent of the BLAS build and core type.
- Friedman's SuperSmoother (the ``supersmoother`` package used by the
  reference for the nonseasonal trend, tsfeatures.py:706), in NumPy:
  primary spans (0.05, 0.2, 0.5), cross-validated span selection
  smoothed with the midrange span, interpolation between bracketing
  primary smooths, final smooth at the tweeter span.

The kernel is the batch form ``stl_features_batch(off, v, freqs)`` over
the ragged batch; ``stl_features`` is its 1-lane call (``scalar_of``).
The tail -- strengths, spike, linearity/curvature and the remainder ACF
-- runs over the whole batch at once: per-series sums over the ragged
values, one compiled least-squares call for the linearity fit on the
orthogonal polynomial (built once per distinct length) and one
autocovariance call. These are the reference's own building blocks
re-derived from the public algorithms; the reference pins no golden
values for stl_features, and its README (95-141) shows R/Python
divergence here, so conformance is structural (decomposition identity,
strength bounds) plus fixture-level stability.
"""

from __future__ import annotations

import numpy as np

from ._batch import _STEPS, _extrema, _f64, _offsets, _seg_all_finite, _seg_sum, _take, lsq, scalar_of
from .simple import _acf, _lag_sq_sum

__all__ = ["stl_features", "stl_features_batch", "stl_decompose", "stl_fit", "supersmoother_fit"]


def _next_odd_gt(v: float) -> int:
    o = int(np.ceil(v))
    if o <= v:
        o += 1
    if o % 2 == 0:
        o += 1
    return o


def stl_fit(off, y, ms, seasonal: int = 13):
    """STL (trend, seasonal component) of every lane of the ragged batch
    (off, y), lane i with period ms[i] and at least two periods long, as
    two value arrays aligned with y, from ONE call into the compiled
    loop (_steps.c stl_fit)."""
    ms = np.asarray(ms, dtype=np.int64)
    nt = np.array([_next_odd_gt(1.5 * m / (1.0 - 1.5 / seasonal)) for m in ms], np.int64)
    nl = np.array([_next_odd_gt(float(m)) for m in ms], np.int64)
    trend, season = np.empty_like(y), np.empty_like(y)
    _STEPS.stl_fit(len(ms), off, y, ms, int(seasonal), nt, nl, trend, season)
    return trend, season


def stl_decompose(x: np.ndarray, period: int, seasonal: int = 13):
    """STL inner loop (non-robust, statsmodels defaults). Returns
    (trend, seasonal_component, resid)."""
    y = np.asarray(x, dtype=float)
    m = int(period)
    if m < 2:
        raise ValueError("period must be >= 2")
    if len(y) < 2 * m:
        raise ValueError("series must span at least 2 periods")
    if seasonal < 3 or seasonal % 2 != 1:
        raise ValueError("seasonal must be an odd integer >= 3")
    trend, season = stl_fit(_offsets([len(y)]), _f64(y), [m], seasonal)
    return trend, season, y - trend - season


# ---------------------------------------------------------------------------
# SuperSmoother (Friedman 1984), for the nonseasonal (freq == 1) trend
# ---------------------------------------------------------------------------

def _linear_smooth_cv(y: np.ndarray, span_frac: float):
    """Fixed-size sliding-window linear smoother on equally spaced points.

    Returns (fit, |cv residual|) where the CV residual uses the
    leave-one-out identity r/(1 - h_ii) for linear smoothers.
    """
    n = len(y)
    k = max(3, int(span_frac * n))
    k = min(k, n)
    t = np.arange(n, dtype=float)
    lo = np.clip(np.arange(n) - (k - 1) // 2, 0, n - k)
    c1 = np.concatenate([[0.0], np.cumsum(t)])
    c2 = np.concatenate([[0.0], np.cumsum(t * t)])
    cy = np.concatenate([[0.0], np.cumsum(y)])
    cty = np.concatenate([[0.0], np.cumsum(t * y)])
    sx = c1[lo + k] - c1[lo]
    sxx = c2[lo + k] - c2[lo]
    sy = cy[lo + k] - cy[lo]
    sxy = cty[lo + k] - cty[lo]
    xbar = sx / k
    ybar = sy / k
    ssx = sxx - k * xbar**2
    sxy_c = sxy - k * xbar * ybar
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.where(ssx > 1e-12, sxy_c / np.where(ssx > 1e-12, ssx, 1.0), 0.0)
        fit = ybar + slope * (t - xbar)
        h = 1.0 / k + np.where(ssx > 1e-12, (t - xbar) ** 2 / np.where(ssx > 1e-12, ssx, 1.0), 0.0)
        cv = np.abs((y - fit) / np.maximum(1.0 - h, 1e-10))
    return fit, cv


def _fixed_smooth(y: np.ndarray, span_frac: float) -> np.ndarray:
    return _linear_smooth_cv(y, span_frac)[0]


def supersmoother_fit(y: np.ndarray) -> np.ndarray:
    """Friedman's SuperSmoother on equally spaced points (alpha = 0)."""
    y = np.asarray(y, dtype=float)
    n = len(y)
    spans = np.array([0.05, 0.2, 0.5])
    if n < 6:
        # degenerate: fall back to the global least-squares line
        X = np.column_stack([np.ones(n), np.arange(n, dtype=float)]).ravel()
        return y - lsq(_offsets([n]), [2], X, y)[2]
    fits, cvs = [], []
    for s in spans:
        f, cv = _linear_smooth_cv(y, s)
        fits.append(f)
        cvs.append(_fixed_smooth(cv, 0.2))  # smooth |cv resid| at midrange
    fits = np.array(fits)
    cvs = np.array(cvs)
    best = np.argmin(cvs, axis=0)
    span_best = spans[best]
    span_sm = _fixed_smooth(span_best, 0.2)
    span_sm = np.clip(span_sm, spans[0], spans[-1])
    # interpolate between the bracketing primary fits
    jhi = np.searchsorted(spans, span_sm)
    jlo = np.clip(jhi - 1, 0, len(spans) - 2)
    jmid = jlo + 1
    frac = (span_sm - spans[jlo]) / (spans[jmid] - spans[jlo])
    cols = np.arange(n)
    out = fits[jlo, cols] * (1 - frac) + fits[jmid, cols] * frac
    out = np.where(jhi == 0, fits[0], np.where(jhi >= len(spans), fits[-1], out))
    return _fixed_smooth(out, 0.05)


# ---------------------------------------------------------------------------
# the feature kernel
# ---------------------------------------------------------------------------

_SEASONAL_COLS = ("seasonal_strength", "peak", "trough")
_COLS = ("nperiods", "seasonal_period", "trend", "spike", "linearity",
         "curvature", "e_acf1", "e_acf10") + _SEASONAL_COLS


def stl_features_batch(off, v, freqs) -> dict[str, np.ndarray]:
    """Batched stl_features: every seasonal series long enough for STL
    (freq = m > 1, n >= 2m) is decomposed in one compiled call, every
    nonseasonal one (n >= 4) by SuperSmoother, and the tail runs once
    over all of them (_stl_tail). A series with a non-finite value (a
    constant series once scaled) gets the reference's failure row: only
    nperiods and seasonal_period. Nonseasonal rows leave the
    seasonal-only columns NaN."""
    ms = np.asarray(freqs, dtype=np.int64)
    n = np.diff(off)
    finite = _seg_all_finite(off, v)
    out = {k: np.full(len(n), np.nan) for k in _COLS}
    out["nperiods"] = (ms > 1).astype(float)
    out["seasonal_period"] = ms.astype(float)
    seas = finite & (ms > 1) & (n >= 2 * ms)
    # the seasonal lanes first, then the nonseasonal ones
    rows = np.concatenate([np.flatnonzero(seas), np.flatnonzero(finite & (ms <= 1) & (n >= 4))])
    if not len(rows):
        return out
    roff, x = _take(off, v, rows)
    S = int(seas.sum())
    trend, season = stl_fit(roff[:S + 1], x[:roff[S]], ms[rows[:S]])
    trend = np.concatenate([trend, *(supersmoother_fit(x[a:b]) for a, b in zip(roff[S:-1], roff[S + 1:]))])
    season = np.concatenate([season, np.zeros(len(x) - roff[S])])
    for k, col in _stl_tail(roff, x, trend, season, ms[rows]).items():
        out[k][rows] = col
    return out


@scalar_of(stl_features_batch, seasonal=_SEASONAL_COLS)
def stl_features(x: np.ndarray, freq: int = 1) -> dict:
    """STL-based features (reference tsfeatures.py:647-791): a 1-lane
    stl_features_batch; NaN where STL or SuperSmoother cannot run, and
    no seasonal-only keys for a nonseasonal series."""


def _max1_min0(v: np.ndarray) -> np.ndarray:
    """max(0.0, min(1.0, v)) elementwise, with Python's NaN rule (1.0)."""
    v = np.where(v < 1.0, v, 1.0)
    return np.where(v > 0.0, v, 0.0)


def _var1(off, v) -> np.ndarray:
    """Per-lane variance with ddof 1 (sums left to right)."""
    n = np.diff(off)
    d = v - np.repeat(_seg_sum(off, v) / n, n)
    return _seg_sum(off, d * d) / (n - 1)


def _first_arg(off, v, ext) -> np.ndarray:
    """Per-lane position of the first value equal to ext (the lane's
    max or min)."""
    n = np.diff(off)
    pos = np.arange(len(v)) - np.repeat(off[:-1], n)
    return np.minimum.reduceat(np.where(v == np.repeat(ext, n), pos, len(v)), off[:-1])


def _stl_tail(off, x, trend, seasonal, m) -> dict:
    """stl_features of the finite lanes (off, x), n >= 4, given their
    trend and seasonal component (0 for the nonseasonal lanes)."""
    n = np.diff(off)
    eps = np.finfo(float).eps
    remainder = x - trend - seasonal
    varx = _var1(off, x)
    vare = _var1(off, remainder)
    vardeseason = _var1(off, x - seasonal)
    denom = _var1(off, remainder + seasonal)
    with np.errstate(divide="ignore", invalid="ignore"):
        trend_strength = np.where((varx < eps) | (vardeseason / varx < 1e-10), 0.0,
                                  _max1_min0(1.0 - vare / vardeseason))
        season_strength = np.where((varx < eps) | (denom < eps), 0.0,
                                   _max1_min0(1.0 - vare / denom))
    lo, hi = _extrema(off, seasonal)
    mm = np.maximum(m, 1)
    peak = (_first_arg(off, seasonal, hi) + 1) % mm
    trough = (_first_arg(off, seasonal, lo) + 1) % mm
    d = (remainder - np.repeat(_seg_sum(off, remainder) / n, n)) ** 2
    varloo = (np.repeat(vare * (n - 1), n) - d) / np.repeat(n - 2, n)
    spike = _var1(off, varloo)
    # linearity / curvature: OLS of the trend on [1, poly(1..n, 2)], the
    # orthogonal polynomial (reference utils.py:25-43) built once per
    # distinct length: Q of the Householder QR of [t^0, t^1, t^2]
    # (_steps.c qr_q, LAPACK's sign convention)
    lens, at = np.unique(n, return_inverse=True)
    qoff = _offsets(lens)
    t = (np.arange(qoff[-1]) - np.repeat(qoff[:-1], lens) + 1).astype(float)
    Q = np.empty((len(t), 3))
    _STEPS.qr_q(len(lens), qoff, 3, np.column_stack([t**k for k in range(3)]), Q)
    rowsQ = np.repeat(qoff[:-1][at] - off[:-1], n) + np.arange(len(x))
    design = np.column_stack([np.ones(len(x)), Q[rowsQ, 1], Q[rowsQ, 2]]).ravel()
    coef, _, _ = lsq(off, np.full(len(n), 3), design, trend)
    acf = _acf(off, remainder, np.full(len(n), 10))
    seasonal_rows = m > 1
    return {
        "trend": trend_strength,
        "spike": spike,
        "linearity": coef[1::3],
        "curvature": -coef[2::3],
        "e_acf1": acf[:, 1],
        "e_acf10": np.where(n > 10, _lag_sq_sum(acf, 10), np.nan),
        "seasonal_strength": np.where(seasonal_rows, season_strength, np.nan),
        "peak": np.where(seasonal_rows, np.where(peak == 0, mm, peak), np.nan),
        "trough": np.where(seasonal_rows, np.where(trough == 0, mm, trough), np.nan),
    }
