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

The strengths, spike, linearity and remainder ACF are per-series NumPy.
These are the reference's own building blocks re-derived from the public
algorithms; the reference pins no golden values for stl_features, and
its README (95-141) shows R/Python divergence here, so conformance is
structural (decomposition identity, strength bounds) plus fixture-level
stability.
"""

from __future__ import annotations

import numpy as np

from .simple import acf_features
from ._math import ols_fit, poly

__all__ = ["stl_features", "stl_features_batch", "stl_decompose", "supersmoother_fit"]


def _next_odd_gt(v: float) -> int:
    o = int(np.ceil(v))
    if o <= v:
        o += 1
    if o % 2 == 0:
        o += 1
    return o


def _stl_lanes(ys: list[np.ndarray], ms: list[int], seasonal: int = 13):
    """STL (trend, seasonal component) lists of every series ys[i] with
    period ms[i] (at least two periods long), from ONE call into the
    compiled loop (_steps.c stl_fit)."""
    from ._batch import _STEPS, _ragged

    if not ys:
        return [], []
    off, y = _ragged(ys)
    ms = np.asarray(ms, dtype=np.int64)
    nt = np.array([_next_odd_gt(1.5 * m / (1.0 - 1.5 / seasonal)) for m in ms], np.int64)
    nl = np.array([_next_odd_gt(float(m)) for m in ms], np.int64)
    trend, season = np.empty_like(y), np.empty_like(y)
    _STEPS.stl_fit(len(ys), off, y, ms, int(seasonal), nt, nl, trend, season)
    # copies, not views: the tail's BLAS calls (ols_fit) are sensitive to
    # pointer alignment, which a view's place in the batch would set
    cut = list(zip(off[:-1], off[1:]))
    return [trend[a:b].copy() for a, b in cut], [season[a:b].copy() for a, b in cut]


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
    (trend,), (season,) = _stl_lanes([y], [m], seasonal)
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
        # degenerate: fall back to the global line
        _, resid, fitted = ols_fit(np.arange(n, dtype=float), y)
        return fitted
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


def stl_features(x: np.ndarray, freq: int = 1) -> dict:
    """STL-based features (reference tsfeatures.py:647-791): a 1-lane
    stl_features_batch; NaN where STL or SuperSmoother cannot run, and
    no seasonal-only keys for a nonseasonal series."""
    out = stl_features_batch([x], [freq])
    return {k: float(v[0]) for k, v in out.items() if freq > 1 or k not in _SEASONAL_COLS}


def stl_features_batch(xs: list[np.ndarray], freqs) -> dict[str, np.ndarray]:
    """Batched stl_features: every seasonal series long enough for STL
    (freq = m > 1, n >= 2m) is decomposed in one compiled call; the
    SuperSmoother trend and the per-series strengths, spike, linearity
    and remainder ACF stay in numpy. Nonseasonal rows leave the
    seasonal-only columns NaN."""
    xs = [np.asarray(x, dtype=float) for x in xs]
    ms = [int(f) for f in freqs]
    lanes = [i for i, (x, m) in enumerate(zip(xs, ms)) if m > 1 and len(x) >= 2 * m]
    trends, seasons = _stl_lanes([xs[i] for i in lanes], [ms[i] for i in lanes])
    dec = dict(zip(lanes, zip(trends, seasons)))
    out = {k: np.full(len(xs), np.nan) for k in _COLS}
    for i, (x, m) in enumerate(zip(xs, ms)):
        for k, v in _stl_row(x, m, dec.get(i)).items():
            out[k][i] = v
    return out


def _stl_row(x: np.ndarray, m: int, dec) -> dict:
    """stl_features of one series given its STL (trend, seasonal
    component), or None where STL could not run; a row that cannot be
    computed holds only nperiods and seasonal_period."""
    head = {"nperiods": float(m > 1), "seasonal_period": float(m)}
    if m > 1:
        if dec is None:
            return head
        trend0, seasonal = dec
        remainder = x - trend0 - seasonal
    else:
        try:
            if len(x) < 4:
                raise ValueError("too short for supersmoother")
            trend0 = supersmoother_fit(x)
        except Exception:
            return head
        remainder = x - trend0
        seasonal = np.zeros(len(x))

    deseason = x - seasonal
    n = len(x)
    varx = np.nanvar(x, ddof=1)
    vare = np.nanvar(remainder, ddof=1)
    vardeseason = np.nanvar(deseason, ddof=1)

    if varx < np.finfo(float).eps:
        trend_strength = 0.0
    elif vardeseason / varx < 1e-10:
        trend_strength = 0.0
    else:
        trend_strength = max(0.0, min(1.0, 1.0 - vare / vardeseason))

    if m > 1:
        denom = np.nanvar(remainder + seasonal, ddof=1)
        if varx < np.finfo(float).eps or denom < np.finfo(float).eps:
            season_strength = 0.0
        else:
            season_strength = max(0.0, min(1.0, 1.0 - vare / denom))
        peak = (int(np.argmax(seasonal)) + 1) % m
        peak = m if peak == 0 else peak
        trough = (int(np.argmin(seasonal)) + 1) % m
        trough = m if trough == 0 else trough

    d = (remainder - np.nanmean(remainder)) ** 2
    varloo = (vare * (n - 1) - d) / (n - 2)
    spike = float(np.nanvar(varloo, ddof=1))

    time = np.arange(n) + 1
    poly_m = poly(time, 2)
    coefs, _, _ = ols_fit(poly_m, trend0, add_intercept=True)
    linearity = float(coefs[1]) if len(coefs) > 1 else np.nan
    curvature = float(-coefs[2]) if len(coefs) > 2 else np.nan

    acfremainder = acf_features(remainder, m)
    output = {
        **head,
        "trend": float(trend_strength),
        "spike": spike,
        "linearity": linearity,
        "curvature": curvature,
        "e_acf1": acfremainder["x_acf1"],
        "e_acf10": acfremainder["x_acf10"],
    }
    if m > 1:
        output["seasonal_strength"] = float(season_strength)
        output["peak"] = float(peak)
        output["trough"] = float(trough)
    return output
