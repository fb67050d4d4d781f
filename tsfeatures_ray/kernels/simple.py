"""Feature kernels, part 1: closed-form / OLS-based features.

Each kernel has the reference signature ``f(x: np.ndarray, freq: int) ->
dict[str, float]`` (reference tsfeatures/tsfeatures.py) and reproduces the
reference's output semantics including its NaN-on-failure gates. All
statsmodels/scipy/sklearn/antropy calls are replaced by numpy and the
compiled primitives of ``_batch.py`` (least squares, autocovariance with
Levinson-Durbin, the Hurst rescaled range); cited line numbers refer to
the reference.

Each default kernel is one batch form ``*_batch(off, v, freqs)``: most
run a whole batch in a fixed number of calls; crossing_points, entropy,
flat_spots and unitroot_kpss run numpy along axis 1 of each
group of equal-length series (``rowwise``). The scalar kernel is its
1-lane call (``scalar_of``). A seasonal-only column (seas_acf1,
seas_pacf) is NaN in the batch form for freq = 1 and absent from the
scalar form, as in the reference. The opt-in extras have the scalar
contract only.

Kernels never mutate their input: Arrow batches hand us zero-copy,
read-only buffers, so any kernel that writes (``intervals``,
reference tsfeatures.py:441) copies first.
"""

from __future__ import annotations

import math
import warnings
from itertools import groupby as _groupby

import numpy as np

from ._batch import (
    _STEPS,
    _lag_design,
    _offsets,
    _ragged_diff,
    _seg_all_finite,
    _seg_sum,
    _take,
    acovf,
    lsq,
    rowwise,
    scalar_of,
)
from ._math import periodogram_psd

__all__ = [
    "acf_features",
    "acf_features_batch",
    "arch_stat",
    "arch_stat_batch",
    "count_entropy",
    "crossing_points",
    "crossing_points_batch",
    "entropy",
    "entropy_batch",
    "flat_spots",
    "flat_spots_batch",
    "frequency",
    "guerrero",
    "hurst",
    "hurst_batch",
    "intervals",
    "lumpiness",
    "lumpiness_batch",
    "nonlinearity",
    "nonlinearity_batch",
    "pacf_features",
    "pacf_features_batch",
    "series_length",
    "series_length_batch",
    "sparsity",
    "stability",
    "stability_batch",
    "statistics",
    "unitroot_kpss",
    "unitroot_kpss_batch",
    "unitroot_pp",
    "unitroot_pp_batch",
]


def _acf(off, v, nlag) -> np.ndarray:
    """Autocorrelations (acovf / lag-0 acovf) of every lane, lags 0..nlag."""
    ac = acovf(off, v, nlag)
    with np.errstate(divide="ignore", invalid="ignore"):
        return ac / ac[:, :1]


def _lag_sq_sum(a: np.ndarray, last) -> np.ndarray:
    """sum_{k=1}^{last[i]} a[i, k]^2 per row, left to right."""
    tot = np.zeros(len(a))
    for k in range(1, a.shape[1]):
        tot = tot + np.where(k <= last, a[:, k] ** 2, 0.0)
    return tot


def acf_sq_sum(off, v, nlag: int) -> np.ndarray:
    """sum of the squared autocorrelations at lags 1..min(nlag, n - 1)
    of every lane (0 for n <= 1)."""
    n = np.diff(off)
    return _lag_sq_sum(_acf(off, v, np.full(len(n), nlag)), np.minimum(nlag, n - 1))


def acf_features_batch(off, v, freqs) -> dict:
    """acf_features of every series: three autocovariance calls (x, its
    first and second differences)."""
    n = np.diff(off)
    m = np.asarray(freqs, dtype=np.int64)
    nan = np.full(len(n), np.nan)
    acfx = _acf(off, v, np.maximum(m, 10))
    d1off, d1 = _ragged_diff(off, v)
    d2off, d2 = _ragged_diff(d1off, d1)
    a1 = _acf(d1off, d1, np.full(len(n), 10))
    a2 = _acf(d2off, d2, np.full(len(n), 10))
    return {
        "x_acf1": acfx[:, 1],
        "x_acf10": np.where(n > 10, _lag_sq_sum(acfx, 10), nan),
        "diff1_acf1": np.where(n > 10, a1[:, 1], nan),
        "diff1_acf10": np.where(n > 10, _lag_sq_sum(a1, np.minimum(10, n - 2)), nan),
        "diff2_acf1": np.where(n > 11, a2[:, 1], nan),
        "diff2_acf10": np.where(n > 11, _lag_sq_sum(a2, np.minimum(10, n - 3)), nan),
        "seas_acf1": np.where(m > 1, acfx[np.arange(len(n)), np.maximum(m, 0)], nan),
    }


@scalar_of(acf_features_batch, seasonal=("seas_acf1",))
def acf_features(x: np.ndarray, freq: int = 1) -> dict:
    """Autocorrelation features (reference tsfeatures.py:35-101)."""


def arch_stat_batch(off, v, freqs, lags: int = 12, demean: bool = True) -> dict:
    """arch_stat of every series: one least-squares call."""
    return {"arch_lm": arch_stat_lanes(off, v, lags, demean)}


@scalar_of(arch_stat_batch)
def arch_stat(x: np.ndarray, freq: int = 1, lags: int = 12, demean: bool = True) -> dict:
    """R^2 of x_t^2 on its first 12 lags (reference tsfeatures.py:103-134)."""


def arch_stat_lanes(off, x, lags: int = 12, demean: bool = True) -> np.ndarray:
    """R^2 (sklearn's score, with intercept) of x_t^2 on x_{t-1}^2 ..
    x_{t-lags}^2 for every lane of (off, x), demeaned first; NaN for n <=
    lags + 1 or non-finite values. A constant response scores 1 when the
    fit is exact (RSS < 1e-12), else 0."""
    n = np.diff(off)
    r2 = np.full(len(n), np.nan)
    lanes = np.flatnonzero((n > lags + 1) & _seg_all_finite(off, x))
    if not len(lanes):
        return r2
    loff, lv = _take(off, x, lanes)
    if demean:
        ln = np.diff(loff)
        lv = lv - np.repeat(_seg_sum(loff, lv) / ln, ln)
    roff, q, X, y = _lag_design(loff, lv * lv, np.full(len(lanes), lags))
    _, rss, _ = lsq(roff, q, X, y)
    ssr = rss[_offsets(q)[1:] - 1]
    nobs = np.diff(roff)
    dev = y - np.repeat(_seg_sum(roff, y) / nobs, nobs)
    sst = _seg_sum(roff, dev * dev)
    with np.errstate(divide="ignore", invalid="ignore"):
        r2[lanes] = np.where(sst == 0.0, np.where(ssr < 1e-12, 1.0, 0.0), 1.0 - ssr / sst)
    return r2


def count_entropy(x: np.ndarray, freq: int = 1) -> dict:
    """-sum(x*ln x) over positive x (reference tsfeatures.py:136-154)."""
    x = np.asarray(x, dtype=float)
    pos = x[x > 0]
    return {"count_entropy": float(-(pos * np.log(pos)).sum())}


@rowwise
def crossing_points_batch(a: np.ndarray) -> dict:
    """crossing_points of the equal-length series along axis 1 of a."""
    midline = np.median(a, axis=1, keepdims=True) if a.shape[1] else np.nan  # empty: no crossings
    ab = a <= midline
    p1, p2 = ab[:, :-1], ab[:, 1:]
    cross = (p1 & (~p2)) | (p2 & (~p1))
    return {"crossing_points": cross.sum(axis=1).astype(float)}


@scalar_of(crossing_points_batch)
def crossing_points(x: np.ndarray, freq: int = 1) -> dict:
    """Number of median crossings (reference tsfeatures.py:156-178)."""


@rowwise
def entropy_batch(a: np.ndarray) -> dict:
    """entropy of the equal-length series along axis 1 of a; NaN
    when empty (the periodogram of nothing)."""
    if not a.shape[1]:
        return {"entropy": np.full(len(a), np.nan)}
    with np.errstate(divide="ignore", invalid="ignore"):
        psd = periodogram_psd(a)
        psd_norm = psd / psd.sum(1)[:, None]
        se = -np.multiply(psd_norm, np.log2(psd_norm)).sum(axis=1)
        se /= np.log2(psd_norm.shape[1])
    return {"entropy": se}


@scalar_of(entropy_batch)
def entropy(x: np.ndarray, freq: int = 1) -> dict:
    """Normalized spectral entropy (reference tsfeatures.py:180-201).

    Reimplements antropy.spectral_entropy(x, sf=1, method='fft',
    normalize=True): one-sided periodogram (constant detrend) ->
    Shannon entropy in bits / log2(#bins).
    """


@rowwise
def flat_spots_batch(a: np.ndarray) -> dict:
    """flat_spots of the equal-length series along axis 1 of a
    (NaN when empty or not finite): np.linspace(min, max, 11) edges
    written out row by row, since linspace over array endpoints switches
    every row to its step-0 formula when any row's step is 0. A constant
    series is one run whatever its edges."""
    out = np.full(len(a), np.nan)
    rows = np.isfinite(a).all(axis=1)
    if not a.shape[1] or not rows.any():
        return {"flat_spots": out}
    x = a[rows]
    mn, mx = x.min(axis=1), x.max(axis=1)
    step = (mx - mn) / 10
    k = np.arange(11.0)
    edges = k * step[:, None] + mn[:, None]
    zero = step == 0
    if zero.any():  # linspace's own formula where the step underflows to 0
        edges[zero] = k / 10 * (mx - mn)[zero, None] + mn[zero, None]
    edges[:, -1] = mx
    edges[:, 0] -= (mx - mn) * 0.001
    # np.searchsorted(edges, x, side="left"): the count of edges below x
    # (an (R, n, 11) compare: length_groups bounds R * n)
    cutx = (edges[:, None, :] < x[:, :, None]).sum(axis=2)
    # the longest run: each point's distance to the start of its run
    pos = np.arange(x.shape[1])
    new = np.diff(cutx, axis=1, prepend=-1) != 0
    start = np.maximum.accumulate(np.where(new, pos, 0), axis=1)
    out[rows] = (pos - start + 1).max(axis=1)
    return {"flat_spots": out}


@scalar_of(flat_spots_batch)
def flat_spots(x: np.ndarray, freq: int = 1) -> dict:
    """Max run length after 10-bin discretization (reference tsfeatures.py:203-225).

    Replicates pandas.cut(x, bins=10, include_lowest=True) bin-edge
    semantics: equal-width edges over [min, max], lowest edge padded by
    0.1% of the range so the minimum falls in bin 0; right-closed bins.
    """


def frequency(x: np.ndarray, freq: int = 1) -> dict:
    """Passthrough of freq (reference tsfeatures.py:227-243)."""
    return {"frequency": float(freq)}


def _lambda_coef_var(lambda_par: float, x: np.ndarray, period: int = 2) -> float:
    """Coefficient of variation of period-length subseries
    (reference tsfeatures/utils.py:215-248, ported verbatim)."""
    if len(np.unique(x)) == 1:
        return 1.0
    split_size = (len(x) - 1) // period
    split = np.array_split(x, split_size)
    with warnings.catch_warnings(), np.errstate(divide="ignore", invalid="ignore"):
        # one-point and all-NaN splits have no spread: NaN, unannounced
        warnings.simplefilter("ignore", RuntimeWarning)
        mu_h = np.array([np.nanmean(sub) for sub in split])
        sig_h = np.array([np.nanstd(sub, ddof=1) for sub in split])
        rat = sig_h / mu_h ** (1 - lambda_par)
        value = np.nanstd(rat, ddof=1) / np.nanmean(rat)
    return float(value)


def guerrero(x: np.ndarray, freq: int = 1, lower: float = -1, upper: float = 2) -> dict:
    """Guerrero's Box-Cox lambda selection (reference tsfeatures.py:245-276).

    The reference calls scipy minimize_scalar(bounds=[-1, 2]); we use a
    bounded golden-section search over the same interval (matching
    scipy's 'bounded' method to ~1e-6 in the minimum value).
    """
    x = np.asarray(x, dtype=float)
    if freq == 1:
        # period 1 cuts x into n - 1 splits of which at most one holds two
        # points, so rat has at most one non-NaN value and its ddof=1
        # spread is NaN at every lambda: the search could only return
        # NaN, or 1.0 where the constant-series rule answers
        return {"guerrero": 1.0 if len(np.unique(x)) == 1 else np.nan}
    return {"guerrero": _guerrero_search(x, freq, lower, upper)}


def _guerrero_search(x: np.ndarray, freq: int, lower: float, upper: float) -> float:
    """The golden-section search of ``guerrero`` (NaN when it fails)."""

    def f(lam: float) -> float:
        v = _lambda_coef_var(lam, x=x, period=freq)
        return v if np.isfinite(v) else np.inf

    try:
        gr = (np.sqrt(5.0) - 1.0) / 2.0
        a, b = float(lower), float(upper)
        c, d = b - gr * (b - a), a + gr * (b - a)
        fc, fd = f(c), f(d)
        for _ in range(80):
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - gr * (b - a)
                fc = f(c)
            else:
                a, c, fc = c, d, fd
                d = a + gr * (b - a)
                fd = f(d)
        best = fc if fc < fd else fd
        return float(best) if np.isfinite(best) else np.nan
    except Exception:
        return np.nan


def hurst_batch(off, v, freqs) -> dict:
    """hurst of every series: the running range and standard deviation
    of every prefix in one compiled call (_steps.c hurst_rs: the range
    is the exact max - min of y_j - t_j * mean_i over j <= i, the O(n^2)
    scan up to 2,000 points and upper envelopes of those lines beyond),
    then one least-squares call for the slope of log(R/S) on log t.
    NaN where any log(R/S) is not finite (the reference's lstsq
    raises there)."""
    n = np.diff(off)
    r, s = np.empty(len(v)), np.empty(len(v))
    _STEPS.hurst_rs(len(n), off, v, r, s)
    pos = np.arange(len(v)) - np.repeat(off[:-1], n)
    keep = pos >= 1
    with np.errstate(invalid="ignore", divide="ignore"):
        r_s = np.log(r / s)[keep]
    logt = np.log((pos + 1).astype(float))[keep]
    roff = _offsets(np.maximum(n - 1, 0))
    coef, _, _ = lsq(roff, np.full(len(n), 2), np.column_stack([logt, np.ones(len(logt))]).ravel(),
                     np.where(np.isfinite(r_s), r_s, 0.0))
    return {"hurst": np.where(_seg_all_finite(roff, r_s), coef[0::2], np.nan)}


@scalar_of(hurst_batch)
def hurst(x: np.ndarray, freq: int = 1) -> dict:
    """Rescaled-range Hurst exponent (reference tsfeatures.py:370-390,
    utils.py:131-162)."""


def intervals(x: np.ndarray, freq: int = 1) -> dict:
    """Mean/sd of demand-run sums (reference tsfeatures.py:425-446).

    The reference mutates its input (``x[x > 0] = 1``); we copy first
    (Arrow buffers are immutable) and reproduce the exact semantics:
    positives become 1, non-positives keep their value, runs of
    non-zero values are summed.
    """
    x = np.asarray(x, dtype=float).copy()
    x[x > 0] = 1
    y = np.array(
        [sum(val) for key, val in _groupby(x, key=lambda k: k != 0) if key],
        dtype=float,
    )
    with warnings.catch_warnings(), np.errstate(invalid="ignore", divide="ignore"):
        warnings.simplefilter("ignore", RuntimeWarning)  # one run: its ddof=1 sd is NaN
        return {
            "intervals_mean": float(np.mean(y)) if y.size else np.nan,
            "intervals_sd": float(np.std(y, ddof=1)) if y.size else np.nan,
        }


def _tiled_batch(off, v, freqs, stat) -> np.ndarray:
    """Shared tiling for lumpiness/stability (reference tsfeatures.py:448-479,
    614-645): floor(n/width) full tiles (width 10 at freq 1, else freq),
    trailing remainder dropped; the ddof=1 nanvar of the per-tile ``stat``,
    0 below two tiles. Series of equal (width, tiles) run as one (rows,
    tiles, width) array, whose axis reductions give each tile the bits of
    a one-tile call."""
    n = np.diff(off)
    f = np.asarray(freqs, dtype=np.int64)
    width = np.where(f == 1, 10, f)
    tiles = n // np.maximum(width, 1)
    out = np.zeros(len(n))
    run = np.flatnonzero(n >= 2 * width)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN tiles -> NaN
        for w, k in set(zip(width[run].tolist(), tiles[run].tolist())):
            rows = run[(width[run] == w) & (tiles[run] == k)]
            a = v[off[rows][:, None, None] + np.arange(k * w).reshape(k, w)]
            vals = np.nanvar(a, axis=2, ddof=1) if stat == "var" else np.nanmean(a, axis=2)
            out[rows] = np.nanvar(vals, axis=1, ddof=1)
    return out


def lumpiness_batch(off, v, freqs) -> dict:
    return {"lumpiness": _tiled_batch(off, v, freqs, "var")}


@scalar_of(lumpiness_batch)
def lumpiness(x: np.ndarray, freq: int = 1) -> dict:
    """Variance of tiled-window variances (reference tsfeatures.py:448-479)."""


def stability_batch(off, v, freqs) -> dict:
    return {"stability": _tiled_batch(off, v, freqs, "mean")}


@scalar_of(stability_batch)
def stability(x: np.ndarray, freq: int = 1) -> dict:
    """Variance of tiled-window means (reference tsfeatures.py:614-645)."""


def nonlinearity_batch(off, x, freqs) -> dict:
    """nonlinearity of every series: z = the series scaled to mean 0,
    sd 1; u = the residuals of z_t on [1, z_{t-1}], v those of u on [1,
    z_{t-1}, z_{t-1}^2, z_{t-1}^3] (two least-squares calls); the
    statistic is 10 log(RSS_u / RSS_v). NaN where z is not finite or
    either RSS is 0 (an exact fit)."""
    n = np.diff(off)
    with np.errstate(all="ignore"):
        d = x - np.repeat(_seg_sum(off, x) / n, n)
        z = d / np.repeat(np.sqrt(_seg_sum(off, d * d) / (n - 1)), n)
    out = np.full(len(n), np.nan)
    lanes = np.flatnonzero((n >= 2) & _seg_all_finite(off, z))
    if len(lanes):
        roff, q, X, y = _lag_design(*_take(off, z, lanes), np.ones(len(lanes), np.int64))
        _, rss0, u = lsq(roff, q, X, y)
        x1 = X[1::2]
        _, rss, _ = lsq(roff, np.full(len(lanes), 4),
                        np.column_stack([np.ones(len(x1)), x1, x1**2, x1**3]).ravel(), u)
        for j, (i, ssr0, ssr) in enumerate(zip(lanes, rss0[1::2], rss[3::4])):
            if ssr0 > 0 and ssr > 0:
                stat = int(n[i]) * math.log(ssr0 / ssr)
                out[i] = 10.0 * stat / int(n[i])
    return {"nonlinearity": out}


@scalar_of(nonlinearity_batch)
def nonlinearity(x: np.ndarray, freq: int = 1) -> dict:
    """Terasvirta neural-network test (reference tsfeatures.py:481-503,
    utils.py:68-129; lag=1, scale=True)."""


def pacf_features_batch(off, v, freqs) -> dict:
    """pacf_features of every series: three autocovariance + Levinson-
    Durbin calls (x to lag max(m, 5), its differences to lag 5).
    statsmodels pacf raises when nlags >= n // 2; that gate is kept so
    short seasonal series degrade to NaN exactly like the reference."""
    n = np.diff(off)
    m = np.asarray(freqs, dtype=np.int64)
    nan = np.full(len(n), np.nan)
    nl = np.maximum(m, 5)
    _, px = acovf(off, v, nl, pacf=True)
    ok = (n > 1) & (nl < n // 2)
    d1off, d1 = _ragged_diff(off, v)
    d2off, d2 = _ragged_diff(d1off, d1)
    _, p1 = acovf(d1off, d1, np.full(len(n), 5), pacf=True)
    _, p2 = acovf(d2off, d2, np.full(len(n), 5), pacf=True)
    return {
        "x_pacf5": np.where(ok & (n > 5), _lag_sq_sum(px, 5), nan),
        "diff1x_pacf5": np.where((n > 6) & (5 < (n - 1) // 2), _lag_sq_sum(p1, 5), nan),
        "diff2x_pacf5": np.where((n > 7) & (5 < (n - 2) // 2), _lag_sq_sum(p2, 5), nan),
        "seas_pacf": np.where(ok & (m > 1), px[np.arange(len(n)), np.maximum(m, 0)], nan),
    }


@scalar_of(pacf_features_batch, seasonal=("seas_pacf",))
def pacf_features(x: np.ndarray, freq: int = 1) -> dict:
    """Partial autocorrelation features (reference tsfeatures.py:505-576)."""


def series_length_batch(off, v, freqs) -> dict:
    return {"series_length": np.diff(off).astype(float)}


@scalar_of(series_length_batch)
def series_length(x: np.ndarray, freq: int = 1) -> dict:
    """len(x) (reference tsfeatures.py:578-594)."""


def sparsity(x: np.ndarray, freq: int = 1) -> dict:
    """Fraction of zero observations (reference tsfeatures.py:596-612)."""
    x = np.asarray(x, dtype=float)
    with warnings.catch_warnings(), np.errstate(invalid="ignore"):
        warnings.simplefilter("ignore", RuntimeWarning)  # empty: NaN
        return {"sparsity": float(np.mean(x == 0))}


def statistics(x: np.ndarray, freq: int = 1) -> dict:
    """Basic statistics (reference tsfeatures.py:840-881); quantiles use
    NumPy's default linear interpolation (== DuckDB quantile_cont). The
    variance of one point is NaN; an empty series (where the reference
    raises) has a sum of 0 and NaN for every other statistic."""
    x = np.asarray(x, dtype=float)
    q = (lambda p: float(np.quantile(x, p))) if len(x) else (lambda p: np.nan)
    with warnings.catch_warnings(), np.errstate(invalid="ignore", divide="ignore"):
        warnings.simplefilter("ignore", RuntimeWarning)  # ddof=1 below two points, empty
        return {
            "total_sum": float(np.sum(x)),
            "mean": float(np.mean(x)),
            "variance": float(np.var(x, ddof=1)),
            "median": float(np.median(x)),
            "p2point5": q(0.025),
            "p5": q(0.05),
            "p25": q(0.25),
            "p75": q(0.75),
            "p95": q(0.95),
            "p97point5": q(0.975),
            "max": float(np.max(x)) if len(x) else np.nan,
            "min": float(np.min(x)) if len(x) else np.nan,
        }


@rowwise
def unitroot_kpss_batch(a: np.ndarray) -> dict:
    """unitroot_kpss of the equal-length series along axis 1 of
    a; NaN when the lag count reaches n or s^2 is 0."""
    n = a.shape[1]
    nlags = int(4 * (n / 100) ** 0.25)
    if nlags >= n:  # lags must be < number of observations
        return {"unitroot_kpss": np.full(len(a), np.nan)}
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        resids = a - a.mean(1)[:, None]
        s = resids.cumsum(1)
        eta = (s**2).sum(1) / n**2
        s2 = (resids**2).sum(1) / n
        for i in range(1, nlags + 1):
            w = 1.0 - i / (nlags + 1.0)
            s2 = s2 + (2.0 / n) * w * (resids[:, i:] * resids[:, :-i]).sum(1)
        return {"unitroot_kpss": np.where(s2 == 0, np.nan, eta / s2)}


@scalar_of(unitroot_kpss_batch)
def unitroot_kpss(x: np.ndarray, freq: int = 1) -> dict:
    """KPSS level statistic (reference tsfeatures.py:793-816).

    Reimplements statsmodels kpss(x, regression='c', nlags=l): demeaned
    residuals, Bartlett long-run variance, eta / s^2.
    """


def unitroot_pp_batch(off, v, freqs) -> dict:
    """unitroot_pp of every series: one least-squares call for x_t on
    [1, x_{t-1}] and one raw autocovariance call for the residuals'
    Bartlett-weighted sum up to lag int(4 (n / 100)^0.25). NaN for n < 2,
    non-finite values or a constant x_t (t >= 1). With a constant x_{t-1}
    the slope is the minimum-norm one, as lstsq gives."""
    n0 = np.diff(off)
    out = np.full(len(n0), np.nan)
    lanes = np.flatnonzero((n0 >= 2) & _seg_all_finite(off, v))
    if not len(lanes):
        return {"unitroot_pp": out}
    lmax = (4 * (n0[lanes] / 100) ** 0.25).astype(np.int64)
    roff, q, X, y = _lag_design(*_take(off, v, lanes), np.ones(len(lanes), np.int64))
    coef, rss, res = lsq(roff, q, X, y)
    n = np.diff(roff)
    ac = acovf(roff, res, lmax, demean=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        dev = y - np.repeat(_seg_sum(roff, y) / n, n)
        myybar = (1.0 / n**2) * _seg_sum(roff, dev * dev)
        # the reference's lambda = 0.5 (sig - s), sig = s + (2 / n) sum_k
        # w_k sum_t e_t e_{t-k}, s = 1 / (n RSS): taken without adding and
        # subtracting s, which is infinite for an exact fit
        lambda_ = np.zeros(len(lanes))
        for k in range(1, ac.shape[1]):  # weight 1 - k / (lmax + 1) at lag k
            w = 1.0 - k / (lmax + 1.0)
            lambda_ = lambda_ + np.where((k <= lmax) & (k < n), w * ac[:, k], 0.0)
        # a constant x_t (myybar 0) has no statistic
        out[lanes] = np.where(myybar > 0, n * (coef[1::2] - 1.0) - lambda_ / myybar, np.nan)
    return {"unitroot_pp": out}


@scalar_of(unitroot_pp_batch)
def unitroot_pp(x: np.ndarray, freq: int = 1) -> dict:
    """Phillips-Perron rho statistic (reference tsfeatures.py:818-838,
    utils.py:164-213)."""
