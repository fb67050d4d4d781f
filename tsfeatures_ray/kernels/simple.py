"""Per-series feature kernels, part 1: closed-form / OLS-based features.

Each kernel has the reference signature ``f(x: np.ndarray, freq: int) ->
dict[str, float]`` (reference tsfeatures/tsfeatures.py) and reproduces the
reference's output semantics including its NaN-on-failure gates. All
statsmodels/scipy/sklearn/antropy calls are replaced by the pure-NumPy
primitives in ``_math.py``; cited line numbers refer to the reference.

Kernels never mutate their input: Arrow batches hand us zero-copy,
read-only buffers, so any kernel that writes (``intervals``,
reference tsfeatures.py:441) copies first.
"""

from __future__ import annotations

from itertools import groupby as _groupby
from math import log

import numpy as np

from ._math import (
    acf,
    embed,
    ols_fit,
    ols_r2,
    pacf_ldb,
    periodogram_psd,
    scalets,
)

__all__ = [
    "acf_features",
    "arch_stat",
    "count_entropy",
    "crossing_points",
    "entropy",
    "flat_spots",
    "frequency",
    "guerrero",
    "hurst",
    "intervals",
    "lumpiness",
    "nonlinearity",
    "pacf_features",
    "series_length",
    "sparsity",
    "stability",
    "statistics",
    "unitroot_kpss",
    "unitroot_pp",
]


def acf_features(x: np.ndarray, freq: int = 1) -> dict:
    """Autocorrelation features (reference tsfeatures.py:35-101)."""
    x = np.asarray(x, dtype=float)
    m = freq
    size_x = len(x)

    try:
        acfx = acf(x, nlags=max(m, 10))
    except Exception:
        acfx = np.array([np.nan])
    if size_x > 10:
        acfdiff1x = acf(np.diff(x, n=1), nlags=10)
    else:
        acfdiff1x = np.array([np.nan] * 2)
    if size_x > 11:
        acfdiff2x = acf(np.diff(x, n=2), nlags=10)
    else:
        acfdiff2x = np.array([np.nan] * 2)

    try:
        acf_1 = acfx[1]
    except IndexError:
        acf_1 = np.nan
    sum_of_sq_acf10 = float(np.sum(acfx[1:11] ** 2)) if size_x > 10 else np.nan
    diff1_acf1 = acfdiff1x[1] if len(acfdiff1x) > 1 else np.nan
    diff1_acf10 = float(np.sum(acfdiff1x[1:11] ** 2)) if size_x > 10 else np.nan
    diff2_acf1 = acfdiff2x[1] if len(acfdiff2x) > 1 else np.nan
    diff2_acf10 = float(np.sum(acfdiff2x[1:11] ** 2)) if size_x > 11 else np.nan

    output = {
        "x_acf1": float(acf_1),
        "x_acf10": sum_of_sq_acf10,
        "diff1_acf1": float(diff1_acf1),
        "diff1_acf10": diff1_acf10,
        "diff2_acf1": float(diff2_acf1),
        "diff2_acf10": diff2_acf10,
    }
    if m > 1:
        output["seas_acf1"] = float(acfx[m]) if len(acfx) > m else np.nan
    return output


def arch_stat(x: np.ndarray, freq: int = 1, lags: int = 12, demean: bool = True) -> dict:
    """R^2 of x_t^2 on its first 12 lags (reference tsfeatures.py:103-134)."""
    x = np.asarray(x, dtype=float)
    if len(x) <= lags + 1:
        return {"arch_lm": np.nan}
    if demean:
        x = x - np.mean(x)
    mat = embed(x**2, lags + 1)
    X = mat[:, 1:]
    y = mat[:, 0]
    try:
        r_squared = ols_r2(X, y)
    except Exception:
        r_squared = np.nan
    return {"arch_lm": float(r_squared)}


def count_entropy(x: np.ndarray, freq: int = 1) -> dict:
    """-sum(x*ln x) over positive x (reference tsfeatures.py:136-154)."""
    x = np.asarray(x, dtype=float)
    pos = x[x > 0]
    return {"count_entropy": float(-(pos * np.log(pos)).sum())}


def crossing_points(x: np.ndarray, freq: int = 1) -> dict:
    """Number of median crossings (reference tsfeatures.py:156-178)."""
    x = np.asarray(x, dtype=float)
    midline = np.median(x) if len(x) else np.nan  # empty: no crossings
    ab = x <= midline
    p1, p2 = ab[:-1], ab[1:]
    cross = (p1 & (~p2)) | (p2 & (~p1))
    return {"crossing_points": float(cross.sum())}


def entropy(x: np.ndarray, freq: int = 1) -> dict:
    """Normalized spectral entropy (reference tsfeatures.py:180-201).

    Reimplements antropy.spectral_entropy(x, sf=1, method='fft',
    normalize=True): one-sided periodogram (constant detrend) ->
    Shannon entropy in bits / log2(#bins).
    """
    x = np.asarray(x, dtype=float)
    try:
        with np.errstate(divide="ignore", invalid="ignore"):
            psd = periodogram_psd(x)
            psd_norm = psd / psd.sum()
            se = -np.multiply(psd_norm, np.log2(psd_norm)).sum()
            se /= np.log2(psd_norm.size)
        se = float(se)
    except Exception:
        se = np.nan
    return {"entropy": se}


def flat_spots(x: np.ndarray, freq: int = 1) -> dict:
    """Max run length after 10-bin discretization (reference tsfeatures.py:203-225).

    Replicates pandas.cut(x, bins=10, include_lowest=True) bin-edge
    semantics: equal-width edges over [min, max], lowest edge padded by
    0.1% of the range so the minimum falls in bin 0; right-closed bins.
    """
    x = np.asarray(x, dtype=float)
    try:
        if len(x) == 0 or not np.all(np.isfinite(x)):
            return {"flat_spots": np.nan}
        mn, mx = x.min(), x.max()
        if mn == mx:
            adj = abs(mn) * 0.001 if mn != 0 else 0.001
            edges = np.linspace(mn - adj, mx + adj, 11)
        else:
            edges = np.linspace(mn, mx, 11)
            edges[0] -= (mx - mn) * 0.001
        cutx = np.searchsorted(edges, x, side="left") - 1
    except Exception:
        return {"flat_spots": np.nan}
    # run-length encode, take the max run
    change = np.flatnonzero(np.diff(cutx) != 0)
    bounds = np.concatenate([[-1], change, [len(cutx) - 1]])
    rlex = int(np.diff(bounds).max())
    return {"flat_spots": float(rlex)}


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
    mu_h = np.array([np.nanmean(sub) for sub in split])
    sig_h = np.array([np.nanstd(sub, ddof=1) for sub in split])
    with np.errstate(divide="ignore", invalid="ignore"):
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
        best = float(best) if np.isfinite(best) else np.nan
    except Exception:
        best = np.nan
    return {"guerrero": best}


class _UpperEnvelope:
    """Upper envelope of lines f_j(m) = y[j] - t[j]*m added with strictly
    DECREASING slopes (-t[j]); queries at arbitrary m in O(log n).

    Hull lines are kept in addition order; consecutive breakpoints
    bps[k] = intersection(hull[k], hull[k+1]) are non-increasing, so the
    winner at m is the first hull line whose breakpoint is <= m.
    """

    __slots__ = ("y", "t", "hull", "negbps")

    def __init__(self, y, t):
        self.y, self.t = y, t
        self.hull: list[int] = []
        self.negbps: list[float] = []  # negated breakpoints, increasing

    def _inter(self, a: int, b: int) -> float:
        return (self.y[b] - self.y[a]) / (self.t[b] - self.t[a])

    def add(self, j: int) -> None:
        hull, negbps = self.hull, self.negbps
        while hull:
            x_new = self._inter(hull[-1], j)
            # hull[-1] wins only on [x_prev_pair, +inf) vs its neighbor
            # and on [x_new, +inf) vs j; empty interval -> pop
            if negbps and -x_new <= negbps[-1]:
                hull.pop()
                negbps.pop()
                continue
            negbps.append(-x_new)
            break
        self.hull.append(j)

    def query(self, m: float) -> float:
        from bisect import bisect_left

        k = bisect_left(self.negbps, -m)
        j = self.hull[k]
        return self.y[j] - self.t[j] * m


def _prefix_ptp_envelope(y: np.ndarray, t: np.ndarray, mean_t: np.ndarray) -> np.ndarray:
    """r_t[i] = max_{j<=i}(y[j]-t[j]*m_i) - min_{j<=i}(y[j]-t[j]*m_i) in
    O(n log n). min via negation: min f = -max(-y[j] - t[j]*(-m))."""
    n = len(y)
    yl = y.tolist()
    tl = t.tolist()
    yneg = (-y).tolist()
    env_max = _UpperEnvelope(yl, tl)
    env_min = _UpperEnvelope(yneg, tl)
    ml = mean_t.tolist()
    r = np.empty(n)
    for i in range(n):
        env_max.add(i)
        env_min.add(i)
        m = ml[i]
        r[i] = env_max.query(m) + env_min.query(-m)
    return r


def hurst(x: np.ndarray, freq: int = 1) -> dict:
    """Rescaled-range Hurst exponent (reference tsfeatures.py:370-390,
    utils.py:131-162).

    Vectorized: s_t via prefix sums (identical values to the reference's
    per-prefix loop); r_t via chunked broadcasting (O(n^2) work like the
    reference, but NumPy-vectorized; memory bounded by the chunk size).
    """
    x = np.asarray(x, dtype=float)
    try:
        n = x.size
        t = np.arange(1, n + 1, dtype=float)
        y = x.cumsum()
        mean_t = y / t
        with np.errstate(invalid="ignore", divide="ignore"):
            s_t = np.sqrt(np.maximum(np.cumsum(x**2) / t - mean_t**2, 0.0))
            if n <= 2000:
                r_t = np.empty(n)
                chunk = max(1, int(2_000_000 // max(n, 1)))
                for lo in range(0, n, chunk):
                    hi = min(lo + chunk, n)
                    idx = np.arange(lo, hi)
                    # dev[i, j] = y[j] - (j+1) * mean_t[i]; ptp of each
                    # row's prefix j <= i via running cummax/cummin and
                    # the diagonal entry
                    dev = y[None, :hi] - t[None, :hi] * mean_t[idx, None]
                    cmax = np.maximum.accumulate(dev, axis=1)
                    cmin = np.minimum.accumulate(dev, axis=1)
                    r_t[lo:hi] = (
                        cmax[np.arange(hi - lo), idx] - cmin[np.arange(hi - lo), idx]
                    )
            else:
                # O(n log n): dev_j(m) = y[j] - t_j*m is a line in m; the
                # prefix max/min over j <= i is an upper/lower envelope of
                # lines added in strictly decreasing slope order (slope
                # -t_j), queried at m_i. The envelope evaluates the SAME
                # expression y[j] - t_j*m as the brute force, so values
                # are bit-identical. (SURVEY.md §2.1 row 11.)
                r_t = _prefix_ptp_envelope(y, t, mean_t)
            r_s = np.log(r_t / s_t)[1:]
        logt = np.log(t)[1:]
        if not np.all(np.isfinite(r_s)):
            # reference: lstsq on nan/inf raises -> except -> nan
            raise FloatingPointError("non-finite R/S")
        a = np.column_stack((logt, np.ones(logt.size)))
        h, _ = np.linalg.lstsq(a, r_s, rcond=-1)[0]
        h = float(h)
    except Exception:
        h = np.nan
    return {"hurst": h}


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
    with np.errstate(invalid="ignore", divide="ignore"):
        return {
            "intervals_mean": float(np.mean(y)) if y.size else np.nan,
            "intervals_sd": float(np.std(y, ddof=1)) if y.size else np.nan,
        }


def _tiled_stat(x: np.ndarray, freq: int, stat) -> float:
    """Shared tiling for lumpiness/stability (reference tsfeatures.py:448-479,
    614-645): floor(n/width) full tiles, trailing remainder dropped."""
    width = 10 if freq == 1 else freq
    nr = len(x)
    nsegs = int(nr / width)
    if nr < 2 * width:
        return 0.0
    vals = [stat(x[i * width : (i + 1) * width]) for i in range(nsegs)]
    return float(np.nanvar(vals, ddof=1))


def lumpiness(x: np.ndarray, freq: int = 1) -> dict:
    """Variance of tiled-window variances (reference tsfeatures.py:448-479)."""
    x = np.asarray(x, dtype=float)
    return {"lumpiness": _tiled_stat(x, freq, lambda s: np.nanvar(s, ddof=1))}


def stability(x: np.ndarray, freq: int = 1) -> dict:
    """Variance of tiled-window means (reference tsfeatures.py:614-645)."""
    x = np.asarray(x, dtype=float)
    return {"stability": _tiled_stat(x, freq, np.nanmean)}


def nonlinearity(x: np.ndarray, freq: int = 1) -> dict:
    """Terasvirta neural-network test (reference tsfeatures.py:481-503,
    utils.py:68-129; lag=1, scale=True)."""
    x = np.asarray(x, dtype=float)
    try:
        z = scalets(x)
        size_x = len(z)
        ymat = embed(z, 2)
        X = ymat[:, 1:]
        yv = ymat[:, 0]
        _, u, _ = ols_fit(X, yv, add_intercept=True)
        ssr0 = float((u**2).sum())
        x1 = X[:, 0]
        X_nn = np.column_stack([x1, x1**2, x1**3])
        _, v, _ = ols_fit(X_nn, u, add_intercept=True)
        ssr = float((v**2).sum())
        stat = size_x * log(ssr0 / ssr)
        test = 10.0 * stat / size_x
    except Exception:
        test = np.nan
    return {"nonlinearity": float(test)}


def pacf_features(x: np.ndarray, freq: int = 1) -> dict:
    """Partial autocorrelation features (reference tsfeatures.py:505-576).

    statsmodels pacf raises when nlags >= n // 2; we replicate that gate
    so short seasonal series degrade to NaN exactly like the reference.
    """
    x = np.asarray(x, dtype=float)
    m = freq
    nlags_ = max(m, 5)

    def _pacf(arr: np.ndarray, nlags: int) -> np.ndarray:
        if nlags >= len(arr) // 2:
            raise ValueError("nlags must be < 50% of sample size")
        return pacf_ldb(arr, nlags)

    if len(x) > 1:
        try:
            pacfx = _pacf(x, nlags_)
        except Exception:
            pacfx = np.array(np.nan)
    else:
        pacfx = np.array(np.nan)

    if len(x) > 5 and not np.all(np.isnan(pacfx)):
        pacf_5 = float(np.sum(pacfx[1:6] ** 2))
    else:
        pacf_5 = np.nan

    if len(x) > 6:
        try:
            diff1_pacf = _pacf(np.diff(x, n=1), 5)[1:6]
            diff1_pacf_5 = float(np.sum(diff1_pacf**2))
        except Exception:
            diff1_pacf_5 = np.nan
    else:
        diff1_pacf_5 = np.nan

    if len(x) > 7:
        try:
            diff2_pacf = _pacf(np.diff(x, n=2), 5)[1:6]
            diff2_pacf_5 = float(np.sum(diff2_pacf**2))
        except Exception:
            diff2_pacf_5 = np.nan
    else:
        diff2_pacf_5 = np.nan

    output = {
        "x_pacf5": pacf_5,
        "diff1x_pacf5": diff1_pacf_5,
        "diff2x_pacf5": diff2_pacf_5,
    }
    if m > 1:
        try:
            output["seas_pacf"] = float(pacfx[m]) if pacfx.ndim and len(pacfx) > m else np.nan
        except Exception:
            output["seas_pacf"] = np.nan
    return output


def series_length(x: np.ndarray, freq: int = 1) -> dict:
    """len(x) (reference tsfeatures.py:578-594)."""
    return {"series_length": float(len(x))}


def sparsity(x: np.ndarray, freq: int = 1) -> dict:
    """Fraction of zero observations (reference tsfeatures.py:596-612)."""
    x = np.asarray(x, dtype=float)
    return {"sparsity": float(np.mean(x == 0))}


def statistics(x: np.ndarray, freq: int = 1) -> dict:
    """Basic statistics (reference tsfeatures.py:840-881); quantiles use
    NumPy's default linear interpolation (== DuckDB quantile_cont)."""
    x = np.asarray(x, dtype=float)
    return {
        "total_sum": float(np.sum(x)),
        "mean": float(np.mean(x)),
        "variance": float(np.var(x, ddof=1)),
        "median": float(np.median(x)),
        "p2point5": float(np.quantile(x, 0.025)),
        "p5": float(np.quantile(x, 0.05)),
        "p25": float(np.quantile(x, 0.25)),
        "p75": float(np.quantile(x, 0.75)),
        "p95": float(np.quantile(x, 0.95)),
        "p97point5": float(np.quantile(x, 0.975)),
        "max": float(np.max(x)),
        "min": float(np.min(x)),
    }


def unitroot_kpss(x: np.ndarray, freq: int = 1) -> dict:
    """KPSS level statistic (reference tsfeatures.py:793-816).

    Reimplements statsmodels kpss(x, regression='c', nlags=l): demeaned
    residuals, Bartlett long-run variance, eta / s^2.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    nlags = int(4 * (n / 100) ** 0.25)
    try:
        if nlags >= n:
            raise ValueError("lags must be < number of observations")
        resids = x - x.mean()
        s = np.cumsum(resids)
        eta = float(np.sum(s**2)) / n**2
        s2 = float(np.sum(resids**2)) / n
        for i in range(1, nlags + 1):
            w = 1.0 - i / (nlags + 1.0)
            s2 += (2.0 / n) * w * float(np.sum(resids[i:] * resids[:-i]))
        with np.errstate(divide="ignore", invalid="ignore"):
            stat = eta / s2
        stat = float(stat)
    except Exception:
        stat = np.nan
    return {"unitroot_kpss": stat}


def unitroot_pp(x: np.ndarray, freq: int = 1) -> dict:
    """Phillips-Perron rho statistic (reference tsfeatures.py:818-838,
    utils.py:164-213, ported to pure NumPy)."""
    x = np.asarray(x, dtype=float)
    try:
        n = len(x)
        lmax = int(4 * (n / 100) ** 0.25)
        y, y_l1 = x[1:], x[: n - 1]
        n -= 1
        if n < 1:
            raise ValueError("series too short")
        params, res, _ = ols_fit(y_l1, y, add_intercept=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            s = 1.0 / (n * np.sum(res**2))
            myybar = (1.0 / n**2) * float(((y - y.mean()) ** 2).sum())
            coprods = np.array(
                [float(np.sum(res[i + 1 :] * res[: n - i - 1])) for i in range(lmax)]
            )
            weights = 1.0 - (np.arange(lmax) + 1.0) / (lmax + 1.0)
            sig = s + (2.0 / n) * float((weights * coprods).sum())
            lambda_ = 0.5 * (sig - s)
            alpha = params[1]
            test_stat = n * (alpha - 1.0) - lambda_ / myybar
        test_stat = float(test_stat)
    except Exception:
        test_stat = np.nan
    return {"unitroot_pp": test_stat}
