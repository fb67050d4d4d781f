"""Per-series CUSUM changepoint detection (Page 1954 / the classic
at-most-one-change mean-shift scan): the statistic is the maximum
absolute CENTERED cumulative sum max_i |S_i|, S_i = sum_{j<=i}(x_j -
mean), standardized by sd*sqrt(n); the location is the EARLIEST order
value achieving the maximum (a deterministic tie-break -- constant
series tie every position).

Engine-scope addition (SURVEY.md §2.7 analog: the reference's
stl_features/crossing_points summarize level shifts only indirectly;
no reference kernel emits a changepoint location).

Scale shape: ONE bounded hash exchange co-locates each key; the
cumulative sum is a per-key vectorized groupby cumsum inside the
sorted partition; argmax + tie-break is one lexsort, no per-key Python
loop.

Numeric determinism design (the reason a live SQL oracle can
hash-match the LOCATION, not just the rounded statistic): the scan
runs on the n-SCALED cumulative sum S'_i = sum_{j<=i} (n*x_j - sx)
= n * S_i (n = count, sx = sum over the key). For integer-valued
columns every addend is an exact integer, so S' is exact in ANY
accumulation order (int64/HUGEINT in SQL, integers below 2^53 in
float64 here) -- the argmax comparison is bit-identical by
construction, immune to sequential-vs-segment-tree window-sum
association differences. A raw x - mean cumsum would NOT be: exact
rational ties in |S| (window mean == global mean) acquire opposite
ULP noise under different association orders and flip the argmax.
Only the standardized statistic max|S'| / (n * sd * sqrt(n)) (whose
stddev accumulation order differs between engines) needs the shared
6dp ROUND convention.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..stages.derive import by_partition


def cusum_changepoint(
    ds,
    key: str,
    order: str,
    col: str,
    num_parts: int | None = None,
):
    """Dataset -> one row per key: ``n`` (int64, non-null count),
    ``cp_<order>`` (the order value of the earliest max-|S| position),
    ``cusum_stat`` (max|S| / (stddev_samp * sqrt(n)), NaN when n < 2
    or the series is constant -- SQL NULL gates). Null values of
    ``col`` are dropped BEFORE the scan (they contribute to neither
    the moments nor the candidate locations -- mirror with a
    ``WHERE col IS NOT NULL`` in any SQL oracle); a key whose values
    are all null emits no row.

    Exactness bound: the scaled scan values |S'| <= n^2 * max|x| must
    stay below 2^53 for the bit-exact-location guarantee (e.g. series
    of 1e5 points with values up to 1e3 -- ample for rollup counts);
    beyond that the scan still runs with ordinary float64 rounding."""
    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, order], kind="mergesort")
        x = g[col].to_numpy(dtype=np.float64)
        keep = ~np.isnan(x)
        g = g.loc[keep]
        x = x[keep]
        keys = g[key].to_numpy()
        n = len(g)
        if n == 0:
            return pd.DataFrame({
                key: keys[:0],
                "n": pd.Series([], dtype="int64"),
                f"cp_{order}": g[order].to_numpy()[:0],
                "cusum_stat": pd.Series([], dtype="float64"),
            })
        new = np.r_[True, keys[1:] != keys[:-1]]
        starts = np.flatnonzero(new)
        counts = np.diff(np.append(starts, n))
        sums = np.add.reduceat(x, starts)
        cnt_r = np.repeat(counts.astype(np.float64), counts)
        sum_r = np.repeat(sums, counts)
        # scaled integer addends: n*x - sx (exact for integer x)
        d2 = cnt_r * x - sum_r
        runs = np.repeat(np.arange(len(starts)), counts)
        # per-key running sum, accumulated independently per key (the
        # addends are exact integers, so ANY order gives the same S')
        s = pd.Series(d2).groupby(runs).cumsum().to_numpy()
        a = np.abs(s)
        # earliest argmax per key: lexsort on (key-run, -|s'|, original
        # position) -- the position key breaks exact ties to the first
        ordpos = np.arange(n)
        sel = np.lexsort((ordpos, -a, runs))
        first = sel[np.searchsorted(runs[sel], np.arange(len(starts)))]
        uniq = keys[starts]
        # sample std per key (two-pass centered moments)
        mean_r = sum_r / cnt_r
        d = x - mean_r
        m2 = np.add.reduceat(d * d, starts)
        nf = counts.astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            sd = np.sqrt(m2 / np.maximum(counts - 1, 1))
            # S = S'/n  ->  stat = max|S'| / (n * sd * sqrt(n))
            stat = a[first] / (nf * sd * np.sqrt(nf))
        stat = np.where((counts >= 2) & (m2 > 0.0), stat, np.nan)
        out = pd.DataFrame({
            key: uniq,
            "n": counts.astype(np.int64),
            f"cp_{order}": g[order].to_numpy()[first],
            "cusum_stat": stat,
        })
        return out

    return by_partition(ds, key, per_part, num_parts=num_parts)
