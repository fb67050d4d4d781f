"""Session windows over a keyed event stream (streaming-shaped operator;
ray_guide pattern: ordered, partitioned log -> per-partition vectorized
windowing; the reference has no streaming surface, SURVEY.md §2.7).

A session = maximal run of a key's events where consecutive gaps are
<= ``gap_us``. Assignment is a vectorized cumsum of gap breaks inside
the per-key hash partition -- no per-key Python loop, one shuffle.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..stages._util import ts_to_us
from ..stages.derive import by_partition


def sessionize(
    ds,
    key: str = "user_id",
    ts: str = "ts",
    order: str = "event_id",
    value: str = "value",
    gap_us: int = 30 * 60 * 1_000_000,
    num_parts: int | None = None,
):
    """Events Dataset -> one row per (key, session): session_start,
    session_end, n_events, value_sum."""

    def windows(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, ts, order], kind="mergesort")
        ts_us = ts_to_us(g[ts]).to_numpy()
        keys = g[key].to_numpy()
        new_key = np.r_[True, keys[1:] != keys[:-1]]
        gap_break = np.r_[True, (ts_us[1:] - ts_us[:-1]) > gap_us]
        session_id = np.cumsum(new_key | gap_break)
        out = (
            g.assign(_sid=session_id, _ts_us=ts_us)
            .groupby([key, "_sid"], sort=False)
            .agg(
                session_start=("_ts_us", "min"),
                session_end=("_ts_us", "max"),
                n_events=(order, "size"),
                value_sum=(value, "sum"),
            )
            .reset_index()
        )
        # session index within key (1-based, by start time)
        out = out.sort_values([key, "session_start"], kind="mergesort")
        out["session_idx"] = out.groupby(key, sort=False).cumcount() + 1
        out["session_start"] = out["session_start"].astype("datetime64[us]")
        out["session_end"] = out["session_end"].astype("datetime64[us]")
        out["n_events"] = out["n_events"].astype("int64")
        out["value_sum"] = out["value_sum"].round(6)
        return out[[key, "session_idx", "session_start", "session_end",
                    "n_events", "value_sum"]]

    return by_partition(ds, key, windows, num_parts=num_parts)


def hopping_window(
    ds,
    key: str = "user_id",
    ts: str = "ts",
    value: str = "value",
    window_us: int = 3_600_000_000,
    hop_us: int = 1_800_000_000,
    num_parts: int | None = None,
):
    """Hopping (overlapping) window aggregate: one row per
    (key, window_start) with count/sum/min/max of ``value`` over events
    in [window_start, window_start + window_us), windows every hop_us.

    Scale shape (same partial/merge split as the rollup stage): each
    batch explodes its events to the ceil(window/hop) covering windows
    and IMMEDIATELY collapses to per-batch partial aggregates, so only
    (key, window, partial) rows -- not exploded events -- enter the one
    small exchange; partials merge associatively (merge-on-read)."""
    nwin = -(-window_us // hop_us)  # ceil

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        eus = ts_to_us(df[ts]).to_numpy()
        keys = np.repeat(df[key].to_numpy(), nwin)
        vals = np.repeat(df[value].to_numpy(dtype="float64"), nwin)
        reps = np.repeat(eus, nwin)
        offs = np.tile(np.arange(nwin, dtype=np.int64) * hop_us, len(df))
        wstart = (reps // hop_us) * hop_us - offs
        keep = wstart + window_us > reps
        g = pd.DataFrame(
            {key: keys[keep], "wstart": wstart[keep], "v": vals[keep]}
        ).groupby([key, "wstart"], sort=False)["v"].agg(
            ["size", "sum", "min", "max"]
        ).reset_index()
        g.columns = [key, "wstart", "n_events", "v_sum", "v_min", "v_max"]
        return g

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby([key, "wstart"], sort=False).agg(
            n_events=("n_events", "sum"), v_sum=("v_sum", "sum"),
            v_min=("v_min", "min"), v_max=("v_max", "max"),
        ).reset_index()
        out["window_start"] = out["wstart"].astype("datetime64[us]")
        out["n_events"] = out["n_events"].astype("int64")
        return out[[key, "window_start", "n_events", "v_sum", "v_min", "v_max"]]

    return by_partition(
        ds.map_batches(partial, batch_format="pandas", batch_size=65536),
        key, merge, num_parts=num_parts,
    )


def rolling_agg(
    ds,
    key: str,
    order: str,
    cols: list[str],
    window: int,
    num_parts: int | None = None,
):
    """Per-key rolling-window aggregates over the trailing ``window``
    rows (SQL frame ``ROWS BETWEEN window-1 PRECEDING AND CURRENT
    ROW``): for each col emits ``<col>_roll_sum`` / ``_roll_mean`` /
    ``_roll_min`` / ``_roll_max``.

    Scale shape: one ``by_partition`` exchange on ``key``; inside
    the partition the frame is sorted once by (key, order) and the
    rolling sum is a cumsum difference against per-key start boundaries
    (pure vectorized arithmetic), min/max go through pandas'
    grouped-rolling Cython kernels. Integer columns stay EXACT: the sum
    is an int64 cumsum difference and the mean is one double division
    (bit-identical to ``CAST(SUM(...) OVER w AS DOUBLE) /
    COUNT(...) OVER w`` in SQL); float columns carry normal fp
    accumulation.
    """
    if window < 1:
        raise ValueError("window must be >= 1")

    def roll(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, order], kind="mergesort").drop(columns="part")
        n = len(g)
        keys = g[key].to_numpy()
        new = np.r_[True, keys[1:] != keys[:-1]]
        starts = np.flatnonzero(new)
        gstart = np.repeat(starts, np.diff(np.append(starts, n)))
        idx = np.arange(n)
        lo = np.maximum(gstart, idx - window + 1)
        nwin = (idx - lo + 1).astype(np.float64)
        out = g.reset_index(drop=True)
        grouped = g.groupby(key, sort=False)
        for c in cols:
            v = g[c].to_numpy()
            is_int = np.issubdtype(v.dtype, np.integer)
            cs = np.concatenate(
                ([0], np.cumsum(v, dtype=np.int64 if is_int else np.float64))
            )
            rsum = cs[idx + 1] - cs[lo]
            out[f"{c}_roll_sum"] = rsum
            out[f"{c}_roll_mean"] = rsum / nwin
            r = grouped[c].rolling(window, min_periods=1)
            rmin = r.min().to_numpy()
            rmax = r.max().to_numpy()
            if is_int:
                rmin, rmax = rmin.astype(np.int64), rmax.astype(np.int64)
            out[f"{c}_roll_min"] = rmin
            out[f"{c}_roll_max"] = rmax
        return out

    return by_partition(ds, key, roll, num_parts=num_parts)


def rolling_corr(
    ds,
    key: str,
    order: str,
    x_col: str,
    y_col: str,
    window: int,
    num_parts: int | None = None,
):
    """Per-key rolling Pearson correlation over the trailing ``window``
    rows (SQL ``CORR(y, x) OVER (PARTITION BY key ORDER BY order ROWS
    BETWEEN window-1 PRECEDING AND CURRENT ROW)``), with SQL's NULL
    gates: NaN when the frame has < 2 rows or either column is
    constant within it.

    Same scale shape as ``rolling_agg`` (ONE bounded exchange, cumsum-
    difference window sums -- no per-window recompute). The five
    co-moment sums come from cumsum differences, so INTEGER-VALUED
    columns stay EXACT (every moment is an integer below 2^53) and the
    only float steps are the final fused products + sqrt -- which is
    why the live SQL oracle can hash-match under the shared 6dp ROUND
    convention."""
    if window < 1:
        raise ValueError("window must be >= 1")

    def roll(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, order], kind="mergesort").drop(columns="part")
        n = len(g)
        keys = g[key].to_numpy()
        new = np.r_[True, keys[1:] != keys[:-1]]
        starts = np.flatnonzero(new)
        gstart = np.repeat(starts, np.diff(np.append(starts, n)))
        idx = np.arange(n)
        lo = np.maximum(gstart, idx - window + 1)
        nw = (idx - lo + 1).astype(np.float64)
        x = g[x_col].to_numpy(dtype=np.float64)
        y = g[y_col].to_numpy(dtype=np.float64)

        def wsum(v):
            cs = np.concatenate(([0.0], np.cumsum(v)))
            return cs[idx + 1] - cs[lo]

        sx, sy = wsum(x), wsum(y)
        sxx, syy, sxy = wsum(x * x), wsum(y * y), wsum(x * y)
        m2x = nw * sxx - sx * sx
        m2y = nw * syy - sy * sy
        cxy = nw * sxy - sx * sy
        den = np.sqrt(m2x * m2y)
        ok = (nw >= 2.0) & (m2x > 0.0) & (m2y > 0.0)
        out = g.reset_index(drop=True)
        out["n_w"] = nw.astype(np.int64)
        out["corr"] = np.where(ok, cxy / np.where(den > 0.0, den, 1.0), np.nan)
        return out

    return by_partition(ds, key, roll, num_parts=num_parts)


def lagged_corr(
    ds,
    key: str,
    order,
    x_col: str,
    y_col: str,
    lags,
    num_parts: int | None = None,
):
    """Per-key cross-correlation function (CCF): for each lag k emits
    the Pearson correlation of ``(x_t, y_{t+k})`` over the key's rows
    in ``order`` -- the two-metric extension of the reference's ACF
    (which correlates ONE series with its own past). SQL semantics:
    pairwise-complete (a position counts only when both x_t and
    y_{t+k} are non-null), NaN when fewer than 2 complete pairs or
    either side is constant; every (key, lag) emits a row even with
    zero complete pairs (SQL GROUP BY).

    Scale shape: ONE bounded exchange co-locates each key; lag pairing
    is a pure index shift inside the sorted partition; per-key moments
    are two-pass centered (no power-sum cancellation) via vectorized
    groupby transforms. Output: key, lag:int64, n_pairs:int64,
    corr:float64."""
    import pandas as pd

    ocols = [order] if isinstance(order, str) else list(order)
    lags = sorted(set(int(k) for k in lags))
    if any(k < 0 for k in lags):
        raise ValueError("lags must be >= 0")

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key] + ocols, kind="mergesort")
        keys = g[key].to_numpy()
        x = g[x_col].to_numpy(dtype=np.float64)
        y = g[y_col].to_numpy(dtype=np.float64)
        n = len(g)
        uniq = pd.unique(keys)
        outs = []
        for k in lags:
            if k == 0:
                ki, xv, yv = keys, x, y
            elif n > k:
                m = keys[: n - k] == keys[k:]
                ki, xv, yv = keys[: n - k][m], x[: n - k][m], y[k:][m]
            else:
                ki = keys[:0]
                xv = yv = x[:0]
            ok = ~(np.isnan(xv) | np.isnan(yv))
            d = pd.DataFrame({"key": ki[ok], "x": xv[ok], "y": yv[ok]})
            if len(d):
                gg = d.groupby("key", sort=False)
                mx = gg["x"].transform("mean").to_numpy()
                my = gg["y"].transform("mean").to_numpy()
                dx = d["x"].to_numpy() - mx
                dy = d["y"].to_numpy() - my
                d["m2x"] = dx * dx
                d["m2y"] = dy * dy
                d["cxy"] = dx * dy
                agg = d.groupby("key", sort=False).agg(
                    n_pairs=("x", "size"), m2x=("m2x", "sum"),
                    m2y=("m2y", "sum"), cxy=("cxy", "sum"),
                ).reset_index()
            else:
                agg = pd.DataFrame(
                    {"key": pd.Series([], dtype=keys.dtype),
                     "n_pairs": pd.Series([], dtype="int64"),
                     "m2x": [], "m2y": [], "cxy": []}
                )
            base = pd.DataFrame({"key": uniq}).merge(agg, on="key", how="left")
            npair = base["n_pairs"].fillna(0).to_numpy(dtype=np.int64)
            m2x = base["m2x"].to_numpy(dtype=np.float64)
            m2y = base["m2y"].to_numpy(dtype=np.float64)
            cxy = base["cxy"].to_numpy(dtype=np.float64)
            den = np.sqrt(m2x * m2y)
            good = (npair >= 2) & (m2x > 0.0) & (m2y > 0.0)
            with np.errstate(invalid="ignore"):
                corr = np.where(
                    good, cxy / np.where(den > 0.0, den, 1.0), np.nan
                )
            outs.append(pd.DataFrame({
                key: base["key"],
                "lag": np.full(len(base), k, dtype=np.int64),
                "n_pairs": npair,
                "corr": corr,
            }))
        return pd.concat(outs, ignore_index=True)

    return by_partition(ds, key, per_part, num_parts=num_parts)


def rolling_zscore(
    ds,
    key: str,
    order: str,
    col: str,
    window: int,
    threshold: float | None = None,
    num_parts: int | None = None,
):
    """Per-key PRIOR-window z-score anomaly detection: for each row,
    ``z = (x_t - mean(prior)) / stddev_samp(prior)`` over the SQL frame
    ``ROWS BETWEEN window PRECEDING AND 1 PRECEDING`` -- the classic
    online detector (the score never sees the value it judges, so a
    spike cannot mask itself). SQL NULL gates: z is NaN when the prior
    frame has < 2 non-null values, is constant, or x_t itself is null.
    With ``threshold`` set, adds ``is_anomaly`` (1.0 / 0.0 / NaN from
    the raw z).

    Same scale shape as ``rolling_agg``: ONE ``by_partition``
    exchange on ``key``, then cumsum-difference window sums inside the
    sorted partition (null-aware: nulls contribute 0 to sums and 0 to
    the count) -- no per-window recompute, no per-key Python loop.
    Integer-valued columns keep exact moment sums below 2^53."""
    if window < 1:
        raise ValueError("window must be >= 1")

    def roll(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, order], kind="mergesort").drop(columns="part")
        n = len(g)
        keys = g[key].to_numpy()
        new = np.r_[True, keys[1:] != keys[:-1]]
        starts = np.flatnonzero(new)
        gstart = np.repeat(starts, np.diff(np.append(starts, n)))
        idx = np.arange(n)
        # prior frame [lo, idx): current row excluded
        lo = np.maximum(gstart, idx - window)
        x = g[col].to_numpy(dtype=np.float64)
        miss = np.isnan(x)
        xz = np.where(miss, 0.0, x)

        def wsum(v):
            cs = np.concatenate(([0.0], np.cumsum(v)))
            return cs[idx] - cs[lo]

        nw = wsum((~miss).astype(np.float64))
        sx = wsum(xz)
        sxx = wsum(xz * xz)
        m2 = sxx - np.where(nw > 0.0, sx * sx / np.where(nw > 0.0, nw, 1.0), 0.0)
        ok = (nw >= 2.0) & (m2 > 0.0) & ~miss
        mean = sx / np.where(nw > 0.0, nw, 1.0)
        sd = np.sqrt(np.maximum(m2, 0.0) / np.maximum(nw - 1.0, 1.0))
        out = g.reset_index(drop=True)
        out["n_w"] = nw.astype(np.int64)
        out["z"] = np.where(ok, (x - mean) / np.where(sd > 0.0, sd, 1.0), np.nan)
        if threshold is not None:
            z = out["z"].to_numpy()
            out["is_anomaly"] = np.where(
                np.isnan(z), np.nan, (np.abs(z) > threshold).astype(np.float64)
            )
        return out

    return by_partition(ds, key, roll, num_parts=num_parts)


def seasonal_naive_error(
    ds,
    key: str,
    order,
    col: str,
    season: int,
    num_parts: int | None = None,
):
    """Per-key seasonal-naive backtest: forecast ``x_hat_t = x_{t-m}``
    (m = ``season``, positional like SQL ``LAG(x, m)``) and emit the
    in-sample error summary per key -- ``n_fc`` (positions where both
    x_t and x_{t-m} are non-null), ``mae``, ``rmse``, and ``mase``
    (MAE of the seasonal-naive forecast over the MAE of the
    one-step-naive forecast, the standard scale-free skill score; NaN
    when there are no complete forecast pairs or the naive denominator
    is 0 -- SQL NULL gates). Every key emits a row.

    Scale shape: identical to ``lagged_corr`` -- ONE bounded hash
    exchange, pure index-shift pairing inside the sorted partition,
    vectorized groupby sums. Integer-valued columns keep every |error|
    sum exact, which lets a LAG()-based SQL oracle hash-match under
    the shared 6dp ROUND convention."""
    import pandas as pd

    ocols = [order] if isinstance(order, str) else list(order)
    if season < 1:
        raise ValueError("season must be >= 1")

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key] + ocols, kind="mergesort")
        keys = g[key].to_numpy()
        x = g[col].to_numpy(dtype=np.float64)
        n = len(g)
        uniq = pd.unique(keys)

        def lag_pairs(k):
            if n > k:
                m = keys[: n - k] == keys[k:]
                return keys[k:][m], x[k:][m], x[: n - k][m]
            return keys[:0], x[:0], x[:0]

        def err_sums(k):
            ki, cur, prev = lag_pairs(k)
            ok = ~(np.isnan(cur) | np.isnan(prev))
            e = np.abs(cur[ok] - prev[ok])
            d = pd.DataFrame({"key": ki[ok], "ae": e, "se": e * e})
            agg = (
                d.groupby("key", sort=False)
                .agg(n=("ae", "size"), sae=("ae", "sum"), sse=("se", "sum"))
                .reset_index()
            )
            return agg

        fc = err_sums(season)
        nv = err_sums(1)
        base = pd.DataFrame({"key": uniq})
        base = base.merge(fc, on="key", how="left").merge(
            nv, on="key", how="left", suffixes=("", "_nv")
        )
        n_fc = base["n"].fillna(0).to_numpy(dtype=np.int64)
        sae = base["sae"].to_numpy(dtype=np.float64)
        sse = base["sse"].to_numpy(dtype=np.float64)
        n_nv = base["n_nv"].fillna(0).to_numpy(dtype=np.int64)
        sae_nv = base["sae_nv"].to_numpy(dtype=np.float64)
        has = n_fc > 0
        with np.errstate(invalid="ignore", divide="ignore"):
            mae = np.where(has, sae / np.maximum(n_fc, 1), np.nan)
            rmse = np.where(
                has, np.sqrt(sse / np.maximum(n_fc, 1)), np.nan
            )
            mae_nv = np.where(n_nv > 0, sae_nv / np.maximum(n_nv, 1), np.nan)
            mase = np.where(
                has & (n_nv > 0) & (mae_nv > 0.0),
                mae / np.where(mae_nv > 0.0, mae_nv, 1.0),
                np.nan,
            )
        return pd.DataFrame({
            key: base["key"],
            "n_fc": n_fc,
            "mae": mae,
            "rmse": rmse,
            "mase": mase,
        })

    return by_partition(ds, key, per_part, num_parts=num_parts)


def interpolate_gaps(
    ds,
    key: str,
    order: str,
    col: str,
    t_col: str | None = None,
    num_parts: int | None = None,
):
    """Per-key linear interpolation of null values between their
    nearest non-null anchors (the monitoring-pipeline densify step
    after a gap-fill): adds ``<col>_interp`` = the original value
    where present, ``y0 + (y1 - y0) * ((t - t0) / (t1 - t0))`` for
    interior gaps, and NaN for leading/trailing gaps (no anchor on one
    side) -- exactly SQL's IGNORE-NULLS last_value/first_value window
    construction. ``t_col`` supplies the numeric time axis (defaults
    to ``order``); the lerp uses the SAME association as the SQL form
    above, so integer-valued anchors and times hash-match under the
    shared 6dp ROUND convention.

    Scale shape: ONE ``by_partition`` exchange on ``key``; the
    prev/next anchor indices come from per-key cummax scans (forward
    and reversed), no per-key Python loop."""
    import pandas as pd

    if t_col is None:
        t_col = order

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, order], kind="mergesort").drop(columns="part")
        n = len(g)
        out = g.reset_index(drop=True)
        if n == 0:
            out[f"{col}_interp"] = pd.Series([], dtype="float64")
            return out
        keys = g[key].to_numpy()
        x = g[col].to_numpy(dtype=np.float64)
        t = g[t_col].to_numpy(dtype=np.float64)
        valid = ~np.isnan(x)
        new = np.r_[True, keys[1:] != keys[:-1]]
        starts = np.flatnonzero(new)
        counts = np.diff(np.append(starts, n))
        runs = np.repeat(np.arange(len(starts)), counts)
        pos = np.arange(n)
        # nearest non-null anchor at-or-before / at-or-after, per key
        vpos = np.where(valid, pos, -1)
        prev = pd.Series(vpos).groupby(runs).cummax().to_numpy()
        vpos_r = np.where(valid, n - 1 - pos, -1)[::-1]
        nxt = pd.Series(vpos_r).groupby(runs[::-1]).cummax().to_numpy()[::-1]
        nxt = np.where(nxt >= 0, n - 1 - nxt, -1)
        interp = x.copy()
        gap = ~valid & (prev >= 0) & (nxt >= 0)
        if gap.any():
            p, q = prev[gap], nxt[gap]
            y0, y1 = x[p], x[q]
            t0, t1 = t[p], t[q]
            interp[gap] = y0 + (y1 - y0) * ((t[gap] - t0) / (t1 - t0))
        out[f"{col}_interp"] = interp
        return out

    return by_partition(ds, key, per_part, num_parts=num_parts)


def theil_sen(
    ds: "ray.data.Dataset",
    key_col: str = "conv_id",
    order_col: str = "bucket",
    value_col: str = "token_len_sum",
    x_scale: float = 60.0,
    num_parts: int | None = None,
) -> "ray.data.Dataset":
    """Theil-Sen ROBUST trend per key: the median of all pairwise slopes
    (y_j - y_i) / ((x_j - x_i) / x_scale) over the series' time axis --
    the breakdown-point-29% counterpart of grouped_regr's OLS slope
    (one wild rollup bucket cannot move it). Output per key:
    ``n:int64, ts_slope:float64`` (NaN when n < 2).

    One key-hash exchange; per key the O(n^2/2) pairwise slopes come
    from ONE broadcasted triangular difference (series length is
    tier-bounded, e.g. <= minutes-per-conversation, so the quadratic
    term is a few thousand floats); the median is numpy linear
    interpolation == SQL ``quantile_cont(0.5)``, which an oracle
    reproduces with a self-join + quantile_cont."""
    import numpy as np
    import pandas as pd

    def slopes(g: pd.DataFrame) -> pd.DataFrame:
        # fully vectorized across keys: pair indices are built per
        # DISTINCT series length (triu computed once per length, offsets
        # broadcast over all keys sharing it -- the cohort trick from
        # kernels/_batch.py), all slopes in one array op, one grouped
        # quantile. The per-key Python loop this replaces cost 35.6 s at
        # sf0.1 @32; this runs the same partition in ~2 s.
        g = g.sort_values([key_col, order_col], kind="mergesort")
        keys = g[key_col].to_numpy()
        y = g[value_col].to_numpy(np.float64)
        x_us = g[order_col].astype("datetime64[us]").astype("int64").to_numpy()
        starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        lens = np.diff(np.r_[starts, len(keys)])
        uniq_keys = keys[starts]
        ts = np.full(len(uniq_keys), np.nan)
        # GIANT series take the quadratic term out of the shared pair
        # table: an 8694-point series alone is 37.8M pairs, and carrying
        # its index/key/order arrays through the cohort path cost ~1.5 GB
        # and 45+ s. Per-giant chunked slope fill + np.partition k-th
        # selection keeps memory at one float64 per pair and O(m) time.
        GIANT = 2048
        for gi in np.flatnonzero(lens > GIANT):
            o, n = int(starts[gi]), int(lens[gi])
            yg, xg = y[o : o + n], x_us[o : o + n]
            m = n * (n - 1) // 2
            sl_g = np.empty(m, dtype=np.float64)
            pos = 0
            for i in range(n - 1):
                cnt = n - 1 - i
                dxg = (xg[i + 1 :] - xg[i]) / 1e6 / x_scale
                sl_g[pos : pos + cnt] = (yg[i + 1 :] - yg[i]) / dxg
                pos += cnt
            k1, k2 = (m - 1) // 2, m // 2
            part = np.partition(sl_g, [k1, k2])
            ts[gi] = part[k1] + (part[k2] - part[k1]) * 0.5
        iu_all, ju_all, kid_all = [], [], []
        for n in np.unique(lens):
            if n < 2 or n > GIANT:
                continue
            sel = np.flatnonzero(lens == n)
            iu, ju = np.triu_indices(int(n), k=1)
            offs = starts[sel]
            iu_all.append((offs[:, None] + iu[None, :]).ravel())
            ju_all.append((offs[:, None] + ju[None, :]).ravel())
            kid_all.append(np.repeat(sel, len(iu)))
        if iu_all:
            I = np.concatenate(iu_all)
            J = np.concatenate(ju_all)
            K = np.concatenate(kid_all)
            # difference the integer microsecond axis FIRST, then divide
            # (exactly the oracle's (epoch(b)-epoch(a))/scale FP path)
            dx = (x_us[J] - x_us[I]) / 1e6 / x_scale
            sl = (y[J] - y[I]) / dx
            # grouped median via ONE lexsort + offset picks (a pandas
            # grouped quantile here cost 100+ s on the 44M pairs a
            # power-law corpus produces); the interpolation formula
            # lo + (hi - lo) * 0.5 is bit-identical to np.quantile /
            # quantile_cont, NOT the subtly different (lo + hi) / 2
            order = np.lexsort((sl, K))
            Ks, sls = K[order], sl[order]
            gs = np.flatnonzero(np.r_[True, Ks[1:] != Ks[:-1]])
            gl = np.diff(np.r_[gs, len(Ks)])
            lo = sls[gs + (gl - 1) // 2]
            hi = sls[gs + gl // 2]
            ts[Ks[gs]] = lo + (hi - lo) * 0.5
        return pd.DataFrame(
            {
                key_col: uniq_keys,
                "n": lens.astype(np.int64),
                "ts_slope": ts,
            }
        )

    return by_partition(
        ds.select_columns([key_col, order_col, value_col]),
        key_col, slopes, num_parts=num_parts,
    )


def ewma(
    ds,
    key: str,
    order: str,
    col: str,
    alpha: float = 0.5,
    num_parts: int | None = None,
):
    """Per-key exponentially weighted moving average with the
    adjust=False recursion ``y_t = (1-alpha) * y_{t-1} + alpha * x_t``,
    seeded at the key's first value -- exactly the recursive-CTE SQL
    shape (the oracle iterates the same two-term recurrence, and IEEE
    addition/multiplication make the two evaluation orders bit-equal).

    Scale shape: ONE ``by_partition`` exchange on ``key``; inside
    the sorted partition the recursion runs in pandas' C ewm kernel per
    key (sequential within a series is inherent to EWMA; series never
    straddle partitions). Output: (key, order, col, ewma 6dp-rounded).
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must be in (0, 1]")

    def smooth(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, order], kind="mergesort").drop(
            columns="part"
        )
        y = (
            g.groupby(key, sort=False)[col]
            .transform(
                lambda s: s.astype("float64")
                .ewm(alpha=alpha, adjust=False)
                .mean()
            )
            .to_numpy()
        )
        y = y + 1e-7
        g["ewma"] = np.sign(y) * np.floor(np.abs(y) * 1e6 + 0.5) / 1e6
        return g

    return by_partition(
        ds.select_columns([key, order, col]), key, smooth,
        num_parts=num_parts,
    )


def run_length_stats(
    ds,
    key: str,
    order,
    flag_col: str,
    num_parts: int | None = None,
):
    """Gaps-and-islands run-length statistics: per key, over rows sorted
    by ``order`` (str or list), the maximal runs of consecutive rows
    whose boolean ``flag_col`` is true -> (key, n_flagged, n_streaks,
    max_streak). Keys with zero flagged rows are omitted.

    ONE key-hash exchange; run detection inside the sorted partition is
    the vectorized start-mask + cumsum trick (a run starts at a flagged
    row whose predecessor is a different key or unflagged), no per-key
    Python loop."""
    order_cols = [order] if isinstance(order, str) else list(order)

    def streaks(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                key: pd.Series([], dtype=g[key].dtype),
                "n_flagged": pd.Series([], dtype="int64"),
                "n_streaks": pd.Series([], dtype="int64"),
                "max_streak": pd.Series([], dtype="int64"),
            }
        )
        if len(g) == 0:
            return empty
        g = g.sort_values([key] + order_cols, kind="mergesort")
        keys = g[key].to_numpy()
        f = g[flag_col].to_numpy(dtype=bool)
        new_key = np.r_[True, keys[1:] != keys[:-1]]
        starts = f & (new_key | np.r_[True, ~f[:-1]])
        if not f.any():
            return empty
        rid = np.cumsum(starts)[f] - 1  # 0-based run id over flagged rows
        lengths = np.bincount(rid)
        run_key = keys[starts]  # one entry per run, aligned with rid
        out = (
            pd.DataFrame({key: run_key, "len": lengths})
            .groupby(key, sort=False)["len"]
            .agg(n_flagged="sum", n_streaks="size", max_streak="max")
            .reset_index()
        )
        for c in ("n_flagged", "n_streaks", "max_streak"):
            out[c] = out[c].astype(np.int64)
        return out

    return by_partition(ds, key, streaks, num_parts=num_parts)


def time_weighted_avg(
    ds,
    key: str = "user_id",
    ts: str = "ts",
    order: str = "event_id",
    value: str = "value",
    bucket_us: int = 86_400_000_000,
    scale: int = 100,
    num_parts: int | None = None,
):
    """Time-weighted average (TWAP) of a step signal sampled at
    irregular times: each observation's value holds until the key's
    next observation (no extrapolation past the last one), segments are
    clipped to fixed ``bucket_us`` buckets, and each (key, bucket) row
    reports twap = sum(v * overlap) / sum(overlap) plus the covered
    duration in seconds. Zero-length segments (tied timestamps, broken
    by ``order``) are dropped on both sides of the contract.

    Exactness: values quantize to integers via the repo cents
    convention (rint(v * scale)), so both numerator (cents x µs) and
    denominator (µs) accumulate as exact int64 -- per-bucket sums are
    bounded by scale_max x 86.4e9 regardless of data size, and the one
    double division matches DuckDB's HUGEINT->DOUBLE cast bit-for-bit.

    Scale shape: ONE ``by_partition`` exchange on ``key``; inside
    the sorted partition segment splitting is np.repeat over the
    bucket span (a segment touching k buckets emits k rows -- bounded
    by segment length / bucket size, not data size) and the (key,
    bucket) reduce is a local pandas groupby because partitions hold
    whole keys."""
    if bucket_us <= 0:
        raise ValueError("bucket_us must be positive")

    def twap(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, ts, order], kind="mergesort")
        k = g[key].to_numpy()
        t = ts_to_us(g[ts]).to_numpy()
        cents = np.rint(g[value].to_numpy(dtype=np.float64) * scale).astype(
            np.int64
        )
        same = np.r_[k[1:] == k[:-1], False]  # row i starts a segment
        t0 = t[same]
        t1 = np.roll(t, -1)[same]
        v = cents[same]
        kk = k[same]
        live = t1 > t0
        t0, t1, v, kk = t0[live], t1[live], v[live], kk[live]
        if len(t0) == 0:
            return pd.DataFrame(
                {
                    key: pd.Series([], dtype=g[key].dtype),
                    "bucket": pd.Series([], dtype="datetime64[us]"),
                    "twap": pd.Series([], dtype="float64"),
                    "dur_s": pd.Series([], dtype="float64"),
                }
            )
        b0 = t0 // bucket_us
        b1 = (t1 - 1) // bucket_us
        span = (b1 - b0 + 1).astype(np.int64)
        idx = np.repeat(np.arange(len(t0)), span)
        # offset of each emitted row inside its segment's bucket run
        off = np.arange(len(idx)) - np.repeat(
            np.cumsum(span) - span, span
        )
        bk = b0[idx] + off
        lo = np.maximum(t0[idx], bk * bucket_us)
        hi = np.minimum(t1[idx], (bk + 1) * bucket_us)
        dur = hi - lo
        part = pd.DataFrame(
            {
                key: kk[idx],
                "bucket": bk,
                "num": v[idx] * dur,
                "den": dur,
            }
        )
        agg = part.groupby([key, "bucket"], sort=True, as_index=False).sum()
        num = agg["num"].to_numpy(dtype=np.float64)
        den = agg["den"].to_numpy(dtype=np.float64)
        tw = num / (scale * den) + 1e-7
        dsec = den / 1e6 + 1e-7
        return pd.DataFrame(
            {
                key: agg[key],
                "bucket": pd.to_datetime(
                    agg["bucket"].to_numpy() * bucket_us, unit="us"
                ).astype("datetime64[us]"),
                "twap": np.sign(tw) * np.floor(np.abs(tw) * 1e6 + 0.5) / 1e6,
                "dur_s": np.floor(dsec * 1e6 + 0.5) / 1e6,
            }
        )

    return by_partition(
        ds.select_columns([key, ts, order, value]), key, twap,
        num_parts=num_parts,
    )


def hampel_outliers(
    ds,
    key: str,
    order: str,
    col: str,
    window: int = 7,
    n_sigmas: float = 3.0,
    num_parts: int | None = None,
):
    """Hampel filter: flag points whose deviation from the per-key
    TRAILING ``window``-row rolling median exceeds ``n_sigmas`` robust
    sigmas, where sigma = 1.4826 x the key's median absolute deviation
    from that rolling median. Emits ONLY the flagged rows (key, order,
    value, rolling_med, score 6dp); keys whose MAD is zero emit
    nothing (a constant series has no robust scale to exceed).

    The two medians match SQL exactly: pandas' rolling median and the
    grouped median both average the middle pair on even counts, the
    same interpolation as DuckDB's window/aggregate quantile_cont, and
    the score is the one pinned expression dev / (1.4826 * mad).

    Scale shape: ONE ``by_partition`` exchange on ``key``; the
    rolling median runs in pandas' C skiplist kernel per key and the
    per-key MAD is a local grouped median -- keys never straddle
    partitions."""
    if window < 1:
        raise ValueError("window must be >= 1")

    def flag(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, order], kind="mergesort").drop(
            columns="part"
        )
        med = (
            g.groupby(key, sort=False)[col]
            .rolling(window, min_periods=1)
            .median()
            .to_numpy()
        )
        v = g[col].to_numpy(dtype=np.float64)
        dev = np.abs(v - med)
        mad = (
            pd.DataFrame({key: g[key].to_numpy(), "dev": dev})
            .groupby(key, sort=False)["dev"]
            .transform("median")
            .to_numpy()
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            score = dev / (1.4826 * mad)
        keep = (mad > 0) & (score > n_sigmas)
        sc = score[keep] + 1e-7
        return pd.DataFrame(
            {
                key: g[key].to_numpy()[keep],
                order: g[order].to_numpy()[keep],
                col: v[keep],
                "rolling_med": med[keep],
                "score": np.sign(sc) * np.floor(np.abs(sc) * 1e6 + 0.5)
                / 1e6,
            }
        )

    return by_partition(
        ds.select_columns([key, order, col]), key, flag,
        num_parts=num_parts,
    )


def align_locf_corr(
    ds,
    key: str,
    ts: str,
    order: str,
    type_col: str,
    type_a: str,
    type_b: str,
    value: str,
    num_parts: int | None = None,
):
    """Correlation between two IRREGULARLY sampled signals per key:
    align both event types on the union of their timestamps with
    last-observation-carried-forward, keep positions where BOTH
    signals have started, and emit (key, n_aligned, corr) for keys
    with >= 2 aligned positions. corr uses the pinned expression
    (n*Sxy - Sx*Sy) / (sqrt(max(n*Sxx - Sx^2, 0)) *
    sqrt(max(n*Syy - Sy^2, 0))), NaN when either variance term is
    zero -- the same algebra the SQL oracle evaluates, so fp behavior
    matches term for term.

    Scale shape: ONE ``by_partition`` exchange on ``key``; LOCF is
    a per-partition grouped ffill (vectorized), keys never straddle
    partitions, and only per-key scalars leave the partition."""

    def select(df: pd.DataFrame) -> pd.DataFrame:
        return df.loc[
            df[type_col].isin([type_a, type_b]),
            [key, ts, order, type_col, value],
        ].copy()

    def corr(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, ts, order], kind="mergesort")
        va = g[value].where(g[type_col] == type_a)
        vb = g[value].where(g[type_col] == type_b)
        xa = va.groupby(g[key], sort=False).ffill().to_numpy()
        xb = vb.groupby(g[key], sort=False).ffill().to_numpy()
        both = ~(np.isnan(xa) | np.isnan(xb))
        kk = g[key].to_numpy()[both]
        x, y = xa[both], xb[both]
        if len(kk) == 0:
            return pd.DataFrame(
                {
                    key: pd.Series([], dtype=g[key].dtype),
                    "n_aligned": pd.Series([], dtype="int64"),
                    "corr": pd.Series([], dtype="float64"),
                }
            )
        d = pd.DataFrame(
            {key: kk, "x": x, "y": y, "xy": x * y, "xx": x * x, "yy": y * y}
        )
        a = d.groupby(key, sort=True).agg(
            n=("x", "size"), sx=("x", "sum"), sy=("y", "sum"),
            sxy=("xy", "sum"), sxx=("xx", "sum"), syy=("yy", "sum"),
        )
        a = a[a["n"] >= 2]
        n = a["n"].to_numpy(dtype=np.float64)
        sx, sy = a["sx"].to_numpy(), a["sy"].to_numpy()
        sxy, sxx, syy = (
            a["sxy"].to_numpy(), a["sxx"].to_numpy(), a["syy"].to_numpy()
        )
        den = np.sqrt(np.maximum(n * sxx - sx * sx, 0.0)) * np.sqrt(
            np.maximum(n * syy - sy * sy, 0.0)
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            c = np.where(den > 0, (n * sxy - sx * sy) / den, np.nan)
        c = c + 1e-7
        return pd.DataFrame(
            {
                key: a.index.to_numpy(),
                "n_aligned": a["n"].to_numpy().astype(np.int64),
                "corr": np.sign(c) * np.floor(np.abs(c) * 1e6 + 0.5) / 1e6,
            }
        )

    return by_partition(
        ds.map_batches(select, batch_format="pandas"), key, corr,
        num_parts=num_parts,
    )
