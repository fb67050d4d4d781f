"""Grouped top-k: the k best rows per group under a deterministic
(order_col, tie_cols) ordering (SURVEY.md §2.6 sort/limit family;
SQL ``ROW_NUMBER() OVER (PARTITION BY g ORDER BY v DESC, tie) <= k``).

Scale shape (same partial/merge split as every aggregation here): each
input batch is pruned to at most k rows per group BEFORE the exchange
(one C-speed sort + ``groupby(...).head(k)``), so the shuffle moves at
most ``k × groups-per-batch`` rows, never the raw table; the final
per-partition pass re-sorts the survivors and takes the true top k.
The exchange is ``by_partition`` on the group columns -- a bounded
``hash % num_parts`` key, never a raw high-cardinality group key.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..stages.derive import by_partition


def grouped_top_k(
    ds,
    group: str | list[str],
    order_col: str,
    k: int,
    descending: bool = True,
    tie_cols: list[str] | None = None,
    num_parts: int | None = None,
):
    """Top-k rows per group, with a ``rk`` column (1-based rank).

    ``tie_cols`` (always ascending) make the ordering total -- required
    for a hash-exact contract; without them, rows tying on
    ``order_col`` beyond rank k are dropped arbitrarily.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    gcols = [group] if isinstance(group, str) else list(group)
    ties = tie_cols or []
    sort_cols = gcols + [order_col] + ties
    ascending = [True] * len(gcols) + [not descending] + [True] * len(ties)

    def prune(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.sort_values(sort_cols, ascending=ascending, kind="mergesort")
            .groupby(gcols, sort=False)
            .head(k)
            .copy()
        )

    def final(g: pd.DataFrame) -> pd.DataFrame:
        out = (
            g.drop(columns="part")
            .sort_values(sort_cols, ascending=ascending, kind="mergesort")
            .groupby(gcols, sort=False)
            .head(k)
            .reset_index(drop=True)
        )
        out["rk"] = out.groupby(gcols, sort=False).cumcount() + 1
        return out

    return by_partition(
        ds.map_batches(prune, batch_format="pandas", batch_size=65536),
        gcols, final, num_parts=num_parts,
    )


_AGG_FUNCS = ("sum", "min", "max", "count", "mean", "last")


def grouped_agg(
    ds,
    keys: str | list[str],
    aggs: dict,
    order_col: str | None = None,
    num_parts: int | None = None,
):
    """General distributed groupby-aggregate via per-batch partials +
    ONE bounded exchange -- the fast path Ray's native
    ``groupby().sum()`` lacks (measured ~25s vs <1s on a 60k-row /
    15k-group input, because the native path sort-shuffles raw rows).

    ``aggs``: {col: [fn, ...]} with fn in sum/min/max/count/mean/last;
    output columns are ``<col>_<fn>``. ``mean`` is derived as
    sum/count at merge time (one double division). ``last`` takes the
    value at the max ``order_col`` (required if any col uses it),
    merged associatively by carrying the partial's max order.
    """
    kcols = [keys] if isinstance(keys, str) else list(keys)
    for c, fns in aggs.items():
        for f in fns:
            if f not in _AGG_FUNCS:
                raise ValueError(f"unknown agg {f!r} for column {c!r}")
        if "last" in fns and order_col is None:
            raise ValueError("'last' aggregation requires order_col")

    def _spec():
        """(partial-col, source-col, pandas-fn) triples for the partial
        pass; mean rides on sum+count."""
        out = []
        for c, fns in aggs.items():
            need = set(fns)
            if "mean" in need:
                need |= {"sum", "count"}
                need.discard("mean")
            for f in sorted(need):
                out.append((f"{c}__{f}", c, f))
        return out

    spec = _spec()

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(kcols, sort=False)
        cols = {}
        for name, c, f in spec:
            if f == "count":
                cols[name] = g[c].count()
            elif f == "last":
                idx = df.loc[df.groupby(kcols, sort=False)[order_col].idxmax(), :]
                cols[name] = idx.set_index(kcols)[c]
                cols[f"{name}__ord"] = idx.set_index(kcols)[order_col]
            else:
                cols[name] = getattr(g[c], f)()
        return pd.DataFrame(cols).reset_index()

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        gg = g.groupby(kcols, sort=False)
        cols = {}
        for name, c, f in spec:
            if f == "count" or f == "sum":
                cols[name] = gg[name].sum()
            elif f in ("min", "max"):
                cols[name] = getattr(gg[name], f)()
            elif f == "last":
                idx = g.loc[g.groupby(kcols, sort=False)[f"{name}__ord"].idxmax(), :]
                cols[name] = idx.set_index(kcols)[name]
        out = pd.DataFrame(cols).reset_index()
        # final column names + derived means
        ren = {}
        for c, fns in aggs.items():
            for f in fns:
                if f == "mean":
                    out[f"{c}_mean"] = (
                        out[f"{c}__sum"].to_numpy(dtype=np.float64)
                        / out[f"{c}__count"].to_numpy(dtype=np.float64)
                    )
                else:
                    ren[f"{c}__{f}"] = f"{c}_{f}"
        out = out.rename(columns=ren)
        keep = kcols + [
            f"{c}_{f}" for c, fns in aggs.items() for f in fns
        ]
        return out[keep]

    return by_partition(
        ds.map_batches(partial, batch_format="pandas", batch_size=65536),
        kcols, merge, num_parts=num_parts,
    )


def pivot_agg(
    ds,
    index: str | list[str],
    pivot_col: str,
    value_col: str,
    values: list,
    agg: str = "sum",
    num_parts: int | None = None,
):
    """Long -> wide pivot aggregate: one row per ``index``, one
    ``<value_col>_<v>`` column per pivot value, cells aggregated with
    ``agg`` (sum/count/min/max). ``values`` is explicit -- at scale the
    output SCHEMA must not depend on a full discovery pass over the
    data, and unknown pivot values are dropped rather than silently
    widening the table. Same partial+merge shape as ``grouped_agg``:
    each batch collapses to (index, one column per pivot value), only
    those partials cross the one bounded exchange.

    Oracle shape: ``GROUP BY index`` with
    ``SUM(CASE WHEN pivot = v THEN value END)`` per value.
    """
    icols = [index] if isinstance(index, str) else list(index)
    if agg not in ("sum", "count", "min", "max"):
        raise ValueError(f"pivot_agg: unsupported agg {agg!r}")
    if not values:
        raise ValueError("pivot_agg: explicit pivot `values` required")
    vnames = [f"{value_col}_{v}" for v in values]

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        full = df
        df = df[df[pivot_col].isin(values)]
        if not len(df):
            # typed empty frame: a batch with no matching pivot rows
            # must emit the same block schema as every other batch
            out = pd.DataFrame(
                {
                    **{c: pd.Series(dtype=full[c].dtype) for c in icols},
                    **{c: pd.Series(dtype="float64") for c in vnames},
                }
            )
        else:
            piv = df.pivot_table(
                index=icols, columns=pivot_col, values=value_col,
                aggfunc=agg,
            )
            piv = piv.reindex(columns=values)
            piv.columns = [f"{value_col}_{c}" for c in piv.columns]
            out = piv.reset_index().reindex(columns=icols + vnames)
        return out

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        gg = g.groupby(icols, sort=False)[vnames]
        if agg == "count":
            # SQL COUNT semantics: a (group, value) never seen is 0
            out = gg.sum().fillna(0).astype(np.int64).reset_index()
        elif agg == "sum":
            # SQL SUM semantics: never seen stays NULL, not 0
            out = gg.sum(min_count=1).reset_index()
        else:
            out = gg.agg(agg).reset_index()
        return out

    return by_partition(
        ds.map_batches(partial, batch_format="pandas", batch_size=65536),
        icols, merge, num_parts=num_parts,
    )


def grouped_corr(
    ds,
    keys: str | list[str],
    x_col: str,
    y_col: str,
    num_parts: int | None = None,
):
    """Distributed per-group Pearson correlation (SQL ``CORR(x, y)``)
    via mergeable centered co-moments -- the cross-metric dependence
    statistic the reference's per-series kernels never compute
    (tsfeatures.py treats each metric column as an independent series;
    this operator correlates two metrics WITHIN each series).

    Semantics mirror SQL ``CORR``: pairwise-complete (a row counts only
    when BOTH x and y are non-null), sample-moment normalization, and
    NaN (SQL NULL) when fewer than 2 complete pairs or either variance
    is zero. Groups whose rows are ALL incomplete still emit a row
    (``n_pairs`` = 0, ``corr`` NaN) -- same as SQL GROUP BY.

    Scale shape (same partial+merge split as ``grouped_agg``): each
    batch collapses to one (n, sum_x, sum_y, M2x, M2y, Cxy) moment row
    per group -- centered co-moments, NOT raw power sums, so there is
    no catastrophic cancellation when |mean| >> stddev (latencies in
    microseconds are exactly that case). Partials merge with the Chan
    et al. parallel-variance recentering update, fully vectorized
    (two pandas groupby transforms, no per-group Python). The exchange
    moves 6 doubles per (group, batch) through the bounded
    ``hash % num_parts`` key; when upstream is already co-partitioned
    by ``keys`` that is one moment row per group total.

    Output: key columns + ``n_pairs:int64`` + ``corr:float64``.
    """
    kcols = [keys] if isinstance(keys, str) else list(keys)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        x = df[x_col].to_numpy(dtype=np.float64, copy=True)
        y = df[y_col].to_numpy(dtype=np.float64, copy=True)
        m = ~(np.isnan(x) | np.isnan(y))
        d = df[kcols].copy()
        d["n"] = m.astype(np.float64)
        d["sx"] = np.where(m, x, 0.0)
        d["sy"] = np.where(m, y, 0.0)
        g = d.groupby(kcols, sort=False)
        # per-group masked means, broadcast back to rows (guard n=0)
        nrow = g["n"].transform("sum").to_numpy()
        safe = np.maximum(nrow, 1.0)
        mxr = g["sx"].transform("sum").to_numpy() / safe
        myr = g["sy"].transform("sum").to_numpy() / safe
        dx = np.where(m, x - mxr, 0.0)
        dy = np.where(m, y - myr, 0.0)
        d["m2x"] = dx * dx
        d["m2y"] = dy * dy
        d["cxy"] = dx * dy
        return g.agg(
            n=("n", "sum"), sx=("sx", "sum"), sy=("sy", "sum"),
            m2x=("m2x", "sum"), m2y=("m2y", "sum"), cxy=("cxy", "sum"),
        ).reset_index()

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        # partial rows arrive in shuffle-completion order; float sums are
        # order-sensitive at the ULP, so pin a canonical order first
        # (bit-stable digests run-to-run -- the strict-determinism rule
        # every float-emitting query here follows)
        g = (
            g.drop(columns="part")
            .sort_values(kcols + ["n", "sx", "sy", "m2x", "m2y", "cxy"],
                         kind="mergesort")
        )
        gg = g.groupby(kcols, sort=False)
        # global per-group totals, broadcast to partial rows
        N = gg["n"].transform("sum").to_numpy()
        safe_n = np.maximum(N, 1.0)
        mx_g = gg["sx"].transform("sum").to_numpy() / safe_n
        my_g = gg["sy"].transform("sum").to_numpy() / safe_n
        n = g["n"].to_numpy()
        safe = np.maximum(n, 1.0)
        ex = g["sx"].to_numpy() / safe - mx_g
        ey = g["sy"].to_numpy() / safe - my_g
        # Chan recentering: shift each partial's moments to the global mean
        g["m2x"] = g["m2x"].to_numpy() + n * ex * ex
        g["m2y"] = g["m2y"].to_numpy() + n * ey * ey
        g["cxy"] = g["cxy"].to_numpy() + n * ex * ey
        out = g.groupby(kcols, sort=False).agg(
            n_pairs=("n", "sum"), m2x=("m2x", "sum"),
            m2y=("m2y", "sum"), cxy=("cxy", "sum"),
        ).reset_index()
        npair = out["n_pairs"].to_numpy()
        m2x = out["m2x"].to_numpy()
        m2y = out["m2y"].to_numpy()
        den = np.sqrt(m2x * m2y)
        ok = (npair >= 2.0) & (m2x > 0.0) & (m2y > 0.0)
        out["corr"] = np.where(
            ok, out["cxy"].to_numpy() / np.where(den > 0.0, den, 1.0), np.nan
        )
        out["n_pairs"] = npair.astype(np.int64)
        return out[kcols + ["n_pairs", "corr"]]

    return by_partition(
        ds.map_batches(partial, batch_format="pandas", batch_size=65536),
        kcols, merge, num_parts=num_parts,
    )


def grouped_regr(
    ds,
    keys: str | list[str],
    x_col: str,
    y_col: str,
    num_parts: int | None = None,
):
    """Distributed per-group simple OLS regression of y on x (SQL
    ``REGR_SLOPE / REGR_INTERCEPT / REGR_R2 / REGR_COUNT``) -- the
    per-series linear-trend statistic (slope over time, trend fit r2)
    the reference approximates only through STL's trend component.

    Semantics mirror DuckDB's regr_* family exactly (probed): pairwise-
    complete; slope and intercept are NaN (SQL NULL) when the complete-
    pair x is constant (which covers n < 2); r2 is NaN when x is
    constant, 1.0 when x varies but y is constant, else corr^2. Groups
    whose rows are all incomplete still emit a row (n_pairs = 0).

    Scale shape: IDENTICAL to ``grouped_corr`` -- one centered
    co-moment row (n, sx, sy, m2x, m2y, cxy) per (group, batch), Chan
    recentering merge after one bounded ``hash % num_parts`` exchange,
    canonical partial order pinned before the float merge for
    bit-stable digests.

    Output: key columns + ``n_pairs:int64`` + ``slope`` +
    ``intercept`` + ``r2`` (float64)."""
    kcols = [keys] if isinstance(keys, str) else list(keys)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        x = df[x_col].to_numpy(dtype=np.float64, copy=True)
        y = df[y_col].to_numpy(dtype=np.float64, copy=True)
        m = ~(np.isnan(x) | np.isnan(y))
        d = df[kcols].copy()
        d["n"] = m.astype(np.float64)
        d["sx"] = np.where(m, x, 0.0)
        d["sy"] = np.where(m, y, 0.0)
        g = d.groupby(kcols, sort=False)
        nrow = g["n"].transform("sum").to_numpy()
        safe = np.maximum(nrow, 1.0)
        mxr = g["sx"].transform("sum").to_numpy() / safe
        myr = g["sy"].transform("sum").to_numpy() / safe
        dx = np.where(m, x - mxr, 0.0)
        dy = np.where(m, y - myr, 0.0)
        d["m2x"] = dx * dx
        d["m2y"] = dy * dy
        d["cxy"] = dx * dy
        return g.agg(
            n=("n", "sum"), sx=("sx", "sum"), sy=("sy", "sum"),
            m2x=("m2x", "sum"), m2y=("m2y", "sum"), cxy=("cxy", "sum"),
        ).reset_index()

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        g = (
            g.drop(columns="part")
            .sort_values(kcols + ["n", "sx", "sy", "m2x", "m2y", "cxy"],
                         kind="mergesort")
        )
        gg = g.groupby(kcols, sort=False)
        N = gg["n"].transform("sum").to_numpy()
        safe_n = np.maximum(N, 1.0)
        mx_g = gg["sx"].transform("sum").to_numpy() / safe_n
        my_g = gg["sy"].transform("sum").to_numpy() / safe_n
        n = g["n"].to_numpy()
        safe = np.maximum(n, 1.0)
        ex = g["sx"].to_numpy() / safe - mx_g
        ey = g["sy"].to_numpy() / safe - my_g
        g["m2x"] = g["m2x"].to_numpy() + n * ex * ex
        g["m2y"] = g["m2y"].to_numpy() + n * ey * ey
        g["cxy"] = g["cxy"].to_numpy() + n * ex * ey
        out = g.groupby(kcols, sort=False).agg(
            n_pairs=("n", "sum"), sx=("sx", "sum"), sy=("sy", "sum"),
            m2x=("m2x", "sum"), m2y=("m2y", "sum"), cxy=("cxy", "sum"),
        ).reset_index()
        npair = out["n_pairs"].to_numpy()
        safe = np.maximum(npair, 1.0)
        mx = out["sx"].to_numpy() / safe
        my = out["sy"].to_numpy() / safe
        m2x = out["m2x"].to_numpy()
        m2y = out["m2y"].to_numpy()
        cxy = out["cxy"].to_numpy()
        okx = m2x > 0.0
        slope = np.where(okx, cxy / np.where(okx, m2x, 1.0), np.nan)
        out["slope"] = slope
        out["intercept"] = np.where(okx, my - slope * mx, np.nan)
        # DuckDB probe: r2 NULL iff x constant; 1.0 iff y constant
        # (x varying); else corr^2
        den = m2x * m2y
        out["r2"] = np.where(
            okx,
            np.where(m2y > 0.0, cxy * cxy / np.where(den > 0.0, den, 1.0),
                     1.0),
            np.nan,
        )
        out["n_pairs"] = npair.astype(np.int64)
        return out[kcols + ["n_pairs", "slope", "intercept", "r2"]]

    return by_partition(
        ds.map_batches(partial, batch_format="pandas", batch_size=65536),
        kcols, merge, num_parts=num_parts,
    )


def grouped_quantiles(
    ds,
    keys: str | list[str],
    col: str,
    qs: tuple = (0.25, 0.5, 0.9),
    num_parts: int | None = None,
):
    """Distributed EXACT per-group quantiles with linear interpolation
    (SQL ``quantile_cont(col, q)``; note DuckDB's ``median()`` is NOT
    quantile_cont(0.5) -- probed: it returns the lower middle on even
    counts -- so oracles must use quantile_cont explicitly). NULL
    gates: a group whose values are all null still emits a row with
    ``n = 0`` and NaN quantiles (SQL GROUP BY + aggregate-over-empty).

    Scale shape: exact selection requires co-locating each group's
    values, so this is ONE bounded ``hash % num_parts`` exchange of
    (key, value) pairs followed by a vectorized pandas groupby
    quantile -- the right tool when per-group cardinality is bounded
    (group count may be huge). For groups too wide to co-locate, use
    ``sketches.histogram_quantiles`` (mergeable, deterministic,
    bin-width error) or ``sketches.exact_quantile_selection``
    (iterative refinement) instead.

    Output: key columns + ``n:int64`` + one ``q<percent>`` float64
    column per requested quantile (q25/q50/q90 for the default)."""
    kcols = [keys] if isinstance(keys, str) else list(keys)
    qlist = [float(q) for q in qs]
    if not qlist or any(not (0.0 <= q <= 1.0) for q in qlist):
        raise ValueError("qs must be non-empty fractions in [0, 1]")
    qnames = [f"q{round(q * 100):d}" for q in qlist]
    if len(set(qnames)) != len(qnames):
        raise ValueError("qs collide after percent rounding")

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop(columns="part")
        gg = g.groupby(kcols, sort=False)
        out = gg[col].count().rename("n").reset_index()
        qdf = gg[col].quantile(qlist, interpolation="linear").unstack()
        qdf.columns = qnames
        out = out.merge(qdf.reset_index(), on=kcols, how="left")
        out["n"] = out["n"].astype(np.int64)
        return out

    return by_partition(
        ds.select_columns(kcols + [col]), kcols, per_part,
        num_parts=num_parts,
    )


def winsorize(
    ds,
    keys: str | list[str],
    col: str,
    lo: float = 0.05,
    hi: float = 0.95,
    num_parts: int | None = None,
):
    """Per-group winsorization: clip ``col`` to its group's
    [``lo``, ``hi``] quantile_cont thresholds (linear interpolation)
    -- the standard robust outlier treatment before per-group
    statistics. Nulls pass through; a group's thresholds come from its
    non-null values only; groups with no non-null values pass rows
    through unclipped. Adds ``<col>_wins`` (float64) next to the
    original.

    Scale shape: ONE bounded hash exchange co-locates each group, and
    the SAME map_groups computes thresholds and clips -- no second
    pass, no threshold broadcast. Clipping is pure comparison (no
    arithmetic on the surviving values), so unclipped values round-
    trip bit-exactly and only the interpolated thresholds need the
    shared 6dp ROUND convention in an oracle."""
    kcols = [keys] if isinstance(keys, str) else list(keys)
    if not (0.0 <= lo <= hi <= 1.0):
        raise ValueError("need 0 <= lo <= hi <= 1")

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop(columns="part")
        if len(g) == 0:
            out = g.reset_index(drop=True)
            out[f"{col}_wins"] = pd.Series([], dtype="float64")
            return out
        gg = g.groupby(kcols, sort=False)[col]
        ql = gg.transform(lambda s: s.quantile(lo, interpolation="linear"))
        qh = gg.transform(lambda s: s.quantile(hi, interpolation="linear"))
        x = g[col].to_numpy(dtype=np.float64)
        out = g.reset_index(drop=True)
        out[f"{col}_wins"] = np.clip(
            x, ql.to_numpy(dtype=np.float64), qh.to_numpy(dtype=np.float64)
        )
        return out

    return by_partition(ds, kcols, per_part, num_parts=num_parts)


def grouped_mode(
    ds,
    group: str,
    value_col: str,
    num_parts: int | None = None,
):
    """Most frequent ``value_col`` per group (SQL ``mode()`` with a
    DETERMINISTIC tie-break: highest count, then smallest value) plus
    its count -- the categorical argmax aggregate.

    Partial+merge shape: each batch reduces to its distinct
    (group, value) counts BEFORE the exchange, so shuffle volume is
    bounded by distinct combos per batch, never rows; one group-hash
    exchange merges the counts and picks the winner per group.
    """
    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.groupby([group, value_col], sort=False, dropna=False)
            .size()
            .rename("c")
            .reset_index()
        )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        m = (
            g.groupby([group, value_col], sort=False, dropna=False)["c"]
            .sum()
            .reset_index()
        )
        # winner: count DESC, value ASC -- one lexsort, no per-group loop
        m = m.sort_values([group, "c", value_col],
                          ascending=[True, False, True], kind="mergesort")
        w = m.groupby(group, sort=False).head(1)
        return pd.DataFrame(
            {
                group: w[group],
                "mode": w[value_col],
                "mode_count": w["c"].astype(np.int64),
            }
        )

    return by_partition(
        ds.select_columns([group, value_col]).map_batches(
            partial, batch_format="pandas"
        ),
        group, merge, num_parts=num_parts,
    )


def grouped_pct_rank(
    ds,
    group: str,
    value_col: str,
    order_col: str | None = None,
    num_parts: int | None = None,
):
    """SQL ``PERCENT_RANK() OVER (PARTITION BY group ORDER BY value)``
    per row: (min_rank - 1) / (n - 1), ties share the min rank, a
    single-row group gets 0.0 (DuckDB semantics, probed). The rank
    normalization transform for per-key feature scaling.

    One key-hash exchange; ranks via one vectorized pandas
    ``groupby.rank(method='min')`` per partition. ``order_col`` (if
    given) rides along to keep the output row-identifiable."""
    cols = [group, value_col] + ([order_col] if order_col else [])

    def rank(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop(columns=["part"])
        grp = g.groupby(group, sort=False)[value_col]
        r = grp.rank(method="min").to_numpy(np.float64)
        n = grp.transform("size").to_numpy(np.float64)
        pct = np.where(n > 1, (r - 1.0) / (n - 1.0), 0.0)
        return g.assign(pct_rank=pct)

    return by_partition(
        ds.select_columns(cols), group, rank,
        num_parts=num_parts,
    )


def grouped_mad(
    ds,
    group: str,
    value_col: str,
    num_parts: int | None = None,
):
    """Robust location + scale per group: median and MAD (median of
    absolute deviations from the median), both with quantile_cont
    linear-interpolation semantics -- the robust companion of the
    mean/variance aggregates (and of theil_sen for trend). Output:
    ``(group, n:int64, median:float64, mad:float64)``; NaN for all-null
    groups.

    One key-hash exchange co-locating each group's values, then one
    vectorized pandas pass (two grouped quantiles; deviations computed
    in place). Nulls are ignored as SQL aggregates do.
    """
    def mad(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop(columns=["part"])
        grp = g.groupby(group, sort=False)[value_col]
        med = grp.transform("median")
        dev = (g[value_col] - med).abs()
        out = pd.DataFrame(
            {
                "n": grp.count(),
                "median": grp.median(),
                "mad": dev.groupby(g[group], sort=False).median(),
            }
        ).reset_index()
        out["n"] = out["n"].astype(np.int64)
        return out

    return by_partition(
        ds.select_columns([group, value_col]), group, mad,
        num_parts=num_parts,
    )


def grouped_trimmed_mean(
    ds,
    keys: str | list[str],
    col: str,
    trim: float = 0.1,
    scale: int = 100,
    num_parts: int | None = None,
):
    """Per-group COUNT-based trimmed mean: drop the floor(trim * n)
    smallest and largest OBSERVATIONS (ties resolved by position in
    the sorted order, the classic estimator -- value-based clamping is
    ``winsorize``) and average the middle on exact integer cents, so
    the one division matches SQL bit-for-bit. Emits (keys..., n,
    n_trimmed, trimmed_mean, mean) -- the raw mean rides along for
    contrast. Groups with n - 2*floor(trim*n) < 1 emit NaN means.

    Scale shape: same co-locating ``hash % num_parts`` exchange as
    grouped_quantiles (exact order statistics need the group's values
    together; see histogram_quantiles for the too-wide-group path)."""
    kcols = [keys] if isinstance(keys, str) else list(keys)
    if not (0.0 <= trim < 0.5):
        raise ValueError("trim must be in [0, 0.5)")

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for kv, gg in g.groupby(kcols, sort=True):
            c = np.sort(
                np.rint(gg[col].to_numpy(dtype=np.float64) * scale).astype(
                    np.int64
                )
            )
            n = len(c)
            cut = int(np.floor(trim * n))
            mid = c[cut: n - cut]
            tm = (
                float(mid.sum()) / (scale * len(mid)) + 1e-7
                if len(mid)
                else np.nan
            )
            mn = float(c.sum()) / (scale * n) + 1e-7
            key_vals = kv if isinstance(kv, tuple) else (kv,)
            rows.append(
                (*key_vals, n, len(mid),
                 np.sign(tm) * np.floor(np.abs(tm) * 1e6 + 0.5) / 1e6,
                 np.sign(mn) * np.floor(np.abs(mn) * 1e6 + 0.5) / 1e6)
            )
        return pd.DataFrame(
            rows, columns=kcols + ["n", "n_trimmed", "trimmed_mean", "mean"]
        ).astype({"n": np.int64, "n_trimmed": np.int64})

    return by_partition(
        ds.select_columns(kcols + [col]), kcols, per_part,
        num_parts=num_parts,
    )
