"""Statistical data-quality audits: Benford first-digit analysis and a
chi-square test of independence between two categorical columns.

Data-ops operators (no reference analog; the reference's statistical
surface is per-series, tsfeatures/tsfeatures.py): both collapse each
batch to tiny categorical count partials inside map_batches, so the
exchanges are bounded by the category cardinality (9 digits; |A| x |B|
cells) regardless of row count -- the 100 TB shape for whole-table
audits. Formulas and rounding (+1e-7 nudge, 6dp) are pinned identically
in the DuckDB oracles.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def _round6(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64) + 1e-7
    return np.sign(v) * np.floor(np.abs(v) * 1e6 + 0.5) / 1e6


def benford_audit(ds, col: str, scale: int = 100):
    """First-significant-digit distribution of ``col`` (converted to
    exact integers via the repo's cents convention: rint(x * scale))
    against Benford's law. One row per digit 1-9: observed n, expected
    count N * log10(1 + 1/d), and the chi-square contribution
    (n - e)^2 / e. Non-positive values are excluded (they have no
    Benford digit). Leading digits come from exact integer division
    (the oracle reads the first character of the integer's string), so
    no float log is involved in the digit itself."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        v = df[col].to_numpy(dtype=np.float64)
        c = np.rint(v * scale).astype(np.int64)
        c = c[c > 0]
        while (c >= 10).any():
            big = c >= 10
            c[big] //= 10
        out = (
            pd.Series(c, name="digit")
            .value_counts()
            .rename("n")
            .rename_axis("digit")
            .reset_index()
        )
        out["digit"] = out["digit"].astype(np.int64)
        out["n"] = out["n"].astype(np.int64)
        return out

    merged = (
        ds.map_batches(partial, batch_format="pandas")
        .groupby("digit")
        .sum("n")
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("digit")
        n = df["sum(n)"].to_numpy(dtype=np.float64)
        d = df["digit"].to_numpy(dtype=np.float64)
        tot = n.sum()
        e = tot * np.log10(1.0 + 1.0 / d)
        return pd.DataFrame(
            {
                "digit": df["digit"].astype(np.int64),
                "n": df["sum(n)"].astype(np.int64),
                "expected": _round6(e),
                "chi2_contrib": _round6((n - e) ** 2 / e),
            }
        )

    # the merged frame is <= 9 rows; repartition(1) + batch_size=None
    # guarantees finish sees ALL digits in one batch (groupby output
    # block count tracks input blocks, so a bare map_batches could split)
    return merged.repartition(1).map_batches(
        finish, batch_format="pandas", batch_size=None
    )


def chi2_independence(ds, col_a: str, col_b: str):
    """Pearson chi-square test of independence between two categorical
    columns: ONE row (chi2, dof, n). Every (a, b) cell of the DENSE
    contingency table contributes (o - e)^2 / e with
    e = row_total * col_total / n (zero-observation cells included --
    they contribute e). dof = (|A| - 1) * (|B| - 1)."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = (
            df.groupby([col_a, col_b], sort=False)
            .size()
            .rename("n")
            .reset_index()
        )
        out["n"] = out["n"].astype(np.int64)
        return out

    merged = (
        ds.map_batches(partial, batch_format="pandas")
        .groupby([col_a, col_b])
        .sum("n")
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        piv = df.pivot_table(
            index=col_a, columns=col_b, values="sum(n)", fill_value=0,
            aggfunc="sum",
        ).sort_index(axis=0).sort_index(axis=1)
        obs = piv.to_numpy(dtype=np.int64)
        n = obs.sum()
        row = obs.sum(axis=1)
        colt = obs.sum(axis=0)
        e = (np.outer(row, colt)).astype(np.float64) / float(n)
        chi2 = float(((obs - e) ** 2 / e).sum())
        dof = (obs.shape[0] - 1) * (obs.shape[1] - 1)
        return pd.DataFrame(
            {
                "chi2": _round6(np.array([chi2])),
                "dof": np.array([dof], dtype=np.int64),
                "n": np.array([n], dtype=np.int64),
            }
        )

    # |A| x |B| cells; one block so the dense table assembles whole
    return merged.repartition(1).map_batches(
        finish, batch_format="pandas", batch_size=None
    )


def ks_exponential(ds, col: str, num_parts: int | None = None):
    """Distributed one-sample Kolmogorov-Smirnov goodness-of-fit test of
    ``col`` against an exponential with MLE rate (1/mean): ONE row
    (n, mean_value, ks_d) with D = sup_i max(i/n - F(x_i),
    F(x_i) - (i-1)/n). Global ranks come from ``range_scan``'s ordered
    scan (equal values share a partition, and the sup over tied rows is
    attained at the tie's extreme ranks, so tie order cannot change D).
    Null and NaN values are skipped. Only per-partition maxima reach the
    final reduce."""
    import ray.data as rd

    from ..stages.derive import range_scan

    def project(t: pa.Table) -> pa.Table:
        return pa.table({"x": pc.cast(t[col], pa.float64())})

    def local_d(t: pa.Table, before: dict, total: dict, nxt) -> pa.Table:
        n = total["count"]
        x = np.sort(t["x"].to_numpy())
        i = before["count"] + np.arange(1, len(x) + 1, dtype=np.float64)
        f = 1.0 - np.exp(-x / (total["x"] / n))
        return pa.table({"dp": [float(np.max(i / n - f))],
                         "dm": [float(np.max(f - (i - 1) / n))]})

    parts, total = range_scan(ds.map_batches(project, batch_format="pyarrow"), "x",
                              local_d, sums=("x",), num_parts=num_parts)
    n = total["count"]
    if n == 0:
        return rd.from_arrow(
            pa.schema(
                [("n", pa.int64()), ("mean_value", pa.float64()),
                 ("ks_d", pa.float64())]
            ).empty_table()
        )
    mu = total["x"] / n
    m = parts.aggregate(
        rd.aggregate.Max("dp"), rd.aggregate.Max("dm")
    )
    d = max(float(m["max(dp)"]), float(m["max(dm)"]))
    out = pd.DataFrame(
        {
            "n": np.array([n], dtype=np.int64),
            "mean_value": _round6(np.array([mu])),
            "ks_d": _round6(np.array([d])),
        }
    )
    return rd.from_arrow(pa.Table.from_pandas(out))


def _two_group_scan(ds, col, group_col, group_a, group_b, fn, num_parts):
    """Shared front end for the two-sample rank statistics: the rows of
    the two cohorts as (x: float64 ``col``, ga: 1 in ``group_a``) through
    ``range_scan`` on x with the running cohort-a count. Its partition
    id depends on the VALUE only, so every tied value lands in exactly
    one partition -- the invariant that makes per-partition tie handling
    globally exact. Returns (scan Dataset, n_a, n_b)."""
    from ..stages.derive import range_scan

    def project(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_in(t[group_col], pa.array([group_a, group_b])))
        return pa.table({"x": pc.cast(t[col], pa.float64()),
                         "ga": pc.cast(pc.equal(t[group_col], group_a), pa.int64())})

    parts, total = range_scan(ds.map_batches(project, batch_format="pyarrow"), "x", fn,
                              sums=("ga",), num_parts=num_parts)
    return parts, total["ga"], total["count"] - total["ga"]


def mann_whitney_u(
    ds,
    col: str,
    group_col: str,
    group_a: str,
    group_b: str,
    num_parts: int | None = None,
):
    """Distributed Mann-Whitney U rank-sum test between two cohorts of
    ``group_col``: ONE row (n_a, n_b, rank_sum_a, u_a, z) with
    average-rank tie handling and the tie-corrected normal
    approximation (no continuity correction; the oracle pins the same
    formula). Global average ranks come from ``range_scan``'s value-pure
    range partition: ties share a partition by construction, so
    per-partition average ranks + the partition's exclusive row count
    ARE the global average ranks. Null and NaN values are skipped. Only
    (rank_sum_a, sum(t^3 - t)) partials leave each partition."""
    import ray.data as rd

    empty = pa.schema(
        [("n_a", pa.int64()), ("n_b", pa.int64()),
         ("rank_sum_a", pa.float64()), ("u_a", pa.float64()),
         ("z", pa.float64())]
    )

    def local_ranks(t: pa.Table, before: dict, total: dict, nxt) -> pa.Table:
        x = t["x"].to_numpy()
        order = np.argsort(x, kind="mergesort")
        xs, gs = x[order], t["ga"].to_numpy()[order]
        # average ranks within the partition (the global offset applies
        # uniformly because ties never straddle partitions)
        uniq, start = np.unique(xs, return_index=True)
        cnt = np.diff(np.append(start, len(xs)))
        avg = float(before["count"]) + start + (cnt + 1) / 2.0  # 1-based
        ranks = np.repeat(avg, cnt)
        return pa.table({"r1": [float(ranks[gs == 1].sum())],
                         "tie": [float((cnt.astype(np.float64) ** 3 - cnt).sum())]})

    parts, n_a, n_b = _two_group_scan(ds, col, group_col, group_a, group_b,
                                      local_ranks, num_parts)
    if n_a == 0 or n_b == 0:
        return rd.from_arrow(empty.empty_table())
    n = n_a + n_b
    s = parts.aggregate(rd.aggregate.Sum("r1"), rd.aggregate.Sum("tie"))
    r1 = float(s["sum(r1)"])
    tie = float(s["sum(tie)"])
    u_a = r1 - n_a * (n_a + 1) / 2.0
    mu = n_a * n_b / 2.0
    var = n_a * n_b / 12.0 * ((n + 1) - tie / (float(n) * (n - 1)))
    # var == 0 (all values tied): the oracle divides by SQRT(0) -> NULL
    z = (u_a - mu) / np.sqrt(var) if var > 0 else np.nan
    out = pd.DataFrame(
        {
            "n_a": np.array([n_a], dtype=np.int64),
            "n_b": np.array([n_b], dtype=np.int64),
            "rank_sum_a": _round6(np.array([r1])),
            "u_a": _round6(np.array([u_a])),
            "z": _round6(np.array([z])),
        }
    )
    return rd.from_arrow(pa.Table.from_pandas(out))


def ks_two_sample(
    ds,
    col: str,
    group_col: str,
    group_a: str,
    group_b: str,
    num_parts: int | None = None,
):
    """Distributed two-sample Kolmogorov-Smirnov test between two
    cohorts: ONE row (n_a, n_b, ks_d) with D = sup_x |F_a(x) - F_b(x)|.
    Both ECDFs step only at sample points, so the sup is attained at a
    data value; ``range_scan`` gives each partition the per-cohort
    counts of every smaller value, and only the per-partition max gap
    reaches the final reduce. Null and NaN values are skipped."""
    import ray.data as rd

    empty = pa.schema(
        [("n_a", pa.int64()), ("n_b", pa.int64()), ("ks_d", pa.float64())]
    )

    def local_gap(t: pa.Table, before: dict, total: dict, nxt) -> pa.Table:
        n_a = total["ga"]
        n_b = total["count"] - n_a
        x = t["x"].to_numpy()
        order = np.argsort(x, kind="mergesort")
        xs, gs = x[order], t["ga"].to_numpy()[order]
        uniq, start = np.unique(xs, return_index=True)
        stop = np.append(start[1:], len(xs))
        c1 = np.cumsum(gs)[stop - 1]  # cohort-a count up to and incl. each value
        f1 = (before["ga"] + c1) / n_a
        f2 = (before["count"] - before["ga"] + (stop - c1)) / n_b
        return pa.table({"d": [float(np.max(np.abs(f1 - f2)))]})

    parts, n_a, n_b = _two_group_scan(ds, col, group_col, group_a, group_b,
                                      local_gap, num_parts)
    if n_a == 0 or n_b == 0:
        return rd.from_arrow(empty.empty_table())
    m = parts.aggregate(rd.aggregate.Max("d"))
    out = pd.DataFrame(
        {
            "n_a": np.array([n_a], dtype=np.int64),
            "n_b": np.array([n_b], dtype=np.int64),
            "ks_d": _round6(np.array([float(m["max(d)"])])),
        }
    )
    return rd.from_arrow(pa.Table.from_pandas(out))


def mutual_information(ds, col_a: str, col_b: str):
    """Mutual information between two categorical columns in nats, plus
    the marginal entropies and the sqrt-normalized NMI: ONE row
    (mi, h_a, h_b, nmi, n). Same bounded-exchange shape as
    chi2_independence -- per-batch joint-count partials, a |A| x |B|
    groupby merge, and a single-block finish. Zero cells contribute
    zero (lim p->0 of p ln p)."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = (
            df.groupby([col_a, col_b], sort=False)
            .size()
            .rename("n")
            .reset_index()
        )
        out["n"] = out["n"].astype(np.int64)
        return out

    merged = (
        ds.map_batches(partial, batch_format="pandas")
        .groupby([col_a, col_b])
        .sum("n")
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        piv = df.pivot_table(
            index=col_a, columns=col_b, values="sum(n)", fill_value=0,
            aggfunc="sum",
        )
        obs = piv.to_numpy(dtype=np.float64)
        n = obs.sum()
        p = obs / n
        pa_ = p.sum(axis=1, keepdims=True)
        pb_ = p.sum(axis=0, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            term = np.where(p > 0, p * np.log(p / (pa_ * pb_)), 0.0)
            mi = float(term.sum())
            h_a = float(-np.sum(np.where(pa_ > 0, pa_ * np.log(pa_), 0.0)))
            h_b = float(-np.sum(np.where(pb_ > 0, pb_ * np.log(pb_), 0.0)))
        # zero marginal entropy: oracle mi/SQRT(0) -> NULL, mirror NaN
        nmi = (
            mi / np.sqrt(h_a * h_b) if h_a > 0 and h_b > 0 else np.nan
        )
        return pd.DataFrame(
            {
                "mi": _round6(np.array([mi])),
                "h_a": _round6(np.array([h_a])),
                "h_b": _round6(np.array([h_b])),
                "nmi": _round6(np.array([nmi])),
                "n": np.array([int(n)], dtype=np.int64),
            }
        )

    return merged.repartition(1).map_batches(
        finish, batch_format="pandas", batch_size=None
    )


def pareto_abc(
    ds,
    key: str,
    value: str,
    scale: int = 100,
    a_cut: float = 0.8,
    b_cut: float = 0.95,
    num_parts: int | None = None,
):
    """Pareto / ABC analysis: aggregate ``value`` per ``key`` (exact
    integer cents), rank keys by revenue DESCENDING globally, and emit
    each key's cumulative revenue share plus its ABC class (A while
    cum_share <= a_cut, B while <= b_cut, else C). The classic
    concentration report ("which 20% of users drive 80% of value").
    Null and NaN values are skipped before the cents conversion.

    Global descending order without a global sort: ``range_scan``
    range-partitions the per-key aggregate on the (value-pure) negated
    revenue, so ties share a partition, partition 0 holds the largest
    revenue and each partition finishes its own contiguous rank range
    locally from the revenue of the partitions before it. Cumulative
    sums divide exact int64 cents by the exact grand total, so class
    boundaries cannot drift between engine and oracle.

    Ties in revenue order by ``key`` ascending on both sides."""
    import ray.data as rd

    from ..stages.derive import range_scan

    def to_cents(df: pd.DataFrame) -> pd.DataFrame:
        v = df[value].to_numpy(dtype=np.float64)
        keep = ~np.isnan(v)
        c = np.rint(v[keep] * scale).astype(np.int64)
        g = (
            pd.DataFrame({key: df[key].to_numpy()[keep], "c": c})
            .groupby(key, sort=False)["c"]
            .sum()
            .reset_index()
        )
        return g

    agg = (
        ds.map_batches(to_cents, batch_format="pandas")
        .groupby(key)
        .sum("c")
        .map_batches(
            lambda d: d.rename(columns={"sum(c)": "c"}).assign(neg=lambda d: -d["c"]),
            batch_format="pandas",
        )
        .materialize()
    )

    def finish(t: pa.Table, before: dict, total: dict, nxt) -> pa.Table:
        g = t.to_pandas().sort_values(["c", key], ascending=[False, True],
                                      kind="mergesort")
        c = g["c"].to_numpy(dtype=np.int64)
        share = (before["c"] + np.cumsum(c)).astype(np.float64) / float(total["c"])
        abc = np.where(share <= a_cut, "A",
                       np.where(share <= b_cut, "B", "C"))
        sh = share + 1e-7
        return pa.Table.from_pandas(
            pd.DataFrame(
                {
                    key: g[key].to_numpy(),
                    "revenue_cents": c,
                    "cum_share": np.floor(sh * 1e6 + 0.5) / 1e6,
                    "abc": abc,
                }
            ),
            preserve_index=False,
        )

    parts, total = range_scan(agg, "neg", finish, sums=("c",), num_parts=num_parts)
    if total["c"] == 0 or total["count"] == 0:
        # key dtype from the (materialized) aggregate, not hardcoded
        # (_pa_type normalizes pandas-block numpy dtypes to Arrow)
        from .join import _pa_type

        sch = agg.schema()
        key_type = _pa_type(dict(zip(sch.names, sch.types))[key])
        return rd.from_arrow(
            pa.schema(
                [(key, key_type), ("revenue_cents", pa.int64()),
                 ("cum_share", pa.float64()), ("abc", pa.string())]
            ).empty_table()
        )
    return parts


def gini_coefficient(ds, col: str, scale: int = 100):
    """Gini concentration coefficient of ``col`` over all rows: ONE row
    (n, total, gini) with G = 2*sum(i*x_(i)) / (n*sum(x)) - (n+1)/n
    over the ascending order statistics (1-based i). The rank-weighted
    sum is invariant under permutations of tied values, so the same
    ``range_scan`` ordered scan used by the rank tests computes it
    exactly; per-partition partials are one scalar. Null and NaN values
    are skipped before the cents conversion."""
    import ray.data as rd

    from ..stages.derive import range_scan

    def to_cents(t: pa.Table) -> pa.Table:
        v = pc.cast(t[col], pa.float64()).to_numpy()
        return pa.table({"c": np.rint(v[~np.isnan(v)] * scale).astype(np.int64)})

    def partial(t: pa.Table, before: dict, total: dict, nxt) -> pa.Table:
        x = np.sort(t["c"].to_numpy()).astype(np.float64)
        i = float(before["count"]) + np.arange(1, len(x) + 1, dtype=np.float64)
        return pa.table({"rx": [float((i * x).sum())]})

    parts, total = range_scan(ds.map_batches(to_cents, batch_format="pyarrow"), "c",
                              partial, sums=("c",))
    n, total_c = total["count"], total["c"]
    if n == 0 or total_c == 0:  # zero total: Gini undefined, no row
        return rd.from_arrow(
            pa.schema(
                [("n", pa.int64()), ("total", pa.float64()),
                 ("gini", pa.float64())]
            ).empty_table()
        )
    rx = float(parts.aggregate(rd.aggregate.Sum("rx"))["sum(rx)"])
    gini = 2.0 * rx / (n * float(total_c)) - (n + 1) / float(n)
    out = pd.DataFrame(
        {
            "n": np.array([n], dtype=np.int64),
            "total": _round6(np.array([total_c / scale])),
            "gini": _round6(np.array([gini])),
        }
    )
    return rd.from_arrow(pa.Table.from_pandas(out))


def anova_eta2(ds, key: str, cat: str, value: str, num_parts=None):
    """Per-key one-way ANOVA of ``value`` across the levels of ``cat``:
    one row per key with n, n_groups, eta2 (SS_between / SS_total, the
    variance fraction the category explains) and the F statistic.
    Values are treated as integer-valued (rint) so every sum of y and
    y^2 is exact int64 and the decomposition SSB = sum(s_g^2/n_g) -
    S^2/N, SST = sum(y^2) - S^2/N is one pinned float expression.
    Keys with N < 2, a single level, or SST = 0 emit NaN statistics
    (n/n_groups still reported). F is NaN when N = n_groups (zero
    within-group dof).

    Scale shape: per-batch (key, cat) sum partials -- bounded by keys x
    levels per block -- through ONE groupby(key, cat) exchange, then a
    per-key local finish (second tiny exchange on key)."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        yi = np.rint(df[value].to_numpy(dtype=np.float64)).astype(np.int64)
        g = (
            pd.DataFrame(
                {key: df[key], cat: df[cat], "s": yi, "ss": yi * yi, "n": 1}
            )
            .groupby([key, cat], sort=False)
            .agg(s=("s", "sum"), ss=("ss", "sum"), n=("n", "sum"))
            .reset_index()
        )
        return g.astype({"s": np.int64, "ss": np.int64, "n": np.int64})

    merged = (
        ds.map_batches(partial, batch_format="pandas")
        .groupby([key, cat])
        .sum(["s", "ss", "n"])
    )

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for k, gg in g.groupby(key, sort=True):
            n_g = gg["sum(n)"].to_numpy(dtype=np.float64)
            s_g = gg["sum(s)"].to_numpy(dtype=np.float64)
            N = float(n_g.sum())
            S = float(s_g.sum())
            SS = float(gg["sum(ss)"].to_numpy(dtype=np.float64).sum())
            levels = len(gg)
            sst = SS - S * S / N
            eta2 = np.nan
            f = np.nan
            if N >= 2 and levels >= 2 and sst > 0:
                ssb = float((s_g * s_g / n_g).sum()) - S * S / N
                eta2 = ssb / sst
                ssw = sst - ssb
                if N > levels and ssw > 0:
                    f = (ssb / (levels - 1)) / (ssw / (N - levels))
            rows.append((k, int(N), levels, eta2, f))
        out = pd.DataFrame(
            rows, columns=[key, "n", "n_groups", "eta2", "f_stat"]
        ).astype({"n": np.int64, "n_groups": np.int64})
        for c in ("eta2", "f_stat"):
            out[c] = _round6(out[c].to_numpy())
        return out

    return merged.groupby(key).map_groups(finish, batch_format="pandas")


def kaplan_meier(ds, duration_col: str, event_col: str):
    """Kaplan-Meier survival estimator over integer durations with
    right censoring: one row per duration that has at least one
    OBSERVED event -- (t, n_risk, n_events, n_censored,
    survival = prod_{i<=j} (1 - d_i/n_i)). ``event_col`` is 1 for an
    observed event, 0 for censored; censored subjects count as at-risk
    AT their censoring time and leave afterwards (the standard
    convention).

    Scale shape: durations collapse to per-batch (t, event) count
    partials, so the exchange is bounded by the distinct-duration
    count (integer days: a few hundred) regardless of subjects; the
    finish is one block. The survival product is evaluated as
    exp(cumsum(ln(1 - d/n))) ascending in t -- the same expression and
    order as the oracle's EXP(SUM(LN(...)) OVER (ORDER BY t))."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = (
            pd.DataFrame(
                {
                    "t": df[duration_col].to_numpy().astype(np.int64),
                    "e": df[event_col].to_numpy().astype(np.int64),
                    "n": 1,
                }
            )
            .groupby(["t", "e"], sort=False)["n"]
            .sum()
            .reset_index()
        )
        return g.astype({"n": np.int64})

    merged = (
        ds.map_batches(partial, batch_format="pandas")
        .groupby(["t", "e"])
        .sum("n")
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {
                    "t": pd.Series([], dtype="int64"),
                    "n_risk": pd.Series([], dtype="int64"),
                    "n_events": pd.Series([], dtype="int64"),
                    "n_censored": pd.Series([], dtype="int64"),
                    "survival": pd.Series([], dtype="float64"),
                }
            )
        piv = (
            df.pivot_table(index="t", columns="e", values="sum(n)",
                           fill_value=0, aggfunc="sum")
            .sort_index()
        )
        d = (
            piv[1].to_numpy(dtype=np.int64)
            if 1 in piv
            else np.zeros(len(piv), dtype=np.int64)
        )
        c = (
            piv[0].to_numpy(dtype=np.int64)
            if 0 in piv
            else np.zeros(len(piv), dtype=np.int64)
        )
        total = d + c
        # at risk at t_j: everyone with duration >= t_j
        n_risk = total[::-1].cumsum()[::-1]
        # terminal drop: once d == n_risk the curve is exactly 0 (and
        # ln(0) never evaluates -- the oracle guards identically)
        dead = np.maximum.accumulate(d >= n_risk)
        frac = np.where(
            d >= n_risk,
            1.0,
            1.0 - d.astype(np.float64) / n_risk.astype(np.float64),
        )
        surv = np.where(dead, 0.0, np.exp(np.cumsum(np.log(frac))))
        keep = d > 0
        s = surv[keep] + 1e-7
        return pd.DataFrame(
            {
                "t": piv.index.to_numpy(dtype=np.int64)[keep],
                "n_risk": n_risk[keep],
                "n_events": d[keep],
                "n_censored": c[keep],
                "survival": np.sign(s)
                * np.floor(np.abs(s) * 1e6 + 0.5) / 1e6,
            }
        )

    return merged.repartition(1).map_batches(
        finish, batch_format="pandas", batch_size=None
    )
