"""One-pass table profiling: per-column row/null/distinct counts and
numeric min/max over an arbitrary table -- the data-quality /
schema-drift audit an ingest pipeline runs before anything else.

Shape: every batch reduces each column to (count, nulls, min, max)
scalars plus its batch-DISTINCT value set; ONE hash exchange keyed on
(column, canonical value) merges the distinct sets exactly while the
scalar partials ride the same exchange as one tiny row per (column,
batch). Exchange volume is bounded by per-batch distinct values --
the exact path; for columns where that approaches row count at corpus
scale, the HLL sketch (functions/sketches.py) is the documented
drop-in.

Distinct equality uses a CANONICAL string rendering per value
(repr for float64 -- injective round-trip -- ISO for timestamps), so
engine distinct-over-strings == SQL COUNT(DISTINCT col).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..stages.derive import by_partition


def _canon(s: pd.Series) -> pd.Series:
    if str(s.dtype).startswith("datetime"):
        return s.astype("datetime64[us]").astype("int64").astype(str)
    if s.dtype == np.float64:
        return s.map(repr, na_action="ignore")
    return s.astype(str).where(s.notna())


def profile_table(
    ds: "ray.data.Dataset",
    columns: list[str] | None = None,
    num_parts: int | None = None,
) -> "ray.data.Dataset":
    """Profile ``columns`` (default: all) of a Dataset. Output one row
    per column: ``(column, n:int64, n_nulls:int64, n_distinct:int64,
    vmin:float64, vmax:float64)`` -- vmin/vmax are NaN for non-numeric
    columns (strings/timestamps profile counts + distinct only)."""
    if columns is not None:
        ds = ds.select_columns(columns)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for c in df.columns:
            s = df[c]
            numeric = s.dtype.kind in "if"
            # the scalar partial (one row per column per batch): value=None
            rows.append(
                {
                    "column": c,
                    "value": None,
                    "n": len(s),
                    "n_nulls": int(s.isna().sum()),
                    "vmin": float(s.min()) if numeric and s.notna().any() else np.nan,
                    "vmax": float(s.max()) if numeric and s.notna().any() else np.nan,
                }
            )
            # the distinct partial: one row per batch-distinct value
            for v in _canon(s).dropna().unique():
                rows.append(
                    {"column": c, "value": v, "n": 0, "n_nulls": 0,
                     "vmin": np.nan, "vmax": np.nan}
                )
        out = pd.DataFrame(rows)
        out["__key"] = out["column"] + "\x1f" + out["value"].fillna("\x00")
        return out

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop(columns=["__key", "part"])
        scal = g[g["value"].isna()]
        dist = g[g["value"].notna()]
        agg = scal.groupby("column", sort=False).agg(
            n=("n", "sum"),
            n_nulls=("n_nulls", "sum"),
            vmin=("vmin", "min"),
            vmax=("vmax", "max"),
        )
        nd = dist.groupby("column", sort=False)["value"].nunique()
        cols = sorted(set(agg.index) | set(nd.index))
        out = pd.DataFrame(
            {
                "column": cols,
                "n": [int(agg["n"].get(c, 0)) for c in cols],
                "n_nulls": [int(agg["n_nulls"].get(c, 0)) for c in cols],
                "n_distinct": [int(nd.get(c, 0)) for c in cols],
                "vmin": [float(agg["vmin"].get(c, np.nan)) for c in cols],
                "vmax": [float(agg["vmax"].get(c, np.nan)) for c in cols],
            }
        )
        out["n"] = out["n"].astype(np.int64)
        out["n_nulls"] = out["n_nulls"].astype(np.int64)
        out["n_distinct"] = out["n_distinct"].astype(np.int64)
        return out

    # the same (column, value)-keyed exchange carries BOTH partial kinds,
    # but one partition only sees its hash share -- scalars and distincts
    # for one column may land in DIFFERENT partitions, so a second tiny
    # reduce over the per-partition outputs finishes the merge (input to
    # it is one row per (column, partition): driver-negligible)
    per_part = by_partition(
        ds.map_batches(partial, batch_format="pandas"), "__key", merge,
        num_parts=num_parts,
    )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("column", sort=False).agg(
            n=("n", "sum"),
            n_nulls=("n_nulls", "sum"),
            n_distinct=("n_distinct", "sum"),
            vmin=("vmin", "min"),
            vmax=("vmax", "max"),
        ).reset_index()
        for c in ("n", "n_nulls", "n_distinct"):
            out[c] = out[c].astype(np.int64)
        return out

    # the final fold is over (columns x partitions) rows -- tiny; one
    # single-group exchange keeps it off the driver
    def tag(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(__g=0)

    return (
        per_part.map_batches(tag, batch_format="pandas")
        .groupby("__g")
        .map_groups(lambda d: final(d.drop(columns=["__g"])),
                    batch_format="pandas")
    )


def partition_skew(
    ds,
    key: str,
    num_parts: int = 32,
) -> "ray.data.Dataset":
    """Exchange-skew diagnostic: simulate a ``num_parts``-way hash
    exchange on ``key`` (the shared knuth_hash32 avalanche hash, so the
    DuckDB oracle reproduces the assignment bit-exactly) and report per
    partition: row count, distinct-key count, and the hottest key's row
    count -- the pre-join report that tells you whether a key needs
    salting or a broadcast bypass (see join.skew_join).

    Batches collapse to (part, key, count) partials, one key-bounded
    exchange makes them global, a second tiny groupby reduces to
    ``num_parts`` rows."""
    import pandas as pd

    from .sampling import knuth_hash32

    # the simulated partition travels as "bucket": "part" is the
    # exchange's own tag
    def partial(df: pd.DataFrame) -> pd.DataFrame:
        k = df[key].to_numpy()
        bucket = (
            knuth_hash32(k.astype(np.int64)) % np.uint64(num_parts)
        ).astype(np.int64)
        out = (
            pd.DataFrame({"bucket": bucket, "key": k})
            .groupby(["bucket", "key"], sort=False)
            .size()
            .rename("n")
            .reset_index()
        )
        out["n"] = out["n"].astype(np.int64)
        return out

    def per_key(g: pd.DataFrame) -> pd.DataFrame:
        tot = (
            g.groupby(["bucket", "key"], sort=False)["n"].sum().reset_index()
        )
        out = (
            tot.groupby("bucket", sort=False)["n"]
            .agg(n_rows="sum", n_keys="size", max_key_rows="max")
            .reset_index()
        )
        for c in ("n_rows", "n_keys", "max_key_rows"):
            out[c] = out[c].astype(np.int64)
        return out

    partials = by_partition(
        ds.map_batches(partial, batch_format="pandas"), "key", per_key
    )
    import ray.data as rd

    # keys are disjoint across exchange partitions (the exchange hashes
    # the key), so the per-partition n_keys counts sum without
    # double-counting
    merged = partials.groupby("bucket").aggregate(
        rd.aggregate.Sum("n_rows"),
        rd.aggregate.Sum("n_keys"),
        rd.aggregate.Max("max_key_rows"),
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "part": df["bucket"].astype(np.int64),
                "n_rows": df["sum(n_rows)"].astype(np.int64),
                "n_keys": df["sum(n_keys)"].astype(np.int64),
                "max_key_rows": df["max(max_key_rows)"].astype(np.int64),
            }
        )

    return merged.map_batches(finish, batch_format="pandas")
