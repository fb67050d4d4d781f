"""Retention tiers: expiry + compaction (north_rule scope; the reference
has no retention concept -- its panel is recomputed wholesale).

Semantics (TimescaleDB/Gorilla-style continuous-aggregate hierarchy,
re-expressed as batch Ray Data transforms):

- ``compact_tier``: roll a fine tier's rows up into a coarser tier
  EXACTLY -- count/sum summed, min/max folded, and each metric's
  ``last`` taken from the fine bucket with the greatest bucket_us whose
  value is non-null (per-metric source-bucket argmax, carried through
  the partial/merge split so batch boundaries cannot reorder it).
  Exactness is tested against computing the coarse tier directly from
  the raw turns.
- ``apply_retention``: drop fine-tier rows older than their tier's
  retention horizon AFTER compaction has preserved them in the parent
  tier. ``now_us`` is an explicit argument (no wall-clock reads inside
  the pipeline; determinism and resumability require the driver to pin
  it).

Both stages touch rollup rows only (never the raw input).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray

from ..schema import TIERS
from .derive import by_partition
from .rollup import DEFAULT_SPEC, RollupSpec


def _fold(df: pd.DataFrame, key: str, prefixes: list[str]) -> pd.DataFrame:
    """Combine rows per (key, bucket_us): associative fold of the rollup
    aggregates. Expects per-metric ``{p}_lastsrc`` columns (fine bucket
    of the last non-null observation)."""
    gb = df.groupby([key, "bucket_us"], sort=False)
    aggs: dict[str, tuple] = {}
    for p in prefixes:
        aggs[f"{p}_count"] = (f"{p}_count", "sum")
        aggs[f"{p}_sum"] = (f"{p}_sum", "sum")
        aggs[f"{p}_min"] = (f"{p}_min", "min")
        aggs[f"{p}_max"] = (f"{p}_max", "max")
    out = gb.agg(**aggs).reset_index()
    # per-metric last: value at max lastsrc (non-null source buckets only)
    for p in prefixes:
        src = df[f"{p}_lastsrc"].fillna(-1)
        tmp = df.assign(_src=src)
        idx = tmp.groupby([key, "bucket_us"], sort=False)["_src"].idxmax()
        picked = df.loc[idx.to_numpy(), [key, "bucket_us", f"{p}_last", f"{p}_lastsrc"]]
        picked = picked.reset_index(drop=True)
        out[f"{p}_last"] = picked[f"{p}_last"].to_numpy()
        out[f"{p}_lastsrc"] = picked[f"{p}_lastsrc"].to_numpy()
        out.loc[out[f"{p}_count"] == 0, f"{p}_sum"] = np.nan
        out.loc[out[f"{p}_lastsrc"].isna() | (out[f"{p}_lastsrc"] < 0), f"{p}_last"] = np.nan
    return out


def compact_tier(
    rollup_ds: "ray.data.Dataset",
    src_tier: str,
    dst_tier: str,
    spec: RollupSpec = DEFAULT_SPEC,
    num_parts: int | None = None,
) -> "ray.data.Dataset":
    """Fine-tier rollup rows -> coarser-tier rollup rows (exact)."""
    key = spec.key
    w_dst = TIERS[dst_tier].bucket_us
    prefixes = list(spec.values.values())

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["tier"] == src_tier]
        if "filled" in df.columns:
            df = df[~df["filled"]]
        fine = df["bucket_us"].to_numpy()
        g = df.assign(
            _fine=fine, bucket_us=fine - fine % w_dst
        )
        for p in prefixes:
            g[f"{p}_lastsrc"] = np.where(g[f"{p}_last"].notna(), g["_fine"], np.nan)
        return _fold(g, key, prefixes)

    partials = rollup_ds.map_batches(partial, batch_format="pandas")

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        out = _fold(g, key, prefixes)
        out = out.drop(columns=[f"{p}_lastsrc" for p in prefixes])
        out["tier"] = dst_tier
        out["bucket"] = out["bucket_us"].astype("datetime64[us]")
        out["filled"] = False
        for c in out.columns:
            if c.endswith("_count"):
                out[c] = out[c].astype("int64")
        cols = [key, "tier", "bucket", "bucket_us"] + spec.agg_cols + ["filled"]
        return out[cols]

    return by_partition(partials, key, merge, num_parts=num_parts)


DEFAULT_RETENTION_US = {
    "1m": 7 * 86_400_000_000,  # keep 7 days of minute rollups
    "1h": 90 * 86_400_000_000,  # 90 days of hourly
    "1d": None,  # days kept forever
}


def apply_retention(
    rollup_ds: "ray.data.Dataset",
    now_us: int,
    retention_us: dict[str, int | None] | None = None,
) -> "ray.data.Dataset":
    """Filter expired fine-tier rows (vectorized Arrow predicate). The
    caller compacts first (``compact_tier``) so no information is lost;
    this stage only drops."""
    import pyarrow as pa

    ret = retention_us or DEFAULT_RETENTION_US

    def keep(t: pa.Table) -> pa.Table:
        tier = t["tier"].to_numpy(zero_copy_only=False)
        bucket = t["bucket_us"].to_numpy(zero_copy_only=False)
        keep_np = np.ones(len(t), dtype=bool)
        for tname, horizon in ret.items():
            if horizon is None:
                continue
            keep_np &= ~((tier == tname) & (bucket < now_us - horizon))
        return t.filter(pa.array(keep_np))

    return rollup_ds.map_batches(keep, batch_format="pyarrow")
