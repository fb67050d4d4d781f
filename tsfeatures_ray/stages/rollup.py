"""Stage 2: continuous aggregates (rollups) at 1m/1h/1d retention tiers.

Scalable shape (SURVEY.md §7 step 3): the full input is NEVER
re-shuffled. A stateless ``map_batches`` computes PARTIAL aggregates per
(key, tier, bucket) inside each batch -- count/sum/min/max are
associative, and ``last`` carries its ordering key (e.g. (ts, turn_idx))
so partials merge exactly (merge-on-read). Only the partials (orders of
magnitude smaller than the input) go through the final
``by_partition`` merge, which also gap-fills each key's bucket range
when asked. Input that is raw turns skips the partial step:
``turn_rollup_fn`` computes the exact rollup inside the one exchange
that co-locates each conversation (the flagship and resumable runs).

This replaces the reference's single-shot in-memory pandas aggregation
model (reference tsfeatures.py:970-976 materializes the whole panel on
the driver); at 10^12 rows the partial/merge split keeps the shuffle
tractable, and a salted/split hot key is safe because partials merge
associatively.

The operator is generic over (key, ordering columns, value columns):
the transcript pipeline uses (conv_id, [ts, turn_idx],
{token_len, latency_us->latency}); the events pipeline uses
(user_id, [ts, event_id], {value}).

Aggregate semantics (exact, north_rule):
- <v>_count: non-null observations of v in the bucket;
- <v>_sum/min/max: over non-null observations;
- <v>_last: v at the max ordering key among rows where v is non-null;
- gap rows (gapfill=True): every tier bucket between a key's first and
  last bucket exists; counts are 0, other aggregates NULL, ``filled``
  is true.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

import ray

from ..schema import TIERS, Tier
from ._util import ts_to_us
from .derive import _latency_per_partition, by_partition
from .pack import _pack_partition


@dataclass(frozen=True)
class RollupSpec:
    """What to roll up: key column, ordering columns (ts first), and
    value columns mapped to their output prefixes."""

    key: str = "conv_id"
    ts: str = "ts"
    order: tuple[str, ...] = ("turn_idx",)  # tie-breakers after ts
    values: dict = field(
        default_factory=lambda: {"token_len": "token_len", "latency_us": "latency"}
    )

    @property
    def agg_cols(self) -> list[str]:
        out = []
        for pref in self.values.values():
            out += [f"{pref}_{a}" for a in ("count", "sum", "min", "max", "last")]
        return out


DEFAULT_SPEC = RollupSpec()


def _partial_one_tier(
    df: pd.DataFrame, tier: Tier, spec: RollupSpec, presorted: bool = False
) -> pd.DataFrame:
    w = tier.bucket_us
    g = df.assign(bucket_us=df["ts_us"] - df["ts_us"] % w)
    # sort so 'last' within each (key, bucket) is the max ordering key.
    # presorted=True: input already ordered by (key, ts, *order), which
    # equals (key, bucket, ts, *order) because bucket is monotone in ts
    # within a key -- the colocated path skips the 3 per-tier re-sorts
    if not presorted:
        g = g.sort_values(
            [spec.key, "bucket_us", "ts_us", *spec.order], kind="mergesort"
        )
    gb = g.groupby([spec.key, "bucket_us"], sort=False)
    aggs: dict[str, tuple] = {}
    for col, pref in spec.values.items():
        aggs[f"{pref}_count"] = (col, "count")
        aggs[f"{pref}_sum"] = (col, "sum")
        aggs[f"{pref}_min"] = (col, "min")
        aggs[f"{pref}_max"] = (col, "max")
        aggs[f"{pref}_last"] = (col, "last")  # pandas 'last' skips nulls
    aggs["last_ord_ts"] = ("ts_us", "last")
    if spec.order:
        aggs["last_ord_tie"] = (spec.order[0], "last")
    out = gb.agg(**aggs).reset_index()
    if not spec.order:
        out["last_ord_tie"] = 0
    for pref in spec.values.values():
        out.loc[out[f"{pref}_count"] == 0, f"{pref}_sum"] = np.nan
    out["tier"] = tier.name
    return out


def _partial_agg(tiers: list[Tier], spec: RollupSpec, presorted: bool = False):
    cols = [spec.key, spec.ts, *spec.order, *spec.values]

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        df = batch[cols].copy()
        df["ts_us"] = ts_to_us(df[spec.ts])
        return pd.concat(
            [_partial_one_tier(df, t, spec, presorted) for t in tiers],
            ignore_index=True,
        )

    return fn


def _gapfill_partition(
    merged: pd.DataFrame, tier_widths: dict[str, int], spec: RollupSpec
) -> pd.DataFrame:
    """Densify bucket ranges per (key, tier) -- vectorized anti-join, no
    per-key Python loop."""
    key = spec.key
    pieces = [merged.assign(filled=False)]
    for tname, w in tier_widths.items():
        sub = merged[merged["tier"] == tname]
        if len(sub) == 0:
            continue
        spans = sub.groupby(key)["bucket_us"].agg(["min", "max"])
        nb = ((spans["max"] - spans["min"]) // w + 1).astype(np.int64)
        if int(nb.sum()) == len(sub):  # no gaps in this tier
            continue
        conv_rep = np.repeat(spans.index.to_numpy(), nb.to_numpy())
        offs = np.concatenate([np.arange(k, dtype=np.int64) for k in nb.to_numpy()])
        buckets = np.repeat(spans["min"].to_numpy(), nb.to_numpy()) + offs * w
        full = pd.DataFrame({key: conv_rep, "bucket_us": buckets})
        probe = full.merge(
            sub[[key, "bucket_us"]].assign(_hit=1), on=[key, "bucket_us"], how="left"
        )
        gaps = full[probe["_hit"].isna().to_numpy()]
        if len(gaps) == 0:
            continue
        gaps = gaps.assign(tier=tname, filled=True)
        for col in spec.agg_cols:
            gaps[col] = 0 if col.endswith("_count") else np.nan
        pieces.append(gaps)
    return pd.concat(pieces, ignore_index=True)


def _final_merge(gapfill: bool, tier_widths: dict[str, int], spec: RollupSpec,
                 keep_ord: bool = False):
    key = spec.key

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            [key, "tier", "bucket_us", "last_ord_ts", "last_ord_tie"], kind="mergesort"
        )
        gb = g.groupby([key, "tier", "bucket_us"], sort=False)
        aggs: dict[str, tuple] = {}
        for pref in spec.values.values():
            aggs[f"{pref}_count"] = (f"{pref}_count", "sum")
            aggs[f"{pref}_sum"] = (f"{pref}_sum", "sum")
            aggs[f"{pref}_min"] = (f"{pref}_min", "min")
            aggs[f"{pref}_max"] = (f"{pref}_max", "max")
            aggs[f"{pref}_last"] = (f"{pref}_last", "last")
        if keep_ord:
            # carry the ordering key of the winning 'last' row so the
            # OUTPUT itself stays a mergeable partial (incremental
            # ingestion: merge_rollups of two time slices is exact)
            aggs["last_ord_ts"] = ("last_ord_ts", "last")
            aggs["last_ord_tie"] = ("last_ord_tie", "last")
        merged = gb.agg(**aggs).reset_index()
        for pref in spec.values.values():
            merged.loc[merged[f"{pref}_count"] == 0, f"{pref}_sum"] = np.nan
        if gapfill:
            merged = _gapfill_partition(merged, tier_widths, spec)
        else:
            merged = merged.assign(filled=False)
        merged["bucket"] = merged["bucket_us"].astype("datetime64[us]")
        for c in spec.agg_cols:
            if c.endswith("_count"):
                merged[c] = merged[c].astype("int64")
            else:
                # plain float64 (NaN = no observation), never pandas'
                # masked-Int64 extension dtype: extension arrays do not
                # hash/serialize like Arrow primitives at the contract
                # boundary; integer inputs stay exact in float64
                merged[c] = merged[c].astype("float64")
        cols = [key, "tier", "bucket", "bucket_us"] + spec.agg_cols + ["filled"]
        if keep_ord:
            cols += ["last_ord_ts", "last_ord_tie"]
        return merged[cols]

    return fn


def rollup(
    ds: "ray.data.Dataset",
    tiers: list[str] | None = None,
    gapfill: bool = False,
    num_parts: int | None = None,
    spec: RollupSpec = DEFAULT_SPEC,
    salt_window_us: int | None = None,
    keep_ord: bool = False,
) -> "ray.data.Dataset":
    """Keyed stream Dataset -> rollup Dataset at the given tiers.

    ``salt_window_us`` enables SALTED repartitioning for hot keys
    (SURVEY.md §4): the merge partition key becomes
    (key, bucket_us // salt_window_us), so one giant key's
    partials spread across many partitions instead of pinning one
    straggler. Safe because every (key, tier, bucket) group still lands
    intact in exactly one partition and the merge is associative
    (merge-on-read). Gap-fill needs whole-key locality, so with salting
    it must be applied afterwards via ``gapfill_rollup``.
    """
    tier_objs = [TIERS[t] for t in (tiers or list(TIERS))]
    tier_widths = {t.name: t.bucket_us for t in tier_objs}
    if salt_window_us is not None and gapfill:
        raise ValueError(
            "salted rollup cannot gap-fill inline; run gapfill_rollup() after"
        )
    if keep_ord and gapfill:
        raise ValueError("keep_ord rollups cannot gap-fill inline (gap "
                         "rows have no ordering key); gap-fill after the "
                         "final merge_rollups instead")
    partials = ds.map_batches(
        _partial_agg(tier_objs, spec), batch_format="pandas", batch_size=65536
    )
    key = spec.key
    if salt_window_us is not None:
        def salt(df: pd.DataFrame) -> pd.DataFrame:
            df["salted_key"] = (df[spec.key].astype(str) + "@"
                                + (df["bucket_us"] // salt_window_us).astype(str))
            return df

        partials, key = partials.map_batches(salt, batch_format="pandas"), "salted_key"
    return by_partition(
        partials, key, _final_merge(gapfill, tier_widths, spec, keep_ord),
        num_parts=num_parts,
    )


def turn_rollup_fn(
    tiers: list[str] | None = None,
    gapfill: bool = False,
    pack_metrics: str | list[str] | None = None,
):
    """Partition function of the flagship's single exchange. Over one
    co-located partition of raw turns (conv_id, turn_idx, ts,
    token_len) it derives latency, computes the EXACT rollup -- the
    partition holds complete conversations, so the partial aggregation
    is already final and no second partial->merge exchange is needed --
    and, with ``pack_metrics``, packs the series to list<double> rows.

    ``rollup_pipeline`` and ``feature_pipeline`` hand it to
    ``by_partition``; the resumable run applies it to each sunk
    ``derived/part=<p>``. Partitioning assumption (SURVEY.md §2
    custom-operator rule): every row of a conversation is in the
    partition. Rows equal those of derive -> rollup(): the same
    _partial_agg/_final_merge code runs, over whole partitions instead
    of batches."""
    tier_objs = [TIERS[t] for t in (tiers or list(TIERS))]
    tier_widths = {t.name: t.bucket_us for t in tier_objs}
    # the latency derivation leaves the partition sorted by (conv_id,
    # ts, turn_idx), so the per-tier partial sorts are redundant
    partial_fn = _partial_agg(tier_objs, DEFAULT_SPEC, presorted=True)
    merge_fn = _final_merge(gapfill, tier_widths, DEFAULT_SPEC)
    pack_fn = None if pack_metrics is None else _pack_partition(pack_metrics)

    def fn(g: pd.DataFrame):
        out = merge_fn(partial_fn(_latency_per_partition(g)))
        return out if pack_fn is None else pack_fn(out)

    return fn


def merge_rollups(
    *rollups: "ray.data.Dataset",
    tiers: list[str] | None = None,
    gapfill: bool = False,
    num_parts: int | None = None,
    spec: RollupSpec = DEFAULT_SPEC,
    keep_ord: bool = False,
) -> "ray.data.Dataset":
    """Merge rollups produced with ``keep_ord=True`` into one rollup --
    the INCREMENTAL INGESTION shape: yesterday's stored rollup + today's
    slice merge EXACTLY (count/sum/min/max are associative; 'last'
    carries its ordering key), so a 100 TB corpus never recomputes
    history. Exact by construction: each keep_ord rollup row IS a
    partial row of the same shape the per-batch aggregation emits, so
    this reuses the identical partial->merge code path (hash-exact
    equality with a full recompute is pinned by the
    ``rollup_incremental_1h`` driver oracle and pytest)."""
    tier_objs = [TIERS[t] for t in (tiers or list(TIERS))]
    tier_widths = {t.name: t.bucket_us for t in tier_objs}

    def to_partial(df: pd.DataFrame) -> pd.DataFrame:
        if "last_ord_ts" not in df.columns:
            raise ValueError(
                "merge_rollups needs rollups produced with keep_ord=True "
                "(the 'last' aggregate is only mergeable when each row "
                "carries its ordering key)"
            )
        return df.drop(columns=["bucket", "filled"], errors="ignore")

    ds = rollups[0]
    for other in rollups[1:]:
        ds = ds.union(other)
    return by_partition(
        ds.map_batches(to_partial, batch_format="pandas"), spec.key,
        _final_merge(gapfill, tier_widths, spec, keep_ord), num_parts=num_parts,
    )


def gapfill_rollup(
    rollup_ds: "ray.data.Dataset",
    num_parts: int | None = None,
    spec: RollupSpec = DEFAULT_SPEC,
):
    """Densify an existing (sparse) rollup Dataset."""
    tier_widths = {t.name: t.bucket_us for t in TIERS.values()}

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        cols = [spec.key, "tier", "bucket", "bucket_us"] + spec.agg_cols + ["filled"]
        out = _gapfill_partition(
            g.drop(columns=["filled", "bucket", "part"]), tier_widths, spec
        )
        out["bucket"] = out["bucket_us"].astype("datetime64[us]")
        return out[cols]

    return by_partition(rollup_ds, spec.key, fn, num_parts=num_parts)
