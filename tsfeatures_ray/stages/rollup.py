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
that co-locates each conversation (the flagship and resumable runs), in
one sorted numpy pass with no pandas sort or groupby. ``rollup()`` and
``merge_rollups()`` keep the pandas partial/merge: their values need not
be integers, and then pandas' compensated groupby sum decides the bits.

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
from .pack import _pack_tiers, _series_layout


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
    # presorted=True keeps an input already ordered by (key, ts,
    # *order): turn_rollup_fn's order, its reference in the tests
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
    """Densify bucket ranges per (key, tier): each tier's missing
    buckets, found by offset arithmetic over its rows in (key,
    bucket_us) order (``pack._series_layout``), appended as ``filled``
    rows by (key, bucket_us), tiers in ``tier_widths`` order -- no
    per-key Python loop."""
    key = spec.key
    tier, conv, buck = (merged[c].to_numpy() for c in ("tier", key, "bucket_us"))
    pieces = [merged.assign(filled=False)]
    for tname, w in tier_widths.items():
        sub = np.flatnonzero(tier == tname)
        if len(sub) == 0:
            continue
        sub = sub[np.lexsort((buck[sub], pd.factorize(conv[sub], sort=True)[0]))]
        first, nb, pos = _series_layout(conv[sub], buck[sub], w)
        hole = np.ones(int(nb.sum()), dtype=bool)
        hole[pos] = False
        at = np.flatnonzero(hole)  # dense positions with no real row
        if len(at) == 0:
            continue
        ends = np.cumsum(nb)
        series = np.searchsorted(ends, at, side="right")  # of each gap
        head = sub[first[series]]  # that series' first row
        gaps = pd.DataFrame({
            key: conv[head],
            "bucket_us": buck[head] + (at - (ends - nb)[series]) * w,
        })
        gaps = gaps.assign(tier=tname, filled=True)
        for col in spec.agg_cols:
            gaps[col] = 0 if col.endswith("_count") else np.nan
        pieces.append(gaps)
    return pd.concat(pieces, ignore_index=True)


def _finish(merged: pd.DataFrame, gapfill: bool, tier_widths: dict[str, int],
            spec: RollupSpec, keep_ord: bool = False) -> pd.DataFrame:
    """A merged rollup frame (one row per (key, tier, bucket)) in its
    output form: gap rows appended (or every row marked real), the
    ``bucket`` timestamp, pinned dtypes and the column order."""
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
    cols = [spec.key, "tier", "bucket", "bucket_us"] + spec.agg_cols + ["filled"]
    if keep_ord:
        cols += ["last_ord_ts", "last_ord_tie"]
    return merged[cols]


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
        return _finish(merged, gapfill, tier_widths, spec, keep_ord)

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


def _segment_aggs(v: np.ndarray, starts: np.ndarray) -> dict:
    """count/sum/min/max/last of ``v`` over the contiguous segments
    beginning at ``starts`` (ascending, non-empty segments), with
    pandas' groupby rules: NaN is skipped, sum is NaN where count is 0,
    last is the last non-NaN value. The values are integers held in
    float64 (token lengths, timestamp differences) below 2^53, so every
    partial sum is exact and the summation order cannot change a bit."""
    v = np.asarray(v, dtype=np.float64)
    ok = ~np.isnan(v)
    count = np.add.reduceat(ok, starts, dtype=np.int64)
    total = np.add.reduceat(np.where(ok, v, 0.0), starts)
    total[count == 0] = np.nan
    at = np.maximum.reduceat(np.where(ok, np.arange(len(v)), -1), starts)
    return {
        "count": count,
        "sum": total,
        "min": np.fmin.reduceat(v, starts),
        "max": np.fmax.reduceat(v, starts),
        "last": np.where(at >= 0, v[at], np.nan),
    }


def _rollup_frame(segs: dict, gapfill: bool, spec: RollupSpec) -> pd.DataFrame:
    """``_final_merge``'s output from per-tier segment columns (tier name
    -> columns, rows by (conv_id, bucket_us), ``_ord`` = the
    conversation's rank): real rows by (conv_id, tier name, bucket_us),
    then the gap rows of ``_gapfill_partition``."""
    names = list(segs)
    sizes = [len(segs[t]["_ord"]) for t in names]
    rank = {t: i for i, t in enumerate(sorted(names))}
    order = np.lexsort((np.repeat([rank[t] for t in names], sizes),
                        np.concatenate([segs[t]["_ord"] for t in names])))
    merged = pd.DataFrame({spec.key: np.concatenate([segs[t][spec.key] for t in names])[order],
                           "tier": np.repeat(np.array(names, dtype=object), sizes)[order]})
    for c in ["bucket_us"] + spec.agg_cols:
        merged[c] = np.concatenate([segs[t][c] for t in names])[order]
    return _finish(merged, gapfill, {t: TIERS[t].bucket_us for t in names}, spec)


def turn_rollup_fn(
    tiers: list[str] | None = None,
    gapfill: bool = False,
    pack_metrics: str | list[str] | None = None,
):
    """Partition function of the flagship's single exchange. Over one
    co-located partition of raw turns (conv_id, turn_idx, ts,
    token_len) it computes the EXACT rollup in one sorted numpy pass --
    the partition holds complete conversations, so no partial/merge
    split is needed -- and, with ``pack_metrics``, packs the series to
    list<double> rows instead of emitting rollup rows.

    The pass: ``_latency_per_partition``'s one stable lexsort by
    (conv_id, ts, turn_idx) and latency diff; per tier, segments start
    where (conv_id, bucket) changes (bucket is monotone in ts within a
    conversation, so each (conv_id, bucket) is one contiguous run);
    count/sum/min/max by ``reduceat`` and ``last`` as the last non-NaN
    row of the segment; gap-fill and pack by offset arithmetic over the
    segments (``pack._series_layout``).

    Rows and dtypes equal derive -> ``rollup()`` (its
    ``_partial_agg``/``_final_merge``) over the same turns, in the same
    order: real rows by (conv_id, tier name, bucket_us), then each
    tier's gap rows by (conv_id, bucket_us), tiers in ``tiers`` order.

    ``rollup_pipeline`` and ``feature_pipeline`` hand it to
    ``by_partition``; the resumable run applies it to each sunk
    ``derived/part=<p>``. Partitioning assumption (SURVEY.md §2
    custom-operator rule): every row of a conversation is in the
    partition."""
    tier_objs = [TIERS[t] for t in (tiers or list(TIERS))]
    metrics = [pack_metrics] if isinstance(pack_metrics, str) else pack_metrics
    spec = DEFAULT_SPEC

    def fn(g: pd.DataFrame):
        g = _latency_per_partition(g)
        conv = g[spec.key].to_numpy()
        new_conv = np.ones(len(conv), dtype=bool)
        new_conv[1:] = conv[1:] != conv[:-1]
        conv_ord = np.cumsum(new_conv) - 1
        ts_us = ts_to_us(g[spec.ts]).to_numpy()
        vals = {pref: g[col].to_numpy() for col, pref in spec.values.items()}
        segs = {}  # tier name -> its rollup columns, rows by (conv, bucket)
        for t in tier_objs:
            bucket = ts_us - ts_us % t.bucket_us
            seg = new_conv.copy()
            seg[1:] |= bucket[1:] != bucket[:-1]
            starts = np.flatnonzero(seg)
            cols = {spec.key: conv[starts], "bucket_us": bucket[starts],
                    "_ord": conv_ord[starts]}
            for pref, v in vals.items():
                for agg, col in _segment_aggs(v, starts).items():
                    cols[f"{pref}_{agg}"] = col
            segs[t.name] = cols
        if metrics is not None:
            return _pack_tiers(
                [(name, segs[name][spec.key], segs[name]["bucket_us"], segs[name])
                 for name in TIERS if name in segs],
                metrics,
            )
        return _rollup_frame(segs, gapfill, spec)

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
