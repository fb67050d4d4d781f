"""The pandas implementations of the rollup-store operators, kept as the
oracles of the Arrow/numpy segment layer that replaced them
(``tsfeatures_ray/stages/segments.py``): the per-batch rollup partial
and its final merge, the gap-fill, the compaction fold, the Gorilla
block codec's pandas body, the packer's pandas input, derive's latency
and ``tsfeatures()``' pandas long-panel pack (``_pack_long_partition``,
whose frame carries the ``unique_id`` as str and a ``freq`` column, as
its pre-map made them). The function bodies are the replaced code,
with two faults of the replaced code mended where the engine mended
them: the rollup partial orders ns timestamps in their own unit, not by
their microsecond floor, and the compaction fold's "no source bucket"
is -inf, not -1 (a fine bucket may lie before 1970). The module-level
wrappers at the end (``rollup_partition``, ``merge_partition``,
``gapfill_partition``, ``compact_partition``) are the partition
functions the operators ran, with the Dataset plumbing taken out, and
``BlockCodec`` is the replaced class whole (its ``encode_block`` is the
engine's)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from tsfeatures_ray.schema import TIERS, Tier
from tsfeatures_ray.stages._util import ts_to_us
from tsfeatures_ray.stages.compress import encode_block
from tsfeatures_ray.stages.rollup import RollupSpec
from tsfeatures_ray.stages.segments import series_layout as _series_layout

PACKED_SCHEMA = pa.schema(
    [
        ("unique_id", pa.string()),
        ("tier", pa.string()),
        ("metric", pa.string()),
        ("freq", pa.int32()),
        ("n_buckets", pa.int64()),
        ("y", pa.list_(pa.float64())),
    ]
)


# --- derive.py ---------------------------------------------------------------

def _latency_per_partition(g: pd.DataFrame) -> pd.DataFrame:
    """``g`` in stable (conv_id, ts, turn_idx) order, plus ``latency_us``
    = ts - the previous ts of the same conversation (NaN on its first
    turn), in the integer unit ``ts`` holds. One ``np.lexsort`` and one
    ``np.diff``: derive_turn_metrics and the flagship rollup
    (``turn_rollup_fn``) both run it."""
    conv = pd.factorize(g["conv_id"].to_numpy(), sort=True)[0]
    ts = g["ts"].astype("int64").to_numpy()
    order = np.lexsort((g["turn_idx"].to_numpy(), ts, conv))
    g = g.take(order)
    conv, ts = conv[order], ts[order]
    first = np.ones(len(conv), dtype=bool)
    first[1:] = conv[1:] != conv[:-1]
    # plain float64 (NaN for turn 0), NOT pandas' masked-Int64 extension
    # dtype: extension arrays serialize differently from Arrow primitives
    # and break value-hash comparison at the contract boundary
    lat = np.diff(ts, prepend=ts[:1]).astype("float64")
    lat[first] = np.nan
    g["latency_us"] = lat
    return g


# --- rollup.py ---------------------------------------------------------------

def _partial_one_tier(df: pd.DataFrame, tier: Tier, spec: RollupSpec) -> pd.DataFrame:
    w = tier.bucket_us
    g = df.assign(bucket_us=df["ts_us"] - df["ts_us"] % w)
    # sort so 'last' within each (key, bucket) is the max ordering key,
    # ts in its own unit (two ns timestamps may share a microsecond)
    g = g.sort_values(
        [spec.key, "bucket_us", spec.ts, *spec.order], kind="mergesort"
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


def _partial_agg(tiers: list[Tier], spec: RollupSpec):
    cols = [spec.key, spec.ts, *spec.order, *spec.values]

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        df = batch[cols].copy()
        df["ts_us"] = ts_to_us(df[spec.ts])
        return pd.concat(
            [_partial_one_tier(df, t, spec) for t in tiers],
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



# --- retention.py ------------------------------------------------------------

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
    # per-metric last: value at max lastsrc (non-null source buckets only;
    # a fine bucket may lie before 1970, so "none" is -inf, not -1)
    for p in prefixes:
        src = df[f"{p}_lastsrc"].fillna(-np.inf)
        tmp = df.assign(_src=src)
        idx = tmp.groupby([key, "bucket_us"], sort=False)["_src"].idxmax()
        picked = df.loc[idx.to_numpy(), [key, "bucket_us", f"{p}_last", f"{p}_lastsrc"]]
        picked = picked.reset_index(drop=True)
        out[f"{p}_last"] = picked[f"{p}_last"].to_numpy()
        out[f"{p}_lastsrc"] = picked[f"{p}_lastsrc"].to_numpy()
        out.loc[out[f"{p}_count"] == 0, f"{p}_sum"] = np.nan
        out.loc[out[f"{p}_lastsrc"].isna(), f"{p}_last"] = np.nan
    return out


# --- pack.py -----------------------------------------------------------------

def _pack_tiers(tiers, metrics: list[str]) -> pa.Table:
    """PACKED_SCHEMA rows from ``tiers``: (tier name, conv ids,
    bucket_us, {metric: values}) per tier, each tier's rows sorted by
    (conv_id, bucket_us), one row per bucket. Every series is densified
    over its bucket range; gaps and NaN values are 0.0."""
    uid_out, tier_out, metric_out, freq_out, n_out = [], [], [], [], []
    offsets = [0]
    chunks = []
    for tname, conv, buck, vals in tiers:
        if len(conv) == 0:
            continue
        tier = TIERS[tname]
        first, nb, pos = _series_layout(conv, buck, tier.bucket_us)
        for metric in metrics:
            v = np.asarray(vals[metric], dtype=np.float64)
            dense = np.zeros(int(nb.sum()))
            dense[pos] = np.where(np.isnan(v), 0.0, v)
            chunks.append(dense)
            base = offsets[-1]
            offsets.extend((base + np.cumsum(nb)).tolist())
            uid_out.extend(conv[first].tolist())
            tier_out.extend([tname] * len(first))
            metric_out.extend([metric] * len(first))
            freq_out.extend([tier.freq] * len(first))
            n_out.extend(nb.tolist())
    values = np.concatenate(chunks) if chunks else np.empty(0)
    y = pa.ListArray.from_arrays(
        pa.array(offsets, type=pa.int32()), pa.array(values, type=pa.float64())
    )
    table = pa.Table.from_arrays(
        [
            pa.array(uid_out, type=pa.string()),
            pa.array(tier_out, type=pa.string()),
            pa.array(metric_out, type=pa.string()),
            pa.array(freq_out, type=pa.int32()),
            pa.array(n_out, type=pa.int64()),
            y,
        ],
        schema=PACKED_SCHEMA,
    )
    # fixed PCG64 row permutation. It once evened the cost mix of the
    # feature stage's block slices; no slice depends on it any more, and
    # it stays only so the committed raw digests of the feature outputs
    # hold until the feature fixtures are next re-recorded
    perm = np.random.Generator(np.random.PCG64(42)).permutation(len(table))
    return table.take(pa.array(perm))


def _pack_partition(metrics):
    """Partition function packing rollup rows (any tiers, any order)."""
    if isinstance(metrics, str):
        metrics = [metrics]

    def fn(g: pd.DataFrame) -> pa.Table:
        tier = g["tier"].to_numpy()
        conv = g["conv_id"].to_numpy()
        buck = g["bucket_us"].to_numpy().astype(np.int64)
        vals = {m: g[m].to_numpy() for m in metrics}
        tiers = []
        for tname in TIERS:
            sub = np.flatnonzero(tier == tname)
            sub = sub[np.lexsort((buck[sub], pd.factorize(conv[sub], sort=True)[0]))]
            tiers.append((tname, conv[sub], buck[sub], {m: v[sub] for m, v in vals.items()}))
        return _pack_tiers(tiers, metrics)

    return fn


# --- flagship.py: tsfeatures()' long-panel pack (long_to_wide had a copy) ----

def _pack_long_partition(g: pd.DataFrame) -> pa.Table:
    """Pack a partition of a long panel (unique_id, ds, y) into wide rows.

    Per-group row order follows ``ds`` (stable sort), matching the
    reference's reliance on pandas-groupby order preservation
    (tsfeatures.py:971; SURVEY.md §2.7 ordering note)."""
    g = g.sort_values(["unique_id", "ds"], kind="mergesort")
    uid = g["unique_id"].astype(str).to_numpy()
    yv = g["y"].to_numpy(dtype="float64")
    first = np.flatnonzero(np.r_[True, uid[1:] != uid[:-1]])
    counts = np.diff(np.r_[first, len(uid)])
    freq = g["freq"].to_numpy()[first].astype("int32")
    offsets = np.r_[0, np.cumsum(counts)].astype("int32")
    y = pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()),
                                 pa.array(yv, type=pa.float64()))
    return pa.Table.from_arrays(
        [
            pa.array(uid[first], type=pa.string()),
            pa.array(["-"] * len(first), type=pa.string()),
            pa.array(["y"] * len(first), type=pa.string()),
            pa.array(freq, type=pa.int32()),
            pa.array(counts, type=pa.int64()),
            y,
        ],
        schema=PACKED_SCHEMA,
    )


# --- the operators' partition functions -----------------------------------------

def rollup_partition(g: pd.DataFrame, tiers: list[str] | None, spec: RollupSpec,
                     gapfill: bool = False, keep_ord: bool = False) -> pd.DataFrame:
    """``rollup()``'s work over one frame: its per-batch partial (the
    frame as one batch), then the final merge."""
    tier_objs = [TIERS[t] for t in (tiers or list(TIERS))]
    widths = {t.name: t.bucket_us for t in tier_objs}
    return _final_merge(gapfill, widths, spec, keep_ord)(_partial_agg(tier_objs, spec)(g))


def merge_partition(g: pd.DataFrame, tiers: list[str] | None, spec: RollupSpec,
                    gapfill: bool = False, keep_ord: bool = False) -> pd.DataFrame:
    """``merge_rollups()``'s partition function over keep_ord rollup rows."""
    widths = {t: TIERS[t].bucket_us for t in (tiers or list(TIERS))}
    g = g.drop(columns=["bucket", "filled"], errors="ignore")
    return _final_merge(gapfill, widths, spec, keep_ord)(g)


def gapfill_partition(g: pd.DataFrame, spec: RollupSpec) -> pd.DataFrame:
    """``gapfill_rollup()``'s partition function."""
    tier_widths = {t.name: t.bucket_us for t in TIERS.values()}
    cols = [spec.key, "tier", "bucket", "bucket_us"] + spec.agg_cols + ["filled"]
    out = _gapfill_partition(
        g.drop(columns=["filled", "bucket", "part"], errors="ignore"), tier_widths, spec
    )
    out["bucket"] = out["bucket_us"].astype("datetime64[us]")
    return out[cols]


def compact_partition(df: pd.DataFrame, src_tier: str, dst_tier: str,
                      spec: RollupSpec) -> pd.DataFrame:
    """``compact_tier()``'s partition function: the real ``src_tier``
    rows folded per (key, ``dst_tier`` bucket) in the frame's order, each
    metric's ``last`` at its latest non-null fine bucket; rows by (key,
    bucket_us)."""
    key = spec.key
    w_dst = TIERS[dst_tier].bucket_us
    prefixes = list(spec.values.values())
    df = df[df["tier"] == src_tier]
    if "filled" in df.columns:
        df = df[~df["filled"]]
    fine = df["bucket_us"].to_numpy()
    g = df.assign(bucket_us=fine - fine % w_dst)
    for p in prefixes:
        g[f"{p}_lastsrc"] = np.where(g[f"{p}_last"].notna(), fine, np.nan)
    out = _fold(g, key, prefixes)
    out = out.drop(columns=[f"{p}_lastsrc" for p in prefixes])
    out["tier"] = dst_tier
    out["bucket"] = out["bucket_us"].astype("datetime64[us]")
    out["filled"] = False
    for c in out.columns:
        if c.endswith("_count"):
            out[c] = out[c].astype("int64")
    cols = [key, "tier", "bucket", "bucket_us"] + spec.agg_cols + ["filled"]
    return out[cols].sort_values([key, "bucket_us"], kind="mergesort")


class BlockCodec:
    """Actor-pool stage: one compressed block per (key, tier) from rollup
    rows (metric picked at construction)."""

    def __init__(self, key: str = "conv_id", metric: str = "token_len_sum"):
        self.key = key
        self.metric = metric

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([self.key, "tier", "bucket_us"], kind="mergesort")
        keys = g[self.key].to_numpy()
        tiers = g["tier"].to_numpy()
        ts_all = g["bucket_us"].to_numpy(dtype="int64")
        vals_all = g[self.metric].to_numpy(dtype="float64", na_value=np.nan)
        # group boundaries without pandas-groupby overhead
        change = (keys[1:] != keys[:-1]) | (tiers[1:] != tiers[:-1])
        starts = np.concatenate([[0], np.flatnonzero(change) + 1])
        ends = np.concatenate([starts[1:], [len(g)]])
        out = []
        for s0, e0 in zip(starts, ends):
            ts = ts_all[s0:e0]
            blk = encode_block(ts, vals_all[s0:e0])
            out.append((keys[s0], tiers[s0], e0 - s0, int(ts[0]), blk))
        return pd.DataFrame(
            out, columns=[self.key, "tier", "n_points", "start_ts_us", "block"]
        )
