"""Output checks, run outside the timed region.

The rollup is recomputed by DuckDB over the raw turns; feature rows are
recomputed one series at a time with the engine's reference-path
``compute_features``; every Gorilla block is decoded and compared with
the rollup values it came from. Each check returns a list of failure
messages (empty when the output is right)."""

from __future__ import annotations

import hashlib
import os

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

TIER_US = {"1m": 60_000_000, "1h": 3_600_000_000, "1d": 86_400_000_000}
TIER_FREQ = {"1m": 60, "1h": 24, "1d": 1}
_UNITS = {"1m": "minute", "1h": "hour", "1d": "day"}
AGG_COLS = [f"{p}_{a}" for p in ("token_len", "latency")
            for a in ("count", "sum", "min", "max", "last")]
FEATURE_TOL = 1e-6  # the reference's tolerance

_ORACLE = """
WITH raw AS ({raw}),
turns AS (
    SELECT conv_id, turn_idx, ts, CAST(length(text) AS BIGINT) AS token_len,
           date_diff('microsecond',
                     lag(ts) OVER (PARTITION BY slice, conv_id ORDER BY ts, turn_idx),
                     ts) AS latency_us
    FROM raw
)
{tiers}
ORDER BY conv_id, tier, bucket_us
"""
_TIER_SQL = """
SELECT conv_id, '{tier}' AS tier, epoch_us(date_trunc('{unit}', ts)) AS bucket_us,
       COUNT(*) AS token_len_count, SUM(token_len) AS token_len_sum,
       MIN(token_len) AS token_len_min, MAX(token_len) AS token_len_max,
       arg_max(token_len, turn_idx) AS token_len_last,
       COUNT(latency_us) AS latency_count, SUM(latency_us) AS latency_sum,
       MIN(latency_us) AS latency_min, MAX(latency_us) AS latency_max,
       max_by(latency_us, turn_idx) FILTER (latency_us IS NOT NULL) AS latency_last
FROM turns GROUP BY 1, 3
"""


def _same(g, w) -> np.ndarray:
    g = np.asarray(g, dtype="float64")
    w = np.asarray(w, dtype="float64")
    return (g == w) | (np.isnan(g) & np.isnan(w))


def _close(g, w) -> np.ndarray:
    g = np.asarray(g, dtype="float64")
    w = np.asarray(w, dtype="float64")
    return np.isclose(g, w, rtol=FEATURE_TOL, atol=FEATURE_TOL) | (np.isnan(g) & np.isnan(w))


def oracle_rollup(raw_paths: list[str]) -> pd.DataFrame:
    """Exact 3-tier rollup of the raw turns; latency is derived within
    each input file, the way the engine derives each ingested slice."""
    raw = " UNION ALL ".join(
        f"SELECT conv_id, turn_idx, ts, text, {i} AS slice FROM read_parquet('{p}')"
        for i, p in enumerate(raw_paths))
    tiers = " UNION ALL ".join(_TIER_SQL.format(tier=t, unit=u) for t, u in _UNITS.items())
    con = duckdb.connect()
    try:
        return con.sql(_ORACLE.format(raw=raw, tiers=tiers)).df()
    finally:
        con.close()


def rollup_vs_duckdb(roll: pd.DataFrame, raw_paths: list[str], gapfilled: bool) -> list[str]:
    fails = []
    want = oracle_rollup(raw_paths)
    got = roll
    if gapfilled:
        fails += _gapfill_ok(roll)
        got = roll[~roll["filled"].to_numpy(dtype=bool)]
    got = got.sort_values(["conv_id", "tier", "bucket_us"], kind="mergesort").reset_index(drop=True)
    if len(got) != len(want):
        return fails + [f"rollup rows {len(got)} != oracle {len(want)}"]
    for col in ("conv_id", "tier"):
        if not (got[col].to_numpy() == want[col].to_numpy()).all():
            return fails + [f"rollup {col} differs from oracle"]
    for col in ["bucket_us"] + AGG_COLS:
        bad = ~_same(got[col], want[col])
        if bad.any():
            fails.append(f"rollup {col} differs from oracle at {int(bad.sum())} rows")
    return fails


def _gapfill_ok(roll: pd.DataFrame) -> list[str]:
    fails = []
    w = roll["tier"].map(TIER_US).to_numpy()
    g = roll.assign(_b=roll["bucket_us"].to_numpy() // w)
    span = g.groupby(["conv_id", "tier"])["_b"].agg(["min", "max", "count"])
    if not ((span["max"] - span["min"] + 1) == span["count"]).all():
        fails.append("gap-filled rollup is not dense per (conv_id, tier)")
    filled = roll[roll["filled"].to_numpy(dtype=bool)]
    if not ((filled["token_len_count"] == 0).all() and filled["token_len_sum"].isna().all()):
        fails.append("gap rows carry observations")
    return fails


def blocks_match(blocks: pd.DataFrame, roll: pd.DataFrame) -> list[str]:
    """Every block decodes exactly to its series' rollup values, and no
    (conv_id, tier) has two blocks."""
    from tsfeatures_ray.stages.compress import decode_block

    fails = []
    if blocks.duplicated(["conv_id", "tier"]).any():
        fails.append("a (conv_id, tier) appears in more than one block")
    roll = roll.sort_values(["conv_id", "tier", "bucket_us"], kind="mergesort")
    keys = list(zip(roll["conv_id"].to_numpy(), roll["tier"].to_numpy()))
    ts_all = roll["bucket_us"].to_numpy(dtype="int64")
    v_all = roll["token_len_sum"].to_numpy(dtype="float64", na_value=np.nan).view(np.uint64)
    starts = [0] + [i for i in range(1, len(keys)) if keys[i] != keys[i - 1]]
    ends = starts[1:] + [len(keys)]
    where = {keys[s]: (s, e) for s, e in zip(starts, ends)}
    if len(where) != len(blocks):
        fails.append(f"{len(blocks)} blocks for {len(where)} series")
    bad = 0
    for conv, tier, blk in zip(blocks["conv_id"], blocks["tier"], blocks["block"]):
        s, e = where.get((conv, tier), (0, 0))
        ts, vals = decode_block(blk)
        if not (np.array_equal(ts, ts_all[s:e]) and np.array_equal(vals.view(np.uint64), v_all[s:e])):
            bad += 1
    if bad:
        fails.append(f"{bad} blocks do not decode to their rollup values")
    return fails


def _compare_features(rows: pd.DataFrame, series: dict, freq: dict) -> list[str]:
    """Recompute feature rows one series at a time."""
    from tsfeatures_ray.kernels import compute_features
    from tsfeatures_ray.stages.features import DEFAULT_FEATURE_COLS

    ids = [c for c in ("unique_id", "tier", "metric") if c in rows.columns]
    fails = []
    for _, row in rows.iterrows():
        key = tuple(row[c] for c in ids)
        want = compute_features(series[key], freq[key])
        bad = [c for c in DEFAULT_FEATURE_COLS if c in want and not _close(row[c], want[c])]
        if bad:
            fails.append(f"features of {key} differ from compute_features in {bad}")
    return fails


def _sample(feats: pd.DataFrame, seed: int) -> pd.DataFrame:
    rng = np.random.default_rng(seed)
    return feats.iloc[np.sort(rng.choice(len(feats), size=min(12, len(feats)), replace=False))]


def features_vs_rollup(feats: pd.DataFrame, roll: pd.DataFrame, metrics: list[str],
                       seed: int) -> list[str]:
    """Feature rows of the flagship: one per (conv_id, tier, metric),
    each equal to the kernels run on that series densified straight from
    the rollup (gaps -> 0)."""
    n_series = roll.groupby(["conv_id", "tier"]).ngroups * len(metrics)
    fails = []
    if len(feats) != n_series or feats.duplicated(["unique_id", "tier", "metric"]).any():
        fails.append(f"{len(feats)} feature rows for {n_series} series")
    take = _sample(feats, seed)
    series, freq = {}, {}
    for uid, tier, metric in zip(take["unique_id"], take["tier"], take["metric"]):
        sub = roll[(roll["conv_id"] == uid) & (roll["tier"] == tier)]
        b = sub["bucket_us"].to_numpy() // TIER_US[tier]
        dense = np.zeros(int(b.max() - b.min() + 1))
        dense[b - b.min()] = sub[metric].to_numpy(dtype="float64", na_value=0.0)
        series[(uid, tier, metric)] = dense
        freq[(uid, tier, metric)] = TIER_FREQ[tier]
    return fails + _compare_features(take, series, freq)


def pack_panel(panel: pa.Table) -> pa.Table:
    """Long (unique_id, ds, y) panel -> one row per series, y ordered by
    ds, in the engine's packed layout."""
    df = panel.to_pandas().sort_values(["unique_id", "ds"], kind="mergesort")
    uid = df["unique_id"].to_numpy()
    first = np.flatnonzero(np.r_[True, uid[1:] != uid[:-1]])
    counts = np.diff(np.r_[first, len(uid)])
    offsets = np.r_[0, np.cumsum(counts)].astype("int32")
    return pa.table({
        "unique_id": pa.array(uid[first], pa.string()),
        "tier": pa.array(["panel"] * len(first), pa.string()),
        "metric": pa.array(["y"] * len(first), pa.string()),
        "freq": pa.array(np.full(len(first), 12, "int32")),
        "n_buckets": pa.array(counts.astype("int64")),
        "y": pa.ListArray.from_arrays(pa.array(offsets), pa.array(df["y"].to_numpy("float64"))),
    })


def features_vs_panel(feats: pd.DataFrame, panel: pa.Table, seed: int) -> list[str]:
    packed = pack_panel(panel)
    fails = []
    if len(feats) != packed.num_rows or feats["unique_id"].duplicated().any():
        fails.append(f"{len(feats)} feature rows for {packed.num_rows} series")
    ys = dict(zip(packed["unique_id"].to_pylist(), packed["y"].to_pylist()))
    take = _sample(feats.drop(columns=["tier", "metric"], errors="ignore"), seed)
    series = {(u,): np.asarray(ys[u], dtype="float64") for u in take["unique_id"]}
    return fails + _compare_features(take, series, dict.fromkeys(series, 12))


def store_consistent(out: str, roll: pd.DataFrame, base_path: str, lineage: dict,
                     parts: int, now_us: int, decoded_points: int) -> list[str]:
    """rollup_store products agree with the merged store and the raw
    base slice."""
    from tsfeatures_ray.stages.retention import DEFAULT_RETENTION_US
    from tsfeatures_ray.state.lineage import Manifest, read_resumable_output

    fails = []
    live = roll[~roll["filled"].to_numpy(dtype=bool)]
    for tier, name in (("1h", "compact_1h"), ("1d", "compact_1d")):
        got = pq.read_table(os.path.join(out, name)).to_pandas()
        want = live[live["tier"] == tier]
        key = ["conv_id", "bucket_us"]
        got = got.sort_values(key).reset_index(drop=True)
        want = want.sort_values(key).reset_index(drop=True)
        if len(got) != len(want) or not all(_same(got[c], want[c]).all()
                                            for c in ["bucket_us"] + AGG_COLS):
            fails.append(f"compaction to {tier} differs from the direct {tier} rollup")
    expired = np.zeros(len(roll), dtype=bool)
    for tier, horizon in DEFAULT_RETENTION_US.items():
        if horizon is not None:
            expired |= (roll["tier"].to_numpy() == tier) & (roll["bucket_us"].to_numpy() < now_us - horizon)
    kept = pq.read_table(os.path.join(out, "retained")).to_pandas()
    want_keys = set(zip(roll["conv_id"][~expired], roll["tier"][~expired], roll["bucket_us"][~expired]))
    if len(kept) != len(want_keys) or set(zip(kept["conv_id"], kept["tier"], kept["bucket_us"])) != want_keys:
        fails.append("retention kept the wrong rows")
    if not expired.any():
        fails.append("retention expired nothing: the pinned now is wrong")
    if lineage.get("computed") != parts:
        fails.append(f"lineage computed {lineage.get('computed')} of {parts} partitions")
    manifest = Manifest(os.path.join(out, "lineage", "manifest.jsonl")).load()
    if len(manifest) != parts + 1:
        fails.append(f"manifest holds {len(manifest)} records, want {parts + 1}")
    fails += rollup_vs_duckdb(read_resumable_output(os.path.join(out, "lineage")), [base_path],
                              gapfilled=False)
    if decoded_points != len(roll):
        fails.append(f"read-back decoded {decoded_points} points of {len(roll)}")
    return fails


def table_digest(path: str) -> str:
    """Order-independent digest of a Parquet product."""
    df = pq.read_table(path).to_pandas().drop(columns=["part"], errors="ignore")
    key = [c for c in ("conv_id", "unique_id", "tier", "metric", "bucket_us") if c in df.columns]
    df = df.sort_values(key, kind="mergesort").reset_index(drop=True)
    df = df[sorted(df.columns)]
    h = pd.util.hash_pandas_object(df, index=False).to_numpy()
    return hashlib.sha256(h.tobytes()).hexdigest()[:16]
