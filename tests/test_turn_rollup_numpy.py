"""The flagship partition function's one sorted numpy pass
(``turn_rollup_fn``) against the pandas rollup it replaced: the pandas
latency derivation (sort_values + shift/diff) -> ``_partial_agg``
(presorted) -> ``_final_merge`` -> the pandas gap-fill, and, with ``pack_metrics``, the
pandas packer over that frame. Frames must be equal raw: values, row
order, index and dtypes."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from tsfeatures_ray.schema import TIERS
from tsfeatures_ray.stages import pack
from tsfeatures_ray.stages._util import ts_to_us
from tsfeatures_ray.stages.derive import _latency_per_partition
from tsfeatures_ray.stages.rollup import (
    DEFAULT_SPEC, _final_merge, _partial_agg, turn_rollup_fn,
)


def _pandas_latency(g: pd.DataFrame) -> pd.DataFrame:
    g = g.sort_values(["conv_id", "ts", "turn_idx"], kind="mergesort")
    ts_us = g["ts"].astype("int64")
    same_conv = g["conv_id"].eq(g["conv_id"].shift())
    lat = ts_us.diff()
    lat[~same_conv] = np.nan
    g["latency_us"] = lat.astype("float64")
    return g


def _pandas_gapfill(merged: pd.DataFrame, widths: dict) -> pd.DataFrame:
    """Gap rows by a groupby span + left anti-join (the pandas gap-fill
    the numpy ``_gapfill_partition`` replaced)."""
    pieces = [merged.assign(filled=False)]
    for tname, w in widths.items():
        sub = merged[merged["tier"] == tname]
        if len(sub) == 0:
            continue
        spans = sub.groupby("conv_id")["bucket_us"].agg(["min", "max"])
        nb = ((spans["max"] - spans["min"]) // w + 1).astype(np.int64)
        if int(nb.sum()) == len(sub):
            continue
        offs = np.concatenate([np.arange(k, dtype=np.int64) for k in nb.to_numpy()])
        full = pd.DataFrame({
            "conv_id": np.repeat(spans.index.to_numpy(), nb.to_numpy()),
            "bucket_us": np.repeat(spans["min"].to_numpy(), nb.to_numpy()) + offs * w,
        })
        probe = full.merge(sub[["conv_id", "bucket_us"]].assign(_hit=1),
                           on=["conv_id", "bucket_us"], how="left")
        gaps = full[probe["_hit"].isna().to_numpy()].assign(tier=tname, filled=True)
        for col in DEFAULT_SPEC.agg_cols:
            gaps[col] = 0 if col.endswith("_count") else np.nan
        pieces.append(gaps)
    return pd.concat(pieces, ignore_index=True)


def _pandas_rollup(g, tiers, gapfill):
    tier_objs = [TIERS[t] for t in (tiers or list(TIERS))]
    widths = {t.name: t.bucket_us for t in tier_objs}
    partial = _partial_agg(tier_objs, DEFAULT_SPEC, presorted=True)
    out = _final_merge(False, widths, DEFAULT_SPEC)(partial(_pandas_latency(g)))
    if gapfill:
        cols = list(out.columns)
        out = _pandas_gapfill(out.drop(columns=["filled", "bucket"]), widths)
        out["bucket"] = out["bucket_us"].astype("datetime64[us]")
        out = out[cols]
    return out


def _pandas_pack(df: pd.DataFrame, metrics) -> pa.Table:
    metrics = [metrics] if isinstance(metrics, str) else metrics
    cols = {c: [] for c in ("unique_id", "tier", "metric", "freq", "n_buckets", "y")}
    for tname, tier in TIERS.items():
        sub = df[df["tier"] == tname].sort_values(["conv_id", "bucket_us"], kind="mergesort")
        if len(sub) == 0:
            continue
        for metric in metrics:
            for conv, s in sub.groupby("conv_id", sort=False):
                b = (s["bucket_us"].to_numpy() - s["bucket_us"].iloc[0]) // tier.bucket_us
                y = np.zeros(int(b[-1]) + 1)
                y[b] = s[metric].to_numpy(dtype="float64", na_value=0.0)
                for c, v in zip(cols, (conv, tname, metric, tier.freq, len(y), y.tolist())):
                    cols[c].append(v)
    table = pa.Table.from_pydict(cols, schema=pack.PACKED_SCHEMA)
    perm = np.random.Generator(np.random.PCG64(42)).permutation(len(table))
    return table.take(pa.array(perm))


def _turns(rng: np.random.RandomState, unit: str) -> pd.DataFrame:
    """One partition of raw turns: conversations of 1-12 turns with
    timestamps before and after 1970, turns sharing a ts, repeated (ts,
    turn_idx) pairs and lulls long enough to leave gap buckets in every
    tier."""
    rows = []
    for c in range(rng.randint(1, 7)):
        n = 1 if rng.rand() < 0.25 else rng.randint(1, 13)
        start = rng.randint(-3 * 86_400, 3 * 86_400) * 1_000_000
        steps = rng.choice([0, 1, 45, 61, 3_700, 90_000], size=n) * 1_000_000
        ts = start + np.cumsum(steps) + rng.randint(0, 1_000_000, size=n)
        turn = np.arange(n)
        same_ts = rng.rand(n) < 0.2  # the previous turn's ts: turn_idx decides
        same_ts[0] = False
        ts[same_ts] = ts[np.flatnonzero(same_ts) - 1]
        tie = rng.rand(n) < 0.2  # the previous row's (ts, turn_idx): input order decides
        tie[0] = False
        ts[tie], turn[tie] = ts[np.flatnonzero(tie) - 1], turn[np.flatnonzero(tie) - 1]
        conv = f"c{rng.randint(0, 50):02d}"  # two conversations may share an id
        for i in range(n):
            rows.append((conv, turn[i], ts[i], rng.randint(0, 400)))
    rng.shuffle(rows)
    df = pd.DataFrame(rows, columns=["conv_id", "turn_idx", "ts", "token_len"])
    ts = df["ts"].to_numpy(np.int64)
    if unit == "ns":
        ts = ts * 1000 + rng.randint(0, 1000, size=len(ts))
    df["ts"] = ts.astype(f"datetime64[{unit}]")
    df["turn_idx"] = df["turn_idx"].astype(np.int32)
    df["part"] = np.int64(3)
    return df


def _empty() -> pd.DataFrame:
    return pd.DataFrame({
        "conv_id": np.array([], dtype=object), "turn_idx": np.array([], np.int32),
        "ts": np.array([], "datetime64[us]"), "token_len": np.array([], np.int64),
        "part": np.array([], np.int64),
    })


TIER_SETS = [None, ["1m"], ["1h", "1d"], ["1d", "1m"], ["1m", "1h", "1d"]]


@pytest.mark.parametrize("seed", range(40))
def test_turn_rollup_equals_pandas_rollup(seed):
    rng = np.random.RandomState(seed)
    g = _turns(rng, "ns" if seed % 3 == 0 else "us")
    if seed % 7 == 0:  # token_len with nulls arrives as float64 with NaN
        g["token_len"] = g["token_len"].astype("float64").where(rng.rand(len(g)) > 0.3)
    tiers = TIER_SETS[seed % len(TIER_SETS)]
    for gapfill in (False, True):
        want = _pandas_rollup(g.copy(), tiers, gapfill)
        got = turn_rollup_fn(tiers, gapfill)(g.copy())
        pd.testing.assert_frame_equal(got, want, check_exact=True)
    metrics = "latency_sum" if seed % 2 else ["token_len_sum", "latency_last", "token_len_count"]
    want = _pandas_pack(_pandas_rollup(g.copy(), tiers, False), metrics)
    got = turn_rollup_fn(tiers, pack_metrics=metrics)(g.copy())
    assert got.equals(want)
    assert pack._pack_partition(metrics)(_pandas_rollup(g.copy(), tiers, True)).equals(want)


def test_generated_partitions_cover_the_edge_cases():
    """The generator above does produce what the equivalence test is
    meant to cover: gap buckets, pre-1970 rows, single-turn
    conversations and repeated (conv_id, ts, turn_idx) keys."""
    seen = {"gaps": 0, "pre1970": 0, "solo": 0, "ties": 0}
    for seed in range(40):
        g = _turns(np.random.RandomState(seed), "us")
        seen["gaps"] += bool(turn_rollup_fn(None, True)(g)["filled"].any())
        seen["pre1970"] += bool((ts_to_us(g["ts"]) < 0).any())
        seen["solo"] += bool((g.groupby("conv_id").size() == 1).any())
        seen["ties"] += bool(g.duplicated(["conv_id", "ts", "turn_idx"]).any())
    assert min(seen.values()) >= 10, seen


@pytest.mark.parametrize("seed", range(10))
def test_gapfill_partition_equals_pandas(seed):
    """The numpy gap-fill that rollup(), merge_rollups() and
    gapfill_rollup() share equals the pandas one, on merged rows in any
    order (gapfill_rollup hands it unsorted partitions)."""
    from tsfeatures_ray.stages.rollup import _gapfill_partition

    rng = np.random.RandomState(200 + seed)
    tiers = TIER_SETS[seed % len(TIER_SETS)]
    widths = {t: TIERS[t].bucket_us for t in (tiers or list(TIERS))}
    merged = _pandas_rollup(_turns(rng, "us"), tiers, False).drop(columns=["filled", "bucket"])
    merged = merged.iloc[rng.permutation(len(merged))].reset_index(drop=True)
    pd.testing.assert_frame_equal(_gapfill_partition(merged, widths, DEFAULT_SPEC),
                                  _pandas_gapfill(merged, widths), check_exact=True)


def test_turn_rollup_empty_partition():
    for tiers in TIER_SETS:
        for gapfill in (False, True):
            want = _pandas_rollup(_empty(), tiers, gapfill)
            pd.testing.assert_frame_equal(turn_rollup_fn(tiers, gapfill)(_empty()), want)
        got = turn_rollup_fn(tiers, pack_metrics=["token_len_sum"])(_empty())
        assert got.equals(pack.PACKED_SCHEMA.empty_table())


def test_single_turn_buckets_have_nan_latency():
    """A bucket holding only a conversation's first turn has no latency:
    count 0, and sum/min/max/last NaN."""
    g = pd.DataFrame({"conv_id": ["a", "b", "a"], "turn_idx": np.int32([0, 0, 1]),
                      "ts": np.array([0, 5, 7_200_000_000], "datetime64[us]"),
                      "token_len": [3, 4, 5]})
    got = turn_rollup_fn(["1h"])(g)
    pd.testing.assert_frame_equal(got, _pandas_rollup(g, ["1h"], False), check_exact=True)
    assert got["latency_count"].tolist() == [0, 1, 0]
    assert got["latency_last"].isna().tolist() == [True, False, True]


@pytest.mark.parametrize("seed", range(8))
def test_latency_equals_pandas(seed):
    """The one latency implementation equals the pandas shift/diff:
    rows, order, index labels and the float64 column."""
    g = _turns(np.random.RandomState(100 + seed), "ns" if seed % 2 else "us")
    pd.testing.assert_frame_equal(_latency_per_partition(g.copy()),
                                  _pandas_latency(g.copy()), check_exact=True)
