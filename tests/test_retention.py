"""Tier compaction exactness + retention expiry (north_rule)."""

import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df.sort_values(["conv_id", "bucket_us"], kind="mergesort").reset_index(drop=True)
    return df


def test_compact_1m_to_1h_exact(ray_session):
    from tsfeatures_ray.pipelines import rollup_pipeline
    from tsfeatures_ray.stages.retention import compact_tier

    both = rollup_pipeline(SF, tiers=["1m", "1h"]).materialize()
    compacted = compact_tier(both, "1m", "1h").to_pandas()
    direct = both.to_pandas()
    direct = direct[direct["tier"] == "1h"]

    got = _norm(compacted)
    want = _norm(direct)
    assert len(got) == len(want)
    for col in [c for c in want.columns if c.endswith(("_count", "_sum", "_min", "_max", "_last"))]:
        g = got[col].astype("float64").to_numpy()
        w = want[col].astype("float64").to_numpy()
        ok = (g == w) | (np.isnan(g) & np.isnan(w))
        assert ok.all(), f"{col}: {np.flatnonzero(~ok)[:5]}"
    assert (got["bucket_us"].to_numpy() == want["bucket_us"].to_numpy()).all()


def test_compact_1h_to_1d_exact(ray_session):
    from tsfeatures_ray.pipelines import rollup_pipeline
    from tsfeatures_ray.stages.retention import compact_tier

    both = rollup_pipeline(SF, tiers=["1h", "1d"]).materialize()
    compacted = _norm(compact_tier(both, "1h", "1d").to_pandas())
    direct = both.to_pandas()
    direct = _norm(direct[direct["tier"] == "1d"])
    assert len(compacted) == len(direct)
    for col in ("token_len_sum", "token_len_last", "latency_min", "latency_last"):
        g = compacted[col].astype("float64").to_numpy()
        w = direct[col].astype("float64").to_numpy()
        ok = (g == w) | (np.isnan(g) & np.isnan(w))
        assert ok.all(), col


def test_apply_retention_drops_expired_fine_rows(ray_session):
    from tsfeatures_ray.pipelines import rollup_pipeline
    from tsfeatures_ray.stages.retention import apply_retention

    rolled = rollup_pipeline(SF, tiers=["1m", "1d"]).materialize()
    df = rolled.to_pandas()
    # pin "now" so ~half the 1m range is expired
    cut = int(df[df.tier == "1m"]["bucket_us"].quantile(0.5))
    horizon = 86_400_000_000  # 1 day
    now = cut + horizon
    kept = apply_retention(
        rolled, now_us=now, retention_us={"1m": horizon, "1d": None}
    ).to_pandas()
    # all surviving 1m rows are within the horizon
    m = kept[kept.tier == "1m"]
    assert (m["bucket_us"] >= now - horizon).all()
    assert len(m) < len(df[df.tier == "1m"])
    # 1d tier untouched
    assert len(kept[kept.tier == "1d"]) == len(df[df.tier == "1d"])


def _float_events(seed: int):
    """Events of 40 users over six hours: int64 user_id, float values
    over twelve decades of both signs (NaN among them), so the bits of a
    compensated sum depend on how its terms are grouped."""
    import pyarrow as pa

    rng = np.random.RandomState(seed)
    n = 6000
    value = 10.0 ** rng.uniform(-3, 9, size=n) * rng.choice([-1.0, 1.0], size=n)
    value[rng.rand(n) < 0.1] = np.nan
    return pa.table({
        "user_id": rng.randint(0, 40, size=n).astype(np.int64),
        "ts": pa.array(rng.randint(0, 6 * 3_600_000_000, size=n), pa.timestamp("us")),
        "event_id": np.arange(n, dtype=np.int64),
        "value": value,
    })


def _sorted_bytes(ds, key: str) -> list[bytes]:
    """Each column of ``ds`` sorted by (key, bucket_us), as bytes (float
    NaN canonical, so null and NaN compare by their bits)."""
    df = ds.to_pandas().sort_values([key, "bucket_us"], kind="mergesort")
    out = []
    for c in sorted(df.columns):
        v = df[c].to_numpy()
        if v.dtype.kind == "f":
            v = np.where(np.isnan(v), np.nan, v)
        out.append(c.encode() + (v.astype(str).tobytes() if v.dtype == object else v.tobytes()))
    return out


def test_float_compaction_is_layout_invariant(ray_session):
    """``compact_tier`` over a 1m rollup of float events gives the same
    bytes over one block, over 97 blocks (the exchange's Sort), over the
    materialized co-located rollup (no Sort) and fused into the lazy
    rollup's exchange."""
    import pyarrow as pa
    import ray.data as rd

    from tsfeatures_ray.stages.retention import compact_tier
    from tsfeatures_ray.stages.rollup import RollupSpec, rollup

    spec = RollupSpec(key="user_id", ts="ts", order=("event_id",), values={"value": "value"})
    events = _float_events(0)
    step = len(events) // 4
    lazy = rollup(rd.from_arrow([events.slice(i, step) for i in range(0, len(events), step)]),
                  ["1m"], gapfill=True, spec=spec)
    fine = lazy.materialize()
    one = pa.concat_tables([pa.Table.from_pandas(fine.to_pandas(), preserve_index=False)])
    inputs = {
        "one block": rd.from_arrow(one),
        "97 blocks": rd.from_arrow(one).repartition(97),
        "co-located": fine,
        "fused": lazy,
    }
    got = {name: _sorted_bytes(compact_tier(ds, "1m", "1h", spec), "user_id")
           for name, ds in inputs.items()}
    assert len(got["one block"]) == 10  # key, tier, bucket, bucket_us, 5 aggregates, filled
    for name, b in got.items():
        assert b == got["one block"], name
