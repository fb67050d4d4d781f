"""Rollup / derive correctness vs a DuckDB oracle (exact match, north_rule)
and the per-row invariant: per-turn text equality under stable
(conv_id, turn_idx) ordering."""

import duckdb
import numpy as np
import pandas as pd
import pytest

from tsfeatures_ray.sources.synth import transcripts_path

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def tpath():
    return transcripts_path(SF)


def _ray_df(ds) -> pd.DataFrame:
    return ds.to_pandas()


def test_derived_latency_matches_sql_oracle(ray_session, tpath):
    from tsfeatures_ray.pipelines import derived_pipeline

    got = (
        _ray_df(derived_pipeline(SF))
        .sort_values(["conv_id", "turn_idx"])
        .reset_index(drop=True)
    )
    want = duckdb.sql(
        f"""
        SELECT conv_id, turn_idx, text,
               CAST(length(text) AS BIGINT) AS token_len,
               date_diff('microsecond',
                         lag(ts) OVER (PARTITION BY conv_id ORDER BY ts, turn_idx),
                         ts) AS latency_us
        FROM read_parquet('{tpath}')
        ORDER BY conv_id, turn_idx
        """
    ).df()
    assert len(got) == len(want)
    assert (got["conv_id"].to_numpy() == want["conv_id"].to_numpy()).all()
    # per-row invariant: text equality under stable (conv_id, turn_idx) order
    assert (got["text"].to_numpy() == want["text"].to_numpy()).all()
    assert (got["token_len"].to_numpy() == want["token_len"].to_numpy()).all()
    g = got["latency_us"].astype("float64").to_numpy()
    w = want["latency_us"].astype("float64").to_numpy()
    assert ((g == w) | (np.isnan(g) & np.isnan(w))).all()


ORACLE_ROLLUP = """
WITH turns AS (
    SELECT conv_id, turn_idx, ts,
           CAST(length(text) AS BIGINT) AS token_len,
           date_diff('microsecond',
                     lag(ts) OVER (PARTITION BY conv_id ORDER BY ts, turn_idx),
                     ts) AS latency_us
    FROM read_parquet('{path}')
)
SELECT conv_id, '{tier}' AS tier, date_trunc('{unit}', ts) AS bucket,
       COUNT(*) AS token_len_count,
       SUM(token_len) AS token_len_sum,
       MIN(token_len) AS token_len_min,
       MAX(token_len) AS token_len_max,
       arg_max(token_len, turn_idx) AS token_len_last,
       COUNT(latency_us) AS latency_count,
       SUM(latency_us) AS latency_sum,
       MIN(latency_us) AS latency_min,
       MAX(latency_us) AS latency_max,
       max_by(latency_us, turn_idx) FILTER (latency_us IS NOT NULL) AS latency_last
FROM turns
GROUP BY 1, 3
ORDER BY 1, 3
"""


@pytest.mark.parametrize("tier,unit", [("1m", "minute"), ("1h", "hour"), ("1d", "day")])
def test_rollup_exact_vs_oracle(ray_session, tpath, tier, unit):
    from tsfeatures_ray.pipelines import rollup_pipeline

    got = (
        _ray_df(rollup_pipeline(SF, tiers=[tier]))
        .sort_values(["conv_id", "bucket"])
        .reset_index(drop=True)
    )
    want = duckdb.sql(ORACLE_ROLLUP.format(path=tpath, tier=tier, unit=unit)).df()
    assert len(got) == len(want), (tier, len(got), len(want))
    for col in [
        "token_len_count", "token_len_sum", "token_len_min", "token_len_max",
        "token_len_last", "latency_count", "latency_sum", "latency_min",
        "latency_max", "latency_last",
    ]:
        g = got[col].astype("float64").to_numpy()
        w = want[col].astype("float64").to_numpy()
        ok = (g == w) | (np.isnan(g) & np.isnan(w))
        assert ok.all(), f"{tier}.{col}: first mismatch at {np.flatnonzero(~ok)[:5]}"
    assert (got["bucket"].to_numpy() == want["bucket"].to_numpy()).all()


def test_gapfill_dense_and_zero_counts(ray_session, tpath):
    from tsfeatures_ray.pipelines import rollup_pipeline

    df = _ray_df(rollup_pipeline(SF, tiers=["1m"], gapfill=True))
    # every conv's bucket range is dense
    spans = df.groupby("conv_id")["bucket_us"].agg(["min", "max", "count"])
    expect = (spans["max"] - spans["min"]) // 60_000_000 + 1
    assert (spans["count"] == expect).all()
    gaps = df[df["filled"]]
    assert len(gaps) > 0
    assert (gaps["token_len_count"] == 0).all()
    assert gaps["token_len_sum"].isna().all()
    # non-gap rows must be identical to the sparse rollup
    sparse = _ray_df(rollup_pipeline(SF, tiers=["1m"]))
    merged_nonfill = (
        df[~df["filled"]].sort_values(["conv_id", "bucket_us"]).reset_index(drop=True)
    )
    sparse = sparse.sort_values(["conv_id", "bucket_us"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        merged_nonfill.reset_index(drop=True)[sparse.columns], sparse
    )


def test_duplicate_ts_last_tiebreak(ray_session, tpath):
    # synthetic data contains duplicate ts with distinct turn_idx; 'last'
    # must resolve by max (ts, turn_idx)
    con = duckdb.connect()
    dups = con.sql(
        f"""SELECT conv_id, ts FROM read_parquet('{tpath}')
            GROUP BY 1,2 HAVING COUNT(*) > 1 LIMIT 1"""
    ).fetchall()
    assert dups, "synth fixture must contain duplicate timestamps"


def test_salted_rollup_exact(ray_session, tpath):
    """Salted repartitioning (hot-key skew path) must produce the exact
    same rollup as the unsalted merge (merge-on-read associativity)."""
    from tsfeatures_ray.pipelines import derived_pipeline
    from tsfeatures_ray.stages.rollup import gapfill_rollup, rollup

    derived = derived_pipeline(SF, slim=True).materialize()
    plain = _ray_df(rollup(derived, tiers=["1m"]))
    salted = _ray_df(rollup(derived, tiers=["1m"], salt_window_us=3_600_000_000))
    key = ["conv_id", "bucket_us"]
    plain = plain.sort_values(key, kind="mergesort").reset_index(drop=True)
    salted = salted.sort_values(key, kind="mergesort").reset_index(drop=True)
    pd.testing.assert_frame_equal(salted[plain.columns], plain)

    # gap-fill applied after the salted merge matches inline gap-fill
    gf_after = _ray_df(
        gapfill_rollup(rollup(derived, tiers=["1m"], salt_window_us=3_600_000_000))
    )
    gf_inline = _ray_df(rollup(derived, tiers=["1m"], gapfill=True))
    a = gf_after.sort_values(key, kind="mergesort").reset_index(drop=True)
    b = gf_inline.sort_values(key, kind="mergesort").reset_index(drop=True)
    assert len(a) == len(b)
    for col in ("token_len_count", "token_len_sum", "latency_last", "filled"):
        ga = a[col].astype("float64").to_numpy()
        gb = b[col].astype("float64").to_numpy()
        ok = (ga == gb) | (np.isnan(ga) & np.isnan(gb))
        assert ok.all(), col


def test_rollup_colocated_single_exchange_matches_two_exchange(ray_session):
    """rollup_pipeline -- derive -> rollup(), lazy, which ``by_partition``
    fuses into one Sort -- equals raw (rows, their order and the schema)
    the same chain materialized between the two steps, with and without
    gap-fill."""
    import re

    import pyarrow as pa
    import ray

    from tsfeatures_ray.pipelines import derived_pipeline, rollup_pipeline
    from tsfeatures_ray.stages.rollup import rollup

    def rows(ds) -> pa.Table:
        return pa.concat_tables([t for t in ray.get(ds.to_arrow_refs()) if t.num_rows])

    derived = derived_pipeline(SF, slim=True).materialize()
    for gapfill in (False, True):
        one = rollup_pipeline(SF, tiers=["1m", "1h"], gapfill=gapfill).materialize()
        two = rollup(derived, tiers=["1m", "1h"], gapfill=gapfill).materialize()
        ops = re.findall(r"^Operator \d+ (.+?):", one.stats(), flags=re.M)
        assert sum("Sort" in op for op in ops) == 1, ops
        got, want = rows(one), rows(two)
        assert got.num_rows == want.num_rows > 0
        assert got.equals(want)


def test_merge_rollups_incremental_exactness(ray_session):
    """keep_ord rollups of disjoint slices merge EXACTLY into the
    single-pass rollup -- 3-way split, including gap-fill applied at the
    final merge."""
    import pandas as pd

    from tsfeatures_ray.pipelines import derived_pipeline
    from tsfeatures_ray.stages.rollup import merge_rollups, rollup

    sf = "/root/testdata/sf0.001"

    def tag(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["slice"] = (df["turn_idx"] % 3).astype("int64")
        return df

    derived = (
        derived_pipeline(sf, slim=True)
        .map_batches(tag, batch_format="pandas")
        .materialize()
    )
    slices = [
        rollup(derived.filter(expr=f"slice == {i}"), tiers=["1m", "1h"],
               keep_ord=True)
        for i in range(3)
    ]
    for gapfill in (False, True):
        merged = merge_rollups(*slices, tiers=["1m", "1h"], gapfill=gapfill)
        direct = rollup(derived, tiers=["1m", "1h"], gapfill=gapfill)
        key = ["conv_id", "tier", "bucket_us"]
        m = merged.to_pandas().sort_values(key).reset_index(drop=True)
        d = direct.to_pandas().drop(columns=["part"], errors="ignore")
        d = d.sort_values(key).reset_index(drop=True)
        pd.testing.assert_frame_equal(m[sorted(d.columns)], d[sorted(d.columns)])

    # keep_ord + inline gapfill is an explicit error
    import pytest as _pytest

    with _pytest.raises(ValueError, match="keep_ord"):
        rollup(derived, tiers=["1h"], keep_ord=True, gapfill=True)
