"""Golden-fixture integrity: the committed recorded parquet
(fixtures/features_recorded_*.parquet) must equal an INDEPENDENT
driver-side re-derivation of the same features -- raw parquet -> pandas
bucketing -> dense series -> direct kernel calls, with none of the
engine's Ray stages (derive / rollup / pack / feature tasks) involved.

This breaks the engine-vs-itself circularity of the recorded oracle:
the fixture is only trusted because this test re-derives sample rows
from first principles (kernel correctness itself is gated separately by
the golden/brute/analytic tests)."""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pytest

FIXTURE_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "fixtures")
SF_DIR = "/root/testdata/sf0.01"


def _round6(v: float, nd: int = 6) -> float:
    # mirror __ray_entry__._round_floats exactly (nudge + half-away)
    s = 10.0 ** nd
    v = v + 1e-7
    return float(np.sign(v) * np.floor(np.abs(v) * s + 0.5) / s)


def _dense_series(df: pd.DataFrame, bucket_us: int) -> np.ndarray:
    ts_us = df["ts"].astype("datetime64[us]").astype("int64")
    bucket = ts_us - ts_us % bucket_us
    sums = df.groupby(bucket)["token_len"].sum()
    lo, hi = sums.index.min(), sums.index.max()
    idx = np.arange(lo, hi + 1, bucket_us)
    return sums.reindex(idx, fill_value=0).to_numpy(dtype="float64")


@pytest.fixture(scope="module")
def raw():
    from tsfeatures_ray.sources.synth import transcripts_path

    df = pd.read_parquet(transcripts_path(SF_DIR), columns=["conv_id", "text", "ts"])
    df["token_len"] = df["text"].str.len().astype("int64")
    return df


def _sample_convs(fixture: pd.DataFrame) -> list[str]:
    uids = fixture["unique_id"].tolist()
    # first, last, middle: deterministic spread over the id space
    return [uids[0], uids[len(uids) // 2], uids[-1]]


def test_recorded_1h_matches_independent_rederivation(raw):
    from tsfeatures_ray.kernels import compute_features

    path = os.path.join(FIXTURE_DIR, "features_recorded_1h_sf0.01.parquet")
    fx = pd.read_parquet(path)
    assert len(fx) == raw["conv_id"].nunique()
    for uid in _sample_convs(fx):
        x = _dense_series(raw[raw["conv_id"] == uid], 3_600_000_000)
        feats = compute_features(x, 24, None, scale=True)
        row = fx[fx["unique_id"] == uid].iloc[0]
        for k, v in feats.items():
            got, want = _round6(v), row[k]
            assert (np.isnan(got) and np.isnan(want)) or got == want, (
                uid, k, got, want
            )


def test_recorded_extras_matches_independent_rederivation(raw):
    from tsfeatures_ray.kernels import EXTRA_FEATURES, compute_features

    path = os.path.join(FIXTURE_DIR, "features_recorded_extras_1m_sf0.01.parquet")
    fx = pd.read_parquet(path)
    assert len(fx) == raw["conv_id"].nunique()
    for uid in _sample_convs(fx):
        x = _dense_series(raw[raw["conv_id"] == uid], 60_000_000)
        feats = compute_features(x, 60, EXTRA_FEATURES, scale=False)
        row = fx[fx["unique_id"] == uid].iloc[0]
        for k, v in feats.items():
            nd = 3 if k in ("mean", "variance") else 6
            got, want = _round6(v, nd), row[k]
            assert (np.isnan(got) and np.isnan(want)) or got == want, (
                uid, k, got, want
            )


def test_contract_compare_reports_by_key():
    """tools/check_contract.compare keeps its exact pass/fail rule but
    reports a changed value by key: one bad value in the first sorted
    column is ONE mismatch, not a shifted-row cascade over every
    column."""
    import sys

    sys.path.insert(0, os.path.dirname(FIXTURE_DIR))
    from tools.check_contract import compare

    rng = np.random.default_rng(0)
    want = pd.DataFrame({"unique_id": [f"u{i:02d}" for i in range(40)],
                         "tier": "1h", "metric": "y",
                         "arch_acf": rng.random(40), "x_acf1": rng.random(40)})
    got = want.sample(frac=1.0, random_state=1).reset_index(drop=True)
    assert compare("q", got, want) == []
    got.loc[got["unique_id"] == "u07", "arch_acf"] = 2.0
    errs = compare("q", got, want)
    assert len(errs) == 1 and errs[0].startswith("col arch_acf: 1 mismatches by"), errs
    assert "('u07', '1h', 'y')" in errs[0]
    # a fixture key from tools/make_fixtures.py, and a missing row
    errs = compare("features_default_1h", got.iloc[1:], want)
    assert errs[0] == "rowcount 39 != 40"
    assert any(e.startswith("1 missing keys ['unique_id']") for e in errs), errs
