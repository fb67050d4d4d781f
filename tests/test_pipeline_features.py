"""Feature-stage parity: the distributed Ray pipeline must produce the
exact same numbers as calling the kernels directly per series (the
distributed path adds no numerical drift), and the public tsfeatures API
must reproduce the reference semantics on golden series."""

import numpy as np
import pandas as pd
import pytest

from tsfeatures_ray.kernels import compute_features
from tsfeatures_ray.kernels.golden import USAccDeaths, WWWusage

SF = "/root/testdata/sf0.001"


def test_tsfeatures_long_api_matches_direct_kernels(ray_session):
    from tsfeatures_ray.pipelines import tsfeatures

    panel = pd.concat(
        [
            pd.DataFrame(
                {"unique_id": "usacc", "ds": range(len(USAccDeaths)), "y": USAccDeaths}
            ),
            pd.DataFrame(
                {"unique_id": "www", "ds": range(len(WWWusage)), "y": WWWusage}
            ),
        ]
    )
    out = tsfeatures(panel, freq=12, features=["acf_features", "arch_stat",
                                               "series_length", "statistics"])
    df = out.to_pandas().set_index("unique_id").sort_index()
    direct_us = compute_features(
        np.array(USAccDeaths, float), 12,
        [  # resolve the same feature set
            __import__("tsfeatures_ray.kernels", fromlist=["x"]).ALL_FEATURES[n]
            for n in ("acf_features", "arch_stat", "series_length", "statistics")
        ],
        scale=True,
    )
    for k, v in direct_us.items():
        got = df.loc["usacc", k]
        assert got == pytest.approx(v, nan_ok=True), k
    assert df.loc["www", "series_length"] == len(WWWusage)


def test_feature_pipeline_matches_driverside_recompute(ray_session):
    """Distributed flagship output == driver-side recompute from the
    rollup table (same kernels, same series, zero drift)."""
    from tsfeatures_ray.pipelines import feature_pipeline, rollup_pipeline
    from tsfeatures_ray.schema import TIERS

    feats = ["acf_features", "crossing_points", "entropy", "series_length",
             "unitroot_kpss"]
    got = (
        feature_pipeline(SF, tiers=["1h"], features=feats)
        .to_pandas()
        .set_index("unique_id")
        .sort_index()
    )
    roll = rollup_pipeline(SF, tiers=["1h"]).to_pandas()

    # driver-side oracle: densify each conv's bucket range, gaps -> 0
    from tsfeatures_ray.kernels import ALL_FEATURES

    fobjs = [ALL_FEATURES[n] for n in feats]
    w = TIERS["1h"].bucket_us
    rng = np.random.RandomState(0)
    sample = rng.choice(roll["conv_id"].unique(), size=25, replace=False)
    for conv in sample:
        sub = roll[roll["conv_id"] == conv].sort_values("bucket_us")
        lo, hi = sub["bucket_us"].min(), sub["bucket_us"].max()
        dense = np.zeros((hi - lo) // w + 1)
        dense[(sub["bucket_us"].to_numpy() - lo) // w] = sub[
            "token_len_sum"
        ].to_numpy(dtype="float64", na_value=0.0)
        want = compute_features(dense, TIERS["1h"].freq, fobjs, scale=True)
        for k, v in want.items():
            g = got.loc[conv, k]
            if np.isnan(v):
                assert np.isnan(g), (conv, k)
            else:
                assert g == pytest.approx(v, rel=1e-12, abs=1e-12), (conv, k)


def test_tsfeatures_wide_api(ray_session):
    from tsfeatures_ray.pipelines import tsfeatures_wide

    panel = pd.DataFrame(
        {
            "unique_id": ["usacc", "www"],
            "seasonality": [12, 1],
            "y": [list(map(float, USAccDeaths)), list(map(float, WWWusage))],
        }
    )
    df = (
        tsfeatures_wide(panel, features=["acf_features", "series_length"])
        .to_pandas()
        .set_index("unique_id")
    )
    assert df.loc["usacc", "x_acf1"] == pytest.approx(0.70, abs=0.01)
    assert df.loc["www", "x_acf1"] == pytest.approx(0.96, abs=0.01)
    # seasonal-only column exists but is NaN for the nonseasonal series
    assert np.isnan(df.loc["www", "seas_acf1"])
    assert df.loc["usacc", "seas_acf1"] == pytest.approx(0.62, abs=0.01)


def test_rollup_packed_fused_matches_shuffle_pack(ray_session):
    """feature_pipeline's fused rollup+pack (turn_rollup_fn with
    pack_metrics in the one layout-independent by_partition exchange)
    must produce exactly the series of the explicit rollup -> shuffle
    pack path."""
    import pandas as pd

    from tsfeatures_ray.pipelines import derived_pipeline
    from tsfeatures_ray.pipelines.flagship import slim_turns
    from tsfeatures_ray.stages.derive import by_partition
    from tsfeatures_ray.stages.pack import pack_series
    from tsfeatures_ray.stages.rollup import rollup, turn_rollup_fn

    sf = "/root/testdata/sf0.001"
    derived = derived_pipeline(sf, slim=True).materialize()
    fused = by_partition(
        slim_turns(sf), "conv_id",
        turn_rollup_fn(["1m", "1h"], pack_metrics="token_len_sum"),
    ).to_pandas()
    shuffled = pack_series(rollup(derived, tiers=["1m", "1h"])).to_pandas()
    key = ["unique_id", "tier", "metric"]
    fused = fused.sort_values(key).reset_index(drop=True)
    shuffled = shuffled.sort_values(key).reset_index(drop=True)
    assert len(fused) == len(shuffled)
    pd.testing.assert_frame_equal(
        fused[key + ["freq", "n_buckets"]], shuffled[key + ["freq", "n_buckets"]]
    )
    for a, b in zip(fused["y"], shuffled["y"]):
        assert list(a) == list(b)


def _make_packed(lengths: dict[str, int]):
    import pyarrow as pa
    import ray.data as rd

    from tsfeatures_ray.stages.pack import PACKED_SCHEMA

    rng = np.random.RandomState(3)
    uids, ys, ns = [], [], []
    for uid, n in lengths.items():
        uids.append(uid)
        ys.append((100 + np.cumsum(rng.randn(n))).tolist())
        ns.append(n)
    tbl = pa.Table.from_arrays(
        [
            pa.array(uids, pa.string()),
            pa.array(["1h"] * len(uids), pa.string()),
            pa.array(["y"] * len(uids), pa.string()),
            pa.array([24] * len(uids), pa.int32()),
            pa.array(ns, pa.int64()),
            pa.array(ys, pa.list_(pa.float64())),
        ],
        schema=PACKED_SCHEMA,
    )
    return rd.from_arrow(tbl)


def test_giant_series_policy(ray_session):
    """Giant-series straggler policy: series >= giant_threshold run as
    dedicated singleton GROUPS inside one groupby exchange (round 5:
    replaces big.union(small), whose branches Ray's streaming executor
    ran serially) and the output is identical to the unrouted path. One
    100x series must not share a batch with -- and delay -- the rest."""
    import pandas as pd

    from tsfeatures_ray.stages.features import features_over_packed

    lengths = {f"s{i:03d}": 120 for i in range(60)}
    lengths["giant"] = 12000  # 100x
    feats = ["acf_features", "stability", "unitroot_kpss"]

    base = features_over_packed(
        _make_packed(lengths), features=feats, balance=False, concurrency=4
    ).to_pandas()
    routed_ds = features_over_packed(
        _make_packed(lengths), features=feats, balance=False, concurrency=4,
        giant_threshold=10000,
    )
    routed = routed_ds.to_pandas()
    # structural: the routed plan is ONE keyed exchange (no union branch
    # for the executor to serialize)
    assert "per_group" in routed_ds.stats()
    assert "Union" not in routed_ds.stats()
    key = ["unique_id", "tier", "metric"]
    base = base.sort_values(key).reset_index(drop=True)
    routed = routed.sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(base, routed)

    # threshold higher than every series: policy is a no-op passthrough
    noop = features_over_packed(
        _make_packed(lengths), features=feats, balance=False, concurrency=4,
        giant_threshold=1_000_000,
    )
    assert noop.count() == len(lengths)
    assert "per_group" not in noop.stats()
