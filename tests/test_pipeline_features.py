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
    """The packed series of feature_pipeline's one exchange (derive ->
    rollup -> pack, lazy, which ``by_partition`` fuses into one Sort)
    equal raw -- rows, their order and the schema -- those of the same
    chain materialized between steps."""
    import re

    import pyarrow as pa
    import ray

    from tsfeatures_ray.pipelines import derived_pipeline, rollup_pipeline
    from tsfeatures_ray.stages.pack import pack_series
    from tsfeatures_ray.stages.rollup import rollup

    def rows(ds) -> pa.Table:
        return pa.concat_tables([t for t in ray.get(ds.to_arrow_refs()) if t.num_rows])

    tiers = ["1m", "1h"]
    fused = pack_series(rollup_pipeline(SF, tiers)).materialize()
    rolled = rollup(derived_pipeline(SF, slim=True).materialize(), tiers).materialize()
    unfused = pack_series(rolled).materialize()
    ops = re.findall(r"^Operator \d+ (.+?):", fused.stats(), flags=re.M)
    assert sum("Sort" in op for op in ops) == 1, ops
    got, want = rows(fused), rows(unfused)
    assert got.num_rows == want.num_rows > 0
    assert got.equals(want)


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


def _dispatch_panel():
    """2100 packed rows of lengths 0, 1, 2 and 20 over freqs 1/12/24 and
    two tiers, plus one 2000-point (100x) outlier: more rows than one
    1024-row batch, so every dispatch runs several tasks."""
    import pyarrow as pa

    from tsfeatures_ray.stages.pack import PACKED_SCHEMA

    rng = np.random.RandomState(5)
    rows = [(f"s{i:04d}", ("1h", "1d")[i % 2], [0, 1, 2, 20][i % 4],
             [1, 12, 24][i % 3]) for i in range(2100)]
    rows.append(("giant", "1h", 2000, 24))
    ys = [(100 + np.cumsum(rng.randn(n))).tolist() for _, _, n, _ in rows]
    return pa.Table.from_arrays(
        [
            pa.array([r[0] for r in rows], pa.string()),
            pa.array([r[1] for r in rows], pa.string()),
            pa.array(["y"] * len(rows), pa.string()),
            pa.array([r[3] for r in rows], pa.int32()),
            pa.array([r[2] for r in rows], pa.int64()),
            pa.array(ys, pa.list_(pa.float64())),
        ],
        schema=PACKED_SCHEMA,
    )


def test_dispatch_invariance(ray_session):
    """features_over_packed output, keyed by (unique_id, tier, metric),
    is bit-equal (NaN-aware) to ONE in-process FeatureKernels() call
    over the whole table, whatever the balance shuffle, input block
    count and concurrency (so whatever the task composition)."""
    import ray.data as rd

    from tsfeatures_ray.stages.features import FeatureKernels, features_over_packed

    key = ["unique_id", "tier", "metric"]
    tbl = _dispatch_panel()
    want = FeatureKernels()(tbl).to_pandas().set_index(key).sort_index()
    for balance in (True, False):
        for n_blocks in (1, 7, 97):
            for concurrency in (1, 4):
                case = (balance, n_blocks, concurrency)
                ds = rd.from_arrow(tbl).repartition(n_blocks)
                assert ds.materialize().num_blocks() == n_blocks, case
                got = (
                    features_over_packed(ds, balance=balance, concurrency=concurrency)
                    .to_pandas().set_index(key).sort_index()
                )
                assert got.index.equals(want.index), case
                assert list(got.columns) == list(want.columns), case
                for c in want.columns:
                    a = got[c].to_numpy(np.float64)
                    b = want[c].to_numpy(np.float64)
                    same = (a.view(np.uint64) == b.view(np.uint64)) | (
                        np.isnan(a) & np.isnan(b)
                    )
                    assert same.all(), (case, c, np.flatnonzero(~same)[:5])


def test_custom_feature_probes_once_per_call(ray_session, tmp_path):
    """A custom feature list is resolved and column-probed ONCE per
    features_over_packed call, on the driver: the callable runs twice
    for the probe (freq 12 and 1) plus once per series, however many
    tasks the stage runs."""
    from tsfeatures_ray.stages.features import features_over_packed

    log = tmp_path / "calls.txt"

    def counted_mean(x, freq):
        with open(log, "a") as f:
            f.write("call\n")
        return {"counted_mean": float(np.mean(x)) if len(x) else np.nan}

    # 4 input blocks of 1024 rows: one task each
    lengths = {f"s{i:04d}": 3 for i in range(4096)}
    ds = _make_packed(lengths).repartition(4)
    out = features_over_packed(
        ds, features=[counted_mean], balance=False, concurrency=1
    ).to_pandas()
    assert len(out) == len(lengths)
    assert len(log.read_text().splitlines()) == 2 + len(lengths)
