"""The packed-series layout has one builder (``stages/pack.py``): its
long-panel packer equals the pandas pack it replaced, bit for bit, and
every producer of the layout -- ``tsfeatures()`` on a frame and on a
Dataset, ``long_to_wide`` -> ``tsfeatures_wide``, ``tsfeatures_wide``
on a frame, and ``FeatureKernels`` over a hand-packed table -- gives
the same feature bytes. Also: the string codes under every pack sort
are ``pc.rank``'s dense ranks."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from _rollup_oracles import _pack_long_partition
from tsfeatures_ray.stages import segments as sg
from tsfeatures_ray.stages.pack import PACKED_SCHEMA, pack_long


def _rank_codes(col):
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return pc.rank(col, sort_keys="ascending", tiebreaker="dense").to_numpy().astype(np.int64)


def test_string_codes_are_dense_ranks():
    """Random strings (empty, non-ASCII, repeated) with nulls, as one
    array, as a chunked array and empty: the codes equal ``pc.rank``'s
    dense ranks (byte order, null last)."""
    rng = np.random.default_rng(4)
    pool = np.array([f"k{i}" for i in range(500)] + ["", "é", "Z", "k1\x00"], dtype=object)
    v = pool[rng.integers(0, len(pool), 20_000)]
    v[rng.random(len(v)) < 0.05] = None
    arr = pa.array(v, pa.string())
    chunked = pa.chunked_array([arr.slice(0, 7), arr.slice(7, 9000), arr.slice(9007)])
    for col in (arr, chunked, pa.array(v, pa.large_string()), pa.array(v.tolist(), pa.binary())):
        assert sg.codes(col).tolist() == _rank_codes(col).tolist()
    for empty in (pa.array([], pa.string()), pa.chunked_array([], pa.string())):
        got = sg.codes(empty)
        assert got.dtype == np.int64 and len(got) == 0


def _panel(int_uid: bool, ts_ds: bool, seed: int = 0) -> pd.DataFrame:
    """A shuffled long panel of 40 series of 1-60 points (three of them
    one point long), unique_id int or str, ds int or timestamp."""
    rng = np.random.default_rng(seed)
    lens = rng.integers(1, 61, 40)
    lens[[0, 17, 39]] = 1
    uid = np.repeat(np.arange(40) * 7 + 3, lens)
    ds = np.concatenate([rng.permutation(n) for n in lens])
    df = pd.DataFrame({
        "unique_id": uid if int_uid else [f"u{u}" for u in uid],
        "ds": pd.Timestamp("2021-01-01") + pd.to_timedelta(ds, "D") if ts_ds else ds,
        "y": 50 + np.cumsum(rng.standard_normal(len(uid))),
    })
    return df.sample(frac=1, random_state=seed).reset_index(drop=True)


CASES = [(i, t) for i in (False, True) for t in (False, True)]


@pytest.mark.parametrize("int_uid,ts_ds", CASES)
def test_pack_long_equals_pandas_pack(int_uid, ts_ds):
    """``pack_long`` of a shuffled panel ``.equals()`` the pandas pack it
    replaced (schema included), fed the frame its pre-map made: the
    unique_id as str and a ``freq`` column."""
    df = _panel(int_uid, ts_ds)
    got = pack_long(pa.Table.from_pandas(df, preserve_index=False), 12)
    want = _pack_long_partition(df.assign(unique_id=df["unique_id"].astype(str),
                                          freq=np.int32(12)))
    assert got.schema.equals(PACKED_SCHEMA) and want.schema.equals(PACKED_SCHEMA)
    assert got.equals(want)


def _by_uid(table) -> pd.DataFrame:
    """Feature rows (of an Arrow table or a Dataset) by unique_id."""
    df = table.to_pandas().drop(columns=["tier", "metric"])
    return df.sort_values("unique_id").reset_index(drop=True)


@pytest.mark.parametrize("int_uid,ts_ds", [(False, True), (True, False)])
def test_every_packed_layout_producer_gives_the_same_feature_bytes(ray_session, int_uid, ts_ds):
    """The default kernels over the same series give the same bytes from
    every producer of the packed layout."""
    import ray.data as rd

    from tsfeatures_ray.pipelines import tsfeatures, tsfeatures_wide
    from tsfeatures_ray.sources.convert import long_to_wide
    from tsfeatures_ray.stages.features import FeatureKernels

    df = _panel(int_uid, ts_ds, seed=1)
    ordered = df.assign(unique_id=df["unique_id"].astype(str)).sort_values(
        ["unique_id", "ds"], kind="mergesort")
    series = ordered.groupby("unique_id", sort=True)["y"].apply(list)
    hand = pa.Table.from_arrays(
        [
            pa.array(series.index, pa.string()),
            pa.array(["-"] * len(series), pa.string()),
            pa.array(["y"] * len(series), pa.string()),
            pa.array([12] * len(series), pa.int32()),
            pa.array([len(v) for v in series], pa.int64()),
            pa.array(series.tolist(), pa.list_(pa.float64())),
        ],
        schema=PACKED_SCHEMA,
    )
    want = _by_uid(FeatureKernels()(hand))
    uids = series.index.astype(int) if int_uid else series.index
    wide = pd.DataFrame({"unique_id": uids, "seasonality": 12, "y": series.tolist()})
    packed = long_to_wide(rd.from_pandas(df), seasonality=12).select_columns(
        ["unique_id", "freq", "y"])
    runs = {
        "tsfeatures(frame)": tsfeatures(df, freq=12),
        "tsfeatures(Dataset)": tsfeatures(rd.from_arrow(pa.Table.from_pandas(df)), freq=12),
        "long_to_wide -> tsfeatures_wide": tsfeatures_wide(
            packed.rename_columns({"freq": "seasonality"})),
        "tsfeatures_wide(frame)": tsfeatures_wide(wide),
    }
    assert len(want) == 40
    for name, ds in runs.items():
        got = _by_uid(ds)
        assert list(got.columns) == list(want.columns), name
        assert got["unique_id"].tolist() == want["unique_id"].tolist(), name
        for c in want.columns[1:]:
            a, b = got[c].to_numpy(np.float64), want[c].to_numpy(np.float64)
            assert a.tobytes() == b.tobytes(), (name, c)
