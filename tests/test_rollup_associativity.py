"""Merge-on-read associativity: partial aggregation over ANY split of
the input rows, merged, must equal single-pass aggregation. This is the
invariant that makes resumable partitions, salted hot keys, and
per-series block splitting exact at scale (north_rule). The partial is
the exact core over each chunk with its ordering key (the salted
rollup's per-batch step), the merge the merge core."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsfeatures_ray.schema import TIERS
from tsfeatures_ray.stages.rollup import DEFAULT_SPEC, _exact_rollup, _merge_rollup


def _mk_turns(rng: np.random.RandomState, n_convs: int, max_turns: int) -> pd.DataFrame:
    rows = []
    base = 1_700_000_000_000_000
    for c in range(n_convs):
        n = rng.randint(1, max_turns + 1)
        ts = base + np.cumsum(rng.randint(0, 90_000_000, size=n))
        ts[rng.rand(n) < 0.2] = ts[max(0, n // 2)]  # duplicate ts
        ts.sort()
        for i in range(n):
            lat = None if i == 0 else int(ts[i] - ts[i - 1])
            rows.append(
                (f"c{c}", i, pd.Timestamp(ts[i], unit="us"),
                 int(rng.randint(0, 300)), lat)
            )
    df = pd.DataFrame(
        rows, columns=["conv_id", "turn_idx", "ts", "token_len", "latency_us"]
    )
    df["latency_us"] = df["latency_us"].astype("float64")
    return df


def _run(df: pd.DataFrame, splits: list[int]) -> pd.DataFrame:
    tiers = [TIERS["1m"], TIERS["1h"]]

    def partial(chunk: pd.DataFrame) -> pa.Table:
        t = pa.Table.from_pandas(chunk, preserve_index=False)
        return _exact_rollup(t, tiers, DEFAULT_SPEC, keep_ord=True)

    # hypothesis-driven arbitrary split: permute rows then cut at given sizes
    partials = []
    idx = np.arange(len(df))
    rng = np.random.RandomState(sum(splits) + len(df))
    rng.shuffle(idx)
    cuts = np.cumsum([s % (len(df) + 1) for s in splits])[:-1] if len(splits) > 1 else []
    for chunk in np.split(idx, cuts) if len(splits) > 1 else [idx]:
        if len(chunk):
            partials.append(partial(df.iloc[chunk]))
    merged = _merge_rollup(pa.concat_tables(partials), DEFAULT_SPEC).to_pandas()
    return merged.sort_values(["conv_id", "tier", "bucket_us"]).reset_index(drop=True)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=40),
    st.lists(st.integers(min_value=1, max_value=200), min_size=1, max_size=6),
    st.integers(min_value=0, max_value=10_000),
)
def test_partial_merge_equals_single_pass(n_convs, max_turns, splits, seed):
    rng = np.random.RandomState(seed)
    df = _mk_turns(rng, n_convs, max_turns)
    whole = _run(df, [1])
    split = _run(df, splits)
    assert len(whole) == len(split)
    for col in whole.columns:
        if col in ("bucket",):
            continue
        a = whole[col]
        b = split[col]
        if a.dtype == object:
            assert (a.to_numpy() == b.to_numpy()).all(), col
        else:
            av = a.astype("float64").to_numpy()
            bv = b.astype("float64").to_numpy()
            ok = (av == bv) | (np.isnan(av) & np.isnan(bv))
            assert ok.all(), f"{col}: {np.flatnonzero(~ok)[:5]}"
