"""The Arrow/numpy rollup-store operators (``stages/segments.py`` under
rollup, retention, pack and compress) against the pandas operators they
replaced (``tests/_rollup_oracles.py``) over random partitions: derive's
latency; the flagship's per-partition chain, derive's latency then
``rollup()``'s exact core then ``pack_series``' packer (against the
pandas latency -> per-batch partial -> final merge -> pandas gap-fill
chain, and its pandas packer); ``rollup()``'s exact core (default and
events specs, ``keep_ord`` on and off, salted partial/merge);
``merge_rollups`` (gap-fill on and off); ``gapfill_rollup`` on unsorted
partitions; ``compact_tier`` 1m -> 1h -> 1d; ``pack_series`` and
``compress_rollup``'s blocks. Each Arrow output's ``to_pandas()`` must
equal the oracle's frame raw (values to the bit, row order, index and
dtypes), and its schema the oracle frame's pandas -> Arrow conversion.
The cases: an empty partition, NaN-only latency buckets, ns timestamps,
timestamps before 1970 and (ts, order) ties."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import _rollup_oracles as O
from tsfeatures_ray.schema import TIERS
from tsfeatures_ray.stages import pack
from tsfeatures_ray.stages._util import ts_to_us
from tsfeatures_ray.stages.compress import BlockCodec
from tsfeatures_ray.stages.derive import _latency_per_partition
from tsfeatures_ray.stages.retention import _compact
from tsfeatures_ray.stages.rollup import (
    DEFAULT_SPEC, RollupSpec, _exact_rollup, _gapfill, _merge_rollup,
)

EVENTS_SPEC = RollupSpec(key="user_id", ts="ts", order=("event_id",), values={"value": "value"})


def _arrow(df: pd.DataFrame) -> pa.Table:
    return pa.Table.from_pandas(df, preserve_index=False)


def _check(got: pa.Table, want: pd.DataFrame):
    """``got`` is ``want`` raw, float bits included, and its schema is
    ``want``'s pandas -> Arrow conversion (an empty object column has no
    Arrow type to compare)."""
    want = want.reset_index(drop=True)
    df = got.to_pandas()
    pd.testing.assert_frame_equal(df, want, check_exact=True)
    for c in df.columns:
        if df[c].dtype.kind == "f":
            a, b = df[c].to_numpy(), want[c].to_numpy()
            assert np.array_equal(a.view(np.int64)[~np.isnan(a)], b.view(np.int64)[~np.isnan(b)]), c
    if len(want):
        assert got.schema.equals(_arrow(want).schema, check_metadata=False), (got.schema, _arrow(want).schema)


def _turn_rollup(t: pa.Table, tiers, gapfill: bool = False) -> pa.Table:
    """What the flagship's one exchange runs on a partition of raw turns
    (``rollup_pipeline``, fused): derive's latency, then ``rollup()``'s
    exact core."""
    tier_objs = [TIERS[x] for x in (tiers or list(TIERS))]
    return _exact_rollup(_latency_per_partition(t), tier_objs, DEFAULT_SPEC, gapfill)


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
    the numpy gap-fill replaced)."""
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
    partial = O._partial_agg(tier_objs, DEFAULT_SPEC)
    out = O._final_merge(False, widths, DEFAULT_SPEC)(partial(_pandas_latency(g)))
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


def _events(rng: np.random.RandomState, unit: str) -> pd.DataFrame:
    """The events shape: int64 user_id, float values over many decades
    (NaN among them), (ts, event_id) ties between rows."""
    g = _turns(rng, unit)
    v = 10.0 ** rng.uniform(-3, 9, size=len(g)) * rng.choice([-1.0, 1.0], size=len(g))
    return pd.DataFrame({
        "user_id": g["conv_id"].str[1:].astype(np.int64) * 7 - 100,
        "event_id": g["turn_idx"].astype(np.int64),
        "ts": g["ts"],
        "value": np.where(rng.rand(len(g)) < 0.15, np.nan, v),
    })


def _derived(rng: np.random.RandomState, unit: str) -> pd.DataFrame:
    """derive_turn_metrics' output shape, in a shuffled row order."""
    g = O._latency_per_partition(_turns(rng, unit))
    return g.iloc[rng.permutation(len(g))].reset_index(drop=True)


def _empty() -> pd.DataFrame:
    return pd.DataFrame({
        "conv_id": np.array([], dtype=object), "turn_idx": np.array([], np.int32),
        "ts": np.array([], "datetime64[us]"), "token_len": np.array([], np.int64),
        "part": np.array([], np.int64),
    })


def _batches(df: pd.DataFrame, rng: np.random.RandomState) -> list[pd.DataFrame]:
    """``df`` cut into 1-4 consecutive batches."""
    if len(df) < 2:
        return [df]
    cuts = np.sort(rng.choice(np.arange(1, len(df)), size=min(3, len(df) - 1), replace=False))
    return [df.iloc[a:b] for a, b in zip(np.r_[0, cuts], np.r_[cuts, len(df)])]


TIER_SETS = [None, ["1m"], ["1h", "1d"], ["1d", "1m"], ["1m", "1h", "1d"]]


@pytest.mark.parametrize("seed", range(40))
def test_turn_rollup_equals_pandas_rollup(seed):
    rng = np.random.RandomState(seed)
    g = _turns(rng, "ns" if seed % 3 == 0 else "us")
    if seed % 7 == 0:  # token_len with nulls arrives as float64 with NaN
        g["token_len"] = g["token_len"].astype("float64").where(rng.rand(len(g)) > 0.3)
    tiers = TIER_SETS[seed % len(TIER_SETS)]
    for gapfill in (False, True):
        _check(_turn_rollup(_arrow(g), tiers, gapfill), _pandas_rollup(g.copy(), tiers, gapfill))
    metrics = "latency_sum" if seed % 2 else ["token_len_sum", "latency_last", "token_len_count"]
    want = _pandas_pack(_pandas_rollup(g.copy(), tiers, False), metrics)
    assert pack._pack_partition(metrics)(_turn_rollup(_arrow(g), tiers)).equals(want)
    rolled = _pandas_rollup(g.copy(), tiers, True)
    assert pack._pack_partition(metrics)(_arrow(rolled)).equals(want)
    assert O._pack_partition(metrics)(rolled).equals(want)


def test_generated_partitions_cover_the_edge_cases():
    """The generator above does produce what the equivalence tests are
    meant to cover: gap buckets, pre-1970 rows, single-turn
    conversations and repeated (conv_id, ts, turn_idx) keys."""
    seen = {"gaps": 0, "pre1970": 0, "solo": 0, "ties": 0}
    for seed in range(40):
        g = _turns(np.random.RandomState(seed), "us")
        seen["gaps"] += bool(_turn_rollup(_arrow(g), None, True)["filled"].to_numpy().any())
        seen["pre1970"] += bool((ts_to_us(g["ts"]) < 0).any())
        seen["solo"] += bool((g.groupby("conv_id").size() == 1).any())
        seen["ties"] += bool(g.duplicated(["conv_id", "ts", "turn_idx"]).any())
    assert min(seen.values()) >= 10, seen


@pytest.mark.parametrize("seed", range(16))
def test_rollup_exact_core_equals_pandas(seed):
    """``rollup()``'s partition function over derived turns (default
    spec) and over events (int64 key, float values), keep_ord on and
    off, equals the pandas per-batch partial + final merge over the same
    partition as one batch."""
    rng = np.random.RandomState(300 + seed)
    unit = "ns" if seed % 2 else "us"
    tiers = TIER_SETS[seed % len(TIER_SETS)]
    tier_objs = [TIERS[t] for t in (tiers or list(TIERS))]
    for spec, g in ((DEFAULT_SPEC, _derived(rng, unit)), (EVENTS_SPEC, _events(rng, unit))):
        cols = [spec.key, spec.ts, *spec.order, *spec.values]
        for keep_ord in (False, True):
            for gapfill in (False,) if keep_ord else (False, True):
                want = O.rollup_partition(g, tiers, spec, gapfill, keep_ord)
                got = _exact_rollup(_arrow(g[cols]), tier_objs, spec, gapfill, keep_ord)
                _check(got, want)


@pytest.mark.parametrize("seed", range(10))
def test_salted_rollup_equals_pandas(seed):
    """The salted shape: per-batch exact partials with their ordering
    key, then the merge core, equal the pandas per-batch partials and
    final merge over the same batches."""
    rng = np.random.RandomState(400 + seed)
    tiers = TIER_SETS[seed % len(TIER_SETS)]
    tier_objs = [TIERS[t] for t in (tiers or list(TIERS))]
    widths = {t.name: t.bucket_us for t in tier_objs}
    for spec, g in ((DEFAULT_SPEC, _derived(rng, "us")), (EVENTS_SPEC, _events(rng, "ns"))):
        cols = [spec.key, spec.ts, *spec.order, *spec.values]
        batches = _batches(g[cols], rng)
        for keep_ord in (False, True):
            want = O._final_merge(False, widths, spec, keep_ord)(
                pd.concat([O._partial_agg(tier_objs, spec)(b) for b in batches], ignore_index=True))
            parts = pa.concat_tables([_exact_rollup(_arrow(b), tier_objs, spec, keep_ord=True)
                                      for b in batches])
            _check(_merge_rollup(parts, spec, keep_ord=keep_ord), want)


@pytest.mark.parametrize("seed", range(10))
def test_merge_rollups_equals_pandas(seed):
    """The merge core over keep_ord rollups of 2-3 slices, gap-fill on
    and off (and keep_ord output), equals the pandas final merge."""
    rng = np.random.RandomState(500 + seed)
    tiers = TIER_SETS[seed % len(TIER_SETS)]
    for spec, g in ((DEFAULT_SPEC, _derived(rng, "us")), (EVENTS_SPEC, _events(rng, "us"))):
        cols = [spec.key, spec.ts, *spec.order, *spec.values]
        k = 2 + seed % 2
        sl = rng.randint(0, k, size=len(g))
        rolled = pd.concat([O.rollup_partition(g[cols][sl == i], tiers, spec, keep_ord=True)
                            for i in range(k)], ignore_index=True)
        rolled = rolled.iloc[rng.permutation(len(rolled))].reset_index(drop=True)
        widths = {t: TIERS[t].bucket_us for t in (tiers or list(TIERS))}
        for gapfill, keep_ord in ((False, False), (True, False), (False, True)):
            want = O.merge_partition(rolled, tiers, spec, gapfill, keep_ord)
            _check(_merge_rollup(_arrow(rolled), spec, gapfill, widths, keep_ord), want)


@pytest.mark.parametrize("seed", range(10))
def test_gapfill_partition_equals_pandas(seed):
    """``gapfill_rollup``'s partition function over rollup rows in any
    order (its input is another exchange's output) equals the pandas
    gap-fill: the rows as they arrive, then each tier's gaps."""
    rng = np.random.RandomState(200 + seed)
    tiers = TIER_SETS[seed % len(TIER_SETS)]
    rolled = _pandas_rollup(_turns(rng, "us"), tiers, False).assign(part=np.int64(1))
    rolled = rolled.iloc[rng.permutation(len(rolled))].reset_index(drop=True)
    _check(_gapfill(_arrow(rolled)), O.gapfill_partition(rolled, DEFAULT_SPEC))
    widths = {t: TIERS[t].bucket_us for t in (tiers or list(TIERS))}
    merged = rolled.drop(columns=["filled", "bucket", "part"])
    pd.testing.assert_frame_equal(O._gapfill_partition(merged, widths, DEFAULT_SPEC),
                                  _pandas_gapfill(merged, widths), check_exact=True)


@pytest.mark.parametrize("seed", range(10))
def test_compact_tier_equals_pandas(seed):
    """1m -> 1h -> 1d compaction's partition function over whole
    partitions in shuffled row order equals the pandas fold over the
    partition in (key, bucket_us) order, the order the merge core sums
    in, with rows in (key, bucket) order."""
    rng = np.random.RandomState(600 + seed)
    for spec, g in ((DEFAULT_SPEC, _derived(rng, "us")), (EVENTS_SPEC, _events(rng, "us"))):
        cols = [spec.key, spec.ts, *spec.order, *spec.values]
        fine = O.rollup_partition(g[cols], ["1m"], spec, gapfill=True)
        for src, dst in (("1m", "1h"), ("1h", "1d")):
            want = O.compact_partition(
                fine.sort_values([spec.key, "bucket_us"], kind="mergesort"), src, dst, spec)
            shuffled = fine.iloc[rng.permutation(len(fine))].reset_index(drop=True)
            _check(_compact(_arrow(shuffled), src, dst, spec), want)
            fine = want.reset_index(drop=True)


@pytest.mark.parametrize("seed", range(8))
def test_compact_tier_before_1970_equals_direct_rollup(seed):
    """Compacting a 1m rollup of turns before and after 1970 to 1h or 1d
    gives the direct rollup at that tier in every count, min, max and
    last column and in the integer sums: a ``last`` whose latest
    non-null fine bucket lies before 1970 is kept."""
    rng = np.random.RandomState(600 + seed)
    for spec, g in ((DEFAULT_SPEC, _derived(rng, "us")), (EVENTS_SPEC, _events(rng, "us"))):
        # the epoch just after the median turn: half the turns lie before it
        g["ts"] -= pd.Timedelta(int(np.median(ts_to_us(g["ts"]))) + 1, "us")
        cols = [spec.key, spec.ts, *spec.order, *spec.values]
        fine = _arrow(O.rollup_partition(g[cols], ["1m"], spec, gapfill=True))
        for dst in ("1h", "1d"):
            got = _compact(fine, "1m", dst, spec).to_pandas()
            want = O.rollup_partition(g[cols], [dst], spec).reset_index(drop=True)
            exact = [c for c in want.columns if c.endswith(("_count", "_min", "_max", "_last"))]
            if spec is DEFAULT_SPEC:  # integers held in float64: every sum is exact
                exact += [c for c in want.columns if c.endswith("_sum")]
            pd.testing.assert_frame_equal(got[exact], want[exact], check_exact=True)


@pytest.mark.parametrize("seed", range(8))
def test_block_codec_equals_pandas(seed):
    """``compress_rollup``'s partition function: the same rows, and every
    block byte-equal to the pandas codec's."""
    rng = np.random.RandomState(700 + seed)
    for spec, g, metric in ((DEFAULT_SPEC, _derived(rng, "us"), "token_len_sum"),
                            (EVENTS_SPEC, _events(rng, "us"), "value_last")):
        cols = [spec.key, spec.ts, *spec.order, *spec.values]
        rolled = O.rollup_partition(g[cols], None, spec, gapfill=True)
        rolled = rolled.iloc[rng.permutation(len(rolled))].reset_index(drop=True)
        _check(BlockCodec(spec.key, metric)(_arrow(rolled)),
               O.BlockCodec(spec.key, metric)(rolled))


def test_turn_rollup_empty_partition():
    for tiers in TIER_SETS:
        for gapfill in (False, True):
            _check(_turn_rollup(_arrow(_empty()), tiers, gapfill),
                   _pandas_rollup(_empty(), tiers, gapfill))
        got = pack._pack_partition(["token_len_sum"])(_turn_rollup(_arrow(_empty()), tiers))
        assert got.equals(pack.PACKED_SCHEMA.empty_table())
        tier_objs = [TIERS[t] for t in (tiers or list(TIERS))]
        cols = ["conv_id", "ts", "turn_idx", "token_len", "latency_us"]
        derived = O._latency_per_partition(_empty())[cols]
        for keep_ord in (False, True):
            _check(_exact_rollup(_arrow(derived), tier_objs, DEFAULT_SPEC, keep_ord=keep_ord),
                   O.rollup_partition(derived, tiers, DEFAULT_SPEC, keep_ord=keep_ord))


def test_single_turn_buckets_have_nan_latency():
    """A bucket holding only a conversation's first turn has no latency:
    count 0, and sum/min/max/last NaN."""
    g = pd.DataFrame({"conv_id": ["a", "b", "a"], "turn_idx": np.int32([0, 0, 1]),
                      "ts": np.array([0, 5, 7_200_000_000], "datetime64[us]"),
                      "token_len": [3, 4, 5]})
    got = _turn_rollup(_arrow(g), ["1h"])
    _check(got, _pandas_rollup(g, ["1h"], False))
    assert got["latency_count"].to_pylist() == [0, 1, 0]
    assert got["latency_last"].is_null().to_pylist() == [True, False, True]


def test_exact_core_orders_ns_timestamps_in_their_own_unit():
    """Two turns of one conversation in the same microsecond: ``last``
    is the value at the later ns timestamp, as derive's latency orders
    them, not the one with the greater turn_idx; buckets stay those of
    the microsecond floor."""
    g = pd.DataFrame({"conv_id": ["a", "a", "a"], "turn_idx": np.int32([0, 1, 2]),
                      "ts": np.array([1_000, 5_000_900, 5_000_100], "datetime64[ns]"),
                      "token_len": [3, 4, 5]})
    derived = _latency_per_partition(_arrow(g))
    assert derived["turn_idx"].to_pylist() == [0, 2, 1]
    got = _exact_rollup(derived, [TIERS["1m"]], DEFAULT_SPEC, keep_ord=True)
    assert got["token_len_last"].to_pylist() == [4.0]
    assert got["latency_last"].to_pylist() == [800.0]
    assert got["last_ord_ts"].to_pylist() == [5_000]
    assert got["bucket_us"].to_pylist() == [0]


@pytest.mark.parametrize("seed", range(8))
def test_latency_equals_pandas(seed):
    """The one latency implementation equals the pandas shift/diff and
    the pandas lexsort it replaced: rows, order and the float64 column
    (null on each conversation's first turn)."""
    g = _turns(np.random.RandomState(100 + seed), "ns" if seed % 2 else "us")
    want = _pandas_latency(g.copy())
    pd.testing.assert_frame_equal(O._latency_per_partition(g.copy()), want, check_exact=True)
    _check(_latency_per_partition(_arrow(g)), want)
