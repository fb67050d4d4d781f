"""Unit gates: EWMA, mutual top-1, SymSpell edit-1 pairs, vocab stats."""

import re

import numpy as np
import pandas as pd
import pytest


def _ds(df):
    import ray.data as rd

    return rd.from_pandas(df)


def test_ewma_matches_recursion(ray_session):
    from tsfeatures_ray.functions.windows import ewma

    rng = np.random.default_rng(11)
    keys = np.repeat(np.arange(20, dtype=np.int64), 30)
    order = np.tile(np.arange(30, dtype=np.int64), 20)
    x = rng.normal(10, 3, 600)
    df = pd.DataFrame({"k": keys, "o": order, "x": x})
    got = (
        ewma(_ds(df), key="k", order="o", col="x", alpha=0.3, num_parts=5)
        .sort(["k", "o"])
        .to_pandas()
    )
    want = np.empty(600)
    for k in range(20):
        seg = x[k * 30 : (k + 1) * 30]
        y = seg[0]
        want[k * 30] = y
        for i in range(1, 30):
            y = 0.7 * y + 0.3 * seg[i]
            want[k * 30 + i] = y
    w = want + 1e-7
    w = np.sign(w) * np.floor(np.abs(w) * 1e6 + 0.5) / 1e6
    np.testing.assert_array_equal(got["ewma"].to_numpy(), w)


def test_ewma_alpha_validation(ray_session):
    from tsfeatures_ray.functions.windows import ewma

    with pytest.raises(ValueError):
        ewma(None, key="k", order="o", col="x", alpha=0.0)


def test_mutual_top1_brute(ray_session):
    from tsfeatures_ray.functions.similarity import mutual_top1

    rng = np.random.default_rng(5)
    n, d = 120, 8
    m = rng.normal(size=(n, d))
    # plant exact duplicates to exercise the cosine tie rule
    m[7] = m[3]
    m[50] = m[3]
    df = pd.DataFrame(
        {"vec_id": np.arange(n, dtype=np.int64), "embedding": list(m)}
    )
    got = (
        mutual_top1(_ds(df), num_parts=5).sort(["id_a", "id_b"]).to_pandas()
    )

    mn = m / np.linalg.norm(m, axis=1, keepdims=True)
    sims = mn @ mn.T
    np.fill_diagonal(sims, -np.inf)
    best = np.full(n, -1, dtype=np.int64)
    for i in range(n):
        bc = sims[i].max()
        cands = np.flatnonzero(sims[i] == bc)
        best[i] = cands.min()
    pairs = sorted(
        (i, int(best[i]))
        for i in range(n)
        if best[best[i]] == i and i < best[i]
    )
    assert list(zip(got["id_a"], got["id_b"])) == pairs
    for _, r in got.iterrows():
        want_c = sims[int(r["id_a"]), int(r["id_b"])] + 1e-7
        want_c = np.sign(want_c) * np.floor(np.abs(want_c) * 1e6 + 0.5) / 1e6
        assert r["cosine"] == pytest.approx(want_c, abs=2e-6)


def _lev(a: str, b: str) -> int:
    la, lb = len(a), len(b)
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [i] + [0] * lb
        for j in range(1, lb + 1):
            cur[j] = min(
                prev[j] + 1,
                cur[j - 1] + 1,
                prev[j - 1] + (a[i - 1] != b[j - 1]),
            )
        prev = cur
    return prev[lb]


def test_edit1_pairs_complete_and_exact(ray_session):
    from tsfeatures_ray.functions.fuzzy import edit1_pairs

    rng = np.random.default_rng(9)
    base = ["".join(rng.choice(list("abcd"), 6)) for _ in range(40)]
    muts = []
    for s in base[:15]:
        k = int(rng.integers(0, len(s)))
        muts.append(s[:k] + "x" + s[k + 1 :])  # substitution
        muts.append(s[:k] + s[k + 1 :])  # deletion
    strs = base + muts + [base[0]]  # one exact duplicate (dist 0)
    df = pd.DataFrame(
        {
            "id": np.arange(len(strs), dtype=np.int64),
            "s": np.asarray(strs, dtype=object),
        }
    )
    got = (
        edit1_pairs(_ds(df), id_col="id", str_col="s", num_parts=4)
        .sort(["id_a", "id_b"])
        .to_pandas()
    )
    want = []
    for i in range(len(strs)):
        for j in range(i + 1, len(strs)):
            d = _lev(strs[i], strs[j])
            if d <= 1:
                want.append((i, j, d))
    assert (
        list(zip(got["id_a"], got["id_b"], got["dist"]))
        == sorted(want)
    )


def test_vocab_stats_brute(ray_session):
    from tsfeatures_ray.functions.text import vocab_stats

    docs = pd.DataFrame(
        {
            "source": ["a", "a", "b", "b", "b"],
            "text": [
                "The cat sat on the mat",
                "a cat and a dog",
                "unique words only here",
                "words repeat words repeat",
                "",
            ],
        }
    )
    got = vocab_stats(_ds(docs), num_parts=3).sort("source").to_pandas()
    for _, r in got.iterrows():
        toks = []
        for t in docs[docs["source"] == r["source"]]["text"]:
            toks.extend(re.findall(r"[a-z]+", t.lower()))
        vc = pd.Series(toks).value_counts() if toks else pd.Series(dtype=int)
        assert r["n_tokens"] == len(toks)
        assert r["vocab"] == len(vc)
        assert r["hapax"] == int((vc == 1).sum())
        assert r["ttr"] == pytest.approx(len(vc) / len(toks), abs=2e-6)
        assert r["hapax_ratio"] == pytest.approx(
            (vc == 1).sum() / len(vc), abs=2e-6
        )


def test_run_length_stats_hand_case(ray_session):
    from tsfeatures_ray.functions.windows import run_length_stats

    df = pd.DataFrame(
        {
            "k": np.array([1, 1, 1, 1, 1, 2, 2, 3], dtype=np.int64),
            "o": np.array([1, 2, 3, 4, 5, 1, 2, 1], dtype=np.int64),
            # key 1: runs T,T | F | T,T -> n=4, streaks=2, max=2
            # key 2: T,T               -> n=2, streaks=1, max=2
            # key 3: F                 -> omitted
            "f": [True, True, False, True, True, True, True, False],
        }
    )
    got = (
        run_length_stats(_ds(df), key="k", order="o", flag_col="f",
                         num_parts=3)
        .sort("k")
        .to_pandas()
    )
    want = pd.DataFrame(
        {
            "k": np.array([1, 2], dtype=np.int64),
            "n_flagged": np.array([4, 2], dtype=np.int64),
            "n_streaks": np.array([2, 1], dtype=np.int64),
            "max_streak": np.array([2, 2], dtype=np.int64),
        }
    )
    pd.testing.assert_frame_equal(got.reset_index(drop=True), want)


def test_run_length_stats_brute(ray_session):
    from tsfeatures_ray.functions.windows import run_length_stats

    rng = np.random.default_rng(17)
    n = 2000
    df = pd.DataFrame(
        {
            "k": rng.integers(0, 50, n).astype(np.int64),
            "o": np.arange(n, dtype=np.int64),
            "f": rng.random(n) < 0.4,
        }
    )
    got = (
        run_length_stats(_ds(df), key="k", order="o", flag_col="f",
                         num_parts=5)
        .sort("k")
        .to_pandas()
    )
    rows = []
    for k, grp in df.sort_values(["k", "o"]).groupby("k"):
        f = grp["f"].to_numpy()
        runs = []
        cur = 0
        for x in f:
            if x:
                cur += 1
            elif cur:
                runs.append(cur)
                cur = 0
        if cur:
            runs.append(cur)
        if runs:
            rows.append((k, sum(runs), len(runs), max(runs)))
    want = pd.DataFrame(
        rows, columns=["k", "n_flagged", "n_streaks", "max_streak"]
    ).astype(np.int64)
    pd.testing.assert_frame_equal(got.reset_index(drop=True), want)


def test_time_weighted_avg_hand_case(ray_session):
    import ray.data as rd

    from tsfeatures_ray.functions.windows import time_weighted_avg

    t = pd.to_datetime(
        [
            "2024-01-01 12:00:00",
            "2024-01-01 18:00:00",
            "2024-01-02 06:00:00",
            "2024-01-02 06:00:00",  # zero-length segment: dropped
        ]
    ).astype("datetime64[us]")
    df = pd.DataFrame(
        {
            "user_id": [1, 1, 1, 1],
            "ts": t,
            "event_id": [1, 2, 3, 4],
            "value": [10.0, 20.0, 30.0, 40.0],
        }
    )
    out = (
        time_weighted_avg(rd.from_pandas(df), num_parts=3)
        .to_pandas()
        .sort_values("bucket")
        .reset_index(drop=True)
    )
    # day 1: 6h @ 10 + 6h @ 20 -> 15; day 2: 6h @ 20 -> 20
    assert list(out["twap"]) == [15.0, 20.0]
    assert list(out["dur_s"]) == [43200.0, 21600.0]
    assert out["bucket"].tolist() == [
        pd.Timestamp("2024-01-01"),
        pd.Timestamp("2024-01-02"),
    ]


def test_time_weighted_avg_brute(ray_session):
    """Segment/clip arithmetic vs a per-microsecond brute force on a
    small random panel with multi-day segments and timestamp ties."""
    import ray.data as rd

    from tsfeatures_ray.functions.windows import time_weighted_avg

    rng = np.random.RandomState(3)
    day_us = 86_400_000_000
    rows = []
    eid = 0
    for u in range(4):
        t = 0
        for _ in range(30):
            t += int(rng.randint(1, 3 * day_us))
            rows.append((u, t, eid, float(np.round(rng.rand() * 100, 2))))
            eid += 1
    df = pd.DataFrame(rows, columns=["user_id", "us", "event_id", "value"])
    df["ts"] = pd.to_datetime(df["us"], unit="us").astype("datetime64[us]")
    got = (
        time_weighted_avg(
            rd.from_pandas(df[["user_id", "ts", "event_id", "value"]]),
            num_parts=3,
        )
        .to_pandas()
        .sort_values(["user_id", "bucket"])
        .reset_index(drop=True)
    )
    # brute: accumulate exact cents x µs per (user, day) from raw segments
    acc: dict = {}
    for u, g in df.sort_values(["user_id", "us", "event_id"]).groupby(
        "user_id"
    ):
        us = g["us"].to_numpy()
        cents = np.rint(g["value"].to_numpy() * 100).astype(np.int64)
        for i in range(len(us) - 1):
            t0, t1, v = int(us[i]), int(us[i + 1]), int(cents[i])
            while t0 < t1:
                day = t0 // day_us
                hi = min(t1, (day + 1) * day_us)
                num, den = acc.get((u, day), (0, 0))
                acc[(u, day)] = (num + v * (hi - t0), den + (hi - t0))
                t0 = hi
    assert len(got) == len(acc)
    for _, r in got.iterrows():
        day = int(r["bucket"].value // 86_400_000_000_000)  # .value is ns
        num, den = acc[(int(r["user_id"]), day)]
        tw = num / (100 * den) + 1e-7
        want = np.sign(tw) * np.floor(abs(tw) * 1e6 + 0.5) / 1e6
        assert r["twap"] == want
        assert r["dur_s"] == np.floor(den / 1e6 * 1e6 + 0.5) / 1e6


def test_scd2_hand_case(ray_session):
    import ray.data as rd

    from tsfeatures_ray.functions.events import scd2_build

    t = pd.to_datetime(
        [
            "2024-01-01",
            "2024-01-02",
            "2024-01-03",
            "2024-01-04",
            "2024-01-05",
        ]
    ).astype("datetime64[us]")
    df = pd.DataFrame(
        {
            "user_id": [1, 1, 1, 1, 2],
            "ts": t,
            "event_id": [1, 2, 3, 4, 5],
            "event_type": ["a", "a", "b", "a", "c"],
        }
    )
    out = (
        scd2_build(rd.from_pandas(df), num_parts=3)
        .to_pandas()
        .sort_values(["user_id", "valid_from"])
        .reset_index(drop=True)
    )
    sent = pd.Timestamp("2100-01-01")
    want = pd.DataFrame(
        {
            "user_id": [1, 1, 1, 2],
            "event_type": ["a", "b", "a", "c"],
            "valid_from": [t[0], t[2], t[3], t[4]],
            "valid_to": [t[2], t[3], sent, sent],
            "n_rows": np.array([2, 1, 1, 1], dtype=np.int64),
        }
    )
    want["valid_from"] = want["valid_from"].astype("datetime64[us]")
    want["valid_to"] = want["valid_to"].astype("datetime64[us]")
    pd.testing.assert_frame_equal(out, want)


def test_scd2_version_chain_invariants(ray_session):
    """On real-shaped data every key's versions chain: valid_to of
    version i equals valid_from of version i+1, runs never repeat the
    attr consecutively, and n_rows sums to the key's log length."""
    import ray.data as rd

    from tsfeatures_ray.functions.events import scd2_build

    rng = np.random.RandomState(9)
    n = 500
    df = pd.DataFrame(
        {
            "user_id": rng.randint(0, 20, n),
            "ts": pd.to_datetime(
                rng.randint(0, 10**9, n) * 1000, unit="us"
            ).astype("datetime64[us]"),
            "event_id": np.arange(n),
            "event_type": rng.choice(["a", "b", "c"], n),
        }
    )
    out = scd2_build(rd.from_pandas(df), num_parts=5).to_pandas()
    assert int(out["n_rows"].sum()) == n
    sent = pd.Timestamp("2100-01-01")
    for u, g in out.groupby("user_id"):
        g = g.sort_values("valid_from", kind="mergesort").reset_index(
            drop=True
        )
        # exactly one open version, and it is the last one
        assert (g["valid_to"] == sent).sum() == 1
        assert g["valid_to"].iloc[-1] == sent
        chain = g["valid_to"].iloc[:-1].to_numpy()
        nxt = g["valid_from"].iloc[1:].to_numpy()
        assert (chain == nxt).all()
        a = g["event_type"].to_numpy()
        assert (a[1:] != a[:-1]).all()


def test_golden_record_hand_case_and_associativity(ray_session):
    """Per-attribute winners on a hand case, then batch-boundary
    independence: 1-row blocks must give the same answer as one block
    (the combiner/merge composition is associative)."""
    import ray.data as rd

    from tsfeatures_ray.functions.survivorship import golden_record

    t = pd.to_datetime(
        ["2024-01-01", "2024-01-02", "2024-01-03", "2024-01-02"]
    ).astype("datetime64[us]")
    df = pd.DataFrame(
        {
            "user_id": [1, 1, 1, 2],
            "ts": t,
            "event_id": [1, 2, 3, 4],
            "event_type": ["purchase", "view", "purchase", "view"],
            "value": [10.0, 20.0, 30.0, 40.0],
        }
    )
    rules = [
        {"name": "last_type", "col": "event_type", "how": "last"},
        {
            "name": "last_purchase_value",
            "col": "value",
            "how": "last",
            "when": ("event_type", "purchase"),
        },
        {"name": "first_ts", "col": "ts", "how": "min"},
        {"name": "n_events", "how": "count"},
    ]

    def run(ds):
        return (
            golden_record(ds, "user_id", "ts", "event_id", rules)
            .to_pandas()
            .sort_values("user_id")
            .reset_index(drop=True)
        )

    got = run(rd.from_pandas(df))
    assert got.loc[0, "last_type"] == "purchase"
    assert got.loc[0, "last_purchase_value"] == 30.0
    assert got.loc[0, "n_events"] == 3
    assert got.loc[0, "first_ts"] == t[0]
    # user 2 has no purchase -> NaN survivor
    assert np.isnan(got.loc[1, "last_purchase_value"])
    assert got.loc[1, "last_type"] == "view"
    # associativity: one block per row
    shredded = run(
        rd.from_pandas([df.iloc[[i]] for i in range(len(df))])
    )
    pd.testing.assert_frame_equal(got, shredded)


def test_golden_record_tie_on_ts_uses_order(ray_session):
    import ray.data as rd

    from tsfeatures_ray.functions.survivorship import golden_record

    t = pd.to_datetime(["2024-01-01", "2024-01-01"]).astype("datetime64[us]")
    df = pd.DataFrame(
        {
            "user_id": [7, 7],
            "ts": t,
            "event_id": [2, 1],
            "event_type": ["b", "a"],
        }
    )
    rules = [
        {"name": "last_type", "col": "event_type", "how": "last"},
        {"name": "first_type", "col": "event_type", "how": "first"},
    ]
    got = golden_record(
        rd.from_pandas(df), "user_id", "ts", "event_id", rules
    ).to_pandas()
    assert got.loc[0, "last_type"] == "b"  # higher event_id wins the tie
    assert got.loc[0, "first_type"] == "a"


def test_golden_record_bad_rule(ray_session):
    import ray.data as rd

    from tsfeatures_ray.functions.survivorship import golden_record

    df = pd.DataFrame({"user_id": [1], "ts": [1], "event_id": [1]})
    with pytest.raises(ValueError):
        golden_record(
            rd.from_pandas(df), "user_id", "ts", "event_id",
            [{"name": "x", "how": "median", "col": "ts"}],
        )
    with pytest.raises(ValueError):
        golden_record(
            rd.from_pandas(df), "user_id", "ts", "event_id",
            [{"name": "x", "how": "last"}],
        )


def test_hampel_hand_case(ray_session):
    import ray.data as rd

    from tsfeatures_ray.functions.windows import hampel_outliers

    # key 1: flat-with-jitter signal plus one planted spike; key 2
    # constant (mad 0 -> nothing emitted)
    v = np.array([10.0, 10.1, 9.9, 10.0, 100.0, 10.1, 9.9, 10.0])
    df = pd.DataFrame(
        {
            "k": np.array([1] * 8 + [2] * 5, dtype=np.int64),
            "o": np.arange(13, dtype=np.int64),
            "v": np.concatenate([v, np.full(5, 7.0)]),
        }
    )
    got = (
        hampel_outliers(_ds(df), key="k", order="o", col="v",
                        window=3, num_parts=3)
        .to_pandas()
        .sort_values(["k", "o"])
        .reset_index(drop=True)
    )
    assert list(got["k"].unique()) == [1]
    assert 4 in got["o"].tolist()  # the spike is flagged
    spike = got[got["o"] == 4].iloc[0]
    assert spike["v"] == 100.0
    # brute replication of the flagged set for key 1
    s = pd.Series(v)
    med = s.rolling(3, min_periods=1).median().to_numpy()
    dev = np.abs(v - med)
    mad = np.median(dev)
    score = dev / (1.4826 * mad)
    want_o = np.flatnonzero(score > 3.0)
    assert got["o"].tolist() == want_o.tolist()


def test_hampel_window_validation(ray_session):
    from tsfeatures_ray.functions.windows import hampel_outliers

    with pytest.raises(ValueError):
        hampel_outliers(None, key="k", order="o", col="v", window=0)


def test_align_locf_corr_hand_case(ray_session):
    from tsfeatures_ray.functions.windows import align_locf_corr

    # key 1: a at t=1,3,5 values 1,2,3; b at t=2,4,6 values 10,20,30.
    # union (b started at t=2): positions t=2..6 give pairs
    # (1,10),(2,10),(2,20),(3,20),(3,30) -> positive but < 1 corr
    df = pd.DataFrame(
        {
            "k": np.ones(6, dtype=np.int64),
            "t": np.array([1, 2, 3, 4, 5, 6], dtype=np.int64),
            "o": np.arange(6, dtype=np.int64),
            "ty": ["a", "b", "a", "b", "a", "b"],
            "v": [1.0, 10.0, 2.0, 20.0, 3.0, 30.0],
        }
    )
    got = align_locf_corr(
        _ds(df), "k", "t", "o", "ty", "a", "b", "v", num_parts=3
    ).to_pandas()
    assert len(got) == 1 and int(got.loc[0, "n_aligned"]) == 5
    x = np.array([1, 2, 2, 3, 3], dtype=float)
    y = np.array([10, 10, 20, 20, 30], dtype=float)
    n = 5.0
    num = n * (x * y).sum() - x.sum() * y.sum()
    den = np.sqrt(n * (x * x).sum() - x.sum() ** 2) * np.sqrt(
        n * (y * y).sum() - y.sum() ** 2
    )
    w = num / den + 1e-7
    assert got.loc[0, "corr"] == np.floor(w * 1e6 + 0.5) / 1e6


def test_align_locf_corr_zero_variance_and_singleton(ray_session):
    from tsfeatures_ray.functions.windows import align_locf_corr

    df = pd.DataFrame(
        {
            "k": np.array([1, 1, 1, 2, 2], dtype=np.int64),
            "t": np.array([1, 2, 3, 1, 2], dtype=np.int64),
            "o": np.arange(5, dtype=np.int64),
            # key 1: constant a -> zero variance -> NaN corr
            # key 2: only one aligned position -> excluded
            "ty": ["a", "b", "b", "a", "b"],
            "v": [5.0, 1.0, 2.0, 1.0, 2.0],
        }
    )
    got = (
        align_locf_corr(_ds(df), "k", "t", "o", "ty", "a", "b", "v",
                        num_parts=2)
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert got["k"].tolist() == [1]
    assert int(got.loc[0, "n_aligned"]) == 2
    assert np.isnan(got.loc[0, "corr"])


def test_periodogram_planted_harmonic(ray_session):
    """A planted pure cosine at harmonic k concentrates power ~n at k
    and ~0 elsewhere (z-normalization makes the peak n-independent of
    amplitude)."""
    from tsfeatures_ray.functions.spectral import periodogram_probe

    n = 64
    i = np.arange(n)
    rows = []
    for key, k_true in (("a", 2), ("b", 5)):
        y = np.rint(1000 + 500 * np.cos(2 * np.pi * k_true * i / n))
        rows.append(
            pd.DataFrame(
                {
                    "key": key,
                    "bucket": pd.to_datetime("2024-01-01")
                    + pd.to_timedelta(i, unit="h"),
                    "y": y,
                }
            )
        )
    df = pd.concat(rows, ignore_index=True)
    df["bucket"] = df["bucket"].astype("datetime64[us]")
    got = (
        periodogram_probe(
            _ds(df), "key", "bucket", "y", ks=(1, 2, 3, 4, 5, 6),
            num_parts=3,
        )
        .to_pandas()
        .pivot(index="key", columns="k", values="power")
    )
    assert got.loc["a", 2] > 0.9 * n and got.loc["a", 2] > 50 * got.loc["a", 3]
    assert got.loc["b", 5] > 0.9 * n and got.loc["b", 5] > 50 * got.loc["b", 1]


def test_periodogram_short_and_constant_series_dropped(ray_session):
    from tsfeatures_ray.functions.spectral import periodogram_probe

    df = pd.DataFrame(
        {
            "key": ["s"] * 3 + ["c"] * 10,
            "bucket": pd.to_datetime("2024-01-01")
            + pd.to_timedelta(list(range(3)) + list(range(10)), unit="h"),
            "y": [1.0, 2.0, 3.0] + [7.0] * 10,
        }
    )
    df["bucket"] = df["bucket"].astype("datetime64[us]")
    out = periodogram_probe(_ds(df), "key", "bucket", "y", ks=(1, 2))
    assert out.count() == 0  # short (n<4) and zero-variance both drop


def test_hard_negatives_brute(ray_session):
    from tsfeatures_ray.functions.similarity import hard_negatives

    rng = np.random.default_rng(51)
    n, d = 80, 8
    m = rng.normal(size=(n, d))
    labels = rng.integers(0, 3, n).astype(np.int64)
    df = pd.DataFrame(
        {
            "vec_id": np.arange(n, dtype=np.int64),
            "embedding": list(m.astype(np.float32)),
            "label": labels,
        }
    )
    got = (
        hard_negatives(_ds(df), k=3)
        .to_pandas()
        .sort_values(["anchor_id", "rank"])
        .reset_index(drop=True)
    )
    mf = m.astype(np.float32).astype(np.float64)
    mn = mf / np.linalg.norm(mf, axis=1, keepdims=True)
    sims = mn @ mn.T
    sims = sims + 1e-7
    sims = np.sign(sims) * np.floor(np.abs(sims) * 1e6 + 0.5) / 1e6
    for a in range(n):
        cand = np.flatnonzero(labels != labels[a])
        order = np.lexsort((cand, -sims[a, cand]))[:3]
        want = cand[order]
        rows = got[got["anchor_id"] == a]
        assert list(rows["neg_id"]) == list(want)
        # every negative really has a different label
        assert (labels[rows["neg_id"]] != labels[a]).all()


def test_review_fixes_degenerate_edges(ray_session, tmp_path):
    """Round-5 review batch: degenerate inputs crash nowhere and track
    the oracle's NULL/no-row semantics."""
    import ray.data as rd

    from tsfeatures_ray.functions.stats import (
        gini_coefficient,
        mann_whitney_u,
        mutual_information,
        pareto_abc,
    )
    from tsfeatures_ray.functions.survivorship import golden_record
    from tsfeatures_ray.metrics import rolling_origin_backtest

    # backtest: a horizon with zero pairs emits NO row (not n=0/NaN)
    h = pd.Timedelta(hours=1)
    t0 = pd.Timestamp("2024-01-01")
    bt = pd.DataFrame(
        {
            "k": ["A", "A"],
            "bucket": pd.Series([t0, t0 + h]).astype("datetime64[us]"),
            "y": [1.0, 2.0],
        }
    )
    out = rolling_origin_backtest(
        rd.from_pandas(bt), "k", "bucket", "y", horizons=(1, 9)
    ).to_pandas()
    assert list(out["horizon"]) == [1]

    # gini: zero total -> empty typed result, no ZeroDivisionError
    z = gini_coefficient(
        rd.from_pandas(pd.DataFrame({"v": [0.0, 0.0, 0.0]})), "v"
    )
    assert z.schema().names == ["n", "total", "gini"] and z.count() == 0

    # mann-whitney: all values tied -> z is NaN (oracle SQRT(0) NULL)
    mw = mann_whitney_u(
        rd.from_pandas(
            pd.DataFrame({"g": ["a", "a", "b", "b"], "v": [1.0] * 4})
        ),
        "v", "g", "a", "b", num_parts=2,
    ).to_pandas()
    assert np.isnan(mw.loc[0, "z"]) and mw.loc[0, "u_a"] == 2.0

    # mutual information: single-category marginal -> nmi NaN
    mi = mutual_information(
        rd.from_pandas(pd.DataFrame({"a": ["x"] * 10, "b": list("pq") * 5})),
        "a", "b",
    ).to_pandas()
    assert np.isnan(mi.loc[0, "nmi"]) and mi.loc[0, "mi"] == 0.0

    # golden_record: datetime rule with no matching rows stays NaT and
    # the column stays datetime64 across group outputs
    gr = pd.DataFrame(
        {
            "user_id": [1, 2],
            "ts": pd.Series(
                ["2024-01-01", "2024-01-02"]
            ).astype("datetime64[us]"),
            "event_id": [1, 2],
            "event_type": ["view", "purchase"],
        }
    )
    out2 = (
        golden_record(
            rd.from_pandas(gr), "user_id", "ts", "event_id",
            [
                # unfiltered count keeps every key in the output
                {"name": "n_events", "how": "count"},
                {"name": "last_purchase_ts", "col": "ts", "how": "last",
                 "when": ("event_type", "purchase")},
            ],
        )
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    assert len(out2) == 2
    assert str(out2["last_purchase_ts"].dtype).startswith("datetime64")
    assert pd.isna(out2.loc[0, "last_purchase_ts"])
    assert out2.loc[1, "last_purchase_ts"] == pd.Timestamp("2024-01-02")

    # pareto: zero-total keeps the key dtype from the aggregate
    p = pareto_abc(
        rd.from_pandas(pd.DataFrame({"k": [1, 2], "v": [0.0, 0.0]})),
        "k", "v",
    )
    assert p.schema().names == ["k", "revenue_cents", "cum_share", "abc"]
    assert p.count() == 0

    # welch query: weekend-only corpus -> zero rows, no KeyError
    import __ray_entry__ as entry

    sat = pd.to_datetime("2024-01-06")  # Saturday
    ev = pd.DataFrame(
        {
            "event_id": [1, 2, 3],
            "ts": pd.Series([sat] * 3).astype("datetime64[us]"),
            "user_id": [1, 2, 3],
            "event_type": ["x", "x", "x"],
            "value": [1.0, 2.0, 3.0],
            "props": ["{}"] * 3,
        }
    )
    ev.to_parquet(tmp_path / "events.parquet")
    w = entry.queries()["events_welch_weekend"](str(tmp_path)).to_pandas()
    assert len(w) == 0


def test_knn_purity_planted_clusters(ray_session):
    """Tightly clustered labels give purity ~1; shuffled labels give
    purity ~1/|labels|."""
    from tsfeatures_ray.functions.similarity import knn_purity

    rng = np.random.default_rng(81)
    centers = rng.normal(size=(3, 16)) * 10
    vecs, labs = [], []
    for c in range(3):
        vecs.append(centers[c] + rng.normal(size=(40, 16)) * 0.01)
        labs.extend([c] * 40)
    m = np.concatenate(vecs)
    df = pd.DataFrame(
        {
            "vec_id": np.arange(len(m), dtype=np.int64),
            "embedding": list(m.astype(np.float32)),
            "label": np.asarray(labs, dtype=np.int64),
        }
    )
    got = knn_purity(_ds(df), k=5).to_pandas()
    assert (got["purity"] > 0.99).all()
    assert got["n_vectors"].sum() == 120
    # shuffled labels destroy purity
    df2 = df.assign(label=rng.permutation(df["label"].to_numpy()))
    got2 = knn_purity(_ds(df2), k=5).to_pandas()
    assert got2["purity"].mean() < 0.6


def test_knn_purity_fewer_vectors_than_k(ray_session):
    """With 5 vectors and k=10 every vector has only 4 neighbours: the
    purity denominator is the neighbours actually found, checked
    against a brute-force numpy kNN."""
    from tsfeatures_ray.functions.similarity import knn_purity

    rng = np.random.default_rng(3)
    m = rng.normal(size=(5, 8))
    labels = np.array([0, 0, 1, 1, 1], dtype=np.int64)
    df = pd.DataFrame(
        {
            "vec_id": np.arange(5, dtype=np.int64),
            "embedding": list(m.astype(np.float32)),
            "label": labels,
        }
    )
    got = (
        knn_purity(_ds(df), k=10).to_pandas()
        .sort_values("label").reset_index(drop=True)
    )

    mn = m.astype(np.float32).astype(np.float64)
    mn = mn / np.linalg.norm(mn, axis=1, keepdims=True)
    sims = mn @ mn.T
    match = {0: 0, 1: 0}
    found = {0: 0, 1: 0}
    for i in range(5):
        others = [j for j in range(5) if j != i]
        nbr = sorted(others, key=lambda j: (-sims[i, j], j))[:10]
        match[labels[i]] += int((labels[nbr] == labels[i]).sum())
        found[labels[i]] += len(nbr)
    want = [match[c] / found[c] for c in (0, 1)]
    assert found == {0: 8, 1: 12}
    assert got["label"].tolist() == [0, 1]
    assert got["n_vectors"].tolist() == [2, 3]
    np.testing.assert_allclose(got["purity"], want, atol=2e-6)
