"""Unit gates: session attribution, Benford audit, chi-square
independence, Zipf slope."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _ds(df):
    import ray.data as rd

    return rd.from_pandas(df)


def test_attribution_hand_case(ray_session):
    from tsfeatures_ray.functions.events import session_attribution

    t0 = pd.Timestamp("2024-01-01 00:00:00")
    m = pd.Timedelta(minutes=1)
    h = pd.Timedelta(hours=2)
    rows = [
        # user 1, session 1: view -> purchase (converts, first=view)
        (1, t0, 1, "view"),
        (1, t0 + m, 2, "purchase"),
        # user 1, session 2 (after a 2h gap): click only
        (1, t0 + h, 3, "click"),
        # user 2, session 1: purchase first (converts, first=purchase)
        (2, t0, 4, "purchase"),
        (2, t0 + m, 5, "purchase"),
        # user 3: view only
        (3, t0, 6, "view"),
    ]
    df = pd.DataFrame(rows, columns=["user_id", "ts", "event_id", "event_type"])
    df["ts"] = df["ts"].astype("datetime64[us]")
    got = (
        session_attribution(_ds(df), num_parts=3)
        .sort("first_touch")
        .to_pandas()
    )
    want = pd.DataFrame(
        {
            "first_touch": ["click", "purchase", "view"],
            "n_sessions": np.array([1, 1, 2], dtype=np.int64),
            "n_conversions": np.array([0, 2, 1], dtype=np.int64),
            "conv_rate": [0.0, 1.0, 0.5],
        }
    )
    pd.testing.assert_frame_equal(got.reset_index(drop=True), want)


def test_benford_digits_and_formula(ray_session):
    from tsfeatures_ray.functions.stats import benford_audit

    rng = np.random.default_rng(2)
    # log-uniform values follow Benford closely
    v = 10 ** rng.uniform(0, 4, 5000)
    df = pd.DataFrame({"x": np.r_[v, [-5.0, 0.0]]})  # non-positive dropped
    got = benford_audit(_ds(df), "x").sort("digit").to_pandas()
    assert got["n"].sum() == 5000
    assert list(got["digit"]) == list(range(1, 10))
    # brute digit extraction from exact cents
    c = np.rint(v * 100).astype(np.int64)
    c = c[c > 0]
    digs = np.array([int(str(x)[0]) for x in c])
    want_n = pd.Series(digs).value_counts().sort_index()
    assert list(got["n"]) == list(want_n)
    tot = float(len(c))
    e = tot * np.log10(1 + 1.0 / got["digit"].to_numpy(dtype=float))
    np.testing.assert_allclose(got["expected"], e, atol=2e-6)
    np.testing.assert_allclose(
        got["chi2_contrib"],
        (got["n"].to_numpy(dtype=float) - e) ** 2 / e,
        atol=2e-6,
    )
    # a Benford-consistent sample: every per-digit contribution is small
    assert got["chi2_contrib"].sum() < 30


def test_chi2_independent_and_dependent(ray_session):
    from tsfeatures_ray.functions.stats import chi2_independence

    rng = np.random.default_rng(8)
    n = 4000
    a = rng.choice(list("xyz"), n)
    b_ind = rng.choice(list("pq"), n)
    got = chi2_independence(
        _ds(pd.DataFrame({"a": a, "b": b_ind})), "a", "b"
    ).to_pandas()
    assert got.loc[0, "dof"] == 2 and got.loc[0, "n"] == n
    assert got.loc[0, "chi2"] < 12  # independent -> small statistic

    b_dep = np.where(a == "x", "p", "q")  # fully dependent
    got2 = chi2_independence(
        _ds(pd.DataFrame({"a": a, "b": b_dep})), "a", "b"
    ).to_pandas()
    assert got2.loc[0, "chi2"] == pytest.approx(n, rel=1e-6)

    # brute parity on the independent sample
    piv = (
        pd.DataFrame({"a": a, "b": b_ind})
        .groupby(["a", "b"])
        .size()
        .unstack(fill_value=0)
    )
    obs = piv.to_numpy(dtype=float)
    e = np.outer(obs.sum(1), obs.sum(0)) / obs.sum()
    chi2 = ((obs - e) ** 2 / e).sum()
    assert got.loc[0, "chi2"] == pytest.approx(chi2, abs=2e-6)


def test_zipf_slope_on_planted_powerlaw(ray_session):
    from tsfeatures_ray.functions.text import zipf_slope

    # counts exactly proportional to 1/rank -> slope == -1
    words = []
    for r in range(1, 41):
        w = "w" + chr(97 + (r - 1) // 26) + chr(97 + (r - 1) % 26)
        words.extend([w] * (4000 // r))
    text = " ".join(words)
    got = zipf_slope(_ds(pd.DataFrame({"text": [text]})), k=40)
    assert got.loc[0, "n_ranks"] == 40
    assert got.loc[0, "zipf_slope"] == pytest.approx(-1.0, abs=0.02)


def test_triangle_count_brute(ray_session):
    import ray.data as rd

    from tsfeatures_ray.functions.graph import triangle_count

    rng = np.random.default_rng(13)
    n, m = 60, 300
    a = rng.integers(0, n, m)
    b = rng.integers(0, n, m)
    got = (
        triangle_count(
            rd.from_pandas(pd.DataFrame({"id_a": a, "id_b": b})),
            num_parts=5,
        )
        .to_pandas()
        .iloc[0]
    )
    adj = np.zeros((n, n), bool)
    for x, y in zip(a, b):
        if x != y:
            adj[min(x, y), max(x, y)] = True
    tri = sum(
        1
        for i in range(n)
        for j in range(i + 1, n)
        if adj[i, j]
        for k in range(j + 1, n)
        if adj[i, k] and adj[j, k]
    )
    assert got["n_triangles"] == tri
    assert got["n_edges"] == int(adj.sum())
    assert got["n_nodes"] == len(set(np.r_[a[a != b], b[a != b]]))


def test_triangle_count_known_shapes(ray_session):
    import ray.data as rd

    from tsfeatures_ray.functions.graph import triangle_count

    # K4 has 4 triangles; self-loops and duplicate edges are ignored
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
             (2, 2), (1, 0)]
    df = pd.DataFrame(edges, columns=["id_a", "id_b"]).astype(np.int64)
    got = triangle_count(rd.from_pandas(df), num_parts=3).to_pandas().iloc[0]
    assert got["n_triangles"] == 4
    assert got["n_edges"] == 6
    assert got["n_nodes"] == 4


def test_distinct_overlap_brute(ray_session):
    from tsfeatures_ray.functions.sketches import distinct_overlap

    rng = np.random.default_rng(3)
    n = 3000
    df = pd.DataFrame(
        {
            "u": rng.integers(0, 200, n),
            "c": rng.choice(list("abcd"), n),
        }
    )
    got = (
        distinct_overlap(_ds(df), "u", "c", num_parts=5)
        .sort(["cat_a", "cat_b"])
        .to_pandas()
    )
    sets = {c: set(df[df["c"] == c]["u"]) for c in "abcd"}
    rows = []
    for i, a in enumerate("abcd"):
        for b in "abcd"[i + 1:]:
            both = len(sets[a] & sets[b])
            if both:
                rows.append(
                    (a, b, both, len(sets[a]), len(sets[b]),
                     both / len(sets[a] | sets[b]))
                )
    assert len(got) == len(rows)
    for r, (a, b, both, na, nb, j) in zip(got.itertuples(index=False), rows):
        assert (r.cat_a, r.cat_b, r.n_both, r.n_a, r.n_b) == (a, b, both, na, nb)
        assert r.jaccard == pytest.approx(j, abs=2e-6)


def test_partition_skew_brute(ray_session):
    from tsfeatures_ray.functions.profile import partition_skew
    from tsfeatures_ray.functions.sampling import knuth_hash32

    rng = np.random.default_rng(6)
    keys = rng.integers(0, 40, 5000).astype(np.int64)
    got = (
        partition_skew(_ds(pd.DataFrame({"k": keys})), "k", num_parts=8)
        .sort("part")
        .to_pandas()
    )
    part = (knuth_hash32(keys) % np.uint64(8)).astype(np.int64)
    df = pd.DataFrame({"part": part, "k": keys})
    kc = df.groupby(["part", "k"]).size().rename("n").reset_index()
    want = (
        kc.groupby("part")["n"]
        .agg(n_rows="sum", n_keys="size", max_key_rows="max")
        .reset_index()
        .astype(np.int64)
    )
    pd.testing.assert_frame_equal(got.reset_index(drop=True), want)
    assert got["n_rows"].sum() == 5000


def test_pagerank_brute(ray_session):
    import ray.data as rd

    from tsfeatures_ray.functions.graph import pagerank

    rng = np.random.default_rng(23)
    n, m = 80, 400
    a = rng.integers(0, n, m)
    b = rng.integers(0, n, m)
    got = (
        pagerank(
            rd.from_pandas(pd.DataFrame({"id_a": a, "id_b": b})),
            iters=10,
            num_parts=5,
        )
        .sort("node")
        .to_pandas()
    )
    E = set()
    for x, y in zip(a, b):
        if x != y:
            E.add((min(x, y), max(x, y)))
    nodes = sorted({x for e in E for x in e})
    idx = {v: i for i, v in enumerate(nodes)}
    N = len(nodes)
    deg = np.zeros(N)
    adj = [[] for _ in range(N)]
    for x, y in E:
        deg[idx[x]] += 1
        deg[idx[y]] += 1
        adj[idx[x]].append(idx[y])
        adj[idx[y]].append(idx[x])
    r = np.full(N, 1.0 / N)
    for _ in range(10):
        nr = np.zeros(N)
        for i in range(N):
            for j in adj[i]:
                nr[j] += r[i] / deg[i]
        r = (1 - 0.85) / N + 0.85 * nr
    r6 = r + 1e-7
    r6 = np.sign(r6) * np.floor(np.abs(r6) * 1e6 + 0.5) / 1e6
    assert list(got["node"]) == nodes
    np.testing.assert_allclose(got["rank"].to_numpy(), r6, atol=2e-6)
    # ranks form a distribution over the N edge-connected nodes
    assert got["rank"].sum() == pytest.approx(1.0, abs=1e-3)


def test_value_deciles_brute(ray_session):
    import __ray_entry__ as entry

    got = entry._q_events_value_deciles("/root/testdata/sf0.001").to_pandas()
    ev = pd.read_parquet("/root/testdata/sf0.001/events.parquet",
                         columns=["event_type", "value"])
    v = np.sort(ev["value"].to_numpy())
    n = len(v)
    bounds = np.array(
        [v[max(1, int(np.ceil(k / 10 * n))) - 1] for k in range(1, 10)]
    )
    dec = np.searchsorted(bounds, ev["value"].to_numpy(), side="left")
    want = (
        pd.DataFrame({"event_type": ev["event_type"], "decile": dec})
        .groupby(["event_type", "decile"])
        .size()
        .rename("n")
        .reset_index()
        .astype({"decile": np.int64, "n": np.int64})
    )
    pd.testing.assert_frame_equal(got.reset_index(drop=True), want)


def test_ks_exponential_brute(ray_session):
    from tsfeatures_ray.functions.stats import ks_exponential

    rng = np.random.default_rng(31)
    # true exponential sample -> small D; shifted uniform -> large D
    x = rng.exponential(5.0, 4000)
    got = ks_exponential(
        _ds(pd.DataFrame({"x": x})), "x", num_parts=6
    ).to_pandas()
    n = len(x)
    mu = x.sum() / n
    xs = np.sort(x)
    i = np.arange(1, n + 1, dtype=float)
    f = 1 - np.exp(-xs / mu)
    d = max((i / n - f).max(), (f - (i - 1) / n).max())
    assert got.loc[0, "n"] == n
    assert got.loc[0, "mean_value"] == pytest.approx(mu, abs=2e-6)
    assert got.loc[0, "ks_d"] == pytest.approx(d, abs=2e-6)
    assert got.loc[0, "ks_d"] < 0.05  # a true exponential fits

    u = rng.uniform(4, 6, 4000)
    got2 = ks_exponential(
        _ds(pd.DataFrame({"x": u})), "x", num_parts=6
    ).to_pandas()
    assert got2.loc[0, "ks_d"] > 0.3  # a uniform blob does not


def test_mann_whitney_brute(ray_session):
    """Distributed average ranks + tie correction vs a single-process
    pandas computation, with planted heavy ties across partition
    boundaries (value-pure partition assignment must keep them exact)."""
    from tsfeatures_ray.functions.stats import mann_whitney_u

    rng = np.random.RandomState(7)
    # quantized values force many ties; two drifted cohorts
    xa = np.round(rng.gamma(2.0, 10.0, 400), 0)
    xb = np.round(rng.gamma(2.2, 10.0, 350), 0)
    df = pd.DataFrame(
        {
            "g": ["a"] * len(xa) + ["b"] * len(xb) + ["noise"] * 50,
            "v": np.concatenate([xa, xb, rng.rand(50)]),
        }
    )
    got = (
        mann_whitney_u(_ds(df), "v", "g", "a", "b", num_parts=7)
        .to_pandas()
        .iloc[0]
    )
    sub = df[df.g.isin(["a", "b"])]
    r = sub["v"].rank(method="average").to_numpy()
    ga = (sub.g == "a").to_numpy()
    n1, n2 = int(ga.sum()), int((~ga).sum())
    n = n1 + n2
    r1 = float(r[ga].sum())
    u = r1 - n1 * (n1 + 1) / 2.0
    _, cnt = np.unique(sub["v"].to_numpy(), return_counts=True)
    tie = float((cnt.astype(float) ** 3 - cnt).sum())
    var = n1 * n2 / 12.0 * ((n + 1) - tie / (n * (n - 1)))
    z = (u - n1 * n2 / 2.0) / np.sqrt(var)
    assert int(got["n_a"]) == n1 and int(got["n_b"]) == n2
    assert abs(got["rank_sum_a"] - r1) < 1e-6
    assert abs(got["u_a"] - u) < 1e-6
    assert abs(got["z"] - round(z, 6)) < 2e-6


def test_ks_two_sample_brute(ray_session):
    from tsfeatures_ray.functions.stats import ks_two_sample

    rng = np.random.RandomState(11)
    xa = np.round(rng.normal(0, 1, 300), 1)
    xb = np.round(rng.normal(0.4, 1.2, 260), 1)
    df = pd.DataFrame(
        {
            "g": ["a"] * len(xa) + ["b"] * len(xb),
            "v": np.concatenate([xa, xb]),
        }
    )
    got = (
        ks_two_sample(_ds(df), "v", "g", "a", "b", num_parts=5)
        .to_pandas()
        .iloc[0]
    )
    sa, sb = np.sort(xa), np.sort(xb)
    allv = np.unique(df["v"].to_numpy())
    fa = np.searchsorted(sa, allv, side="right") / len(xa)
    fb = np.searchsorted(sb, allv, side="right") / len(xb)
    assert abs(got["ks_d"] - round(float(np.abs(fa - fb).max()), 6)) < 2e-6


def test_ks_two_sample_empty_cohort(ray_session):
    from tsfeatures_ray.functions.stats import ks_two_sample

    df = pd.DataFrame({"g": ["a", "a"], "v": [1.0, 2.0]})
    out = ks_two_sample(_ds(df), "v", "g", "a", "b")
    # 0-row to_pandas drops columns in this Ray version; gate on schema
    assert out.schema().names == ["n_a", "n_b", "ks_d"]
    assert out.count() == 0


def test_mutual_information_known_cases(ray_session):
    from tsfeatures_ray.functions.stats import mutual_information

    # independent uniform 2x2: MI = 0
    df = pd.DataFrame(
        {"a": ["x", "x", "y", "y"] * 25, "b": ["p", "q", "p", "q"] * 25}
    )
    out = mutual_information(_ds(df), "a", "b").to_pandas().iloc[0]
    assert out["mi"] == pytest.approx(0.0, abs=1e-6)
    assert out["nmi"] == pytest.approx(0.0, abs=1e-6)
    assert out["h_a"] == pytest.approx(np.log(2), abs=1e-6)
    # perfectly dependent: MI = H = ln 2, NMI = 1
    df2 = pd.DataFrame({"a": ["x", "y"] * 50, "b": ["p", "q"] * 50})
    out2 = mutual_information(_ds(df2), "a", "b").to_pandas().iloc[0]
    assert out2["mi"] == pytest.approx(np.log(2), abs=1e-6)
    assert out2["nmi"] == pytest.approx(1.0, abs=1e-6)
    assert int(out2["n"]) == 100


def test_welch_weekend_query_matches_brute(ray_session, tmp_path):
    """The registry Welch query against a manual computation on a tiny
    synthetic events parquet (including the cents quantization)."""
    import __ray_entry__ as entry

    rng = np.random.RandomState(23)
    n = 400
    ts = pd.to_datetime("2024-01-01") + pd.to_timedelta(
        rng.randint(0, 60 * 86400, n), unit="s"
    )
    df = pd.DataFrame(
        {
            "event_id": np.arange(n, dtype=np.int64),
            "ts": ts.astype("datetime64[us]"),
            "user_id": rng.randint(0, 10, n).astype(np.int64),
            "event_type": rng.choice(["x", "y"], n),
            "value": np.round(rng.gamma(2, 30, n), 2),
            "props": ["{}"] * n,
        }
    )
    df.to_parquet(tmp_path / "events.parquet")
    got = (
        entry.queries()["events_welch_weekend"](str(tmp_path))
        .to_pandas()
        .sort_values("event_type")
        .reset_index(drop=True)
    )
    for _, r in got.iterrows():
        sub = df[df.event_type == r["event_type"]]
        c = np.rint(sub["value"].to_numpy() * 100)
        we = sub["ts"].dt.dayofweek.to_numpy() >= 5
        x1, x2 = c[~we], c[we]
        n1, n2 = len(x1), len(x2)
        m1, m2 = x1.mean(), x2.mean()
        v1, v2 = x1.var(ddof=1), x2.var(ddof=1)
        se2 = v1 / n1 + v2 / n2
        t = (m1 - m2) / np.sqrt(se2)
        dfw = se2**2 / ((v1 / n1) ** 2 / (n1 - 1) + (v2 / n2) ** 2 / (n2 - 1))
        assert int(r["n_weekday"]) == n1 and int(r["n_weekend"]) == n2
        assert r["t_stat"] == pytest.approx(t, abs=2e-6)
        assert r["df_welch"] == pytest.approx(dfw, abs=1e-4)
        assert r["mean_weekday"] == pytest.approx(m1 / 100, abs=2e-6)


def test_pareto_abc_brute(ray_session):
    from tsfeatures_ray.functions.stats import pareto_abc

    rng = np.random.RandomState(31)
    n = 1500
    df = pd.DataFrame(
        {
            "k": rng.randint(0, 60, n).astype(np.int64),
            "v": np.round(rng.pareto(1.5, n) * 50, 2),
        }
    )
    got = (
        pareto_abc(_ds(df), "k", "v", num_parts=7)
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    cents = np.rint(df["v"].to_numpy() * 100).astype(np.int64)
    agg = (
        pd.DataFrame({"k": df["k"], "c": cents})
        .groupby("k")["c"]
        .sum()
        .reset_index()
        .sort_values(["c", "k"], ascending=[False, True])
    )
    cum = np.cumsum(agg["c"].to_numpy())
    share = cum / cum[-1]
    abc = np.where(share <= 0.8, "A", np.where(share <= 0.95, "B", "C"))
    want = (
        pd.DataFrame(
            {
                "k": agg["k"].to_numpy(),
                "revenue_cents": agg["c"].to_numpy(),
                "cum_share": np.floor((share + 1e-7) * 1e6 + 0.5) / 1e6,
                "abc": abc,
            }
        )
        .sort_values("k")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want)
    # classes are monotone along the descending-revenue order
    order = got.sort_values("cum_share")
    assert "".join(order["abc"]) == "".join(sorted(order["abc"]))


def test_gini_known_distributions(ray_session):
    from tsfeatures_ray.functions.stats import gini_coefficient

    # perfectly equal values -> gini 0
    eq = pd.DataFrame({"v": np.full(100, 7.0)})
    g0 = gini_coefficient(_ds(eq), "v").to_pandas().iloc[0]
    assert g0["gini"] == pytest.approx(0.0, abs=1e-6)
    # one holder of everything -> gini -> (n-1)/n
    n = 50
    one = pd.DataFrame({"v": np.r_[np.zeros(n - 1), [100.0]]})
    g1 = gini_coefficient(_ds(one), "v").to_pandas().iloc[0]
    assert g1["gini"] == pytest.approx((n - 1) / n, abs=1e-6)
    # brute parity on random data
    rng = np.random.RandomState(5)
    v = np.round(rng.gamma(2, 20, 800), 2)
    g2 = gini_coefficient(
        _ds(pd.DataFrame({"v": v})), "v"
    ).to_pandas().iloc[0]
    c = np.sort(np.rint(v * 100).astype(np.int64)).astype(float)
    i = np.arange(1, len(c) + 1, dtype=float)
    want = 2 * (i * c).sum() / (len(c) * c.sum()) - (len(c) + 1) / len(c)
    assert g2["gini"] == pytest.approx(want, abs=2e-6)


def test_anova_eta2_hand_cases(ray_session):
    from tsfeatures_ray.functions.stats import anova_eta2

    df = pd.DataFrame(
        {
            # key 1: category fully explains y -> eta2 = 1
            # key 2: identical group means -> eta2 = 0
            # key 3: single level -> NaN
            "k": [1, 1, 1, 1, 2, 2, 2, 2, 3, 3],
            "c": ["a", "a", "b", "b", "a", "a", "b", "b", "a", "a"],
            "y": [5.0, 5.0, 9.0, 9.0, 1.0, 3.0, 1.0, 3.0, 1.0, 2.0],
        }
    )
    got = (
        anova_eta2(_ds(df), "k", "c", "y")
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert got.loc[0, "eta2"] == 1.0 and np.isnan(got.loc[0, "f_stat"])
    assert got.loc[1, "eta2"] == pytest.approx(0.0, abs=1e-6)
    assert np.isnan(got.loc[2, "eta2"])
    assert list(got["n_groups"]) == [2, 2, 1]


def test_anova_eta2_brute(ray_session):
    from tsfeatures_ray.functions.stats import anova_eta2

    rng = np.random.RandomState(41)
    n = 2000
    df = pd.DataFrame(
        {
            "k": rng.randint(0, 20, n),
            "c": rng.choice(list("abcde"), n),
            "y": np.rint(rng.gamma(3, 10, n)),
        }
    )
    got = anova_eta2(_ds(df), "k", "c", "y").to_pandas().set_index("k")
    for k, g in df.groupby("k"):
        y = g["y"].to_numpy()
        gm = y.mean()
        sst = ((y - gm) ** 2).sum()
        ssb = sum(
            len(gg) * (gg["y"].mean() - gm) ** 2 for _, gg in g.groupby("c")
        )
        lv = g["c"].nunique()
        want = ssb / sst
        f = (ssb / (lv - 1)) / ((sst - ssb) / (len(y) - lv))
        assert got.loc[k, "eta2"] == pytest.approx(want, abs=2e-6)
        assert got.loc[k, "f_stat"] == pytest.approx(f, rel=1e-4)


def test_kaplan_meier_brute(ray_session):
    """KM estimator with censoring vs a hand-rolled product-limit
    computation, including the terminal drop to exactly zero."""
    from tsfeatures_ray.functions.stats import kaplan_meier

    rng = np.random.RandomState(61)
    n = 400
    t = rng.randint(0, 30, n)
    e = (rng.rand(n) < 0.7).astype(np.int64)
    df = pd.DataFrame({"dur": t.astype(np.int64), "event": e})
    got = (
        kaplan_meier(_ds(df), "dur", "event")
        .to_pandas()
        .sort_values("t")
        .reset_index(drop=True)
    )
    # brute product-limit
    s = 1.0
    want = []
    for tj in sorted(set(t)):
        at_risk = int((t >= tj).sum())
        d = int(((t == tj) & (e == 1)).sum())
        c = int(((t == tj) & (e == 0)).sum())
        if d >= at_risk:
            s = 0.0
        else:
            s *= 1.0 - d / at_risk
        if d > 0:
            want.append((tj, at_risk, d, c, s))
    assert len(got) == len(want)
    for row, (tj, nr, d, c, sv) in zip(got.itertuples(index=False), want):
        assert (row.t, row.n_risk, row.n_events, row.n_censored) == (
            tj, nr, d, c,
        )
        assert row.survival == pytest.approx(sv, abs=2e-6)
    # monotone non-increasing
    assert (np.diff(got["survival"].to_numpy()) <= 1e-12).all()


def test_kaplan_meier_terminal_zero(ray_session):
    from tsfeatures_ray.functions.stats import kaplan_meier

    # no censoring: the curve must END at exactly 0.0 (ln(0) guarded)
    df = pd.DataFrame(
        {"dur": np.array([1, 2, 2, 5], dtype=np.int64),
         "event": np.ones(4, dtype=np.int64)}
    )
    got = kaplan_meier(_ds(df), "dur", "event").to_pandas()
    assert got["survival"].iloc[-1] == 0.0
    assert got["survival"].iloc[0] == 0.75


def test_rank_tests_place_infinities_by_value(ray_session):
    """+inf ranks last and -inf first (they were ranked ahead of every
    finite value: (inf - lo) / inf is NaN)."""
    from tsfeatures_ray.functions.stats import ks_two_sample, mann_whitney_u

    df = pd.DataFrame({"g": ["a", "a", "b", "b"], "v": [1.0, np.inf, 2.0, 3.0]})
    mw = mann_whitney_u(_ds(df), "v", "g", "a", "b").to_pandas().iloc[0]
    assert mw["rank_sum_a"] == 5.0
    ks = ks_two_sample(_ds(df), "v", "g", "a", "b").to_pandas().iloc[0]
    assert ks["ks_d"] == 0.5
    df = pd.DataFrame({"g": ["a", "b", "a", "b", "b", "a"],
                       "v": [1.0, -np.inf, np.inf, 2.0, 3.0, -np.inf]})
    for num_parts in (1, 3, 16):
        mw = mann_whitney_u(_ds(df), "v", "g", "a", "b", num_parts=num_parts)
        want = df["v"].rank(method="average")[df["g"] == "a"].sum()
        assert mw.to_pandas().iloc[0]["rank_sum_a"] == want


def _with_missing(missing):
    """Values [1, 2, missing, 3, 4, 5] (the missing one a NaN or a
    null) with keys and cohorts, as Arrow, and the same rows without the
    missing one."""
    import ray.data as rd

    v = [1.0, 2.0, missing, 3.0, 4.0, 5.0]
    table = pa.table({"k": [1, 1, 2, 3, 3, 4], "g": ["a", "b", "a", "b", "a", "b"],
                      "v": pa.array(v, pa.float64())})
    return rd.from_arrow(table), rd.from_arrow(table.take([0, 1, 3, 4, 5]))


@pytest.mark.parametrize("missing", [float("nan"), None], ids=["nan", "null"])
def test_missing_values_are_skipped(ray_session, missing):
    """Each ordered-scan operator over values with a missing one equals
    the operator over the same rows without it, as SQL aggregates skip
    NULL."""
    from tsfeatures_ray.functions.stats import (
        gini_coefficient, ks_exponential, ks_two_sample, mann_whitney_u, pareto_abc,
    )

    ops = {
        "gini": lambda ds: gini_coefficient(ds, "v"),
        "pareto": lambda ds: pareto_abc(ds, "k", "v", num_parts=3),
        "ks_exponential": lambda ds: ks_exponential(ds, "v", num_parts=3),
        "mann_whitney": lambda ds: mann_whitney_u(ds, "v", "g", "a", "b", num_parts=3),
        "ks_two_sample": lambda ds: ks_two_sample(ds, "v", "g", "a", "b", num_parts=3),
    }
    with_missing, without = _with_missing(missing)
    for name, op in ops.items():
        got, want = op(with_missing).to_pandas(), op(without).to_pandas()
        assert len(want) > 0, name
        pd.testing.assert_frame_equal(
            got.sort_values(list(got.columns)).reset_index(drop=True),
            want.sort_values(list(want.columns)).reset_index(drop=True),
            obj=name,
        )
