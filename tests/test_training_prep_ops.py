"""Training-data prep operators: chunking, redaction, deterministic
sampling / split / mixture, sequence packing. Each op also carries a
live DuckDB oracle in the driver contract; these tests pin the
semantics against brute Python re-derivations and property laws."""

import re

import numpy as np
import pandas as pd
import pytest

import ray.data as rd

from tsfeatures_ray.functions import (
    chunk_documents,
    deterministic_sample,
    hash_split,
    pack_sequences,
    redact,
    weighted_mixture,
)
from tsfeatures_ray.functions.sampling import knuth_hash32


def _docs(texts):
    return rd.from_pandas(
        pd.DataFrame({"doc_id": np.arange(len(texts)), "text": texts})
    )


SIZE, OVERLAP, STEP = 100, 30, 70


def brute_chunks(text, size=SIZE, overlap=OVERLAP):
    text = text or ""
    step = size - overlap
    out, start = [], 0
    while True:
        out.append(text[start : start + size])
        if start + size >= len(text):
            break
        start += step
    return out


class TestChunkDocuments:
    @pytest.fixture(scope="class")
    def result(self, ray_session):
        rng = np.random.default_rng(7)
        texts = [
            "",
            "short",
            "x" * SIZE,          # exactly one chunk
            "x" * (SIZE + 1),    # just spills into a second
        ] + [
            "".join(rng.choice(list("abcde "), size=n))
            for n in rng.integers(0, 900, size=40)
        ]
        df = (
            chunk_documents(_docs(texts), size=SIZE, overlap=OVERLAP)
            .to_pandas()
            .sort_values(["doc_id", "chunk_idx"])
        )
        return texts, df

    def test_matches_brute(self, result):
        texts, df = result
        for i, text in enumerate(texts):
            got = df[df.doc_id == i]["chunk_text"].tolist()
            assert got == brute_chunks(text), f"doc {i}"

    def test_reconstruction(self, result):
        """Dropping each chunk's first `overlap` chars (except chunk 0)
        and concatenating reproduces the document exactly."""
        texts, df = result
        for i, text in enumerate(texts):
            parts = df[df.doc_id == i]["chunk_text"].tolist()
            rebuilt = parts[0] + "".join(p[OVERLAP:] for p in parts[1:])
            assert rebuilt == (text or "")

    def test_chunk_chars(self, result):
        _, df = result
        assert (df["chunk_chars"].to_numpy()
                == df["chunk_text"].str.len().to_numpy()).all()


class TestRedact:
    def test_matches_python_re(self, ray_session):
        pats = [(r"[A-Za-z0-9_.]+@[A-Za-z0-9_.]+", "<EMAIL>"),
                (r"[0-9]{6,}", "<NUM>")]
        texts = [
            "mail me at a.b@c.de or x_1@y2.z now",
            "card 1234567890 pin 12345 ok 999999",
            "",
            "no hits here",
            "edge@ @edge a@b 123456789012345678901234567890",
        ]
        out = (
            redact(_docs(texts), patterns=pats)
            .to_pandas()
            .sort_values("doc_id")
        )
        for i, t in enumerate(texts):
            want, hits = t, 0
            for p, r in pats:
                hits += len(re.findall(p, want))
                want = re.sub(p, r, want)
            row = out[out.doc_id == i].iloc[0]
            assert row["redacted_text"] == want
            assert row["n_redactions"] == hits


class TestSampling:
    def test_reshard_stable(self, ray_session):
        """The same keys are selected regardless of how the input is
        blocked -- the property that makes samples reproducible across
        cluster sizes."""
        ids = pd.DataFrame({"doc_id": np.arange(5000)})
        a = deterministic_sample(
            rd.from_pandas(ids), 0.3, "doc_id"
        ).to_pandas()
        b = deterministic_sample(
            rd.from_pandas(ids).repartition(17), 0.3, "doc_id"
        ).to_pandas()
        assert set(a.doc_id) == set(b.doc_id)

    def test_fraction_accuracy(self, ray_session):
        n = 20000
        got = deterministic_sample(
            rd.from_pandas(pd.DataFrame({"doc_id": np.arange(n)})), 0.25, "doc_id"
        ).to_pandas()
        # binomial 5-sigma bound
        assert abs(len(got) - 0.25 * n) < 5 * np.sqrt(n * 0.25 * 0.75)

    def test_split_partitions(self, ray_session):
        n = 10000
        out = hash_split(
            rd.from_pandas(pd.DataFrame({"doc_id": np.arange(n)})),
            [0.7, 0.2, 0.1],
        ).to_pandas()
        assert len(out) == n
        counts = out["split"].value_counts()
        for name, f in zip(["train", "val", "test"], [0.7, 0.2, 0.1]):
            assert abs(counts[name] - f * n) < 5 * np.sqrt(n * f * (1 - f))
        # split is a pure function of the key
        again = hash_split(
            rd.from_pandas(pd.DataFrame({"doc_id": np.arange(n)})),
            [0.7, 0.2, 0.1],
        ).to_pandas()
        merged = out.merge(again, on="doc_id", suffixes=("_a", "_b"))
        assert (merged["split_a"] == merged["split_b"]).all()

    def test_mixture_salts_independent(self, ray_session):
        ids = pd.DataFrame({"doc_id": np.arange(8000)})
        out = weighted_mixture(
            [("a", rd.from_pandas(ids), 0.5), ("b", rd.from_pandas(ids), 0.5)]
        ).to_pandas()
        sa = set(out[out.source == "a"].doc_id)
        sb = set(out[out.source == "b"].doc_id)
        # same keys, different salts: overlap ~ product of rates, not 1
        inter = len(sa & sb) / len(ids)
        assert 0.15 < inter < 0.35
        assert sa != sb

    def test_hash_matches_integer_reference(self):
        """uint64 wraparound arithmetic == exact big-int arithmetic mod
        2^32 (the property that makes the HUGEINT SQL oracle exact)."""
        keys = np.array([0, 1, 5, 2**31, 123456789], dtype=np.int64)
        got = knuth_hash32(keys, salt=3)
        want = []
        for k in keys:
            h1 = ((int(k) + 3 * 2269549163) * 2654435761) % 2**32
            h2 = ((h1 ^ (h1 >> 16)) * 2246822519) % 2**32
            want.append(h2 ^ (h2 >> 13))
        assert got.tolist() == want


class TestPackSequences:
    def test_matches_brute_prefix_sum(self, ray_session):
        rng = np.random.default_rng(11)
        lens = rng.integers(0, 600, size=400)
        texts = ["y" * int(n) for n in lens]
        budget = 512
        out = (
            pack_sequences(_docs(texts), budget=budget, num_parts=7)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        start = np.concatenate(([0], np.cumsum(lens)[:-1]))
        assert (out["n_tokens"].to_numpy() == lens).all()
        assert (out["start"].to_numpy() == start).all()
        assert (out["seq_id"].to_numpy() == start // budget).all()
        assert (out["offset_in_seq"].to_numpy() == start % budget).all()
        last = start + np.maximum(lens, 1) - 1
        assert (out["n_seqs"].to_numpy()
                == last // budget - start // budget + 1).all()

    def test_boundary_cases(self, ray_session):
        # doc ending exactly at a boundary; doc exactly budget-sized;
        # empty doc sits in the sequence at its offset
        texts = ["a" * 512, "", "b" * 512, "c" * 1024, "d"]
        out = (
            pack_sequences(_docs(texts), budget=512)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        assert out["seq_id"].tolist() == [0, 1, 1, 2, 4]
        assert out["offset_in_seq"].tolist() == [0, 0, 0, 0, 0]
        assert out["n_seqs"].tolist() == [1, 1, 1, 2, 1]


class TestGuardRails:
    """The SQL-oracle-parity guards added alongside the ops: conditions
    under which engine and oracle would silently diverge must raise."""

    def test_negative_sample_keys_raise(self, ray_session):
        ds = rd.from_pandas(pd.DataFrame({"k": [-1, 2, 3], "v": [0, 1, 2]}))
        with pytest.raises(Exception, match="non-negative"):
            deterministic_sample(ds, 0.5, "k").to_pandas()

    def test_empty_mixture_raises(self):
        with pytest.raises(ValueError, match="at least one source"):
            weighted_mixture([], key_col="k")

    def test_pack_empty_input(self, ray_session):
        out = pack_sequences(_docs([]), budget=128).to_pandas()
        assert len(out) == 0

    def test_pack_non_integer_id_raises(self, ray_session):
        # string ids would corrupt the range partitioning / pinned int64
        # schema; the contract is an eager TypeError, not silent casting
        ds = rd.from_pandas(
            pd.DataFrame({"doc_id": ["a", "b"], "text": ["xx", "yyy"]})
        )
        with pytest.raises(Exception, match="integer id_col"):
            pack_sequences(ds, budget=16).to_pandas()

    def test_pack_non_integer_tokens_raise(self, ray_session):
        ds = rd.from_pandas(
            pd.DataFrame({"doc_id": [0, 1], "n_tok": [1.5, 2.0]})
        )
        with pytest.raises(Exception, match="integer token counts"):
            pack_sequences(ds, budget=16, tokens_col="n_tok").to_pandas()


class TestStratifiedSample:
    def test_per_stratum_rates(self, ray_session):
        rng = np.random.default_rng(13)
        n = 4000
        df = pd.DataFrame(
            {
                "doc_id": np.arange(n),
                "lang": rng.choice(["en", "de", "fr", "zz"], n),
            }
        )
        from tsfeatures_ray.functions import stratified_sample

        out = stratified_sample(
            rd.from_pandas(df), {"en": 0.5, "de": 1.0, "fr": 0.0},
            strat_col="lang", key_col="doc_id", default_rate=0.1,
        ).to_pandas()
        by = out.groupby("lang").size()
        tot = df.groupby("lang").size()
        assert by.get("de", 0) == tot["de"]          # keep all
        assert "fr" not in by.index                   # drop all
        assert 0.4 < by["en"] / tot["en"] < 0.6       # ~half
        assert 0.05 < by.get("zz", 0) / tot["zz"] < 0.2  # default rate

    def test_reshard_stable(self, ray_session):
        df = pd.DataFrame(
            {"doc_id": np.arange(1000), "lang": ["en", "de"] * 500}
        )
        from tsfeatures_ray.functions import stratified_sample

        rates = {"en": 0.4, "de": 0.7}
        a = stratified_sample(
            rd.from_pandas(df), rates, "lang", "doc_id"
        ).to_pandas()
        b = stratified_sample(
            rd.from_pandas(df).repartition(7), rates, "lang", "doc_id"
        ).to_pandas()
        assert sorted(a["doc_id"]) == sorted(b["doc_id"])

    def test_mixture_tag_collision_raises(self, ray_session):
        ds = rd.from_pandas(
            pd.DataFrame({"doc_id": [1, 2, 3], "source": ["x", "y", "z"]})
        )
        with pytest.raises(Exception, match="tag_col"):
            weighted_mixture([("a", ds, 1.0)]).to_pandas()

    def test_mixture_custom_tag_col(self, ray_session):
        ds = rd.from_pandas(
            pd.DataFrame({"doc_id": [1, 2, 3], "source": ["x", "y", "z"]})
        )
        out = weighted_mixture(
            [("a", ds, 1.0)], tag_col="mix_source"
        ).to_pandas()
        assert set(out["mix_source"]) == {"a"}
        assert set(out["source"]) == {"x", "y", "z"}


class TestSampleN:
    def test_exact_n_and_monotone(self, ray_session):
        from tsfeatures_ray.functions import deterministic_sample_n

        df = pd.DataFrame({"doc_id": np.arange(2000), "v": np.arange(2000.0)})
        s32 = set(
            deterministic_sample_n(rd.from_pandas(df), 32, "doc_id")
            .to_pandas()["doc_id"]
        )
        s200 = set(
            deterministic_sample_n(rd.from_pandas(df), 200, "doc_id")
            .to_pandas()["doc_id"]
        )
        assert len(s32) == 32 and len(s200) == 200
        assert s32 < s200  # monotone: bigger sample contains smaller

    def test_matches_brute_hash_order(self, ray_session):
        from tsfeatures_ray.functions import deterministic_sample_n
        from tsfeatures_ray.functions.sampling import knuth_hash32

        df = pd.DataFrame({"doc_id": np.arange(500)})
        got = (
            deterministic_sample_n(rd.from_pandas(df), 20, "doc_id", salt=9)
            .to_pandas()["doc_id"]
        )
        h = knuth_hash32(df["doc_id"].to_numpy(), 9)
        want = df["doc_id"].to_numpy()[np.lexsort((df["doc_id"], h))][:20]
        assert sorted(got) == sorted(want)

    def test_reshard_stable(self, ray_session):
        from tsfeatures_ray.functions import deterministic_sample_n

        df = pd.DataFrame({"doc_id": np.arange(1000)})
        a = set(deterministic_sample_n(rd.from_pandas(df), 50, "doc_id")
                .to_pandas()["doc_id"])
        b = set(deterministic_sample_n(
            rd.from_pandas(df).repartition(9), 50, "doc_id")
            .to_pandas()["doc_id"])
        assert a == b


def test_deterministic_sample_per_group(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from tsfeatures_ray.functions.sampling import (
        deterministic_sample_per_group,
        knuth_hash32,
    )

    rng = np.random.RandomState(2)
    df = pd.DataFrame(
        {
            "event_id": np.arange(300, dtype=np.int64),
            "event_type": rng.choice(["a", "b", "c"], size=300),
        }
    )
    got = (
        deterministic_sample_per_group(
            rd.from_pandas(df).repartition(6), k=4,
            group_col="event_type", key_col="event_id", salt=1,
        )
        .to_pandas()
        .sort_values(["event_type", "event_id"])
        .reset_index(drop=True)
    )
    # exactly k per group
    assert got.groupby("event_type").size().to_dict() == {"a": 4, "b": 4, "c": 4}
    # matches the brute hash-order selection
    df2 = df.assign(h=knuth_hash32(df["event_id"].to_numpy(), 1).astype(np.int64))
    want = (
        df2.sort_values(["h", "event_id"])
        .groupby("event_type")
        .head(4)
        .sort_values(["event_type", "event_id"])
        .reset_index(drop=True)
    )
    assert list(got["event_id"]) == list(want["event_id"])
    # monotone: k=2 selection is a subset of k=4
    got2 = deterministic_sample_per_group(
        rd.from_pandas(df), k=2, group_col="event_type", key_col="event_id",
        salt=1,
    ).to_pandas()
    assert set(got2["event_id"]) <= set(got["event_id"])


def test_weighted_sample(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from tsfeatures_ray.functions.sampling import knuth_hash32, weighted_sample

    rng = np.random.RandomState(6)
    df = pd.DataFrame(
        {
            "doc_id": np.arange(400, dtype=np.int64),
            "w": rng.randint(0, 3000, size=400).astype(np.int64),
        }
    )
    df.loc[:9, "w"] = 10_000  # p = 1 -> always kept
    got = weighted_sample(
        rd.from_pandas(df).repartition(5), "w", scale=2000, key_col="doc_id",
        salt=2,
    ).to_pandas()
    # brute recompute of the integer threshold rule
    h = knuth_hash32(df["doc_id"].to_numpy(), 2)
    thr = np.minimum(
        np.uint64(1) << np.uint64(32),
        (df["w"].to_numpy(np.uint64) * (np.uint64(1) << np.uint64(32)))
        // np.uint64(2000),
    )
    want = set(df.loc[h < thr, "doc_id"])
    assert set(got["doc_id"]) == want
    # p=1 rows all kept; zero-weight rows never kept
    assert set(range(10)) <= want
    zero = df[df["w"] == 0]["doc_id"]
    assert not (set(zero) & want)


def test_pack_bins_ffd(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from tsfeatures_ray.functions.pack import pack_bins

    rng = np.random.RandomState(3)
    sizes = np.r_[rng.randint(50, 900, size=200), [1500, 2000]]  # 2 oversize
    df = pd.DataFrame(
        {"doc_id": np.arange(len(sizes), dtype=np.int64),
         "n_chars": sizes.astype(np.int64)}
    )
    cap = 1024
    got = (
        pack_bins(rd.from_pandas(df).repartition(5), capacity=cap,
                  size_col="n_chars", num_parts=4)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    # every doc assigned exactly once
    assert len(got) == len(df)
    assert set(got["doc_id"]) == set(df["doc_id"])
    # capacity respected for every non-oversize bin
    fills = got[got["oversize"] == 0].groupby("bin_id")["size"].sum()
    assert (fills <= cap).all()
    # oversize docs sit alone in their bins
    over = got[got["oversize"] == 1]
    assert len(over) == 2
    for b in over["bin_id"]:
        assert (got["bin_id"] == b).sum() == 1
    # FFD guarantee per partition: bins <= ceil(11/9 * LB) + 1
    got["part"] = got["bin_id"].to_numpy() >> 32
    for p, sub in got[got["oversize"] == 0].groupby("part"):
        lb = int(np.ceil(sub["size"].sum() / cap))
        used = sub["bin_id"].nunique()
        assert used <= int(np.ceil(11 / 9 * lb)) + 1, (p, used, lb)
    # reshard-stable: a different layout yields the identical assignment
    got2 = (
        pack_bins(rd.from_pandas(df.sample(frac=1.0, random_state=8)),
                  capacity=cap, size_col="n_chars", num_parts=4)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert (got.drop(columns=["part"]).to_numpy() == got2.to_numpy()).all()


def test_pack_bins_does_not_follow_the_cpu_count(ray_session, monkeypatch):
    """``bin_id`` embeds the partition, so the default partition count is
    pinned: the engine's CPU-derived ``default_num_parts`` leaves the
    assignment unchanged."""
    import ray.data as rd

    from tsfeatures_ray.functions.pack import pack_bins
    from tsfeatures_ray.stages import derive

    rng = np.random.RandomState(4)
    df = pd.DataFrame({"doc_id": np.arange(300, dtype=np.int64),
                       "n_chars": rng.randint(20, 700, size=300).astype(np.int64)})
    got = []
    for parts in (8, 64):
        monkeypatch.setattr(derive, "default_num_parts", lambda parts=parts: parts)
        got.append(pack_bins(rd.from_pandas(df), capacity=1024, size_col="n_chars")
                   .to_pandas().sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(got[0], got[1])


def test_cross_source_ppl_brute(ray_session):
    """Laplace-smoothed cross-scoring vs a brute per-source trigram
    model, including an unseen-trigram path (source b contains bytes
    source a never emits)."""
    import ray.data as rd

    from tsfeatures_ray.functions.text import cross_source_ppl

    docs = pd.DataFrame(
        {
            "source": ["a", "a", "b", "b"],
            "text": [
                "the cat sat on the mat",
                "the dog sat on the log",
                "zzz qqq zzz qqq zzz",
                "qqq zzz the qqq",
            ],
        }
    )
    got = (
        cross_source_ppl(rd.from_pandas(docs))
        .to_pandas()
        .sort_values(["source_train", "source_eval"])
        .reset_index(drop=True)
    )
    # brute model
    from collections import Counter

    tris: dict = {"a": Counter(), "b": Counter()}
    pos: dict = {"a": [], "b": []}
    for s, t in zip(docs["source"], docs["text"]):
        for i in range(len(t) - 2):
            g = t[i : i + 3]
            tris[s][g] += 1
            pos[s].append(g)
    vocab = set(tris["a"]) | set(tris["b"])
    v = float(len(vocab))
    rows = {}
    for tr in ("a", "b"):
        tot = float(sum(tris[tr].values()))
        for ev in ("a", "b"):
            nl = [
                -(np.log(tris[tr].get(g, 0) + 1.0) - np.log(tot + v))
                for g in pos[ev]
            ]
            rows[(tr, ev)] = (len(nl), float(np.mean(nl)))
    assert len(got) == 4
    for _, r in got.iterrows():
        n, avg = rows[(r["source_train"], r["source_eval"])]
        assert int(r["n_positions"]) == n
        w = avg + 1e-7
        w = np.sign(w) * np.floor(abs(w) * 1e6 + 0.5) / 1e6
        assert r["neg_logp_avg"] == pytest.approx(w, abs=2e-6)
    # off-diagonal must exceed diagonal for these disjoint vocabularies
    g = got.set_index(["source_train", "source_eval"])["neg_logp_avg"]
    assert g[("a", "b")] > g[("b", "b")]
    assert g[("b", "a")] > g[("a", "a")]
