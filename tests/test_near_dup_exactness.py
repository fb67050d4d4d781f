"""Brute-force all-pairs exactness gate for the near-dup pipeline
(VERDICT r2 item 5): exact n-gram Jaccard over EVERY pair of the sf0.01
documents table (plus injected borderline mutations) is the ground
truth; `minhash_near_dups_distributed` must hit precision 1.0 (its
verify step is exact) and recall above a pinned floor. Before this gate
the candidate-generation recall was evidence-free."""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

DOCS = "/root/testdata/sf0.01/documents.parquet"
THRESHOLD = 0.5


def _mutate(text: str, rate: float, seed: int) -> str:
    """Character substitutions at ~rate, yielding mid-range Jaccard."""
    rng = np.random.RandomState(seed)
    chars = list(text)
    idx = rng.choice(len(chars), size=int(len(chars) * rate), replace=False)
    for i in idx:
        chars[i] = chr(ord("a") + rng.randint(26))
    return "".join(chars)


@pytest.fixture(scope="module")
def corpus():
    t = pq.read_table(DOCS, columns=["doc_id", "text"])
    ids = t["doc_id"].to_pylist()
    texts = t["text"].to_pylist()
    # borderline near-dups: mutations of real docs spanning the
    # threshold region (low rate -> jaccard near 1, higher -> below 0.5)
    base_id = max(ids) + 1
    for j, rate in enumerate((0.01, 0.03, 0.06, 0.10, 0.15)):
        ids.append(base_id + j)
        texts.append(_mutate(texts[j], rate, seed=j))
    return ids, texts


@pytest.fixture(scope="module")
def truth(corpus):
    from tsfeatures_ray.functions.dedup import jaccard_batch

    ids, texts = corpus
    ia, ib = np.triu_indices(len(ids), k=1)
    sims = jaccard_batch([texts[i] for i in ia], [texts[j] for j in ib])
    pairs = {
        (min(ids[a], ids[b]), max(ids[a], ids[b]))
        for a, b, s in zip(ia, ib, sims)
        if s >= THRESHOLD
    }
    # the injected mutations must actually create NEW truth pairs in the
    # borderline band, or this gate tests nothing beyond the clean corpus
    n_docs = len(ids) - 5
    assert any(p[1] >= ids[n_docs] for p in pairs)
    return pairs


def test_near_dup_recall_and_precision(ray_session, corpus, truth):
    import ray.data as rd

    from tsfeatures_ray.functions.dedup import minhash_near_dups_distributed

    ids, texts = corpus
    ds = rd.from_pandas(pd.DataFrame({"doc_id": ids, "text": texts}))
    got = minhash_near_dups_distributed(ds, threshold=THRESHOLD).to_pandas()
    got_pairs = {
        (min(a, b), max(a, b)) for a, b in zip(got["id_a"], got["id_b"])
    }
    # verify step is exact -> every reported pair must be a true pair
    assert got_pairs <= truth, got_pairs - truth
    recall = len(got_pairs & truth) / len(truth)
    # measured 1.0 on this corpus; pinned floor leaves room for the
    # probabilistic candidate stage, not for regressions to ~0
    assert recall >= 0.9, (recall, len(truth), len(got_pairs))


def test_jaccard_batch_matches_reference(corpus):
    from tsfeatures_ray.functions.dedup import jaccard_batch, ngram_jaccard

    ids, texts = corpus
    rng = np.random.RandomState(7)
    ia = rng.randint(0, len(texts), 300)
    ib = rng.randint(0, len(texts), 300)
    fast = jaccard_batch([texts[i] for i in ia], [texts[j] for j in ib])
    ref = np.array(
        [ngram_jaccard(texts[i], texts[j]) for i, j in zip(ia, ib)]
    )
    assert np.allclose(fast, ref)


def test_cosine_near_dups_exact_and_lsh(ray_session):
    """Embedding-cosine near-dup family: the exact distributed
    block-nested-loop operator is ground truth (hash-checked against
    DuckDB in the driver contract); the LSH-bucketed scale path must be
    a SUBSET of it (its verify is exact cosine) with recall >= 0.9 at
    the tuned parameters."""
    import ray.data as rd

    from tsfeatures_ray.functions.similarity import (
        cosine_near_dups,
        cosine_near_dups_lsh,
    )

    ds = rd.read_parquet(
        "/root/testdata/sf0.01/embeddings.parquet",
        columns=["vec_id", "embedding"],
    )
    exact = cosine_near_dups(ds, threshold=0.4).to_pandas()
    truth = set(zip(exact.id_a, exact.id_b))
    assert len(truth) > 20  # the corpus actually has near-dups to find
    got = cosine_near_dups_lsh(
        ds, threshold=0.4, bits=4, tables=16
    ).to_pandas()
    gp = set(zip(got.id_a, got.id_b))
    assert gp <= truth, gp - truth  # exact verify -> precision 1.0
    assert len(gp & truth) / len(truth) >= 0.9

    # exact operator invariant under partition count (pair-bucket split)
    exact2 = cosine_near_dups(ds, threshold=0.4, num_parts=3).to_pandas()
    t2 = set(zip(exact2.id_a, exact2.id_b))
    assert t2 == truth


def test_cosine_is_a_function_of_the_pair(ray_session):
    """A pair that both cosine operators return carries the same cosine,
    bit for bit. The exact operator meets it in a partition-pair bucket,
    the LSH one in table buckets of other sizes, and a matmul entry's
    last bits follow the block it was computed in."""
    import ray.data as rd

    from tsfeatures_ray.functions.similarity import (
        cosine_near_dups,
        cosine_near_dups_lsh,
    )

    embeddings = os.path.join(os.path.dirname(DOCS), "embeddings.parquet")
    ds = rd.read_parquet(embeddings, columns=["vec_id", "embedding"])
    exact = cosine_near_dups(ds, threshold=0.4).to_pandas()
    lsh = cosine_near_dups_lsh(ds, threshold=0.4, bits=4, tables=16).to_pandas()
    both = exact.merge(lsh, on=["id_a", "id_b"], suffixes=("_exact", "_lsh"))
    assert len(both) > 20
    assert both["cosine_exact"].min() >= 0.4
    differ = both[both["cosine_exact"].to_numpy() != both["cosine_lsh"].to_numpy()]
    assert differ.empty, differ


def test_cosine_near_dups_tiny_corpus_and_empty_partitions(ray_session):
    """num_parts > n_vectors leaves hash partitions empty -- the
    partition-pair buckets must handle empty sides, and the result must
    equal the dense-partition run."""
    import pandas as pd
    import ray.data as rd

    from tsfeatures_ray.functions.similarity import cosine_near_dups

    rng = np.random.RandomState(9)
    vecs = rng.randn(5, 8)
    vecs[1] = vecs[0] + 0.01 * rng.randn(8)  # one near-dup pair
    df = pd.DataFrame({"vec_id": range(5), "embedding": list(vecs)})
    ds = rd.from_pandas(df)
    dense = cosine_near_dups(ds, threshold=0.9, num_parts=2).to_pandas()
    sparse = cosine_near_dups(ds, threshold=0.9, num_parts=16).to_pandas()
    key = lambda d: set(zip(d.id_a, d.id_b))  # noqa: E731
    assert key(dense) == key(sparse) == {(0, 1)}


def test_near_dup_estimate_cascade(ray_session, corpus, truth):
    """estimate_filter=True inserts the signature-estimate kill stage
    before the text joins. Precision must stay 1.0 (verify is still
    exact); recall floor is the same pinned 0.9 -- the 3-sigma margin
    keeps true >= threshold pairs alive w.p. ~0.999 each."""
    import ray.data as rd

    from tsfeatures_ray.functions.dedup import minhash_near_dups_distributed

    ids, texts = corpus
    ds = rd.from_pandas(pd.DataFrame({"doc_id": ids, "text": texts}))
    got = minhash_near_dups_distributed(
        ds, threshold=THRESHOLD, estimate_filter=True
    ).to_pandas()
    got_pairs = {
        (min(a, b), max(a, b)) for a, b in zip(got["id_a"], got["id_b"])
    }
    assert got_pairs <= truth, got_pairs - truth
    recall = len(got_pairs & truth) / len(truth)
    assert recall >= 0.9, (recall, len(truth), len(got_pairs))


def test_near_dup_auto_cascade_policy(ray_session, corpus, truth):
    """estimate_filter="auto" gates the cascade on mean doc bytes vs the
    8 x 8 x num_perm crossover: small docs route to the plain path (and
    must match it exactly); the byte probe itself is pinned."""
    import ray.data as rd

    from tsfeatures_ray.functions.dedup import (
        _CASCADE_AUTO_FACTOR,
        _mean_doc_bytes,
        minhash_near_dups_distributed,
    )

    ids, texts = corpus
    ds = rd.from_pandas(pd.DataFrame({"doc_id": ids, "text": texts}))
    mean_b = _mean_doc_bytes(ds, "text")
    assert abs(mean_b - np.mean([len(t.encode()) for t in texts])) < 1e-9
    assert mean_b < _CASCADE_AUTO_FACTOR * 8 * 64  # corpus docs are small
    key = lambda d: {  # noqa: E731
        (min(a, b), max(a, b)) for a, b in zip(d["id_a"], d["id_b"])
    }
    auto = minhash_near_dups_distributed(
        ds, threshold=THRESHOLD, estimate_filter="auto"
    ).to_pandas()
    plain = minhash_near_dups_distributed(
        ds, threshold=THRESHOLD, estimate_filter=False
    ).to_pandas()
    assert key(auto) == key(plain)  # auto chose (and equals) plain
    # large docs flip the branch: 64 KB of text per doc
    big = rd.from_pandas(
        pd.DataFrame(
            {"doc_id": [0, 1], "text": ["x y z " * 11000, "a b c " * 11000]}
        )
    )
    assert _mean_doc_bytes(big, "text") >= _CASCADE_AUTO_FACTOR * 8 * 64


def test_simhash_near_dups_exact_vs_brute(ray_session, corpus):
    """simhash_near_dups is EXACT by construction (pigeonhole-complete
    banding + popcount verify): its output must EQUAL brute-force
    all-pairs hamming <= max_hamming over the same signatures."""
    import ray.data as rd

    from tsfeatures_ray.functions.dedup import (
        hamming64,
        simhash_near_dups,
        simhash_signatures,
    )

    ids, texts = corpus
    ds = rd.from_pandas(pd.DataFrame({"doc_id": ids, "text": texts}))
    sigs = simhash_signatures(ds).materialize()
    got = simhash_near_dups(sigs=sigs, max_hamming=6).to_pandas()
    got_pairs = {
        (a, b): h
        for a, b, h in zip(got["id_a"], got["id_b"], got["hamming"])
    }

    sp = sigs.to_pandas().sort_values("doc_id")
    sid = sp["doc_id"].to_numpy()
    sv = sp["simhash"].to_numpy(dtype=np.int64)
    ia, ib = np.triu_indices(len(sid), k=1)
    ham = hamming64(sv[ia], sv[ib])
    keep = ham <= 6
    truth_pairs = {
        (int(sid[a]), int(sid[b])): int(h)
        for a, b, h in zip(ia[keep], ib[keep], ham[keep])
    }
    # mutated docs must actually produce pairs or the gate is vacuous
    assert len(truth_pairs) > 0
    assert got_pairs == truth_pairs


def test_simhash_block_combination_scheme_equals_default(ray_session, corpus):
    """The generalized Manku block-combination banding (blocks=8 ->
    C(8,2)=28 tables with 16-bit keys) must return EXACTLY the same
    pairs as the default single-block scheme: both are pigeonhole-
    complete, only the candidate-bucket geometry differs."""
    import ray.data as rd

    from tsfeatures_ray.functions.dedup import (
        simhash_near_dups,
        simhash_signatures,
    )

    ids, texts = corpus
    ds = rd.from_pandas(pd.DataFrame({"doc_id": ids, "text": texts}))
    sigs = simhash_signatures(ds).materialize()

    def pairset(res):
        return {
            (a, b): h
            for a, b, h in zip(res["id_a"], res["id_b"], res["hamming"])
        }

    base = pairset(simhash_near_dups(sigs=sigs, max_hamming=6).to_pandas())
    wide = pairset(
        simhash_near_dups(sigs=sigs, max_hamming=6, blocks=8).to_pandas()
    )
    assert len(base) > 0
    assert wide == base


def test_simhash_near_dups_validation(ray_session):
    import pytest as _pytest

    from tsfeatures_ray.functions.dedup import simhash_near_dups

    with _pytest.raises(ValueError):
        simhash_near_dups()  # neither ds nor sigs
    with _pytest.raises(ValueError):
        simhash_near_dups(sigs=object(), max_hamming=6, blocks=6)
    with _pytest.raises(ValueError):
        simhash_near_dups(sigs=object(), max_hamming=20, blocks=50)


def test_hamming64_matches_python_popcount():
    rng = np.random.RandomState(3)
    a = rng.randint(-(2**62), 2**62, 200, dtype=np.int64)
    b = rng.randint(-(2**62), 2**62, 200, dtype=np.int64)
    from tsfeatures_ray.functions.dedup import hamming64

    got = hamming64(a, b)
    ref = np.array(
        [bin((int(x) ^ int(y)) & ((1 << 64) - 1)).count("1")
         for x, y in zip(a, b)]
    )
    assert (got == ref).all()


def test_jaccard_near_dups_exact_all_pairs(ray_session, corpus, truth):
    """The distributed exact Jaccard operator must equal the brute
    all-pairs ground truth EXACTLY (precision and recall both 1.0 --
    it is the recall-1.0 baseline of the dedup family), both in the
    pair set AND in the jaccard values, at two partition counts (the
    run-expansion + bincount bucket math must be split-invariant)."""
    import ray.data as rd

    from tsfeatures_ray.functions.dedup import jaccard_near_dups, ngram_jaccard

    ids, texts = corpus
    by_id = dict(zip(ids, texts))
    ds = rd.from_pandas(pd.DataFrame({"doc_id": ids, "text": texts}))
    for parts in (3, 8):
        got = jaccard_near_dups(ds, threshold=THRESHOLD, num_parts=parts).to_pandas()
        got_pairs = set(zip(got["id_a"], got["id_b"]))
        assert got_pairs == truth, (parts, got_pairs ^ truth)
        # values must equal the per-pair reference formulation exactly
        ref = np.array([
            ngram_jaccard(by_id[a], by_id[b])
            for a, b in zip(got["id_a"], got["id_b"])
        ])
        np.testing.assert_array_equal(got["jaccard"].to_numpy(), ref)


def test_semantic_dedup_equals_coclustered_exact(ray_session):
    """SemDeDup composite: semantic_dedup's pairs must EQUAL the global
    exact cosine_near_dups pairs restricted to co-clustered endpoints
    (same cosine values bit-for-bit) -- cluster boundaries are the only
    recall cost, never precision."""
    import ray.data as rd

    from tsfeatures_ray.functions.similarity import (
        cosine_near_dups,
        kmeans_cluster,
        semantic_dedup,
    )

    ds = rd.read_parquet(
        "/root/testdata/sf0.01/embeddings.parquet",
        columns=["vec_id", "embedding"],
    )
    sd = (
        semantic_dedup(ds, threshold=0.4, k=16, refine_iters=2)
        .to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)
    )
    full = cosine_near_dups(ds, threshold=0.4).to_pandas()
    cl = kmeans_cluster(ds, k=16, refine_iters=2).to_pandas() \
        .set_index("vec_id")["cluster"]
    co = (
        full[full["id_a"].map(cl).values == full["id_b"].map(cl).values]
        .sort_values(["id_a", "id_b"]).reset_index(drop=True)
    )
    assert len(sd) > 0  # corpus has co-clustered near-dups to find
    assert sd[["id_a", "id_b"]].equals(co[["id_a", "id_b"]])
    np.testing.assert_array_equal(
        sd["cosine"].to_numpy(), co["cosine"].to_numpy()
    )


def test_containment_pairs_brute(ray_session):
    """Planted containment (A is a substring of B) plus decoys,
    verified against a brute all-pairs gram intersection -- including
    completeness of the prefix filter with an EMPTY hot-gram map
    (hot_k=0: every gram ties as rare; any prefix subset must still
    find every qualifying pair)."""
    import ray.data as rd

    from tsfeatures_ray.functions.dedup import containment_pairs

    rng = np.random.default_rng(21)
    alpha = list("abcdefghij ")
    base = ["".join(rng.choice(alpha, 400)) for _ in range(12)]
    texts = list(base)
    texts.append(base[0][50:250])          # contained in doc 0
    texts.append(base[1] + base[2])        # contains docs 1 and 2
    texts.append(base[3][:100] + "".join(rng.choice(alpha, 300)))
    ids = np.arange(len(texts), dtype=np.int64)
    df = pd.DataFrame({"doc_id": ids, "text": texts})

    k, t = 8, 0.5

    def grams(s):
        return {s[i : i + k] for i in range(len(s) - k + 1)}

    want = []
    gs = [grams(s) for s in texts]
    for a in range(len(texts)):
        for b in range(len(texts)):
            if a == b or not gs[a]:
                continue
            c = len(gs[a] & gs[b]) / len(gs[a])
            if c >= t:
                r = c + 1e-7
                want.append(
                    (a, b, np.sign(r) * np.floor(abs(r) * 1e6 + 0.5) / 1e6)
                )
    want.sort()
    assert len(want) >= 3  # the planted relations exist

    for hot_k in (0, 100_000):
        got = (
            containment_pairs(
                rd.from_pandas(df), k=k, threshold=t,
                hot_k=hot_k, num_parts=4,
            )
            .to_pandas()
            .sort_values(["id_a", "id_b"])
            .reset_index(drop=True)
        )
        assert (
            list(zip(got["id_a"], got["id_b"], got["containment"])) == want
        ), f"hot_k={hot_k}"


def test_containment_threshold_validation(ray_session):
    from tsfeatures_ray.functions.dedup import containment_pairs

    with pytest.raises(ValueError):
        containment_pairs(None, threshold=0.0)
    with pytest.raises(ValueError):
        containment_pairs(None, threshold=1.5)


def test_containment_modes_identical(ray_session):
    """prefix (open-vocab) and blocked (closed-vocab) containment
    paths produce identical pairs; auto picks blocked on a
    closed-vocabulary corpus."""
    import ray.data as rd

    from tsfeatures_ray.functions.dedup import containment_pairs

    rng = np.random.default_rng(71)
    words = ["".join(rng.choice(list("abcd"), 4)) for _ in range(30)]
    texts = [" ".join(rng.choice(words, 60)) for _ in range(40)]
    texts.append(texts[0][:120])  # contained
    df = pd.DataFrame(
        {"doc_id": np.arange(len(texts), dtype=np.int64), "text": texts}
    )

    def run(mode):
        return (
            containment_pairs(
                rd.from_pandas(df), threshold=0.5, mode=mode, num_parts=3
            )
            .to_pandas()
            .sort_values(["id_a", "id_b"])
            .reset_index(drop=True)
        )

    a, b, auto = run("prefix"), run("blocked"), run("auto")
    pd.testing.assert_frame_equal(a, b)
    pd.testing.assert_frame_equal(a, auto)  # closed vocab -> blocked
    assert len(a) > 0
    with pytest.raises(ValueError):
        containment_pairs(None, mode="nope")
