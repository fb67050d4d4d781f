"""BPE trainer/encoder: hand-verified merge sequence on a tiny corpus,
word_counts vs a driver Counter, encode==trainer-final-symbols
consistency, the round-trip property (concatenated tokens reproduce the
word), and determinism across partitioning."""

from __future__ import annotations

import re
from collections import Counter

import numpy as np
import pandas as pd


def test_bpe_train_hand_case(ray_session):
    import ray.data as rd

    from tsfeatures_ray.functions.bpe import bpe_train

    docs = pd.DataFrame(
        {"doc_id": [1, 2, 3], "text": ["aaab aaab", "ab", "aaab"]}
    )
    merges = bpe_train(rd.from_pandas(docs), num_merges=10)
    got = list(zip(merges["left"], merges["right"], merges["pair_count"]))
    # words: aaab x3, ab x1
    # (a,a) occurs twice inside each aaab -> 6; then (a,b)->4; (ab,</w>)->4;
    # then aaab is (aa, ab</w>): (aa,ab</w>)->3; ab is (ab</w>,) done
    assert got[0] == ("a", "a", 6)
    assert got[1] == ("a", "b", 4)
    assert got[2] == ("ab", "</w>", 4)
    assert got[3] == ("aa", "ab</w>", 3)
    # nothing left with count >= 2
    assert len(got) == 4


def test_word_counts_matches_counter(ray_session):
    import ray.data as rd

    from tsfeatures_ray.functions.bpe import word_counts

    rng = np.random.RandomState(3)
    vocab = ["alpha", "beta", "gamma", "delta", "x"]
    texts = [
        " ".join(rng.choice(vocab, size=rng.randint(1, 30))) + " 123 !!"
        for _ in range(40)
    ]
    df = pd.DataFrame({"doc_id": range(40), "text": texts})
    got = (
        word_counts(rd.from_pandas(df).repartition(7))
        .to_pandas()
        .set_index("word")["count"]
        .to_dict()
    )
    want = Counter()
    for t in texts:
        want.update(re.findall(r"[a-z]+", t.lower()))
    assert got == dict(want)


def test_bpe_encode_roundtrip_and_consistency(ray_session):
    import ray.data as rd

    from tsfeatures_ray.functions.bpe import bpe_encode, bpe_train, encode_word

    rng = np.random.RandomState(7)
    vocab = ["token", "tokens", "tokenizer", "train", "training", "rain",
             "brain", "ing", "zebra"]
    texts = [" ".join(rng.choice(vocab, size=20)) for _ in range(30)]
    docs = pd.DataFrame({"doc_id": np.arange(30, dtype=np.int64), "text": texts})
    ds = rd.from_pandas(docs)
    merges = bpe_train(ds, num_merges=40)
    ranks = {
        (l, r): int(k)
        for k, l, r in zip(merges["rank"], merges["left"], merges["right"])
    }
    # round-trip: tokens concatenate back to word + end marker
    for w in vocab:
        sym = encode_word(w, ranks)
        assert "".join(sym) == w + "</w>"
    # frequent whole words collapse to few symbols
    assert len(encode_word("token", ranks)) <= 2

    out = (
        bpe_encode(ds, merges, concurrency=2)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert (out["n_words"] == 20).all()
    want0 = sum(len(encode_word(w, ranks)) for w in texts[0].split())
    assert out.loc[0, "n_bpe_tokens"] == want0
    # merges strictly reduce token count vs characters
    chars0 = sum(len(w) + 1 for w in texts[0].split())
    assert out.loc[0, "n_bpe_tokens"] < chars0


def test_bpe_train_partitioning_invariant(ray_session):
    import ray.data as rd

    from tsfeatures_ray.functions.bpe import bpe_train

    rng = np.random.RandomState(13)
    words = ["".join(rng.choice(list("abcde"), size=rng.randint(2, 8)))
             for _ in range(60)]
    texts = [" ".join(rng.choice(words, size=15)) for _ in range(50)]
    docs = pd.DataFrame({"doc_id": range(50), "text": texts})
    m1 = bpe_train(rd.from_pandas(docs), num_merges=30)
    m2 = bpe_train(
        rd.from_pandas(docs.sample(frac=1.0, random_state=1)).repartition(9),
        num_merges=30,
    )
    pd.testing.assert_frame_equal(m1, m2)


_ENCODE_FROM_PARQUET = """
import sys
import pandas as pd
import ray
import ray.data as rd
ray.init(address="local", num_cpus=4, include_dashboard=False,
         logging_level="ERROR")
rd.DataContext.get_current().enable_progress_bars = False
from tsfeatures_ray.functions.bpe import bpe_encode
merges = pd.DataFrame({"rank": [0, 1], "left": ["a", "b"],
                       "right": ["b", "c"], "pair_count": [2, 2]})
out = bpe_encode(rd.read_parquet(sys.argv[1]), merges, concurrency=4)
print("rows", out.count())
ray.shutdown()
"""


def test_bpe_encode_full_width_pool_over_parquet_finishes(tmp_path):
    """A 4-actor encode asked for on a 4-CPU cluster still leaves the
    parquet read a CPU: the pool is capped at CPUs - 1, so the plan
    finishes instead of waiting forever for its input."""
    import os
    import signal
    import subprocess
    import sys

    src = tmp_path / "docs.parquet"
    pd.DataFrame(
        {"doc_id": np.arange(64, dtype=np.int64), "text": ["abc ab bc"] * 64}
    ).to_parquet(src, index=False)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [root, os.environ.get("PYTHONPATH", "")]))
    # own process group: a hung run is killed with every Ray process
    # it started
    proc = subprocess.Popen(
        [sys.executable, "-c", _ENCODE_FROM_PARQUET, str(src)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise AssertionError("bpe_encode over read_parquet hung at 4 CPUs")
    assert proc.returncode == 0, err[-2000:]
    assert "rows 64" in out
