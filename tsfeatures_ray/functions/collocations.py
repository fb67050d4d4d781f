"""Collocation mining: corpus-wide bigram PMI (pointwise mutual
information over adjacent word pairs) -- the classic collocation
statistic (Church & Hanks 1990) and a building block for phrase
detection in tokenizer / corpus prep.

PMI(x,y) = ln( (c_xy / T_bi) / ((c_x / T_uni) * (c_y / T_uni)) )

Distributed shape: batches reduce to (word,count) and (bigram,count)
partials BEFORE their exchanges (shuffle volume is vocabulary-bounded,
never token-bounded); the bigram totals needed for normalization come
from one tiny scalar aggregate (sum of per-doc pair counts); unigram
counts attach to each surviving bigram via two hash-partitioned joins
(the same chained partitioned_join pattern as the near-dup text
fetches). No driver materialization of any count table.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa

from ..stages.derive import by_partition

_SEP = "\x1f"


def bigram_pmi(
    ds: "ray.data.Dataset",
    text_col: str = "text",
    pattern: str = r"[a-z]+",
    min_count: int = 5,
    num_parts: int | None = None,
) -> "ray.data.Dataset":
    """Corpus bigram PMI table: one row per adjacent word pair occurring
    at least ``min_count`` times: ``(w1, w2, pair_count:int64,
    pmi:float64)`` (pmi rounded 6dp with the shared oracle convention).
    """
    import ray

    from .bpe import word_counts
    from .join import partitioned_join

    rx = re.compile(pattern)

    uni = word_counts(ds, text_col=text_col, pattern=pattern,
                      num_parts=num_parts)
    t_uni = uni.sum("count")

    def bigram_partial(df: pd.DataFrame) -> pd.DataFrame:
        pairs: list[str] = []
        for t in df[text_col]:
            ws = rx.findall(t.lower())
            pairs.extend(
                a + _SEP + b for a, b in zip(ws, ws[1:])
            )
        if not pairs:
            return pd.DataFrame({"bg": [], "c": []}).astype(
                {"bg": "object", "c": "int64"}
            )
        vc = pd.Series(pairs).value_counts()
        return pd.DataFrame({"bg": vc.index, "c": vc.to_numpy(np.int64)})

    def bigram_merge(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby("bg", sort=False)["c"].sum().reset_index()
        m = m[m["c"] >= min_count]
        if len(m) == 0:
            return pd.DataFrame(
                {"w1": pd.Series([], dtype="object"),
                 "w2": pd.Series([], dtype="object"),
                 "pair_count": pd.Series([], dtype="int64")}
            )
        split = m["bg"].str.split(_SEP, n=1, expand=True)
        return pd.DataFrame(
            {"w1": split[0], "w2": split[1],
             "pair_count": m["c"].to_numpy(np.int64)}
        )

    bi = by_partition(
        ds.map_batches(bigram_partial, batch_format="pandas"), "bg",
        bigram_merge, num_parts=num_parts,
    )

    # T_bi = total adjacent pairs = sum over docs of (n_words - 1): one
    # scalar aggregate, no dependence on the bigram table
    def pair_totals(df: pd.DataFrame) -> pd.DataFrame:
        tot = sum(
            max(0, len(rx.findall(t.lower())) - 1) for t in df[text_col]
        )
        return pd.DataFrame({"t": [tot]})

    t_bi = ds.map_batches(pair_totals, batch_format="pandas").sum("t")

    # NOT Dataset.rename_columns: it assumes Arrow blocks and raises on
    # the pandas blocks word_counts emits
    def _ren(w: str, c: str):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            return df.rename(columns={"word": w, "count": c})

        return fn

    uni1 = uni.map_batches(_ren("w1", "c1"), batch_format="pandas")
    uni2 = uni.map_batches(_ren("w2", "c2"), batch_format="pandas")
    bi_schema = pa.schema(
        [("w1", pa.string()), ("w2", pa.string()), ("pair_count", pa.int64())]
    )
    with_1 = partitioned_join(
        bi, uni1, left_on="w1", num_parts=num_parts,
        left_schema=bi_schema,
        right_schema=pa.schema([("w1", pa.string()), ("c1", pa.int64())]),
    )
    with_12 = partitioned_join(
        with_1, uni2, left_on="w2", num_parts=num_parts,
        left_schema=bi_schema.append(pa.field("c1", pa.int64())),
        right_schema=pa.schema([("w2", pa.string()), ("c2", pa.int64())]),
    )

    def score(df: pd.DataFrame) -> pd.DataFrame:
        # exactly the oracle's arithmetic association
        p_xy = df["pair_count"].to_numpy(np.float64) / t_bi
        p_x = df["c1"].to_numpy(np.float64) / t_uni
        p_y = df["c2"].to_numpy(np.float64) / t_uni
        v = np.log(p_xy / (p_x * p_y)) + 1e-7
        pmi = np.sign(v) * np.floor(np.abs(v) * 1e6 + 0.5) / 1e6
        return pd.DataFrame(
            {
                "w1": df["w1"],
                "w2": df["w2"],
                "pair_count": df["pair_count"].astype(np.int64),
                "pmi": pmi,
            }
        )

    return with_12.map_batches(score, batch_format="pandas")
