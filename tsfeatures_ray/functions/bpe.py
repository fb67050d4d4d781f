"""Byte-pair-encoding tokenizer TRAINING and encoding (Sennrich et al.
2016, public method) as engine operators -- the learned-vocabulary
counterpart of the BPE-ish regex token proxy in ``text.py``.

Shape (the standard scalable BPE recipe):
1. ``word_counts``: ONE hash-partitioned exchange reduces the corpus to
   a (word, count) table -- corpus text collapses to its vocabulary, so
   everything after is VOCAB-bounded, not corpus-bounded.
2. ``bpe_train``: the merge loop runs on the driver over that bounded
   table (merges are sequentially dependent -- each rank depends on the
   previous merge's pair counts -- so this is inherently iterative; every
   production BPE trainer works from the word-frequency table the same
   way). A pair -> containing-words index keeps each merge's rescan
   proportional to the words actually touched. Determinism: ties break
   on the lexicographically smallest pair, so the merge table is
   byte-stable across CPU counts and runs.
3. ``bpe_encode``: merges broadcast once via ``ray.put``; an actor-pool
   ``map_batches`` encodes each DISTINCT word per batch once (memoized
   per actor), then maps doc token counts through the word multiset --
   the per-row loop is over distinct words, not rows or characters.

Scale contract: the only corpus-sized data motion is the word-count
exchange (shuffles (word, count) partials, never text); ``max_words``
caps the driver table like IVF caps its k-means sample -- rare tail
words fall back to character tokens in ``bpe_encode``, which only
OVERCOUNTS tokens slightly (documented knob, default keeps every word).
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd

import ray

from ..stages.derive import actor_pool_size, by_partition

_END = "</w>"


def word_counts(
    ds: "ray.data.Dataset",
    text_col: str = "text",
    pattern: str = r"[a-z]+",
    num_parts: int | None = None,
) -> "ray.data.Dataset":
    """Corpus -> exact (word, count) table: per-batch vectorized partial
    counts, one (word,count) exchange, per-partition final sum."""
    rx = re.compile(pattern)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        toks: list[str] = []
        for t in df[text_col]:
            toks.extend(rx.findall(t.lower()))
        if not toks:
            return pd.DataFrame({"word": [], "count": []}).astype(
                {"word": "object", "count": "int64"}
            )
        vc = pd.Series(toks).value_counts()
        return pd.DataFrame({"word": vc.index, "count": vc.to_numpy(np.int64)})

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("word", sort=False)["count"].sum().reset_index()
        out["count"] = out["count"].astype(np.int64)
        return out

    return by_partition(
        ds.map_batches(partial, batch_format="pandas"), "word", merge,
        num_parts=num_parts,
    )


def _pair_stats(vocab: dict[tuple, int]):
    """pair -> total count and pair -> set of words containing it."""
    counts: dict[tuple, int] = {}
    where: dict[tuple, set] = {}
    for w, c in vocab.items():
        for i in range(len(w) - 1):
            p = (w[i], w[i + 1])
            counts[p] = counts.get(p, 0) + c
            where.setdefault(p, set()).add(w)
    return counts, where


def _merge_word(w: tuple, pair: tuple, joined: str) -> tuple:
    out = []
    i = 0
    while i < len(w):
        if i < len(w) - 1 and w[i] == pair[0] and w[i + 1] == pair[1]:
            out.append(joined)
            i += 2
        else:
            out.append(w[i])
            i += 1
    return tuple(out)


def bpe_train(
    ds: "ray.data.Dataset",
    num_merges: int = 200,
    text_col: str = "text",
    pattern: str = r"[a-z]+",
    max_words: int | None = None,
    min_pair_count: int = 2,
) -> pd.DataFrame:
    """Learn ``num_merges`` BPE merges from a corpus Dataset. Returns a
    DataFrame ``(rank:int64, left, right, pair_count:int64)`` -- the
    merge table, applied in rank order by ``bpe_encode``.

    The driver materializes ONLY the word-count table (vocab-bounded;
    ``max_words`` keeps the most frequent words when set). Words are
    symbol tuples ending in the literal ``</w>`` end-of-word marker, the
    original Sennrich formulation."""
    wc = word_counts(ds, text_col=text_col, pattern=pattern)
    df = wc.to_pandas()
    df = df.sort_values(["count", "word"], ascending=[False, True], kind="mergesort")
    if max_words is not None:
        df = df.head(max_words)
    vocab: dict[tuple, int] = {
        tuple(w) + (_END,): int(c) for w, c in zip(df["word"], df["count"])
    }
    counts, where = _pair_stats(vocab)
    merges = []
    for rank in range(num_merges):
        if not counts:
            break
        # deterministic: highest count, then lexicographically smallest
        best = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        bc = counts[best]
        if bc < min_pair_count:
            break
        joined = best[0] + best[1]
        merges.append((rank, best[0], best[1], bc))
        # rescan only the words that contain the merged pair
        touched = list(where.get(best, ()))
        for w in touched:
            c = vocab.pop(w)
            # retract w's pair contributions
            for i in range(len(w) - 1):
                p = (w[i], w[i + 1])
                counts[p] -= c
                if counts[p] <= 0:
                    counts.pop(p, None)
                ws = where.get(p)
                if ws is not None:
                    ws.discard(w)
                    if not ws:
                        where.pop(p, None)
            nw = _merge_word(w, best, joined)
            vocab[nw] = vocab.get(nw, 0) + c
            for i in range(len(nw) - 1):
                p = (nw[i], nw[i + 1])
                counts[p] = counts.get(p, 0) + c
                where.setdefault(p, set()).add(nw)
    return pd.DataFrame(
        merges, columns=["rank", "left", "right", "pair_count"]
    ).astype({"rank": "int64", "pair_count": "int64"})


def encode_word(word: str, ranks: dict[tuple, int]) -> list[str]:
    """Apply merges in rank order to one word (chars + ``</w>``)."""
    sym = list(word) + [_END]
    while len(sym) > 1:
        best_rank, best_i = None, None
        for i in range(len(sym) - 1):
            r = ranks.get((sym[i], sym[i + 1]))
            if r is not None and (best_rank is None or r < best_rank):
                best_rank, best_i = r, i
        if best_rank is None:
            break
        # merge EVERY occurrence of the best-ranked pair (the trainer
        # merged all occurrences in one step, so encode must too)
        pair = (sym[best_i], sym[best_i + 1])
        sym = list(_merge_word(tuple(sym), pair, pair[0] + pair[1]))
    return sym


class _BpeEncoder:
    """Actor-pool encode stage: merge table read from the object store
    once per actor; per-actor memo of word -> token count."""

    def __init__(self, merges_ref, pattern: str, id_col: str, text_col: str):
        merges = ray.get(merges_ref)
        self.ranks = {
            (l, r): int(k)
            for k, l, r in zip(merges["rank"], merges["left"], merges["right"])
        }
        self.rx = re.compile(pattern)
        self.memo: dict[str, int] = {}
        self.id_col, self.text_col = id_col, text_col

    def _word_tokens(self, w: str) -> int:
        n = self.memo.get(w)
        if n is None:
            n = len(encode_word(w, self.ranks))
            self.memo[w] = n
        return n

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        n_tok = np.empty(len(df), dtype=np.int64)
        n_words = np.empty(len(df), dtype=np.int64)
        for j, t in enumerate(df[self.text_col]):
            ws = self.rx.findall(t.lower())
            n_words[j] = len(ws)
            n_tok[j] = sum(self._word_tokens(w) for w in ws)
        return pd.DataFrame(
            {
                self.id_col: df[self.id_col],
                "n_words": n_words,
                "n_bpe_tokens": n_tok,
            }
        )


def bpe_encode(
    ds: "ray.data.Dataset",
    merges: pd.DataFrame,
    id_col: str = "doc_id",
    text_col: str = "text",
    pattern: str = r"[a-z]+",
    concurrency: int = 4,
) -> "ray.data.Dataset":
    """Per-document token counts under a trained merge table:
    ``(id, n_words:int64, n_bpe_tokens:int64)``. ``concurrency`` is an
    upper bound on the actor pool (see ``actor_pool_size``)."""
    merges_ref = ray.put(merges)
    return ds.map_batches(
        _BpeEncoder,
        fn_constructor_args=(merges_ref, pattern, id_col, text_col),
        batch_format="pandas",
        concurrency=actor_pool_size(concurrency),
        num_cpus=1,
    )
