"""Substring-level (duplicated-span) dedup statistics for LLM training
data -- the k-gram analog of Lee et al., "Deduplicating Training Data
Makes Language Models Better" (ACL 2022), built Ray-Data-first.

``duplicated_span_stats`` finds, for every document, how much of it is
covered by k-character substrings that also appear in OTHER documents:
boilerplate headers, license blocks, templated spans -- the
contamination document-level (exact/MinHash) dedup cannot see.

Shape (three slim exchanges, text never shuffles):

1. positions: one streaming pass emits (h128 gram hash, doc, char
   position) rows, and ONE ``by_partition`` on (h1, h2) co-locates
   equal grams, so one call per partition both finds the
   cross-document grams (>= 2 distinct docs) and emits their positions
   -- no separate build/probe round trip.
2. per-doc aggregation of the surviving dup positions, ``by_partition``
   on doc: count + exact character coverage (interval union of the
   [pos, pos+k) windows over sorted positions).
3. a left partitioned_join back onto the per-doc base stats so every
   document gets a row (zero-dup docs included).

Hashing: two independent 64-bit polynomial rolling hashes over UNICODE
CODEPOINTS (utf-32 view, so positions and lengths agree with SQL's
character semantics), combined into a 128-bit identity -- collisions
are negligible and the SQL oracle re-derives everything from the
actual substrings. The rolling hash is fully vectorized: with
``U_m = sum_{t<m} c_t * B^-t (mod 2^64)``, every window hash is
``(U_{i+k} - U_i) * B^{i+k-1}`` -- two cumulative products, one
cumsum, all uint64 wraparound arithmetic.

Scale path: ``mode="winnow"`` applies the standard winnowing
fingerprint selection (Schleimer et al., SIGMOD 2003): keep only the
RIGHTMOST minimal hash in every window of ``window`` consecutive
grams. Density drops to ~2/(window+1) while every shared substring of
length >= window + k - 1 still shares at least one selected
fingerprint between the two documents (the winnowing guarantee,
pinned by tests/test_spans.py). Exact mode moves one 24-byte row per
character -- fine for oracle-scale runs, a deliberate knob at 100 TB.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray

from ..stages.derive import by_partition, default_num_parts

__all__ = ["duplicated_span_stats"]

_B1 = np.uint64(1000003)
_B2 = np.uint64(998244353)
_INV1 = np.uint64(pow(1000003, -1, 1 << 64))
_INV2 = np.uint64(pow(998244353, -1, 1 << 64))


def _codepoints(text: str) -> np.ndarray:
    """Unicode codepoint array (character semantics == SQL substr)."""
    return np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)


def _rolling_hashes(cp: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """All k-gram hashes of a codepoint array, both hash families;
    returns two (n-k+1,) uint64 arrays."""
    n = len(cp)
    c = cp.astype(np.uint64)
    out = []
    with np.errstate(over="ignore"):
        for b, invb in ((_B1, _INV1), (_B2, _INV2)):
            powb = np.ones(n, dtype=np.uint64)
            invp = np.ones(n, dtype=np.uint64)
            np.multiply.accumulate(np.full(n, b, dtype=np.uint64), out=powb)
            np.multiply.accumulate(
                np.full(n, invb, dtype=np.uint64), out=invp
            )
            # powb[i] = B^(i+1); shift so powers start at B^0
            powb = np.concatenate(([np.uint64(1)], powb[:-1]))
            invp = np.concatenate(([np.uint64(1)], invp[:-1]))
            u = np.concatenate(
                ([np.uint64(0)], np.cumsum(c * invp, dtype=np.uint64))
            )
            h = (u[k:] - u[: n - k + 1]) * powb[k - 1 : n]
            out.append(h)
    return out[0], out[1]


def _winnow_keep(h: np.ndarray, window: int) -> np.ndarray:
    """Winnowing selection: indices of the RIGHTMOST minimum in each
    window of ``window`` consecutive hashes (deduplicated)."""
    n = len(h)
    if n <= window:
        return np.array([n - 1 - int(np.argmin(h[::-1]))]) if n else \
            np.empty(0, dtype=np.int64)
    sw = np.lib.stride_tricks.sliding_window_view(h, window)
    # rightmost argmin = (window-1) - argmin over the reversed window
    rev_arg = np.argmin(sw[:, ::-1], axis=1)
    idx = np.arange(n - window + 1) + (window - 1) - rev_arg
    return np.unique(idx)


def duplicated_span_stats(
    ds: "ray.data.Dataset",
    k: int = 32,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_parts: int | None = None,
    mode: str = "exact",
    window: int = 16,
) -> "ray.data.Dataset":
    """Per-document cross-document duplicated-span statistics.

    Returns one row per input document: (id, n_chars, n_kgrams,
    n_dup_kgrams, dup_char_cover, dup_char_frac) where a k-gram is
    "dup" iff the same k characters appear in >= 2 distinct documents.
    ``mode="exact"`` emits every position (SQL-oracle parity);
    ``mode="winnow"`` emits winnowed fingerprints only (the scale
    path; coverage then UNDERCOUNTS by design, but any shared span of
    length >= window + k - 1 is detected)."""
    if mode not in ("exact", "winnow"):
        raise ValueError("mode must be 'exact' or 'winnow'")
    if num_parts is None:
        num_parts = default_num_parts()

    def positions(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False)
        texts = t[text_col].to_pylist()
        out_h1, out_h2, out_id, out_pos = [], [], [], []
        for d, txt in zip(ids, texts):
            cp = _codepoints(txt or "")
            if len(cp) < k:
                continue
            h1, h2 = _rolling_hashes(cp, k)
            if mode == "winnow":
                keep = _winnow_keep(h1, window)
                h1, h2 = h1[keep], h2[keep]
                pos = keep
            else:
                pos = np.arange(len(h1))
            out_h1.append(h1)
            out_h2.append(h2)
            out_id.append(np.full(len(h1), d, dtype=np.int64))
            out_pos.append(pos.astype(np.int64))
        if not out_h1:
            return pa.Table.from_arrays(
                [pa.array([], type=t) for t in
                 (pa.uint64(), pa.uint64(), pa.int64(), pa.int64())],
                names=["h1", "h2", "doc", "pos"],
            )
        return pa.Table.from_arrays(
            [pa.array(np.concatenate(c)) for c in (out_h1, out_h2, out_id, out_pos)],
            names=["h1", "h2", "doc", "pos"],
        )

    pos_ds = ds.map_batches(positions, batch_format="pyarrow")

    dup_pos_schema = pa.schema([("doc", pa.int64()), ("pos", pa.int64())])

    def find_dup_positions(g: pd.DataFrame) -> pa.Table:
        # grams seen in >= 2 distinct docs; equal grams are co-located
        # here by construction, so this is globally exact
        nun = g.groupby(["h1", "h2"], sort=False)["doc"].transform("nunique")
        d = g.loc[nun >= 2, ["doc", "pos"]]
        if len(d) == 0:
            return dup_pos_schema.empty_table()
        return pa.Table.from_arrays(
            [pa.array(d["doc"].to_numpy(np.int64)),
             pa.array(d["pos"].to_numpy(np.int64))],
            schema=dup_pos_schema,
        )

    dup_pos = by_partition(pos_ds, ["h1", "h2"], find_dup_positions, num_parts=num_parts)

    agg_schema = pa.schema(
        [("doc", pa.int64()), ("n_dup_kgrams", pa.int64()),
         ("dup_char_cover", pa.int64())]
    )

    def per_doc(g: pd.DataFrame) -> pa.Table:
        docs_out, n_out, cov_out = [], [], []
        for d, sub in g.groupby("doc", sort=False):
            p = np.sort(sub["pos"].to_numpy(np.int64))
            gaps = np.minimum(np.diff(p), k) if len(p) > 1 else \
                np.empty(0, dtype=np.int64)
            docs_out.append(int(d))
            n_out.append(len(p))
            cov_out.append(int(gaps.sum()) + k)
        return pa.Table.from_arrays(
            [pa.array(docs_out, type=pa.int64()),
             pa.array(n_out, type=pa.int64()),
             pa.array(cov_out, type=pa.int64())],
            schema=agg_schema,
        )

    dup_agg = by_partition(dup_pos, "doc", per_doc, num_parts=num_parts)

    def base_stats(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False)
        texts = t[text_col].to_pylist()
        n_chars = np.array(
            [len(x) if x is not None else 0 for x in texts], dtype=np.int64
        )
        return pa.Table.from_arrays(
            [pa.array(ids.astype(np.int64)), pa.array(n_chars),
             pa.array(np.maximum(n_chars - k + 1, 0))],
            names=[id_col, "n_chars", "n_kgrams"],
        )

    from .join import partitioned_join

    base = ds.map_batches(base_stats, batch_format="pyarrow")
    joined = partitioned_join(
        base, dup_agg, left_on=id_col, right_on="doc", how="left",
        num_parts=num_parts,
        left_schema=pa.schema(
            [(id_col, pa.int64()), ("n_chars", pa.int64()),
             ("n_kgrams", pa.int64())]
        ),
        right_schema=agg_schema,
    )

    out_schema = pa.schema(
        [(id_col, pa.int64()), ("n_chars", pa.int64()),
         ("n_kgrams", pa.int64()), ("n_dup_kgrams", pa.int64()),
         ("dup_char_cover", pa.int64()), ("dup_char_frac", pa.float64())]
    )

    def finish(df: pd.DataFrame) -> pa.Table:
        n_dup = df["n_dup_kgrams"].fillna(0).to_numpy(np.int64)
        cover = df["dup_char_cover"].fillna(0).to_numpy(np.int64)
        n_chars = df["n_chars"].to_numpy(np.int64)
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = np.where(n_chars > 0, cover / n_chars, 0.0)
        return pa.Table.from_arrays(
            [pa.array(df[id_col].to_numpy(np.int64)), pa.array(n_chars),
             pa.array(df["n_kgrams"].to_numpy(np.int64)), pa.array(n_dup),
             pa.array(cover), pa.array(frac)],
            schema=out_schema,
        )

    return joined.map_batches(finish, batch_format="pandas").sort(id_col)
