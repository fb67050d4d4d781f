"""Text analysis stages for large-scale training-data pipelines.

All stages are actor pools (``map_batches`` with a callable class):
regexes and tables are compiled once per actor in ``__init__``, work is
vectorized per batch. Everything is deterministic so a DuckDB oracle
can reproduce the SQL-expressible subset exactly.
"""

from __future__ import annotations


import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray

_WORD_RE = r"\S+"
# A compact BPE-ish token proxy: runs of word chars, or single non-space
# non-word chars (so punctuation counts as its own token).
_BPE_RE = r"[A-Za-z0-9_]+|[^\sA-Za-z0-9_]"

# RE2-compatible whole-word stopword pattern (same in the DuckDB oracle)
_STOP_RE = r"\b(the|and|of|a|to|in|is|it|that|was)\b"
_PUNCT_RE = r"[.,;:!?]"

_STOPWORDS = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "it", "that", "was"},
    "es": {"el", "la", "de", "que", "y", "en", "un", "una", "es", "los"},
    "de": {"der", "die", "das", "und", "ist", "von", "ein", "eine", "zu", "den"},
    "fr": {"le", "la", "de", "et", "est", "un", "une", "les", "des", "que"},
}


def _byte_class_tables():
    """256-entry membership tables for the counting byte classes.
    Semantics pinned to the DuckDB/RE2 oracle: ASCII classes; \\s is
    RE2's [\\t\\n\\f\\r ]."""
    space = np.zeros(256, dtype=bool)
    space[[9, 10, 12, 13, 32]] = True
    word = np.zeros(256, dtype=bool)
    for lo, hi in ((48, 58), (65, 91), (97, 123)):
        word[lo:hi] = True
    word[95] = True  # _
    alpha = np.zeros(256, dtype=bool)
    alpha[65:91] = alpha[97:123] = True
    digit = np.zeros(256, dtype=bool)
    digit[48:58] = True
    punct = np.zeros(256, dtype=bool)
    punct[[ord(c) for c in ".,;:!?"]] = True
    return space, word, alpha, digit, punct


class TextMetrics:
    """Per-doc counting / quality metrics, zero Python per-row work.

    Fast path (pure-ASCII batch, the common corpus case): ONE numpy pass
    over the batch's raw UTF-8 buffer -- per-byte class lookups + a
    cumulative sum sliced at the string offsets give every per-doc count
    (run starts for tokenizers, memberships for char classes). This is
    exact because ASCII class members can only appear as ASCII bytes in
    UTF-8. Non-ASCII batches fall back to Arrow ``count_substring_regex``
    (RE2) kernels, still whole-batch vectorized. Counting semantics are
    pinned to the DuckDB oracle (ASCII classes, RE2 \\s), which the hash
    gate verifies exactly."""

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col
        (self.space, self.word, self.alpha, self.digit,
         self.punct) = _byte_class_tables()

    @staticmethod
    def _count(text, pattern) -> pa.Array:
        return pc.cast(pc.count_substring_regex(text, pattern), pa.int64())

    def _regex_counts(self, text) -> dict[str, pa.Array]:
        return {
            "n_ws_tokens": self._count(text, _WORD_RE),
            "n_bpe_tokens": self._count(text, _BPE_RE),
            "n_alpha": self._count(text, "[A-Za-z]"),
            "n_digit": self._count(text, "[0-9]"),
            "n_punct": self._count(text, _PUNCT_RE),
        }

    def _byte_counts(self, b: np.ndarray, offs: np.ndarray) -> dict[str, pa.Array]:
        def per_doc(ind: np.ndarray) -> pa.Array:
            cs = np.empty(len(ind) + 1, dtype=np.int64)
            cs[0] = 0
            np.cumsum(ind, out=cs[1:])
            return pa.array(cs[offs[1:]] - cs[offs[:-1]], type=pa.int64())

        is_space = self.space[b]
        is_word = self.word[b]
        nonspace = ~is_space
        # run starts: first byte of each doc counts iff in-class; force a
        # run break at every doc boundary
        prev_ns = np.empty_like(nonspace)
        prev_ns[0] = False
        prev_ns[1:] = nonspace[:-1]
        prev_w = np.empty_like(is_word)
        prev_w[0] = False
        prev_w[1:] = is_word[:-1]
        starts = offs[:-1][offs[:-1] < len(b)]
        prev_ns[starts] = False
        prev_w[starts] = False
        return {
            "n_ws_tokens": per_doc(nonspace & ~prev_ns),
            "n_bpe_tokens": per_doc((is_word & ~prev_w) | (nonspace & ~is_word)),
            "n_alpha": per_doc(self.alpha[b]),
            "n_digit": per_doc(self.digit[b]),
            "n_punct": per_doc(self.punct[b]),
        }

    def __call__(self, batch: pa.Table) -> pa.Table:
        text = batch[self.text_col]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        # normalize nulls -> "" up front so the byte fast path (count 0
        # via equal offsets) and the RE2 fallback (would propagate null)
        # agree regardless of which path the batch happens to take
        if text.null_count:
            text = pc.fill_null(text, "")
        bufs = text.buffers()
        off_dt = np.int64 if pa.types.is_large_string(text.type) else np.int32
        offs = np.frombuffer(bufs[1], dtype=off_dt)[
            text.offset: text.offset + len(text) + 1
        ].astype(np.int64)
        b = np.frombuffer(bufs[2], dtype=np.uint8)[offs[0]: offs[-1]]
        offs = offs - offs[0]
        if len(b) == 0 or b.max() < 128:  # pure ASCII -> byte fast path
            counts = self._byte_counts(b, offs)
        else:
            counts = self._regex_counts(text)
        out = batch.append_column(
            "n_chars_m", pc.cast(pc.utf8_length(text), pa.int64())
        )
        for name in ("n_ws_tokens", "n_bpe_tokens", "n_alpha", "n_digit"):
            out = out.append_column(name, counts[name])
        out = out.append_column(
            "n_stopwords", self._count(pc.utf8_lower(text), _STOP_RE)
        )
        out = out.append_column("n_punct", counts["n_punct"])
        return out


def text_metrics(ds: "ray.data.Dataset", text_col: str = "text",
                 concurrency: int = 4) -> "ray.data.Dataset":
    return ds.map_batches(
        TextMetrics,
        fn_constructor_kwargs={"text_col": text_col},
        batch_format="pyarrow",
        batch_size=4096,
        concurrency=(1, concurrency),
        num_cpus=1,
    )


class QualityScore:
    """Document quality scoring from the TextMetrics counters
    (length / alphabetic ratio / stopword density / punctuation ratio --
    the classic heuristic pre-filter for web corpora). Deterministic
    arithmetic over the counters, so the DuckDB oracle reproduces it
    exactly; ``keep`` encodes the filter decision."""

    def __init__(self, text_col: str = "text", min_chars: int = 30,
                 min_alpha_ratio: float = 0.6, min_stop_density: float = 0.01,
                 max_punct_ratio: float = 0.2):
        self.min_chars = min_chars
        self.min_alpha_ratio = min_alpha_ratio
        self.min_stop_density = min_stop_density
        self.max_punct_ratio = max_punct_ratio
        self.tm = TextMetrics(text_col)

    def __call__(self, batch: pa.Table) -> pa.Table:
        t = self.tm(batch)
        n_chars = t["n_chars_m"].to_numpy().astype(np.float64)
        denom = np.maximum(n_chars, 1.0)
        ws = np.maximum(t["n_ws_tokens"].to_numpy().astype(np.float64), 1.0)
        alpha_ratio = t["n_alpha"].to_numpy() / denom
        punct_ratio = t["n_punct"].to_numpy() / denom
        stop_density = t["n_stopwords"].to_numpy() / ws
        score = (
            np.minimum(n_chars / (4.0 * self.min_chars), 1.0)
            + alpha_ratio
            + np.minimum(stop_density * 10.0, 1.0)
            + (1.0 - np.minimum(punct_ratio / self.max_punct_ratio, 1.0))
        ) / 4.0
        keep = (
            (n_chars >= self.min_chars)
            & (alpha_ratio >= self.min_alpha_ratio)
            & (stop_density >= self.min_stop_density)
            & (punct_ratio <= self.max_punct_ratio)
        )
        out = t  # counters + ratios + score + decision
        for name, arr in (
            ("alpha_ratio", alpha_ratio), ("punct_ratio", punct_ratio),
            ("stop_density", stop_density), ("quality_score", score),
        ):
            out = out.append_column(name, pa.array(arr, pa.float64()))
        return out.append_column("keep", pa.array(keep, pa.bool_()))


def quality_score(ds: "ray.data.Dataset", text_col: str = "text",
                  concurrency: int = 4, **kwargs) -> "ray.data.Dataset":
    return ds.map_batches(
        QualityScore,
        fn_constructor_kwargs={"text_col": text_col, **kwargs},
        batch_format="pyarrow",
        batch_size=4096,
        concurrency=(1, concurrency),
        num_cpus=1,
    )


class LanguageId:
    """Stopword-set language-ID heuristic, whole-batch vectorized.

    Semantics (pinned by the ``docs_lang_id`` DuckDB oracle): per doc,
    the set of DISTINCT word tokens is intersected with each language's
    stopword set; the language with the most distinct hits wins (strict
    >, first language in table order on ties, 'unknown' at zero hits);
    score = hits / max(1, #distinct words).

    Zero Python per row: one numpy pass over the raw UTF-8 buffer
    lowercases member bytes and rewrites every non-token byte to a space
    (TextMetrics-style byte tables, exact for valid UTF-8), then Arrow C
    kernels do the rest -- single-space split, dictionary-encode to
    integer codes, hash-dedup of (doc, code) pairs, per-language
    membership bincounts. Replaces the per-doc ``re.findall`` +
    set-intersection loop (speedups in BASELINE.md)."""

    # UTF-8 continuation bytes (after 0xC3) of the allowed accent set
    # a-z plus: á é í ó ú ü ñ ä ö ë ß à è ç ê
    _ACCENT_CONT = [0xA1, 0xA9, 0xAD, 0xB3, 0xBA, 0xBC, 0xB1, 0xA4, 0xB6,
                    0xAB, 0x9F, 0xA0, 0xA8, 0xA7, 0xAA]

    # uppercase variants (lowercase continuation - 0x20): Á É Í Ó Ú Ü Ñ
    # Ä Ö Ë À È Ç Ê (ß has no 0xC3-range uppercase)
    _ACCENT_CONT_UPPER = [c - 0x20 for c in _ACCENT_CONT if c != 0x9F]

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col
        self.langs = list(_STOPWORDS)
        self.stop_sets = [_STOPWORDS[lang] for lang in self.langs]
        # combined lower+blank table for ASCII: token bytes map to their
        # lowercase, everything else to space
        tbl = np.full(256, 0x20, dtype=np.uint8)
        tbl[0x61:0x7B] = np.arange(0x61, 0x7B, dtype=np.uint8)
        tbl[0x41:0x5B] = np.arange(0x61, 0x7B, dtype=np.uint8)
        # 0xC3 and allowed continuations handled pairwise in _blank
        self.ascii_tbl = tbl
        self.cont_lower = np.full(256, 0x20, dtype=np.uint8)
        for c in self._ACCENT_CONT:
            self.cont_lower[c] = c
        for c in self._ACCENT_CONT_UPPER:
            self.cont_lower[c] = c + 0x20

    def _tokenize(self, text: pa.Array):
        """Byte-level lower+blank pass on the raw UTF-8 buffer -- exact
        for valid UTF-8 (each allowed accent is the pair 0xC3+cont; 0xC3
        never occurs as a continuation byte): every non-token byte
        becomes a space, token bytes are lowercased in place, so the doc
        offsets stay valid and Arrow's (fast, single-char) split kernel
        tokenizes. Returns (flat word array, doc index per word),
        empty tokens included (filtered by code downstream)."""
        bufs = text.buffers()
        off_dt = np.int64 if pa.types.is_large_string(text.type) else np.int32
        offs = np.frombuffer(bufs[1], dtype=off_dt)[
            text.offset: text.offset + len(text) + 1
        ].astype(np.int64)
        b = np.frombuffer(bufs[2], dtype=np.uint8)[offs[0]: offs[-1]]
        offs = offs - offs[0]
        out = self.ascii_tbl[b]  # lowers a-zA-Z, blanks everything else
        if len(b) and b.max() >= 128:
            # restore + lower the (sparse) allowed 0xC3 accent pairs
            c3 = np.flatnonzero(b[:-1] == 0xC3)
            if len(c3):
                low = self.cont_lower[b[c3 + 1]]
                ok = low != 0x20
                keep = c3[ok]
                out[keep] = 0xC3
                out[keep + 1] = low[ok]
        arr = pa.Array.from_buffers(
            pa.large_utf8(), len(text),
            [None, pa.py_buffer(offs.tobytes()), pa.py_buffer(out.tobytes())],
        )
        words = pc.split_pattern(arr, " ")
        woffs = words.offsets.to_numpy()
        doc = np.repeat(np.arange(len(text), dtype=np.int64), np.diff(woffs))
        return words.values, doc

    def __call__(self, batch: pa.Table) -> pa.Table:
        text = batch[self.text_col]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        if text.null_count:
            text = pc.fill_null(text, "")
        n = len(text)
        # lowering happens inside the tokenizer via a byte table (ASCII +
        # the allowed 0xC3 accents); exotic uppercase outside the token
        # class (e.g. U+1E9E) is a separator either way
        flat, doc = self._tokenize(text)
        # dictionary-encode once: every later step is integer-only (the
        # vocabulary of a batch is tiny next to the token stream)
        enc = pc.dictionary_encode(flat)
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        vocab = enc.dictionary.to_pylist()
        nv = max(1, len(vocab))
        # distinct (doc, word) pairs: one hash pass over int64 keys
        uk = pd.unique(doc * nv + codes)
        doc_u, code_u = uk // nv, uk % nv
        # drop the empty token (split emits it between runs of spaces)
        if "" in vocab:
            empty_code = vocab.index("")
            keep = code_u != empty_code
            doc_u, code_u = doc_u[keep], code_u[keep]
        n_words = np.bincount(doc_u, minlength=n).astype(np.int64)
        hits = np.zeros((n, len(self.langs)), dtype=np.int64)
        for j, sw in enumerate(self.stop_sets):
            table = np.fromiter((w in sw for w in vocab), bool, len(vocab))
            m = table[code_u]
            hits[:, j] = np.bincount(doc_u[m], minlength=n)
        best_j = np.argmax(hits, axis=1)  # first max wins = table order
        best_hits = hits[np.arange(n), best_j]
        lang_arr = np.asarray(self.langs, dtype=object)[best_j]
        lang_arr[best_hits == 0] = "unknown"
        score = best_hits / np.maximum(1, n_words)
        return batch.append_column(
            "lang_pred", pa.array(lang_arr, pa.string())
        ).append_column("lang_score", pa.array(score, pa.float64()))


def language_id(ds: "ray.data.Dataset", text_col: str = "text",
                concurrency: int = 4) -> "ray.data.Dataset":
    return ds.map_batches(
        LanguageId,
        fn_constructor_kwargs={"text_col": text_col},
        batch_format="pyarrow",
        batch_size=4096,
        concurrency=(1, concurrency),
        num_cpus=1,
    )


_TOKEN_TBL = np.full(256, 0x20, dtype=np.uint8)
_TOKEN_TBL[0x61:0x7B] = np.arange(0x61, 0x7B, dtype=np.uint8)
_TOKEN_TBL[0x41:0x5B] = np.arange(0x61, 0x7B, dtype=np.uint8)


def _tokenize_counts(text) -> tuple[np.ndarray, np.ndarray]:
    """Byte-level [a-z]+ tokenizer over a whole Arrow string column
    (non-ASCII / non-letter bytes are separators, uppercase lowered):
    returns (distinct tokens, counts) for the batch. One table lookup
    over the raw UTF-8 buffer + Arrow split/dictionary_encode/bincount
    -- no per-row Python."""
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    if text.null_count:
        text = pc.fill_null(text, "")
    bufs = text.buffers()
    off_dt = np.int64 if pa.types.is_large_string(text.type) else np.int32
    offs = np.frombuffer(bufs[1], dtype=off_dt)[
        text.offset: text.offset + len(text) + 1
    ].astype(np.int64)
    b = np.frombuffer(bufs[2], dtype=np.uint8)[offs[0]: offs[-1]]
    blanked = _TOKEN_TBL[b]
    arr = pa.Array.from_buffers(
        pa.large_utf8(), len(text),
        [None, pa.py_buffer((offs - offs[0]).tobytes()),
         pa.py_buffer(blanked.tobytes())],
    )
    words = pc.split_pattern(arr, " ").values
    enc = pc.dictionary_encode(words)
    codes = enc.indices.to_numpy(zero_copy_only=False)
    vocab = enc.dictionary.to_pandas()
    counts = np.bincount(codes, minlength=len(vocab))
    keep = (vocab.str.len() > 0).to_numpy()
    return vocab[keep].to_numpy(), counts[keep].astype("int64")


def top_tokens(
    ds: "ray.data.Dataset",
    text_col: str = "text",
    k: int = 50,
    num_parts: int | None = None,
    concurrency: int = 4,
) -> pd.DataFrame:
    """Exact corpus-wide top-k token frequencies (the distributed
    heavy-hitters shape): per-batch vectorized partial counts (byte-level
    [a-z]+ tokenizer -- non-ASCII and non-letter bytes are separators,
    ASCII uppercase lowered -- then dictionary-encode + bincount), ONE
    groupby over (token, partial_count) rows summing per token, top-k
    per partition, tiny final merge. Only (token, count) partials move
    through the exchange -- never text. Ties at the k boundary resolve
    deterministically by (count DESC, token ASC), matching the SQL
    oracle's ORDER BY."""
    from ..stages.derive import by_partition

    def partial(batch: pa.Table) -> pd.DataFrame:
        tokens, counts = _tokenize_counts(batch[text_col])
        return pd.DataFrame({"token": tokens, "cnt": counts})

    def merge_topk(g: pd.DataFrame) -> pd.DataFrame:
        tot = g.groupby("token", sort=False)["cnt"].sum().reset_index()
        tot = tot.sort_values(
            ["cnt", "token"], ascending=[False, True], kind="mergesort"
        )
        return tot.head(k)

    partials = ds.map_batches(
        partial, batch_format="pyarrow", batch_size=4096,
        concurrency=concurrency, num_cpus=1,
    )
    cand = by_partition(
        partials, "token", merge_topk, num_parts=num_parts
    ).to_pandas()  # <= num_parts * k rows
    return (
        cand.sort_values(["cnt", "token"], ascending=[False, True],
                         kind="mergesort")
        .head(k)
        .reset_index(drop=True)
    )


def extract_json_int(
    ds: "ray.data.Dataset", json_col: str, field: str, out_col: str | None = None,
) -> "ray.data.Dataset":
    """Vectorized extraction of an integer field from a flat-JSON string
    column (semi-structured props/metadata, the common event-log shape):
    one RE2 ``extract_regex`` pass per batch, no per-row Python, null
    when the field is absent. The regex fast path assumes the field
    value is an unquoted integer (true for typed metadata columns); a
    full JSON parser plugs in at this same seam for nested payloads."""
    out_col = out_col or field

    def fn(batch: pa.Table) -> pa.Table:
        s = batch[json_col]
        if isinstance(s, pa.ChunkedArray):
            s = s.combine_chunks()
        pat = rf'"{field}"\s*:\s*(?P<v>-?\d+)'
        m = pc.extract_regex(s, pat)
        v = pc.cast(pc.struct_field(m, "v"), pa.int64())
        return batch.append_column(out_col, v)

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=65536)


class Fingerprint:
    """Rolling-hash document fingerprint (polynomial rolling hash of the
    whole doc + min rolling hash over windows -- a winnowing-style
    signature; deterministic)."""

    BASE = np.uint64(1099511628211)
    MOD = np.uint64(0xFFFFFFFFFFFFFFFF)

    def __init__(self, text_col: str = "text", window: int = 16):
        self.text_col = text_col
        self.window = window

    def _doc_hash(self, s: str) -> tuple[int, int]:
        b = np.frombuffer(s.encode("utf-8", "ignore"), dtype=np.uint8)
        if len(b) == 0:
            return 0, 0
        with np.errstate(over="ignore"):
            bu = b.astype(np.uint64)
            # full-doc polynomial hash sum(b_i * BASE^(n-1-i)) mod 2^64,
            # vectorized exactly like the windowed path below (uint64
            # cumprod wraps modulo 2^64) -- no per-character Python loop
            n = len(bu)
            pows = np.empty(n, dtype=np.uint64)
            pows[0] = 1
            if n > 1:
                np.cumprod(
                    np.full(n - 1, self.BASE, dtype=np.uint64), out=pows[1:]
                )
            full = int(
                (bu * pows[::-1]).sum(dtype=np.uint64)
                ^ np.uint64(1469598103934665603)
            )
            w = min(self.window, n)
            # windowed hashes, vectorized with a stride trick
            if n >= w:
                windows = np.lib.stride_tricks.sliding_window_view(b, w).astype(
                    np.uint64
                )
                wh = (windows * pows[:w][::-1]).sum(axis=1)
                wmin = int(wh.min())
            else:
                wmin = full
        return full, wmin

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        res = [self._doc_hash(s) for s in batch[self.text_col]]
        batch["doc_hash"] = np.array([r[0] for r in res], dtype=np.uint64).astype(
            "int64"
        )
        batch["min_window_hash"] = np.array(
            [r[1] for r in res], dtype=np.uint64
        ).astype("int64")
        return batch


def fingerprint(ds: "ray.data.Dataset", text_col: str = "text",
                concurrency: int = 4) -> "ray.data.Dataset":
    return ds.map_batches(
        Fingerprint,
        fn_constructor_kwargs={"text_col": text_col},
        batch_format="pandas",
        batch_size=4096,
        concurrency=(1, concurrency),
        num_cpus=1,
    )


# ---------------------------------------------------------------------------
# Document chunking (RAG / training-window prep)


def chunk_documents(
    ds: "ray.data.Dataset",
    size: int = 512,
    overlap: int = 64,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> "ray.data.Dataset":
    """Split each document into fixed-size character chunks with overlap
    (starts at 0, step = size - overlap; the final chunk may be short).
    One output row per (doc, chunk). Oracle-exact vs DuckDB
    generate_series + substring (both sides count CHARACTERS).

    Scale: stateless flat transform, no shuffle; the inner loop is over
    chunk ORDINALS (max chunks in the batch), not rows -- each ordinal is
    one vectorized Arrow slice over the rows still long enough."""
    if overlap >= size:
        raise ValueError(f"overlap {overlap} must be < size {size}")
    step = size - overlap

    def fn(batch: pa.Table) -> pa.Table:
        text = pc.fill_null(batch[text_col], "")
        n = pc.utf8_length(text).to_numpy().astype(np.int64)
        ids = batch[id_col].to_numpy()
        # n_chunks: 1 chunk if n <= size, else enough steps to cover
        n_chunks = np.where(n <= size, 1, 1 + np.ceil((n - size) / step)).astype(
            np.int64
        )
        out_ids = np.repeat(ids, n_chunks)
        # chunk_idx: 0..n_chunks-1 per doc
        total = int(n_chunks.sum())
        cum = np.concatenate(([0], np.cumsum(n_chunks)[:-1]))
        chunk_idx = np.arange(total, dtype=np.int64) - np.repeat(cum, n_chunks)
        max_chunks = int(n_chunks.max()) if len(n_chunks) else 0
        row_pos = cum  # output offset of each doc's first chunk
        flat = text.combine_chunks()
        pieces, dest = [], []
        for i in range(max_chunks):
            idx = np.flatnonzero(n_chunks > i)
            if not len(idx):
                break
            pieces.append(
                pc.utf8_slice_codeunits(
                    flat.take(pa.array(idx)), start=i * step, stop=i * step + size
                )
            )
            dest.append(row_pos[idx] + i)
        # one permutation take puts the ordinal-major slices into
        # (doc, chunk_idx) row order -- no per-row Python
        dest = np.concatenate(dest) if dest else np.array([], dtype=np.int64)
        perm = np.empty(total, dtype=np.int64)
        perm[dest] = np.arange(total)
        arr = pa.concat_arrays([p for p in pieces]).take(pa.array(perm)) \
            if pieces else pa.array([], pa.string())
        return pa.table(
            {
                id_col: pa.array(out_ids),
                "chunk_idx": pa.array(chunk_idx),
                "chunk_text": arr,
                "chunk_chars": pc.utf8_length(arr),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Regex redaction (PII-style scrubbing)

# RE2 syntax, identical in the DuckDB oracle (DuckDB regexp_* is RE2)
REDACT_PATTERNS: list[tuple[str, str]] = [
    (r"[A-Za-z0-9_.]+@[A-Za-z0-9_.]+", "<EMAIL>"),
    (r"[0-9]{6,}", "<NUM>"),
]


class Redactor:
    """Actor-pool regex scrubber: patterns fixed at __init__, per batch
    ONE Arrow RE2 count + replace pass per pattern (no per-row Python)."""

    def __init__(self, text_col: str = "text",
                 patterns: list[tuple[str, str]] | None = None):
        self.text_col = text_col
        self.patterns = patterns or REDACT_PATTERNS

    def __call__(self, batch: pa.Table) -> pa.Table:
        text = pc.fill_null(batch[self.text_col], "")
        n_hits = np.zeros(len(text), dtype=np.int64)
        for pat, repl in self.patterns:
            n_hits += pc.count_substring_regex(text, pat).to_numpy().astype(np.int64)
            text = pc.replace_substring_regex(text, pat, repl)
        cols = {c: batch[c] for c in batch.column_names if c != self.text_col}
        cols["redacted_text"] = text
        cols["n_redactions"] = pa.array(n_hits)
        return pa.table(cols)


def redact(
    ds: "ray.data.Dataset",
    text_col: str = "text",
    patterns: list[tuple[str, str]] | None = None,
    concurrency: int = 4,
) -> "ray.data.Dataset":
    return ds.map_batches(
        Redactor,
        fn_constructor_kwargs={"text_col": text_col, "patterns": patterns},
        batch_format="pyarrow",
        batch_size=4096,
        concurrency=(1, concurrency),
        num_cpus=1,
    )


def _tokenize_doc_stream(text):
    """ORDER-PRESERVING byte-level [a-z]+ tokenizer over one batch's
    Arrow string column (== DuckDB ``regexp_extract_all(lower(text),
    '[a-z]+')`` per row): returns (row_of, codes, vocab) with one entry
    per token IN DOCUMENT ORDER -- the shared front half of
    ``_tokenize_doc_counts`` and the n-gram operators. Vectorized:
    blank table lookup + Arrow split + dictionary_encode, empty splits
    dropped with order preserved."""
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    if text.null_count:
        text = pc.fill_null(text, "")
    bufs = text.buffers()
    off_dt = np.int64 if pa.types.is_large_string(text.type) else np.int32
    offs = np.frombuffer(bufs[1], dtype=off_dt)[
        text.offset: text.offset + len(text) + 1
    ].astype(np.int64)
    b = np.frombuffer(bufs[2], dtype=np.uint8)[offs[0]: offs[-1]]
    arr = pa.Array.from_buffers(
        pa.large_utf8(), len(text),
        [None, pa.py_buffer((offs - offs[0]).tobytes()),
         pa.py_buffer(_TOKEN_TBL[b].tobytes())],
    )
    words = pc.split_pattern(arr, " ")
    lens = np.diff(words.offsets.to_numpy(zero_copy_only=False))
    row_of = np.repeat(np.arange(len(text), dtype=np.int64), lens)
    enc = pc.dictionary_encode(words.values)
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    vocab = enc.dictionary.to_pandas().to_numpy()
    keep = np.char.str_len(vocab.astype(str))[codes] > 0
    return row_of[keep], codes[keep], vocab


def _tokenize_doc_counts(ids, text):
    """Per-document token counts for one batch: (doc_id column, text
    column) -> (doc_id idx array, token array, tf array) with one row
    per distinct (doc, token). Same byte-level [a-z]+ tokenizer as
    ``_tokenize_counts`` (== DuckDB ``regexp_extract_all(lower(text),
    '[a-z]+')``), vectorized: blank table lookup + Arrow per-row split
    + dictionary_encode + one np.unique over packed (row, code) keys."""
    row_of, codes, vocab = _tokenize_doc_stream(text)
    if len(codes) == 0:
        return (np.array([], np.int64), np.array([], object),
                np.array([], np.int64))
    nv = len(vocab)
    key = row_of * nv + codes
    uniq, tf = np.unique(key, return_counts=True)
    return uniq // nv, vocab[uniq % nv], tf.astype(np.int64)


class _TfIdfScorer:
    """Actor-pool pass 2 of tfidf_stats: the (vocabulary-bounded) IDF
    table is broadcast ONCE via ray.put and materialized per actor in
    __init__, never re-shipped per batch."""

    def __init__(self, idf_ref, round6: bool):
        self.idf = ray.get(idf_ref)  # pandas Series: token -> idf
        self.round6 = round6

    def __call__(self, batch: pa.Table) -> pd.DataFrame:
        ids = batch.column("doc_id").to_pandas().to_numpy()
        didx, tokens, tf = _tokenize_doc_counts(ids, batch.column("text"))
        w = tf * pd.Series(tokens).map(self.idf).to_numpy(dtype=np.float64)
        g = pd.DataFrame({"doc_id": ids[didx], "tf": tf, "w": w})
        out = g.groupby("doc_id", sort=False).agg(
            n_tokens=("tf", "sum"),
            n_distinct=("tf", "size"),
            max_tf=("tf", "max"),
            tfidf_sum=("w", "sum"),
        ).reset_index()
        if self.round6:
            # mirror the oracle's ROUND(x + 0.0000001, 6) exactly (the
            # +1e-7 nudge moves the half-up boundary away from where
            # two float SUM orders can disagree at the last ulp)
            v = out["tfidf_sum"].to_numpy()
            out["tfidf_sum"] = np.floor((v + 1e-7) * 1e6 + 0.5) / 1e6
        out[["n_tokens", "n_distinct", "max_tf"]] = out[
            ["n_tokens", "n_distinct", "max_tf"]
        ].astype("int64")
        return out


def tfidf_stats(
    ds: "ray.data.Dataset",
    text_col: str = "text",
    id_col: str = "doc_id",
    num_parts: int | None = None,
    concurrency: int = 4,
    round6: bool = True,
) -> "ray.data.Dataset":
    """Per-document TF-IDF corpus statistics (smooth IDF
    ``ln((1+N)/(1+df)) + 1``): ``n_tokens`` / ``n_distinct`` /
    ``max_tf`` / ``tfidf_sum`` per document -- the corpus-statistics
    quality signal (rare-vocabulary documents score high) a
    training-data pipeline ranks or filters on.

    Scale shape: a document lives in exactly one row, so document
    frequency is a pure partial+merge -- pass 1 ships only (token,
    df_partial) pairs through ONE bounded exchange (hash % num_parts
    keys, never raw token groupby), the merged IDF table (vocabulary-
    bounded, orders of magnitude below the corpus) is broadcast once
    with ray.put, and pass 2 scores documents statelessly. The input
    Dataset is executed twice (the classic 2-pass corpus statistic);
    pass a materialized Dataset when upstream is expensive. Text never
    shuffles."""
    from ..stages.derive import by_partition

    def df_partial(batch: pa.Table) -> pd.DataFrame:
        _, tokens, _ = _tokenize_doc_counts(None, batch.column(text_col))
        tok, dfc = np.unique(tokens, return_counts=True)
        return pd.DataFrame({"token": tok, "df": dfc.astype(np.int64)})

    def df_merge(g: pd.DataFrame) -> pd.DataFrame:
        return (
            g.groupby("token", sort=False)["df"].sum().reset_index()
        )

    slim = ds.select_columns([id_col, text_col])
    if id_col != "doc_id":
        slim = slim.rename_columns({id_col: "doc_id"})
    n_docs = slim.count()
    df_tbl = by_partition(
        slim.select_columns([text_col]).map_batches(
            df_partial, batch_format="pyarrow", batch_size=4096,
            concurrency=concurrency, num_cpus=1,
        ),
        "token", df_merge, num_parts=num_parts,
    ).to_pandas()  # vocabulary-bounded
    idf = pd.Series(
        np.log((1.0 + n_docs) / (1.0 + df_tbl["df"].to_numpy())) + 1.0,
        index=df_tbl["token"].to_numpy(),
    )
    idf_ref = ray.put(idf)
    return slim.map_batches(
        _TfIdfScorer,
        fn_constructor_kwargs={"idf_ref": idf_ref, "round6": round6},
        batch_format="pyarrow",
        batch_size=4096,
        concurrency=(1, concurrency),
        num_cpus=1,
    ).sort("doc_id")


def _doc_trigram_positions(texts: list) -> tuple:
    """(trigram-id array over every position, doc-index array): byte-
    level trigrams encoded as exact 24-bit ints (b0<<16|b1<<8|b2 -- a
    PERFECT hash, no collisions). Vectorized over the whole batch: one
    buffer, one sliding expression, boundary windows masked out."""
    enc = [t.encode("utf-8", "ignore") for t in texts]
    lens = np.array([len(e) for e in enc], dtype=np.int64)
    if lens.sum() == 0:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
                lens)
    b = np.frombuffer(b"".join(enc), dtype=np.uint8).astype(np.int64)
    if len(b) < 3:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), lens
    tri = (b[:-2] << 16) | (b[1:-1] << 8) | b[2:]
    doc = np.repeat(np.arange(len(lens), dtype=np.int64), lens)[: len(tri)]
    # a window starting within the last 2 bytes of a doc spans into the
    # next doc: mask those positions out
    ends = np.cumsum(lens)
    ok = np.ones(len(tri), dtype=bool)
    for off in (1, 2):
        pos = ends - off
        pos = pos[(pos >= 0) & (pos < len(tri))]
        ok[pos] = False
    return tri[ok], doc[ok], lens


class _TrigramScorer:
    """Actor-pool pass 2 of trigram_logppl: the (vocabulary-bounded,
    <=2^24) corpus log-prob table broadcasts ONCE via ray.put."""

    def __init__(self, lp_ref, round6: bool):
        self.tri_ids, self.lp = ray.get(lp_ref)  # sorted ids, logprobs
        self.round6 = round6

    def __call__(self, batch: pa.Table) -> pd.DataFrame:
        ids = batch.column("doc_id").to_pandas().to_numpy()
        texts = batch.column("text").to_pylist()
        tri, doc, _ = _doc_trigram_positions(texts)
        n_tri = np.bincount(doc, minlength=len(ids)).astype(np.int64)
        # every trigram exists in the corpus table (pass 1 saw the same
        # corpus), so the searchsorted lookup is total
        lp = self.lp[np.searchsorted(self.tri_ids, tri)]
        sums = np.bincount(doc, weights=-lp, minlength=len(ids))
        with np.errstate(invalid="ignore"):
            avg = sums / n_tri  # 0 trigrams -> NaN (SQL NULL)
        if self.round6:
            avg = np.floor((avg + 1e-7) * 1e6 + 0.5) / 1e6
        return pd.DataFrame({
            "doc_id": ids,
            "n_trigrams": n_tri,
            "neg_logp_avg": avg,
        })


def trigram_logppl(
    ds: "ray.data.Dataset",
    text_col: str = "text",
    id_col: str = "doc_id",
    num_parts: int | None = None,
    concurrency: int = 4,
    round6: bool = True,
) -> "ray.data.Dataset":
    """Per-document corpus-LM negative log-probability (CCNet-style
    perplexity quality filtering, the standard LLM training-data
    signal): a character-trigram MLE language model is fit on the whole
    corpus (pass 1), then every document is scored by the mean
    ``-ln P(trigram)`` of its positions (pass 2). Atypical documents
    (rare byte patterns: boilerplate, mojibake, spam) score HIGH and
    get filtered or down-weighted.

    Scale shape (same 2-pass skeleton as ``tfidf_stats``): pass 1 ships
    only (trigram-id, count) partials through ONE bounded exchange --
    the id space is a PERFECT 24-bit byte hash, so the merged model is
    exact and at most 2^24 entries (practically ~10-100k); the log-prob
    table broadcasts once via ``ray.put`` and pass 2 is stateless
    per-batch scoring. Text never shuffles. The input Dataset executes
    twice (classic 2-pass corpus statistic).

    Trigram semantics are BYTE-level (utf-8); on ASCII corpora this
    equals character trigrams, which is what the live SQL oracle
    (`docs_trigram_ppl`) checks."""
    from ..stages.derive import by_partition

    def count_partial(batch: pa.Table) -> pd.DataFrame:
        tri, _, _ = _doc_trigram_positions(batch.column(text_col).to_pylist())
        u, c = np.unique(tri, return_counts=True)
        return pd.DataFrame({"tri": u, "cnt": c.astype(np.int64)})

    def count_merge(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("tri", sort=True)["cnt"].sum().reset_index()

    slim = ds.select_columns([id_col, text_col])
    if id_col != "doc_id":
        slim = slim.rename_columns({id_col: "doc_id"})
    counts = (
        by_partition(
            slim.select_columns([text_col]).map_batches(
                count_partial, batch_format="pyarrow", batch_size=4096,
                concurrency=concurrency, num_cpus=1,
            ),
            "tri", count_merge, num_parts=num_parts,
        )
        .to_pandas()  # vocabulary-bounded (<= 2^24, practically ~1e4-1e5)
        .sort_values("tri")
    )
    tri_ids = counts["tri"].to_numpy()
    cnt = counts["cnt"].to_numpy(dtype=np.float64)
    lp = np.log(cnt) - np.log(cnt.sum())
    lp_ref = ray.put((tri_ids, lp))
    return slim.map_batches(
        _TrigramScorer,
        fn_constructor_kwargs={"lp_ref": lp_ref, "round6": round6},
        batch_format="pyarrow",
        batch_size=4096,
        concurrency=(1, concurrency),
        num_cpus=1,
    ).sort("doc_id")


def decontaminate(
    ds,
    patterns: list,
    text_col: str = "text",
    id_col: str = "doc_id",
):
    """Benchmark decontamination: flag documents that contain ANY of
    the ``patterns`` verbatim (the training-corpus hygiene step that
    removes eval-set leakage before training -- see the GPT-3/PaLM
    appendix methodology of substring-matching benchmark strings
    against the corpus). Emits one row per document: ``id_col``,
    ``n_hit`` (number of DISTINCT patterns present, int64) and
    ``contaminated`` (bool). The text column is pruned from the output
    so downstream joins (e.g. a purge semi-join) ship only ids.

    Scale shape: stateless ``map_batches`` -- NO exchange; each batch
    is scanned with one vectorized Arrow ``match_substring`` kernel
    per pattern (RE2-free exact matching, zero-copy from the object
    store). The pattern list is closure-shipped once per task launch,
    which is fine for benchmark sets up to a few thousand strings; for
    very large sets, build an Aho-Corasick automaton once per actor in
    an actor-pool ``__init__`` (the ``Redactor`` class above is the
    template) instead of per-pattern passes."""
    import pyarrow as pa
    import pyarrow.compute as pc

    pats = [str(p) for p in patterns]
    if not pats:
        raise ValueError("patterns must be non-empty")

    def scan(t: pa.Table) -> pa.Table:
        text = t[text_col]
        n_hit = np.zeros(len(t), dtype=np.int64)
        for p in pats:
            hit = pc.match_substring(text, p)
            n_hit += hit.to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            id_col: t[id_col],
            "n_hit": pa.array(n_hit, type=pa.int64()),
            "contaminated": pa.array(n_hit > 0),
        })

    return ds.map_batches(scan, batch_format="pyarrow")


def repetition_score(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
):
    """Gopher-style self-repetition quality signals per document
    (Rae et al. 2021 repetition filters): character-trigram totals,
    ``distinct_ratio`` (distinct trigrams / total -- low means
    repetitive) and ``top_frac`` (share of the single most frequent
    trigram). Ratios are NaN for texts shorter than 3 (zero trigrams).
    Trigram identity is BYTE-based (exact 24-bit packing, same
    convention as ``trigram_logppl``) -- identical to SQL substr
    trigrams on ASCII corpora; multi-byte UTF-8 differs by design.

    Scale shape: stateless ``map_batches``, NO exchange; the whole
    batch is scanned as ONE concatenated byte buffer (cross-document
    trigrams masked out), per-(doc, trigram) counts come from a single
    np.unique over packed 40-bit keys, and the per-doc aggregates are
    reduceat slices -- no per-document Python loop."""
    import pyarrow as pa

    def scan(t: pa.Table) -> pa.Table:
        ids = t[id_col]
        texts = t[text_col].to_pylist()
        nd = len(texts)
        lens = np.array([len(s.encode("utf-8")) for s in texts],
                        dtype=np.int64)
        n_grams = np.maximum(lens - 2, 0)
        n_distinct = np.zeros(nd, dtype=np.int64)
        top_c = np.zeros(nd, dtype=np.int64)
        if n_grams.sum() > 0:
            buf = np.frombuffer(
                "".join(texts).encode("utf-8"), dtype=np.uint8
            ).astype(np.int64)
            starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
            tri = (buf[:-2] << 16) | (buf[1:-1] << 8) | buf[2:]
            # positions whose trigram crosses a doc boundary are invalid
            pos = np.arange(len(buf) - 2)
            doc_of = np.searchsorted(starts, pos, side="right") - 1
            valid = pos + 2 < starts[doc_of] + lens[doc_of]
            keys = (doc_of[valid] << 24) | tri[valid]
            uk, counts = np.unique(keys, return_counts=True)
            udoc = uk >> 24
            # per-doc distinct + top count via reduceat on the sorted
            # unique keys (np.unique returns them sorted, so udoc runs
            # are contiguous)
            dstarts = np.flatnonzero(np.r_[True, udoc[1:] != udoc[:-1]])
            docs_present = udoc[dstarts]
            n_distinct[docs_present] = np.diff(
                np.append(dstarts, len(uk)))
            top_c[docs_present] = np.maximum.reduceat(counts, dstarts)
        with np.errstate(invalid="ignore", divide="ignore"):
            nf = n_grams.astype(np.float64)
            distinct_ratio = np.where(
                n_grams > 0, n_distinct / np.where(n_grams > 0, nf, 1.0),
                np.nan)
            top_frac = np.where(
                n_grams > 0, top_c / np.where(n_grams > 0, nf, 1.0),
                np.nan)
        return pa.table({
            id_col: ids,
            "n_grams": pa.array(n_grams, type=pa.int64()),
            "n_distinct": pa.array(n_distinct, type=pa.int64()),
            "distinct_ratio": pa.array(distinct_ratio, type=pa.float64()),
            "top_frac": pa.array(top_frac, type=pa.float64()),
        })

    return ds.map_batches(scan, batch_format="pyarrow")


def _ngram_token_hashes(tokens: np.ndarray, n: int) -> np.ndarray:
    """Order-sensitive 64-bit combine of ``n`` consecutive token hashes
    (distinct odd multipliers per offset, wrapping uint64 arithmetic).
    A collision can only create a CANDIDATE -- callers verify candidate
    n-grams by string before counting them."""
    m = len(tokens) - n + 1
    if m <= 0:
        return np.empty(0, dtype=np.uint64)
    gh = np.zeros(m, dtype=np.uint64)
    mult, mask = 0x9E3779B97F4A7C15, (1 << 64) - 1
    c = 0xBF58476D1CE4E5B9
    for j in range(n):
        c = (c * mult + 1) & mask  # exact Python-int wrap, no warnings
        gh = gh + tokens[j: j + m] * np.uint64(c)
    return gh


def decontaminate_ngrams(
    ds,
    eval_texts: list,
    n: int = 13,
    text_col: str = "text",
    id_col: str = "doc_id",
):
    """N-gram benchmark decontamination (the GPT-3 / PaLM appendix
    methodology): flag documents sharing ANY token ``n``-gram with any
    eval-set text -- catches partial/reworded leakage the verbatim
    ``decontaminate`` substring pass misses. Emits one row per
    document: ``id_col``, ``n_shared`` (DISTINCT shared n-grams,
    int64), ``contaminated`` (bool). Tokenization is the engine-wide
    byte-level [a-z]+ lowercase tokenizer (== DuckDB
    ``regexp_extract_all(lower(text), '[a-z]+')``).

    Scale shape: stateless ``map_batches``, NO exchange. The eval-side
    n-gram set (benchmark-bounded, tiny vs the corpus) is built once on
    the driver and closure-shipped; each batch tokenizes in document
    order (one Arrow split + dictionary_encode), forms rolling 64-bit
    n-gram hashes over the whole token stream with cross-document
    windows masked, dedupes per doc with one lexsort, and probes the
    sorted eval hash array via searchsorted. EXACTNESS: hash hits are
    only candidates -- each surviving (doc, gram) is re-verified by
    string against the eval n-gram set, so collisions cannot flip the
    oracle comparison (the verify loop touches candidates only)."""
    import re

    if not eval_texts:
        raise ValueError("eval_texts must be non-empty")
    if n < 1:
        raise ValueError("n must be >= 1")

    eval_grams: set = set()
    for s in eval_texts:
        toks = [t.decode() for t in
                re.findall(rb"[a-z]+", str(s).encode("utf-8").lower())]
        for i in range(len(toks) - n + 1):
            eval_grams.add(" ".join(toks[i: i + n]))
    eval_tok_arrays = [g.split(" ") for g in eval_grams]
    if eval_grams:
        eh = np.unique(np.concatenate([
            _ngram_token_hashes(
                pd.util.hash_array(np.array(g, dtype=object)), n)
            for g in eval_tok_arrays
        ]))
    else:
        eh = np.empty(0, dtype=np.uint64)
    eval_gram_set = frozenset(eval_grams)

    def scan(t: pa.Table) -> pa.Table:
        ids = t[id_col]
        nd = len(t)
        n_shared = np.zeros(nd, dtype=np.int64)
        row_of, codes, vocab = _tokenize_doc_stream(t.column(text_col))
        if len(codes) >= n and len(eh):
            th = pd.util.hash_array(vocab.astype(object))[codes]
            gh = _ngram_token_hashes(th, n)
            # windows crossing a document boundary are invalid
            valid = row_of[: len(gh)] == row_of[n - 1:]
            pos = np.flatnonzero(valid)
            idx = np.searchsorted(eh, gh[pos])
            idx[idx == len(eh)] = 0
            cand = pos[eh[idx] == gh[pos]]
            if len(cand):
                # distinct (doc, gram-hash) only, then string-verify
                order = np.lexsort((gh[cand], row_of[cand]))
                cand = cand[order]
                first = np.r_[True, (row_of[cand][1:] != row_of[cand][:-1])
                              | (gh[cand][1:] != gh[cand][:-1])]
                for p in cand[first]:
                    gram = " ".join(vocab[codes[p: p + n]])
                    if gram in eval_gram_set:
                        n_shared[row_of[p]] += 1
        return pa.table({
            id_col: ids,
            "n_shared": pa.array(n_shared, type=pa.int64()),
            "contaminated": pa.array(n_shared > 0),
        })

    return ds.map_batches(scan, batch_format="pyarrow")


def bm25_score(
    ds,
    query: str,
    k: int | None = None,
    k1: float = 1.2,
    b: float = 0.75,
    text_col: str = "text",
    id_col: str = "doc_id",
):
    """Okapi BM25 relevance of every document to ``query`` (Lucene
    idf variant ``ln(1 + (N - df + 0.5)/(df + 0.5))``; duplicate query
    terms are deduped, scores sum over terms in first-occurrence
    order). Emits (``id_col``, ``bm25``) for documents matching at
    least one term; with ``k`` set, instead the global top-k by
    (score DESC, id ASC) plus a 1-based ``rank``.

    Scale shape: the classic 2-pass corpus statistic (same contract as
    ``tfidf_stats``): pass 1 reduces each batch to ONE tiny stats row
    (doc count, token count, per-query-term document frequency --
    O(|terms|) per batch, never the vocabulary), summed on the driver;
    pass 2 scores statelessly with the broadcast constants. The input
    Dataset executes twice -- pass a materialized Dataset when
    upstream is expensive. With ``k``, each batch prunes to its local
    top-k before the single bounded final merge."""
    import re

    terms = list(dict.fromkeys(
        t.decode() for t in
        re.findall(rb"[a-z]+", str(query).encode("utf-8").lower())))
    if not terms:
        raise ValueError("query has no [a-z]+ tokens")

    def stats_partial(t: pa.Table) -> pd.DataFrame:
        row_of, codes, vocab = _tokenize_doc_stream(t.column(text_col))
        lut = {v: i for i, v in enumerate(vocab)}
        out = {"n_docs": [len(t)], "n_tok": [len(codes)]}
        for i, term in enumerate(terms):
            tc = lut.get(term, -1)
            out[f"df_{i}"] = [
                0 if tc < 0 else int(len(np.unique(row_of[codes == tc])))]
        return pd.DataFrame(out).astype("int64")

    agg = (
        ds.select_columns([text_col])
        .map_batches(stats_partial, batch_format="pyarrow",
                     batch_size=4096)
        .to_pandas()  # one row per batch -- bounded by batch count
        .sum()
    )
    n_docs = float(agg["n_docs"])
    if n_docs == 0:
        raise ValueError("empty corpus")
    avgdl = float(agg["n_tok"]) / n_docs
    idf = [float(np.log(1.0 + (n_docs - float(agg[f"df_{i}"]) + 0.5)
                        / (float(agg[f"df_{i}"]) + 0.5)))
           for i in range(len(terms))]

    def score(t: pa.Table) -> pa.Table:
        ids_np = t[id_col].to_numpy(zero_copy_only=False)
        didx, tokens, tf = _tokenize_doc_counts(None, t.column(text_col))
        sc = np.zeros(len(t), dtype=np.float64)
        if len(tf):
            dl = np.bincount(didx, weights=tf, minlength=len(t))
            for i, term in enumerate(terms):
                m = tokens == term
                if not m.any():
                    continue
                tfv = tf[m].astype(np.float64)
                d = didx[m]
                sc[d] += idf[i] * tfv * (k1 + 1.0) / (
                    tfv + k1 * (1.0 - b + b * dl[d] / avgdl))
        hit = sc > 0.0
        return pa.table({
            id_col: pa.array(ids_np[hit]),
            "bm25": pa.array(sc[hit], type=pa.float64()),
        })

    scored = ds.select_columns([id_col, text_col]).map_batches(
        score, batch_format="pyarrow")
    if k is None:
        return scored

    def prune(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(
            ["bm25", id_col], ascending=[False, True],
            kind="mergesort").head(k)

    def final(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["bm25", id_col], ascending=[False, True],
            kind="mergesort").head(k).reset_index(drop=True)
        df["rank"] = np.arange(1, len(df) + 1, dtype=np.int64)
        return df

    return (
        scored.map_batches(prune, batch_format="pandas")
        .repartition(1)
        .map_batches(final, batch_format="pandas")
    )


def vocab_stats(
    ds: "ray.data.Dataset",
    group_col: str = "source",
    text_col: str = "text",
    num_parts: int | None = None,
    concurrency: int = 4,
) -> "ray.data.Dataset":
    """Per-group vocabulary statistics: total tokens, distinct types,
    hapax count, type-token ratio and hapax ratio (the corpus-health
    profile behind Zipf/novelty checks). Tokenizer is the shared
    byte-level [a-z]+ rule of top_tokens (oracle parity pinned there).

    Scale shape: each batch collapses to (group, token, count) partials
    via the vectorized Arrow tokenizer (one call per group slice in the
    batch, groups are few), ONE token-hash exchange makes per-
    (group, token) counts global-exact -- hapax needs GLOBAL counts, so
    this exchange is irreducible but vocabulary-bounded (text never
    moves) -- then per-part group partials (sum/rows/hapax) merge in a
    tiny final groupby."""
    from ..stages.derive import by_partition

    def partial(batch: pa.Table) -> pd.DataFrame:
        gvals = batch[group_col]
        if isinstance(gvals, pa.ChunkedArray):
            gvals = gvals.combine_chunks()
        uniq = pc.unique(gvals)
        frames = []
        for gv in uniq:
            mask = pc.equal(gvals, gv)
            toks, cnts = _tokenize_counts(batch.filter(mask)[text_col])
            frames.append(
                pd.DataFrame(
                    {"grp": gv.as_py(), "token": toks, "cnt": cnts}
                )
            )
        if not frames:
            return pd.DataFrame(
                {
                    "grp": pd.Series([], dtype="object"),
                    "token": pd.Series([], dtype="object"),
                    "cnt": pd.Series([], dtype="int64"),
                }
            )
        return pd.concat(frames, ignore_index=True)

    def part_stats(g: pd.DataFrame) -> pd.DataFrame:
        tot = (
            g.groupby(["grp", "token"], sort=False)["cnt"]
            .sum()
            .reset_index()
        )
        out = (
            tot.assign(hap=(tot["cnt"] == 1).astype(np.int64), ty=1)
            .groupby("grp", sort=False)
            .agg(
                n_tokens=("cnt", "sum"),
                vocab=("ty", "sum"),
                hapax=("hap", "sum"),
            )
            .reset_index()
        )
        for c in ("n_tokens", "vocab", "hapax"):
            out[c] = out[c].astype(np.int64)
        return out

    partials = ds.map_batches(
        partial, batch_format="pyarrow", batch_size=4096,
        concurrency=concurrency, num_cpus=1,
    )
    per_part = by_partition(
        partials, "token", part_stats, num_parts=num_parts
    )
    merged = per_part.groupby("grp").sum(
        ["n_tokens", "vocab", "hapax"]
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        n = df["sum(n_tokens)"].to_numpy(dtype=np.float64)
        v = df["sum(vocab)"].to_numpy(dtype=np.float64)
        h = df["sum(hapax)"].to_numpy(dtype=np.float64)
        ttr = v / n + 1e-7
        hr = h / v + 1e-7
        return pd.DataFrame(
            {
                group_col: df["grp"],
                "n_tokens": df["sum(n_tokens)"].astype(np.int64),
                "vocab": df["sum(vocab)"].astype(np.int64),
                "hapax": df["sum(hapax)"].astype(np.int64),
                "ttr": np.sign(ttr) * np.floor(np.abs(ttr) * 1e6 + 0.5) / 1e6,
                "hapax_ratio": np.sign(hr)
                * np.floor(np.abs(hr) * 1e6 + 0.5) / 1e6,
            }
        )

    return merged.map_batches(finish, batch_format="pandas")


def zipf_slope(
    ds: "ray.data.Dataset",
    text_col: str = "text",
    k: int = 100,
    num_parts: int | None = None,
    concurrency: int = 4,
) -> pd.DataFrame:
    """Zipf's-law fit over the exact global top-k token frequencies:
    OLS slope of ln(count) on ln(rank), ranks assigned by the pinned
    (count DESC, token ASC) order of top_tokens (same as the oracle's
    row_number). Healthy natural-language corpora sit near -1; the
    closed-form slope (n*Sxy - Sx*Sy) / (n*Sxx - Sx^2) is evaluated
    identically in the SQL oracle. Returns a 1-row DataFrame
    (zipf_slope, n_ranks) -- the heavy lifting is top_tokens'
    vocabulary-bounded exchange."""
    top = top_tokens(
        ds, text_col=text_col, k=k, num_parts=num_parts,
        concurrency=concurrency,
    )
    r = np.arange(1, len(top) + 1, dtype=np.float64)
    c = top["cnt"].to_numpy(dtype=np.float64)
    x, y = np.log(r), np.log(c)
    n = float(len(top))
    sx, sy, sxy, sxx = x.sum(), y.sum(), (x * y).sum(), (x * x).sum()
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx) + 1e-7
    slope = float(np.sign(slope) * np.floor(np.abs(slope) * 1e6 + 0.5) / 1e6)
    return pd.DataFrame(
        {
            "zipf_slope": np.array([slope], dtype=np.float64),
            "n_ranks": np.array([len(top)], dtype=np.int64),
        }
    )


class _CrossSourceScorer:
    """Pass 2 of cross_source_ppl: the (union-vocab x sources) Laplace
    count matrix broadcasts ONCE via ray.put; each batch's positions
    score against every source model in one vectorized lookup."""

    def __init__(self, model_ref):
        (self.tri_ids, self.counts, self.log_denom,
         self.sources) = ray.get(model_ref)

    def __call__(self, batch: pa.Table) -> pd.DataFrame:
        texts = batch.column("text").to_pylist()
        srcs = np.asarray(batch.column("source").to_pylist(), dtype=object)
        tri, doc, _ = _doc_trigram_positions(texts)
        if len(tri) == 0:
            return pd.DataFrame(
                {
                    "source_train": pd.Series([], dtype="object"),
                    "source_eval": pd.Series([], dtype="object"),
                    "sum_nl": pd.Series([], dtype="float64"),
                    "n_positions": pd.Series([], dtype="int64"),
                }
            )
        idx = np.searchsorted(self.tri_ids, tri)  # total: union vocab
        ev = srcs[doc]  # eval source per position
        ev_codes, ev_uniq = pd.factorize(ev, sort=True)
        n_ev = len(ev_uniq)
        rows = []
        for s_i, s in enumerate(self.sources):
            nl = -(
                np.log(self.counts[idx, s_i] + 1.0) - self.log_denom[s_i]
            )
            sums = np.bincount(ev_codes, weights=nl, minlength=n_ev)
            cnts = np.bincount(ev_codes, minlength=n_ev).astype(np.int64)
            rows.append(
                pd.DataFrame(
                    {
                        "source_train": s,
                        "source_eval": ev_uniq,
                        "sum_nl": sums,
                        "n_positions": cnts,
                    }
                )
            )
        return pd.concat(rows, ignore_index=True)


def cross_source_ppl(
    ds: "ray.data.Dataset",
    text_col: str = "text",
    source_col: str = "source",
    num_parts: int | None = None,
    concurrency: int = 4,
) -> "ray.data.Dataset":
    """Cross-source perplexity matrix (domain-shift / contamination
    audit): fit one add-one-smoothed byte-trigram LM per source, score
    every source's positions under every model, and emit |S|^2 rows
    (source_train, source_eval, n_positions, neg_logp_avg). The
    diagonal is each domain's self-perplexity; off-diagonal spikes
    locate domains whose data another domain's model finds atypical --
    the standard check before mixing corpora into one training run.

    Smoothing: P_s(t) = (cnt_s(t) + 1) / (total_s + V) with V the
    UNION trigram vocabulary, so unseen trigrams are finite and the
    matrix is exactly reproducible in SQL (COALESCE(cnt, 0) + 1).

    Scale shape: pass 1 ships (trigram, source, count) partials through
    one bounded exchange (vocab x |S| rows, vocab <= 2^24 by the
    perfect byte hash, practically ~1e4-1e5); the dense count matrix
    broadcasts once (document the knob: at vocab x |S| beyond worker
    RAM, split sources into broadcast shards and union the scoring
    passes). Pass 2 emits per-batch (train, eval) partial sums -- a
    |S|^2-bounded exchange -- and texts never shuffle; its scorer pool
    is at most ``concurrency`` actors (see ``actor_pool_size``)."""
    from ..stages.derive import actor_pool_size, by_partition

    def count_partial(batch: pa.Table) -> pd.DataFrame:
        texts = batch.column(text_col).to_pylist()
        srcs = np.asarray(batch.column(source_col).to_pylist(), dtype=object)
        tri, doc, _ = _doc_trigram_positions(texts)
        if len(tri) == 0:
            return pd.DataFrame(
                {
                    "tri": pd.Series([], dtype="int64"),
                    "src": pd.Series([], dtype="object"),
                    "cnt": pd.Series([], dtype="int64"),
                }
            )
        df = (
            pd.DataFrame({"tri": tri, "src": srcs[doc]})
            .groupby(["tri", "src"], sort=False)
            .size()
            .rename("cnt")
            .reset_index()
        )
        return df

    def count_merge(g: pd.DataFrame) -> pd.DataFrame:
        return (
            g.groupby(["tri", "src"], sort=True)["cnt"].sum().reset_index()
        )

    slim = ds.select_columns([source_col, text_col])
    if source_col != "source":
        slim = slim.rename_columns({source_col: "source"})
    counts = by_partition(
        slim.map_batches(count_partial, batch_format="pyarrow",
                         batch_size=4096, concurrency=concurrency,
                         num_cpus=1),
        "tri", count_merge, num_parts=num_parts,
    ).to_pandas()  # vocab x |S| bounded
    sources = sorted(counts["src"].unique())
    tri_ids = np.sort(counts["tri"].unique())
    mat = np.zeros((len(tri_ids), len(sources)), dtype=np.float64)
    s_pos = {s: i for i, s in enumerate(sources)}
    r = np.searchsorted(tri_ids, counts["tri"].to_numpy())
    c = np.array([s_pos[s] for s in counts["src"]], dtype=np.int64)
    mat[r, c] = counts["cnt"].to_numpy(dtype=np.float64)
    totals = mat.sum(axis=0)
    v = float(len(tri_ids))
    log_denom = np.log(totals + v)
    model_ref = ray.put((tri_ids, mat, log_denom, sources))

    partials = slim.map_batches(
        _CrossSourceScorer,
        fn_constructor_kwargs={"model_ref": model_ref},
        batch_format="pyarrow",
        batch_size=4096,
        concurrency=actor_pool_size(concurrency),
        num_cpus=1,
    )

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        a = (
            g.groupby(["source_train", "source_eval"], sort=True)
            .agg(sum_nl=("sum_nl", "sum"), n_positions=("n_positions", "sum"))
            .reset_index()
        )
        avg = a["sum_nl"].to_numpy() / a["n_positions"].to_numpy() + 1e-7
        return pd.DataFrame(
            {
                "source_train": a["source_train"],
                "source_eval": a["source_eval"],
                "n_positions": a["n_positions"].astype(np.int64),
                "neg_logp_avg": np.sign(avg)
                * np.floor(np.abs(avg) * 1e6 + 0.5) / 1e6,
            }
        )

    # |S|^2 keys; one block so the final averages assemble whole
    return (
        partials.groupby(["source_train", "source_eval"])
        .sum(["sum_nl", "n_positions"])
        .map_batches(
            lambda d: d.rename(
                columns={"sum(sum_nl)": "sum_nl",
                         "sum(n_positions)": "n_positions"}
            ),
            batch_format="pandas",
        )
        .repartition(1)
        .map_batches(finish, batch_format="pandas", batch_size=None)
    )
