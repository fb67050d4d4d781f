"""Deduplication operators for large-scale training-data pipelines.

Ray-Data-first shapes (ray_guide patterns):
- exact:    vectorized content hash in ``map_batches`` -> per-batch
            partial winner per hash -> ``by_partition`` on the hash over
            the tiny partials -> global winner (min id). The full table
            is never shuffled -- only (hash, id) pairs.
- MinHash+LSH: shingle -> minhash signature per batch (vectorized
            numpy) -> explode to (band_id, band_hash, doc_id) rows ->
            ``by_partition`` on (band, band_hash) -> candidate pairs ->
            verify true n-gram Jaccard -> connected near-dup pairs.
- SimHash:  64-bit simhash per batch; near-dups = equal band keys.
- n-gram Jaccard: exact pairwise verify for a candidate pair list.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray

from ..stages.derive import by_partition, default_num_parts

_HASH_KEY = 0x9E3779B97F4A7C15


def _content_hash(texts, hash_key: str = "0123456789123456") -> np.ndarray:
    """Deterministic 64-bit content hash (pandas fixed-key siphash)."""
    return pd.util.hash_array(
        np.asarray(texts, dtype=object), hash_key=hash_key
    ).astype("uint64")


def exact_dedup(
    ds: "ray.data.Dataset", text_col: str = "text", id_col: str = "doc_id",
    num_parts: int | None = None,
) -> "ray.data.Dataset":
    """Keep the min-id representative per exact text. Returns a Dataset
    of (id_col, n_copies) -- one row per distinct text, ``keep_id`` =
    min id, ``n_copies`` = group size.

    Identity is a 128-bit pair of independent siphashes: one 64-bit hash
    collides with near-certainty at web-corpus scale (birthday bound at
    ~2^32 distinct docs), two independent 64-bit keys push collision
    odds below 1e-12 even at 10^12 docs. The shuffle ships only
    (h1, h2, id) partials, never text, through one ``by_partition`` on
    (h, h2): its function runs once per partition, not once per
    distinct hash (a call per distinct value measured 26 s against
    0.9 s on 5k docs)."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        texts = batch[text_col].to_numpy()
        h1 = _content_hash(texts)
        h2 = _content_hash(texts, hash_key="fedcba9876543210")
        df = pd.DataFrame(
            {
                "h": h1.astype("int64"),
                "h2": h2.astype("int64"),
                "id": batch[id_col].to_numpy(),
            }
        )
        g = df.groupby(["h", "h2"], sort=False)["id"].agg(
            ["min", "size"]
        ).reset_index()
        return g.rename(columns={"min": "keep_id", "size": "n_copies"})

    partials = ds.map_batches(partial, batch_format="pandas", batch_size=65536)

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(["h", "h2"], sort=False).agg(
            keep_id=("keep_id", "min"), n_copies=("n_copies", "sum")
        )
        return out.reset_index()[["keep_id", "n_copies"]]

    return by_partition(partials, ["h", "h2"], merge, num_parts=num_parts)


# ---------------------------------------------------------------------------
# MinHash + LSH
# ---------------------------------------------------------------------------

def _shingle_hashes(text: str, k: int = 5) -> np.ndarray:
    """Hashes of the k-char shingles of a doc (vectorized)."""
    b = np.frombuffer(text.encode("utf-8", "ignore"), dtype=np.uint8)
    if len(b) < k:
        b = np.pad(b, (0, k - len(b)))
    win = np.lib.stride_tricks.sliding_window_view(b, k).astype(np.uint64)
    with np.errstate(over="ignore"):
        pows = np.uint64(1099511628211) ** np.arange(k, dtype=np.uint64)
        h = (win * pows[::-1]).sum(axis=1)
        h ^= np.uint64(_HASH_KEY)
        h *= np.uint64(0xC2B2AE3D27D4EB4F)
    return np.unique(h)


class MinHasher:
    """Per-batch minhash signatures (actor pool: permutation parameters
    generated once per actor from a fixed seed)."""

    def __init__(self, text_col="text", id_col="doc_id", num_perm=64, k=5):
        rng = np.random.Generator(np.random.PCG64(1234))
        self.a = rng.integers(1, 2**61 - 1, size=num_perm, dtype=np.uint64) | np.uint64(1)
        self.b = rng.integers(0, 2**61 - 1, size=num_perm, dtype=np.uint64)
        self.text_col, self.id_col, self.num_perm, self.k = text_col, id_col, num_perm, k

    def signature(self, text: str) -> np.ndarray:
        sh = _shingle_hashes(text, self.k)
        with np.errstate(over="ignore"):
            # (num_perm, n_shingles) universal hashing, min per row
            m = (self.a[:, None] * sh[None, :] + self.b[:, None])
        return m.min(axis=1)

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        sigs = np.stack([self.signature(s) for s in batch[self.text_col]])
        out = pd.DataFrame({self.id_col: batch[self.id_col].to_numpy()})
        # plain lists -> Arrow list<int64> (numpy cells would become the
        # Ray tensor extension type, which cannot union with list<int64>
        # in the estimate-cascade joins)
        out["sig"] = sigs.astype("int64").tolist()
        return out


def minhash_signatures(
    ds: "ray.data.Dataset",
    text_col: str = "text",
    id_col: str = "doc_id",
    num_perm: int = 64,
    k: int = 5,
    concurrency: int = 4,
) -> "ray.data.Dataset":
    """Docs -> (id, sig) minhash signature Dataset (num_perm x int64 per
    doc). Compute ONCE and reuse for both LSH banding and the
    estimate-then-verify cascade."""
    return ds.map_batches(
        MinHasher,
        fn_constructor_kwargs={
            "text_col": text_col, "id_col": id_col, "num_perm": num_perm,
            "k": k,
        },
        batch_format="pandas",
        batch_size=2048,
        concurrency=(1, concurrency),
        num_cpus=1,
    )


def minhash_lsh_candidates(
    ds: "ray.data.Dataset | None" = None,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_perm: int = 64,
    bands: int = 16,
    k: int = 5,
    concurrency: int = 4,
    max_bucket: int = 2000,
    sigs: "ray.data.Dataset | None" = None,
) -> "ray.data.Dataset":
    """Docs -> candidate near-dup pairs via banded LSH. Returns a
    Dataset of (id_a, id_b) with id_a < id_b (unique pairs).

    ``max_bucket`` caps quadratic pair explosion from degenerate buckets
    (e.g. millions of identical boilerplate docs -> one bucket ->
    O(n^2) pairs). An oversized bucket instead pairs every member with
    the bucket's min id (a star, linear in bucket size) -- for true
    duplicates that is exactly the exact-dedup linkage; pairwise
    candidates beyond the cap are traded for bounded output
    (SURVEY.md §4 skew rule).

    ``sigs``: precomputed signature Dataset (minhash_signatures) --
    pass it when the caller also needs the signatures (estimate
    cascade) so they are computed once."""
    rows_per_band = num_perm // bands
    if ds is None and sigs is None:
        raise ValueError("minhash_lsh_candidates needs ds or sigs")
    if sigs is None:
        sigs = minhash_signatures(
            ds, text_col=text_col, id_col=id_col, num_perm=num_perm, k=k,
            concurrency=concurrency,
        )

    def explode_bands(batch: pd.DataFrame) -> pd.DataFrame:
        ids = np.repeat(batch[id_col].to_numpy(), bands)
        band_ids = np.tile(np.arange(bands), len(batch))
        sig_mat = np.stack(batch["sig"].to_numpy()).astype(np.uint64)
        bh = np.empty((len(batch), bands), dtype=np.uint64)
        with np.errstate(over="ignore"):
            for j in range(bands):
                seg = sig_mat[:, j * rows_per_band : (j + 1) * rows_per_band]
                h = np.uint64(1469598103934665603) * np.ones(len(batch), np.uint64)
                for c in range(seg.shape[1]):
                    h = (h ^ seg[:, c]) * np.uint64(1099511628211)
                bh[:, j] = h
        return pd.DataFrame(
            {"band": band_ids, "bh": bh.reshape(-1).astype("int64"), "id": ids}
        )

    exploded = sigs.map_batches(explode_bands, batch_format="pandas")

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        out_a, out_b = [], []
        for _, grp in g.groupby(["band", "bh"], sort=False):
            if len(grp) < 2:
                continue
            ids = np.sort(grp["id"].to_numpy())
            if len(ids) > max_bucket:
                # degenerate bucket: star linkage to the min id instead
                # of O(n^2) all-pairs
                out_a.append(np.full(len(ids) - 1, ids[0]))
                out_b.append(ids[1:])
                continue
            ia, ib = np.triu_indices(len(ids), k=1)
            out_a.append(ids[ia])
            out_b.append(ids[ib])
        if not out_a:
            id_dtype = g["id"].dtype
            return pd.DataFrame({"id_a": pd.Series([], dtype=id_dtype),
                                 "id_b": pd.Series([], dtype=id_dtype)})
        return pd.DataFrame(
            {"id_a": np.concatenate(out_a), "id_b": np.concatenate(out_b)}
        ).drop_duplicates()

    cand = by_partition(exploded, ["band", "bh"], pairs)
    return _dedup_pairs_global(cand)


def _dedup_pairs_global(
    cand: "ray.data.Dataset", extra_cols: list[str] = ()
) -> "ray.data.Dataset":
    """GLOBAL (id_a, id_b) pair dedup: the same pair can surface from
    different bands/tables landing in different partitions, so per-batch
    dedup is not enough; one more (tiny -- candidate pairs only)
    ``by_partition`` on (id_a, id_b) makes it exact, whatever the id
    type. The first copy of a pair is kept, so ``extra_cols`` must be a
    function of the pair."""
    cols = ["id_a", "id_b", *extra_cols]

    def dedup_pairs(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates(subset=["id_a", "id_b"])[cols]

    return by_partition(cand, ["id_a", "id_b"], dedup_pairs)


def ngram_jaccard(a: str, b: str, k: int = 5) -> float:
    """Exact k-shingle Jaccard similarity of two docs (reference
    formulation; the batch path below is the hot loop)."""
    sa, sb = set(_shingle_hashes(a, k).tolist()), set(_shingle_hashes(b, k).tolist())
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


def jaccard_batch(texts_a, texts_b, k: int = 5) -> np.ndarray:
    """Exact k-shingle Jaccard for a BATCH of candidate pairs.

    Two optimizations over per-pair ``ngram_jaccard`` (the verify stage
    is the hot loop at scale -- every candidate pair passes through it):
    - each distinct text in the batch is shingled ONCE (candidates
      repeat documents heavily: one near-dup cluster yields O(m^2)
      pairs over m texts);
    - intersection via one ``searchsorted`` of the smaller sorted-unique
      shingle array into the larger (``_shingle_hashes`` returns sorted
      unique), no per-pair Python set construction.
    Measured ~8x on a 10k-pair batch (BASELINE.md)."""
    cache: dict = {}

    def shingles(t: str) -> np.ndarray:
        r = cache.get(t)
        if r is None:
            r = cache[t] = _shingle_hashes(t, k)  # sorted unique
        return r

    out = np.empty(len(texts_a))
    for i, (a, b) in enumerate(zip(texts_a, texts_b)):
        sa, sb = shingles(a), shingles(b)
        if len(sa) == 0 and len(sb) == 0:
            out[i] = 1.0
            continue
        if len(sa) > len(sb):
            sa, sb = sb, sa
        idx = np.searchsorted(sb, sa)
        idx[idx == len(sb)] = len(sb) - 1
        inter = int((sb[idx] == sa).sum())
        out[i] = inter / (len(sa) + len(sb) - inter)
    return out


def ngram_jaccard_pairs(
    pairs_df: pd.DataFrame, texts_by_id: dict, k: int = 5
) -> pd.DataFrame:
    """Verify candidate pairs with exact n-gram Jaccard (driver-side or
    inside a map_batches with a broadcast text lookup)."""
    out = pairs_df.copy()
    out["jaccard"] = jaccard_batch(
        [texts_by_id[a] for a in pairs_df["id_a"]],
        [texts_by_id[b] for b in pairs_df["id_b"]],
        k,
    )
    return out


def minhash_near_dups(
    ds: "ray.data.Dataset",
    text_lookup_ref,
    threshold: float = 0.8,
    **kwargs,
) -> "ray.data.Dataset":
    """Full near-dup pipeline: LSH candidates -> exact Jaccard verify
    against a broadcast {id: text} lookup (``ray.put`` once, read per
    actor -- never re-shipped per batch)."""
    cand = minhash_lsh_candidates(ds, **kwargs)

    class Verify:
        def __init__(self, ref, thr, k):
            self.texts = ray.get(ref)  # broadcast read, once per actor
            self.thr, self.k = thr, k

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            if len(batch) == 0:
                batch["jaccard"] = pd.Series([], dtype="float64")
                return batch
            out = ngram_jaccard_pairs(batch, self.texts, self.k)
            return out[out["jaccard"] >= self.thr]

    return cand.map_batches(
        Verify,
        fn_constructor_kwargs={
            "ref": text_lookup_ref, "thr": threshold, "k": kwargs.get("k", 5)
        },
        batch_format="pandas",
        batch_size=4096,
        concurrency=2,
        num_cpus=1,
    )


def _pa_type_of(ds: "ray.data.Dataset", col: str):
    """pyarrow type of one column of a (cheap-to-peek) Dataset."""
    from .join import _pa_type

    sch = ds.schema()
    return _pa_type(dict(zip(sch.names, sch.types))[col])


def minhash_near_dups_distributed(
    ds: "ray.data.Dataset",
    threshold: float = 0.8,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_parts: int | None = None,
    estimate_filter: bool = False,
    estimate_margin: float = 3.0,
    **kwargs,
) -> "ray.data.Dataset":
    """Near-dup pipeline with NO driver-side corpus materialization:
    LSH candidate pairs are co-partitioned with the (id, text) table via
    two hash-partitioned joins (texts fetched for the id_a side, then the
    id_b side), and exact n-gram Jaccard runs per co-located batch. The
    corpus streams through the exchanges; the driver never holds it.
    Scale path for ``minhash_near_dups`` (whose broadcast {id: text}
    lookup caps out at driver memory). Signatures are computed ONCE and
    reused by the banding stage (and the estimate cascade).

    ``estimate_filter=True`` inserts the ESTIMATE-THEN-VERIFY cascade:
    candidate pairs first join the (fixed num_perm x 8 B) signatures and
    are killed when the signature-agreement Jaccard estimate falls below
    ``threshold - estimate_margin * sqrt(t(1-t)/num_perm)`` (3 sigma
    default: a true >= threshold pair survives w.p. ~0.999); only the
    survivors pay the TEXT joins + exact verify. The win grows with
    document size (web pages at 2-8 KB vs 512 B signatures); recall is
    probabilistic, which is why the default stays off and the brute
    all-pairs gate pins the filtered recall floor.

    ``estimate_filter="auto"`` decides from the data: the cascade's
    extra cost is two signature joins at 8 x num_perm bytes/doc plus
    fixed per-join overhead, its saving is the text bytes of killed
    pairs -- so it pays off once docs dwarf their signatures. Measured
    (BASELINE.md): at ~1 KB docs it LOSES ~2x (19.5 s vs 10.6 s at
    sf0.1); at 32 KB docs it wins. The auto rule samples the mean doc
    byte size from a bounded prefix and enables the cascade when
    mean_bytes >= _CASCADE_AUTO_FACTOR x 8 x num_perm (factor 8 = 4 KB
    at num_perm=64, comfortably past the measured losing point with the
    fixed join overhead amortized)."""
    from .join import partitioned_join

    k = kwargs.get("k", 5)
    num_perm = kwargs.get("num_perm", 64)
    if estimate_filter == "auto":
        mean_b = _mean_doc_bytes(ds, text_col)
        estimate_filter = mean_b >= _CASCADE_AUTO_FACTOR * 8 * num_perm
    sigs = minhash_signatures(
        ds, text_col=text_col, id_col=id_col, num_perm=num_perm, k=k,
        concurrency=kwargs.get("concurrency", 4),
    )
    if estimate_filter:
        # reused by banding + the two estimate joins: pin the (small,
        # num_perm x 8 B per doc) signature table instead of recomputing
        sigs = sigs.materialize()
    cand = minhash_lsh_candidates(sigs=sigs, id_col=id_col, **kwargs)
    if estimate_filter:
        cand = _estimate_filter_pairs(
            cand, sigs, ds, id_col, threshold, estimate_margin, num_perm,
            num_parts,
        )

    def rename_to(side: str):
        def fn(t: pa.Table) -> pa.Table:
            return t.select([id_col, text_col]).rename_columns(
                [f"id_{side}", f"text_{side}"]
            )

        return fn

    texts_a = ds.map_batches(rename_to("a"), batch_format="pyarrow")
    texts_b = ds.map_batches(rename_to("b"), batch_format="pyarrow")
    # explicit schemas: cand / with_a are lazy shuffle pipelines, and
    # Dataset.schema() would execute them an extra time just to peek
    id_t = _pa_type_of(ds, id_col)
    cand_schema = pa.schema([("id_a", id_t), ("id_b", id_t)])
    texts_schema = lambda s: pa.schema(  # noqa: E731
        [(f"id_{s}", id_t), (f"text_{s}", pa.string())]
    )
    with_a = partitioned_join(
        cand, texts_a, left_on="id_a", num_parts=num_parts,
        left_schema=cand_schema, right_schema=texts_schema("a"),
    )
    with_ab = partitioned_join(
        with_a, texts_b, left_on="id_b", num_parts=num_parts,
        left_schema=pa.schema(
            [("id_a", id_t), ("id_b", id_t), ("text_a", pa.string())]
        ),
        right_schema=texts_schema("b"),
    )

    def verify(batch: pd.DataFrame) -> pd.DataFrame:
        if len(batch) == 0:
            out = batch[["id_a", "id_b"]].copy()
            out["jaccard"] = pd.Series([], dtype="float64")
            return out
        out = batch[["id_a", "id_b"]].copy()
        out["jaccard"] = jaccard_batch(
            batch["text_a"].tolist(), batch["text_b"].tolist(), k
        )
        return out[out["jaccard"] >= threshold]

    return with_ab.map_batches(verify, batch_format="pandas", batch_size=4096)


# auto-cascade crossover: enable estimate-then-verify when mean doc
# bytes >= factor x signature bytes (8 x num_perm). Factor chosen from
# the sf0.1 measurement (1 KB docs: cascade loses ~2x) plus the 32 KB
# A/B in BASELINE.md: 8 x 512 B = 4 KB sits between the two with the
# fixed two-extra-join overhead amortized.
_CASCADE_AUTO_FACTOR = 8


def _mean_doc_bytes(
    ds: "ray.data.Dataset", text_col: str, sample_rows: int = 2048
) -> float:
    """Mean UTF-8 byte size of ``text_col`` over a bounded prefix sample
    (only per-row byte counts reach the driver, never text)."""
    import pyarrow.compute as pc

    def lens(t: pa.Table) -> pa.Table:
        return pa.table(
            {"nb": pc.binary_length(t.column(text_col).cast(pa.binary()))}
        )

    s = (
        ds.limit(sample_rows)
        .map_batches(lens, batch_format="pyarrow")
        .to_pandas()
    )
    return float(s["nb"].mean()) if len(s) else 0.0


def _estimate_filter_pairs(
    cand, sigs, ds, id_col, threshold, margin_sigmas, num_perm, num_parts
):
    """Join candidate pairs with the (small, fixed-size) signatures and
    keep only pairs whose signature-agreement estimate clears
    threshold - margin. Two hash-partitioned joins over 8*num_perm-byte
    payloads instead of document text."""
    import math

    from .join import partitioned_join

    id_t = _pa_type_of(ds, id_col)
    sig_t = pa.list_(pa.int64())

    def rename_sig(side: str):
        # MinHasher emits plain-list cells (already list<int64>), and
        # partitioned_join coerces drifted block types to the declared
        # schema -- so this is a pure select+rename
        def fn(t: pa.Table) -> pa.Table:
            return t.select([id_col, "sig"]).rename_columns(
                [f"id_{side}", f"sig_{side}"]
            )

        return fn

    cand_schema = pa.schema([("id_a", id_t), ("id_b", id_t)])
    with_a = partitioned_join(
        cand, sigs.map_batches(rename_sig("a"), batch_format="pyarrow"),
        left_on="id_a", num_parts=num_parts,
        left_schema=cand_schema,
        right_schema=pa.schema([("id_a", id_t), ("sig_a", sig_t)]),
    )
    with_ab = partitioned_join(
        with_a, sigs.map_batches(rename_sig("b"), batch_format="pyarrow"),
        left_on="id_b", num_parts=num_parts,
        left_schema=pa.schema(
            [("id_a", id_t), ("id_b", id_t), ("sig_a", sig_t)]
        ),
        right_schema=pa.schema([("id_b", id_t), ("sig_b", sig_t)]),
    )
    cutoff = threshold - margin_sigmas * math.sqrt(
        threshold * (1 - threshold) / num_perm
    )

    def estimate(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return df[["id_a", "id_b"]].copy()
        a = np.stack([np.asarray(v, dtype=np.int64) for v in df["sig_a"]])
        b = np.stack([np.asarray(v, dtype=np.int64) for v in df["sig_b"]])
        est = (a == b).mean(axis=1)
        return df.loc[est >= cutoff, ["id_a", "id_b"]]

    return with_ab.map_batches(estimate, batch_format="pandas",
                               batch_size=8192)


def dedup_purge(
    ds: "ray.data.Dataset",
    full: "ray.data.Dataset",
    text_col: str = "text",
    id_col: str = "doc_id",
    num_parts: int | None = None,
) -> "ray.data.Dataset":
    """End-to-end exact-dedup purge with no driver collect: keeper ids
    (min id per distinct text) stay a Dataset and filter ``full`` through
    a hash-partitioned semi join. ``ds`` supplies (id, text); ``full`` is
    the table to purge (any columns, must include ``id_col``)."""
    from .join import partitioned_join

    keepers = exact_dedup(ds, text_col=text_col, id_col=id_col).drop_columns(
        ["n_copies"]
    )
    return partitioned_join(
        full, keepers, left_on=id_col, right_on="keep_id", how="semi",
        num_parts=num_parts,
        # keepers is a lazy shuffle pipeline; don't execute it to peek
        right_schema=pa.schema([("keep_id", _pa_type_of(ds, id_col))]),
    )


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------

class SimHasher:
    """64-bit simhash per doc (actor pool; vectorized bit voting)."""

    def __init__(self, text_col="text", id_col="doc_id", k=5):
        self.text_col, self.id_col, self.k = text_col, id_col, k
        self.bits = np.uint64(1) << np.arange(64, dtype=np.uint64)

    def simhash(self, text: str) -> int:
        sh = _shingle_hashes(text, self.k)
        if len(sh) == 0:
            return 0
        votes = ((sh[:, None] & self.bits[None, :]) != 0).sum(axis=0)
        return int(self.bits[votes * 2 > len(sh)].sum())

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({self.id_col: batch[self.id_col].to_numpy()})
        out["simhash"] = np.array(
            [self.simhash(s) for s in batch[self.text_col]], dtype=np.uint64
        ).astype("int64")
        return out


def simhash_signatures(
    ds: "ray.data.Dataset", text_col="text", id_col="doc_id", k=5, concurrency=4
) -> "ray.data.Dataset":
    return ds.map_batches(
        SimHasher,
        fn_constructor_kwargs={"text_col": text_col, "id_col": id_col, "k": k},
        batch_format="pandas",
        batch_size=2048,
        concurrency=(1, concurrency),
        num_cpus=1,
    )

# 8-bit popcount lookup: vectorized hamming distance over uint64 words
_POPCOUNT8 = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1
).sum(axis=1).astype(np.int64)


def hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized hamming distance between two int64/uint64 arrays,
    interpreting each element as a 64-bit word (popcount of XOR)."""
    x = np.ascontiguousarray(
        a.astype(np.int64, copy=False) ^ b.astype(np.int64, copy=False)
    ).view(np.uint8).reshape(-1, 8)
    return _POPCOUNT8[x].sum(axis=1)


def simhash_near_dups(
    ds: "ray.data.Dataset | None" = None,
    text_col: str = "text",
    id_col: str = "doc_id",
    k: int = 5,
    max_hamming: int = 3,
    concurrency: int = 4,
    max_bucket: int | None = None,
    sigs: "ray.data.Dataset | None" = None,
    blocks: int | None = None,
) -> "ray.data.Dataset":
    """EXACT SimHash near-dup detection: every pair of docs whose 64-bit
    simhash signatures differ in <= ``max_hamming`` bits, as
    (id_a, id_b, hamming) with id_a < id_b.

    Candidate generation is COMPLETE by pigeonhole (Manku/Jain/Sarma,
    WWW'07 §3, public): the 64 bits are split into ``blocks`` contiguous
    blocks (default ``max_hamming + 1``) and each of the
    C(blocks, blocks - max_hamming) combinations of
    ``blocks - max_hamming`` blocks forms one LSH table keyed on the
    concatenation of those blocks' bits. A pair differing in
    <= max_hamming bits touches <= max_hamming blocks, so at least
    ``blocks - max_hamming`` blocks agree and the pair meets in that
    combination's bucket. The verify step (popcount of XOR) is exact,
    so the operator equals brute-force all-pairs -- unlike the
    probabilistic MinHash LSH path.

    Bucket-width / table-count trade: the default (blocks=max_hamming+1,
    single-block keys) gives max_hamming+1 tables with 64/(h+1)-bit
    keys -- at max_hamming=6 that is ~9-bit keys, i.e. expected bucket
    size n/2^9, which goes quadratic on web-scale corpora. Raising
    ``blocks`` widens keys at the cost of more tables: blocks=8,
    max_hamming=6 -> C(8,2)=28 tables with 16-bit keys (buckets 2^7x
    smaller); blocks=10 -> 45 tables with ~19-bit keys. Exactness holds
    for ANY blocks > max_hamming.

    Scale shape: signatures are 8 B/doc; the only shuffled payloads are
    (table, key, id, sig) rows -- document text never enters an
    exchange. The two exchanges are ``by_partition`` on (tbl, key), then
    on (id_a, id_b) for the global pair dedup. ``max_bucket=None``
    keeps exactness; set it to star-link degenerate boilerplate buckets
    (trades the all-pairs guarantee inside an oversized bucket for
    linear output, same rule as minhash_lsh_candidates).
    """
    import itertools
    import math

    if ds is None and sigs is None:
        raise ValueError("simhash_near_dups needs ds or sigs")
    nblocks = blocks if blocks is not None else max_hamming + 1
    if not max_hamming < nblocks <= 64:
        raise ValueError(
            f"need max_hamming < blocks <= 64, got blocks={nblocks}, "
            f"max_hamming={max_hamming}"
        )
    n_tables = math.comb(nblocks, nblocks - max_hamming)
    if n_tables > 256:
        raise ValueError(
            f"C({nblocks}, {nblocks - max_hamming}) = {n_tables} tables; "
            "cap is 256 -- lower blocks"
        )
    combos = list(
        itertools.combinations(range(nblocks), nblocks - max_hamming)
    )
    if sigs is None:
        sigs = simhash_signatures(
            ds, text_col=text_col, id_col=id_col, k=k, concurrency=concurrency
        )

    # contiguous block widths: 64 split as evenly as possible
    widths = np.full(nblocks, 64 // nblocks, dtype=np.uint64)
    widths[: 64 % nblocks] += np.uint64(1)
    shifts = np.concatenate([[0], np.cumsum(widths)[:-1]]).astype(np.uint64)
    masks = (np.uint64(1) << widths) - np.uint64(1)

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        sig = np.ascontiguousarray(
            batch["simhash"].to_numpy(dtype=np.int64)
        ).view(np.uint64)
        n = len(sig)
        bvals = (sig[:, None] >> shifts[None, :]) & masks[None, :]  # (n, B)
        # one key per (doc, table): concatenation of the combo's blocks
        keys = np.empty((n, n_tables), dtype=np.uint64)
        for ti, combo in enumerate(combos):
            kv = np.zeros(n, dtype=np.uint64)
            off = np.uint64(0)
            for b in combo:
                kv |= bvals[:, b] << off
                off += widths[b]
            keys[:, ti] = kv
        return pd.DataFrame(
            {
                "tbl": np.tile(np.arange(n_tables, dtype=np.int64), n),
                "key": keys.reshape(-1).astype("int64"),
                "id": np.repeat(batch[id_col].to_numpy(), n_tables),
                "sig": np.repeat(sig, n_tables).astype("int64"),
            }
        )

    exploded = sigs.map_batches(explode, batch_format="pandas")

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        out = []
        for _, grp in g.groupby(["tbl", "key"], sort=False):
            if len(grp) < 2:
                continue
            order = np.argsort(grp["id"].to_numpy(), kind="stable")
            ids = grp["id"].to_numpy()[order]
            sg = grp["sig"].to_numpy()[order]
            if max_bucket is not None and len(ids) > max_bucket:
                ia = np.zeros(len(ids) - 1, dtype=np.int64)
                ib = np.arange(1, len(ids), dtype=np.int64)
            else:
                ia, ib = np.triu_indices(len(ids), k=1)
            ham = hamming64(sg[ia], sg[ib])
            keep = ham <= max_hamming
            if keep.any():
                out.append(
                    pd.DataFrame(
                        {
                            "id_a": ids[ia[keep]],
                            "id_b": ids[ib[keep]],
                            "hamming": ham[keep],
                        }
                    )
                )
        if not out:
            return pd.DataFrame(
                {
                    "id_a": pd.Series([], dtype=g["id"].dtype),
                    "id_b": pd.Series([], dtype=g["id"].dtype),
                    "hamming": pd.Series([], dtype="int64"),
                }
            )
        return pd.concat(out, ignore_index=True).drop_duplicates(
            subset=["id_a", "id_b"]
        )

    matched = by_partition(exploded, ["tbl", "key"], pairs)
    return _dedup_pairs_global(matched, extra_cols=["hamming"])


def jaccard_near_dups(
    ds: "ray.data.Dataset",
    threshold: float = 0.8,
    id_col: str = "doc_id",
    text_col: str = "text",
    k: int = 5,
    num_parts: int = 8,
) -> "ray.data.Dataset":
    """EXACT k-shingle n-gram Jaccard near-duplicate pairs (id_a <
    id_b, jaccard >= threshold) -- the recall-1.0 baseline of the
    dedup family (MinHash-LSH is the scale path; this is the oracle
    path, same positioning as ``cosine_near_dups`` for embeddings).

    Same distributed block-nested-loop skeleton as ``cosine_near_dups``
    (every unordered doc pair meets in exactly one partition-pair
    bucket, no driver materialization). Inside a bucket, pairwise
    intersection sizes come from a sort-merge RUN EXPANSION over the
    docs' sorted-unique shingle-hash arrays -- a pandas hash join of
    (hash, doc) occurrence lists, chunked so the expanded pair list
    stays bounded -- followed by one ``bincount`` into the dense
    na x nb intersection matrix. No per-pair Python, no per-pair set
    construction; compute is output-sensitive (sum over shared hashes
    of df_a*df_b), not the dense O(na*nb*vocab).

    Bucket size is the scale knob exactly as in ``cosine_near_dups``:
    raise ``num_parts`` so (docs/num_parts)^2 ints fit a worker; the
    shuffle moves num_parts x the (id, text) data.
    """
    import pandas as pd

    from .similarity import _pair_buckets

    P = num_parts
    CHUNK = 1 << 24  # max expanded (doc_a, doc_b) occurrence pairs per bincount
    DENSE_COST = 4096  # df_a*df_b above this -> dense-matmul counting

    _EMPTY_J = pd.DataFrame(
        {"id_a": pd.Series([], dtype="int64"),
         "id_b": pd.Series([], dtype="int64"),
         "jaccard": pd.Series([], dtype="float64")}
    )

    def _occurrences(texts):
        """(sorted hash array, doc-index array, per-doc set sizes)."""
        sh = [_shingle_hashes(t, k) for t in texts]
        sizes = np.array([len(s) for s in sh], dtype=np.int64)
        h = np.concatenate(sh) if sh else np.empty(0, dtype=np.uint64)
        d = np.repeat(np.arange(len(sh), dtype=np.int64), sizes)
        order = np.argsort(h, kind="stable")
        return h[order], d[order], sizes

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        i, j = divmod(int(g["pairb"].iloc[0]), P)
        g = g.drop_duplicates(subset=[id_col, "side"])
        a = g[g["side"] == i]
        if len(a) == 0 or (i == j and len(a) < 2):
            return _EMPTY_J.copy()
        b = a if i == j else g[g["side"] == j]
        if len(b) == 0:
            return _EMPTY_J.copy()
        ids_a = a[id_col].to_numpy()
        ha, da, sa = _occurrences(a[text_col].tolist())
        if i == j:
            ids_b, hb, db, sb = ids_a, ha, da, sa
        else:
            ids_b = b[id_col].to_numpy()
            hb, db, sb = _occurrences(b[text_col].tolist())
        na, nb = len(ids_a), len(ids_b)
        # run boundaries per shared hash: shingle arrays are unique per
        # doc, so each (hash, doc) occurs once and runs are df lists
        ua, ca = np.unique(ha, return_counts=True)
        ub, cb = np.unique(hb, return_counts=True)
        common, ixa, ixb = np.intersect1d(ua, ub, return_indices=True)
        if len(common) == 0:
            return _EMPTY_J.copy()
        starts_a = np.concatenate(([0], np.cumsum(ca)))[ixa]
        starts_b = np.concatenate(([0], np.cumsum(cb)))[ixb]
        la, lb = ca[ixa], cb[ixb]
        costs = la * lb
        inter = np.zeros(na * nb, dtype=np.int64)
        # hybrid EXACT counting: ultra-common shingles (stopword-grade
        # 5-grams live in most docs, so their run cross-products
        # dominate Sum(df_a*df_b) while carrying almost no Jaccard
        # information per pair) go through ONE dense 0/1 matmul over
        # the common-hash indicator matrices -- O(na*nb*n_dense) BLAS,
        # exact integer counts in float64; everything rare keeps the
        # output-sensitive run expansion. Measured 8x on the 5k-doc
        # corpus (BASELINE.md).
        dense = costs > DENSE_COST
        if dense.any():
            di_all = np.flatnonzero(dense)
            step = max(1, (1 << 24) // max(na, nb))  # cap indicator RAM
            for s in range(0, len(di_all), step):
                di = di_all[s:s + step]
                nd = len(di)
                ind_a = np.zeros((na, nd), dtype=np.float64)
                rows_a = da[_run_concat(starts_a[di], la[di])]
                ind_a[rows_a, np.repeat(np.arange(nd), la[di])] = 1.0
                if i == j:
                    ind_b = ind_a
                else:
                    ind_b = np.zeros((nb, nd), dtype=np.float64)
                    rows_b = db[_run_concat(starts_b[di], lb[di])]
                    ind_b[rows_b, np.repeat(np.arange(nd), lb[di])] = 1.0
                inter += np.rint(ind_a @ ind_b.T).astype(np.int64).ravel()
        ri = np.flatnonzero(~dense)
        bounds = np.concatenate(([0], np.cumsum(costs[ri])))
        lo = 0
        while lo < len(ri):
            hi = int(np.searchsorted(bounds, bounds[lo] + CHUNK, side="left"))
            hi = max(hi, lo + 1)
            # expand A runs: element t of run h repeated lb[h] times
            sel = ri[lo:hi]
            a_idx = _run_concat(starts_a[sel], la[sel])
            docs_a = np.repeat(da[a_idx], np.repeat(lb[sel], la[sel]))
            # expand B runs: run h tiled la[h] times
            b_rep_starts = np.repeat(starts_b[sel], la[sel])
            b_rep_lens = np.repeat(lb[sel], la[sel])
            docs_b = db[_run_concat(b_rep_starts, b_rep_lens)]
            inter += np.bincount(docs_a * nb + docs_b, minlength=na * nb)
            lo = hi
        m = inter.reshape(na, nb)
        union = sa[:, None] + sb[None, :] - m
        jac = m / np.maximum(union, 1)
        mask = jac >= threshold
        if i == j:
            mask &= np.triu(np.ones((na, nb), dtype=bool), k=1)
        ia, ib = np.nonzero(mask)
        if len(ia) == 0:
            return _EMPTY_J.copy()
        id_a, id_b = ids_a[ia], ids_b[ib]
        jv = jac[ia, ib]
        swap = id_a > id_b
        return pd.DataFrame(
            {"id_a": np.where(swap, id_b, id_a).astype("int64"),
             "id_b": np.where(swap, id_a, id_b).astype("int64"),
             "jaccard": jv.astype("float64")}
        )

    return (
        _pair_buckets(ds, id_col, P)
        .groupby("pairb")
        .map_groups(bucket_pairs, batch_format="pandas")
    )


def _run_concat(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenate ranges [starts[i], starts[i]+lens[i]) -- the cumsum
    pair-expansion trick (same as temporal_join's range expansion)."""
    tot = int(lens.sum())
    if tot == 0:
        return np.empty(0, dtype=np.int64)
    step = np.ones(tot, dtype=np.int64)
    heads = np.concatenate(([0], np.cumsum(lens)))[:-1]
    step[heads] = starts + 1 - np.concatenate(([1], (starts + lens)[:-1]))
    return np.cumsum(step)


def conversation_fingerprints(
    ds: "ray.data.Dataset",
    key_col: str = "conv_id",
    order_col: str = "turn_idx",
    text_col: str = "text",
    num_parts: int | None = None,
) -> "ray.data.Dataset":
    """Conversation-LEVEL exact dedup over transcripts: md5 of the
    turn-ordered concatenation of a conversation's texts (chr(31)
    separator -- unambiguous under concatenation), plus the canonical
    keep decision ``is_canonical = (conv_id == min conv_id sharing the
    hash)``.

    The transcripts-native analog of per-document ``exact_dedup``: a
    duplicate CONVERSATION is byte-identical turn text in the same turn
    order, which no per-turn/per-doc hash can decide. Two bounded
    exchanges: (1) the engine's standard ``by_partition`` on conv_id
    co-location, concat + one md5 per conversation (hashing is the
    per-group semantic unit -- the loop is per conversation, never per
    row); (2) a (hash -> min key) exchange of one slim row per
    conversation. Text never moves twice: exchange 2 ships only
    ``(conv_id, n_turns, 16-byte hash)``.
    """
    import hashlib

    sep = chr(31)

    def fingerprint(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, order_col], kind="mergesort")
        grp = g.groupby(key_col, sort=False)[text_col]
        joined = grp.agg(lambda s: sep.join(s))
        out = joined.reset_index()
        out["conv_hash"] = [
            hashlib.md5(t.encode("utf-8")).hexdigest() for t in out[text_col]
        ]
        out["n_turns"] = grp.size().reindex(out[key_col]).to_numpy().astype(np.int64)
        return out[[key_col, "n_turns", "conv_hash"]]

    def canonical(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop(columns=["part"])
        first = g.groupby("conv_hash", sort=False)[key_col].transform("min")
        g = g.assign(is_canonical=(g[key_col] == first).astype(np.int64))
        return g

    fps = by_partition(
        ds.select_columns([key_col, order_col, text_col]),
        key_col, fingerprint, num_parts=num_parts,
    )
    return by_partition(fps, "conv_hash", canonical, num_parts=num_parts)


def _containment_blocked(
    ds, id_col, text_col, k, threshold, num_parts
) -> "ray.data.Dataset":
    """Closed-vocabulary containment path: the partition-pair
    block-nested-loop of ``jaccard_near_dups``/``cosine_near_dups``
    with DENSE gram-indicator matmuls per bucket. When the gram
    vocabulary is bounded (every gram common, so prefix filtering
    cannot prune -- measured on the synthetic corpus: vocab grows 10k
    -> 13k while postings grow 10x), the na x V indicator fits a
    worker and one float32 matmul yields every exact intersection
    count; each unordered doc pair meets in exactly ONE bucket, which
    emits BOTH directed containments. Gram identity is the shared
    128-bit-grade shingle hash (same negligible-collision contract as
    jaccard_near_dups vs its substring oracle)."""
    import pandas as pd

    from .similarity import _pair_buckets

    P = num_parts

    def long_enough(df: pd.DataFrame) -> pd.DataFrame:
        keep = df[text_col].fillna("").str.len() >= k
        return df.loc[keep, [id_col, text_col]].reset_index(drop=True)

    empty = pd.DataFrame(
        {"id_a": pd.Series([], dtype="int64"),
         "id_b": pd.Series([], dtype="int64"),
         "containment": pd.Series([], dtype="float64")}
    )

    def _indicator(texts, vocab):
        n = len(texts)
        ind = np.zeros((n, len(vocab)), dtype=np.float32)
        sizes = np.empty(n, dtype=np.int64)
        for r, t in enumerate(texts):
            h = _shingle_hashes(t, k)
            sizes[r] = len(h)
            ind[r, np.searchsorted(vocab, h)] = 1.0
        return ind, sizes

    def _emit(m, sa, ids_a, ids_b, same):
        cont = m / sa[:, None]
        mask = cont >= threshold
        if same:
            np.fill_diagonal(mask, False)
        ia, ib = np.nonzero(mask)
        if len(ia) == 0:
            return None
        r = cont[ia, ib] + 1e-7
        return pd.DataFrame(
            {
                "id_a": ids_a[ia].astype("int64"),
                "id_b": ids_b[ib].astype("int64"),
                "containment": np.sign(r)
                * np.floor(np.abs(r) * 1e6 + 0.5) / 1e6,
            }
        )

    def bucket(g: pd.DataFrame) -> pd.DataFrame:
        i, j = divmod(int(g["pairb"].iloc[0]), P)
        g = g.drop_duplicates(subset=[id_col, "side"])
        a = g[g["side"] == i]
        if len(a) == 0 or (i == j and len(a) < 2):
            return empty.copy()
        b = a if i == j else g[g["side"] == j]
        if len(b) == 0:
            return empty.copy()
        texts_a = a[text_col].tolist()
        texts_b = texts_a if i == j else b[text_col].tolist()
        vocab = np.unique(
            np.concatenate(
                [_shingle_hashes(t, k) for t in texts_a]
                + ([] if i == j else [_shingle_hashes(t, k)
                                      for t in texts_b])
            )
        )
        ind_a, sa = _indicator(texts_a, vocab)
        if i == j:
            ind_b, sb = ind_a, sa
        else:
            ind_b, sb = _indicator(texts_b, vocab)
        # counts <= vocab < 2^24: exact in float32
        m = np.rint(ind_a @ ind_b.T).astype(np.int64)
        ids_a = a[id_col].to_numpy()
        ids_b = ids_a if i == j else b[id_col].to_numpy()
        outs = []
        fwd = _emit(m, sa, ids_a, ids_b, i == j)
        if fwd is not None:
            outs.append(fwd)
        if i != j:  # reverse direction meets here too
            rev = _emit(m.T, sb, ids_b, ids_a, False)
            if rev is not None:
                outs.append(rev)
        return pd.concat(outs, ignore_index=True) if outs else empty.copy()

    return (
        _pair_buckets(
            ds.map_batches(long_enough, batch_format="pandas"), id_col, P
        )
        .groupby("pairb")
        .map_groups(bucket, batch_format="pandas")
    )


def containment_pairs(
    ds: "ray.data.Dataset",
    id_col: str = "doc_id",
    text_col: str = "text",
    k: int = 8,
    threshold: float = 0.5,
    hot_k: int = 100_000,
    num_parts: int | None = None,
    mode: str = "auto",
) -> "ray.data.Dataset":
    """Exact asymmetric containment join over char k-gram shingle sets:
    DIRECTED pairs (id_a, id_b, containment) with containment =
    |G_a INTERSECT G_b| / |G_a| >= threshold -- the "is document A
    mostly contained in B" relation that symmetric Jaccard dedup
    misses (boilerplate inclusion, quote-expansion, version supersets).

    Candidate generation is PPJoin-style prefix filtering adapted to
    the one-sided threshold: a pair with overlap >= floor(t*|G_a|)
    must share a gram with ANY (|G_a| - floor(t*|G_a|) + 1)-subset of
    G_a (pigeonhole), so only A's prefix grams are indexed while B
    indexes everything. Prefix grams are chosen rarest-first using a
    broadcast of the ``hot_k`` most-frequent grams' document
    frequencies (grams outside the broadcast tie as rare; ANY subset
    keeps completeness, rarity ordering only shrinks the candidate
    volume), so the driver never holds the full vocabulary.

    Exchanges: gram-df groupby, prefix x full postings join on the
    gram, pair-hash dedup, and two chained partitioned joins that
    co-locate each candidate with both gram sets -- texts themselves
    never shuffle, and per-pair verification is exact set
    intersection. Matches a brute-force all-pairs SQL oracle.

    ``mode``: ``"prefix"`` (the pipeline above -- the OPEN-vocabulary
    scale path, where rare grams keep candidates sparse),
    ``"blocked"`` (partition-pair dense matmul -- the CLOSED-vocabulary
    path, where every gram is common and prefix filtering cannot
    prune), or ``"auto"`` (default): a bounded 512-doc sample measures
    the gram duplication factor (postings / distinct grams); >= 4
    means closed vocabulary -> blocked. Both modes are exact and
    produce identical pairs (blocked counts via the shared shingle
    hash, the same negligible-collision contract as
    jaccard_near_dups)."""
    import math

    from .join import partitioned_join

    if not (0.0 < threshold <= 1.0):
        raise ValueError("threshold must be in (0, 1]")
    if mode not in ("auto", "prefix", "blocked"):
        raise ValueError(f"unknown mode {mode!r}")
    if num_parts is None:
        num_parts = default_num_parts()
    if mode == "auto":
        sample = ds.limit(512).to_pandas()
        hh = [
            _shingle_hashes(t, k)
            for t in sample[text_col].fillna("")
            if len(t) >= k
        ]
        tot = int(sum(len(h) for h in hh))
        vocab = len(np.unique(np.concatenate(hh))) if hh else 1
        mode = "blocked" if tot / max(vocab, 1) >= 4.0 else "prefix"
    if mode == "blocked":
        return _containment_blocked(
            ds, id_col, text_col, k, threshold, num_parts
        )

    sep = "\x00"

    def shingle(df: pd.DataFrame) -> pd.DataFrame:
        ids, grams, ms = [], [], []
        for i, txt in zip(df[id_col].to_numpy(), df[text_col].to_numpy()):
            t = txt or ""
            if len(t) < k:
                continue
            gs = sorted({t[j : j + k] for j in range(len(t) - k + 1)})
            ids.append(i)
            grams.append(sep.join(gs))
            ms.append(len(gs))
        return pd.DataFrame(
            {
                id_col: np.asarray(ids, dtype=np.int64),
                "grams": pd.Series(grams, dtype="object"),
                "m": np.asarray(ms, dtype=np.int64),
            }
        )

    sh = ds.map_batches(shingle, batch_format="pandas").materialize()

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {"gram": pd.Series([], dtype="object"),
                 "b": pd.Series([], dtype="int64")}
            )
        lists = df["grams"].str.split(sep)
        n = lists.str.len().to_numpy()
        return pd.DataFrame(
            {
                "gram": np.concatenate(lists.to_numpy()),
                "b": np.repeat(df[id_col].to_numpy(), n),
            }
        )

    # materialized: consumed twice (hot-gram counts + candidate join)
    posts = sh.map_batches(explode, batch_format="pandas").materialize()
    if hot_k > 0:
        hot = (
            posts.groupby("gram")
            .count()
            .sort("count()", descending=True)
            .limit(hot_k)
            .to_pandas()
        )
        df_map = dict(zip(hot["gram"], hot["count()"].astype(int)))
    else:  # all grams tie as rare; any prefix subset stays complete
        df_map = {}
    df_ref = ray.put(df_map)

    def prefix(df: pd.DataFrame) -> pd.DataFrame:
        dfm = ray.get(df_ref)
        out_g, out_a = [], []
        for i, gs, m in zip(
            df[id_col].to_numpy(), df["grams"].to_numpy(), df["m"].to_numpy()
        ):
            glist = gs.split(sep)
            plen = int(m) - int(math.floor(threshold * int(m))) + 1
            if plen >= m:
                pick = glist
            else:
                pick = sorted(glist, key=lambda g: (dfm.get(g, 0), g))[:plen]
            out_g.extend(pick)
            out_a.extend([i] * len(pick))
        return pd.DataFrame(
            {
                "gram": pd.Series(out_g, dtype="object"),
                "a": np.asarray(out_a, dtype=np.int64),
            }
        )

    pre = sh.map_batches(prefix, batch_format="pandas")
    gram_schema_a = pa.schema([("gram", pa.string()), ("a", pa.int64())])
    gram_schema_b = pa.schema([("gram", pa.string()), ("b", pa.int64())])

    def off_diagonal(df: pd.DataFrame) -> pd.DataFrame:
        df = df.loc[df["a"] != df["b"], ["a", "b"]]
        return df.assign(
            pair=df["a"].to_numpy() * np.int64(1_000_003) + df["b"].to_numpy()
        )

    cand = partitioned_join(
        pre, posts, left_on="gram", how="inner",
        num_parts=num_parts,
        left_schema=gram_schema_a, right_schema=gram_schema_b,
    ).map_batches(off_diagonal, batch_format="pandas")
    distinct = by_partition(
        cand, "pair",
        lambda g: g.drop_duplicates(["a", "b"]).drop(columns=["pair", "part"]),
        num_parts=num_parts,
    )

    sh_a = sh.map_batches(
        lambda d: d.rename(
            columns={id_col: "a", "grams": "grams_a", "m": "m_a"}
        ),
        batch_format="pandas",
    )
    sh_b = sh.map_batches(
        lambda d: d[[id_col, "grams"]].rename(
            columns={id_col: "b", "grams": "grams_b"}
        ),
        batch_format="pandas",
    )
    pair_schema = pa.schema([("a", pa.int64()), ("b", pa.int64())])
    sha_schema = pa.schema(
        [("a", pa.int64()), ("grams_a", pa.string()), ("m_a", pa.int64())]
    )
    shb_schema = pa.schema([("b", pa.int64()), ("grams_b", pa.string())])
    j1 = partitioned_join(
        distinct, sh_a, left_on="a", how="inner", num_parts=num_parts,
        left_schema=pair_schema, right_schema=sha_schema,
    )
    j1_schema = pa.schema(
        [("a", pa.int64()), ("b", pa.int64()),
         ("grams_a", pa.string()), ("m_a", pa.int64())]
    )
    j2 = partitioned_join(
        j1, sh_b, left_on="b", how="inner", num_parts=num_parts,
        left_schema=j1_schema, right_schema=shb_schema,
    )

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {"id_a": pd.Series([], dtype="int64"),
                 "id_b": pd.Series([], dtype="int64"),
                 "containment": pd.Series([], dtype="float64")}
            )
        conts = np.empty(len(df), dtype=np.float64)
        ga = df["grams_a"].to_numpy()
        gb = df["grams_b"].to_numpy()
        ms = df["m_a"].to_numpy(dtype=np.float64)
        for i in range(len(df)):
            c = len(set(ga[i].split(sep)) & set(gb[i].split(sep)))
            conts[i] = c / ms[i]
        keep = conts >= threshold
        r = conts[keep] + 1e-7
        return pd.DataFrame(
            {
                "id_a": df["a"].to_numpy()[keep],
                "id_b": df["b"].to_numpy()[keep],
                "containment": np.sign(r)
                * np.floor(np.abs(r) * 1e6 + 0.5) / 1e6,
            }
        )

    return j2.map_batches(verify, batch_format="pandas")
