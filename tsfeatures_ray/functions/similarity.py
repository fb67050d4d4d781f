"""Similarity search over an embedding column (list<float>).

- ``brute_knn``: exact brute-force cosine top-k. The query matrix is
  broadcast ONCE via ``ray.put`` and read in each actor's ``__init__``
  (never re-shipped per batch); each batch does one numpy matmul;
  per-batch top-k partials are merged in a tiny final reduce. The full
  embedding table streams -- nothing is materialized.
- ``lsh_bucketed_knn``: the scale path -- random-hyperplane LSH buckets
  prune the candidate set before exact scoring (IVF-style); same
  broadcast + partial-topk shape, ~1/2^bits of the data scored.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray

from ..stages.derive import by_partition, default_num_parts, with_part
from .dedup import _dedup_pairs_global

# far wider than a matmul entry's rounding error on unit vectors
# (about dim x 2^-53), far narrower than any threshold step
_MATMUL_SLACK = 1e-9


def _to_matrix(col, dtype=np.float64) -> np.ndarray:
    return np.stack([np.asarray(v, dtype=dtype) for v in col])


def _pair_cosines(m_a: np.ndarray, m_b: np.ndarray, ia, ib) -> np.ndarray:
    """Row-pair dot products ``m_a[ia] . m_b[ib]`` in a fixed order per
    pair. A matmul entry's last bit can depend on the matrix shape and
    the entry's place in it, so two operators that meet the same pair in
    different blocks report the cosine they both compute here."""
    return np.sum(m_a[ia] * m_b[ib], axis=1)


def _close_pairs(m_a: np.ndarray, m_b: np.ndarray, threshold: float,
                 triangular: bool = False):
    """The row pairs ``(ia, ib)`` of ``m_a`` x ``m_b`` (``ia < ib`` when
    ``triangular``, one block against itself) whose ``_pair_cosines``
    is ``>= threshold``, and that cosine. The matmul only prefilters,
    with ``_MATMUL_SLACK``: its last bits depend on the block the pair
    met in, so neither the decision nor the value does."""
    near = m_a @ m_b.T >= threshold - _MATMUL_SLACK
    ia, ib = np.nonzero(np.triu(near, k=1) if triangular else near)
    c = _pair_cosines(m_a, m_b, ia, ib)
    keep = c >= threshold
    return ia[keep], ib[keep], c[keep]


class _BruteScorer:
    def __init__(self, query_ref, k, id_col, vec_col):
        q = np.asarray(ray.get(query_ref), dtype=np.float64)  # broadcast: read once per actor
        self.qn = q / np.linalg.norm(q, axis=1, keepdims=True)
        self.k, self.id_col, self.vec_col = k, id_col, vec_col

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        m = _to_matrix(batch[self.vec_col].to_numpy())
        norms = np.linalg.norm(m, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        sims = (m / norms) @ self.qn.T  # (batch, n_queries)
        ids = batch[self.id_col].to_numpy()
        out = []
        kk = min(self.k, len(ids))
        for qi in range(sims.shape[1]):
            s = sims[:, qi]
            top = np.argpartition(-s, kk - 1)[:kk]
            out.append(
                pd.DataFrame(
                    {"query_id": qi, "vec_id": ids[top], "cosine": s[top].astype("float64")}
                )
            )
        return pd.concat(out, ignore_index=True)


def brute_knn(
    ds: "ray.data.Dataset",
    queries: np.ndarray,
    k: int = 10,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    concurrency: int = 4,
) -> pd.DataFrame:
    """Exact cosine top-k per query row. Returns a pandas DataFrame
    (query_id, vec_id, cosine, rank) -- small (n_queries * k rows)."""
    qref = ray.put(np.asarray(queries, dtype=np.float64))
    partials = ds.map_batches(
        _BruteScorer,
        fn_constructor_kwargs={
            "query_ref": qref, "k": k, "id_col": id_col, "vec_col": vec_col
        },
        batch_format="pandas",
        batch_size=8192,
        concurrency=(1, concurrency),
        num_cpus=1,
    )
    # final merge of per-batch partial top-ks: tiny -- safe to collect
    allp = partials.to_pandas()
    out = []
    for qi, grp in allp.groupby("query_id"):
        top = (
            grp.sort_values(["cosine", "vec_id"], ascending=[False, True])
            .head(k)
            .reset_index(drop=True)
        )
        top["rank"] = np.arange(1, len(top) + 1)
        out.append(top)
    return pd.concat(out, ignore_index=True)


_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


class _LshScorer(_BruteScorer):
    def __init__(self, query_ref, planes_ref, k, id_col, vec_col, radius=0,
                 tables=1, bits=4):
        super().__init__(query_ref, k, id_col, vec_col)
        self.planes = ray.get(planes_ref)  # (dim, tables*bits)
        self.radius, self.tables, self.bits = radius, tables, bits
        self.qbuckets = self._bucketize(self.qn)  # (n_queries, tables)

    def _bucketize(self, mn: np.ndarray) -> np.ndarray:
        # (n, tables, ceil(bits/8)) -- ALL packed bytes are kept so
        # bits > 8 widens the bucket instead of silently truncating to
        # the first byte
        bcols = (mn @ self.planes) > 0  # (n, tables*bits)
        b = bcols.reshape(len(mn), self.tables, self.bits)
        return np.packbits(b, axis=2, bitorder="little")

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        m = _to_matrix(batch[self.vec_col].to_numpy())
        norms = np.linalg.norm(m, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        mn = m / norms
        buckets = self._bucketize(mn)  # (batch, tables)
        ids = batch[self.id_col].to_numpy()
        out = []
        for qi in range(len(self.qn)):
            # multi-table multi-probe: score a vector if in ANY of the L
            # tables its bucket is within Hamming distance `radius` of
            # the query's bucket. Union recall 1-(1-p)^L rises steeply
            # with L; scored fraction stays
            # ~L * sum_{i<=r} C(bits,i)/2^bits.
            dist = _POPCOUNT8[buckets ^ self.qbuckets[qi][None]].sum(
                axis=2, dtype=np.int64
            )
            mask = (dist <= self.radius).any(axis=1)
            if not mask.any():
                continue
            s = mn[mask] @ self.qn[qi]
            sub_ids = ids[mask]
            kk = min(self.k, len(sub_ids))
            top = np.argpartition(-s, kk - 1)[:kk]
            out.append(
                pd.DataFrame(
                    {"query_id": qi, "vec_id": sub_ids[top],
                     "cosine": s[top].astype("float64")}
                )
            )
        if not out:
            return pd.DataFrame(
                {"query_id": pd.Series([], dtype="int64"),
                 "vec_id": pd.Series([], dtype="int64"),
                 "cosine": pd.Series([], dtype="float64")}
            )
        return pd.concat(out, ignore_index=True)


def lsh_bucketed_knn(
    ds: "ray.data.Dataset",
    queries: np.ndarray,
    k: int = 10,
    bits: int = 4,
    dim: int | None = None,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    concurrency: int = 4,
    seed: int = 7,
    radius: int = 0,
    tables: int = 1,
) -> pd.DataFrame:
    """Approximate cosine top-k: ``tables`` independent random-hyperplane
    hash tables of ``bits`` bits each; a vector is scored exactly iff in
    some table its bucket is within Hamming distance ``radius`` of the
    query's (multi-table + multi-probe LSH). Recall < 1 by construction;
    the scale path when brute force is too expensive. Measure the
    recall/pruning tradeoff with ``ann_recall``."""
    queries = np.asarray(queries, dtype=np.float64)
    if dim is None:
        dim = queries.shape[1]
    rng = np.random.Generator(np.random.PCG64(seed))
    planes = rng.normal(size=(dim, tables * bits))
    qref = ray.put(queries)
    pref = ray.put(planes)
    partials = ds.map_batches(
        _LshScorer,
        fn_constructor_kwargs={
            "query_ref": qref, "planes_ref": pref, "k": k,
            "id_col": id_col, "vec_col": vec_col, "radius": radius,
            "tables": tables, "bits": bits,
        },
        batch_format="pandas",
        batch_size=8192,
        concurrency=(1, concurrency),
        num_cpus=1,
    )
    allp = partials.to_pandas()
    out = []
    for qi, grp in allp.groupby("query_id"):
        top = (
            grp.sort_values(["cosine", "vec_id"], ascending=[False, True])
            .head(k)
            .reset_index(drop=True)
        )
        top["rank"] = np.arange(1, len(top) + 1)
        out.append(top)
    if not out:
        return pd.DataFrame(columns=["query_id", "vec_id", "cosine", "rank"])
    return pd.concat(out, ignore_index=True)


def _kmeans(
    x: np.ndarray, k: int, iters: int = 12, seed: int = 11,
    init: str = "random",
) -> np.ndarray:
    """Small numpy k-means (cosine/normalized-L2) for the IVF coarse
    quantizer -- trained on a driver-side SAMPLE, never the corpus.
    ``init="farthest"`` uses the deterministic greedy k-center seeding
    (first row, then repeatedly the point least similar to any chosen
    seed) -- RNG-free and immune to the two-seeds-in-one-blob collapse
    random init suffers on well-separated clusters."""
    xn = x / np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1e-12)
    kk = min(k, len(xn))
    if init == "farthest":
        idx = [0]
        best = xn @ xn[0]
        for _ in range(1, kk):
            nxt = int(np.argmin(best))
            idx.append(nxt)
            best = np.maximum(best, xn @ xn[nxt])
        cent = xn[idx].copy()
    else:
        rng = np.random.Generator(np.random.PCG64(seed))
        cent = xn[rng.choice(len(xn), size=kk, replace=False)]
    for _ in range(iters):
        assign = np.argmax(xn @ cent.T, axis=1)
        for j in range(len(cent)):
            m = assign == j
            if m.any():
                v = xn[m].mean(axis=0)
                cent[j] = v / max(np.linalg.norm(v), 1e-12)
    return cent


class _IvfScorer(_BruteScorer):
    def __init__(self, query_ref, cent_ref, k, id_col, vec_col, nprobe):
        super().__init__(query_ref, k, id_col, vec_col)
        self.cent = ray.get(cent_ref)  # (nlist, dim), broadcast once
        sims = self.qn @ self.cent.T
        np_ = min(nprobe, sims.shape[1])
        self.qlists = np.argpartition(-sims, np_ - 1, axis=1)[:, :np_]

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        m = _to_matrix(batch[self.vec_col].to_numpy())
        norms = np.linalg.norm(m, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        mn = m / norms
        assign = np.argmax(mn @ self.cent.T, axis=1)
        ids = batch[self.id_col].to_numpy()
        out = []
        for qi in range(len(self.qn)):
            mask = np.isin(assign, self.qlists[qi])
            if not mask.any():
                continue
            s = mn[mask] @ self.qn[qi]
            sub_ids = ids[mask]
            kk = min(self.k, len(sub_ids))
            top = np.argpartition(-s, kk - 1)[:kk]
            out.append(
                pd.DataFrame(
                    {"query_id": qi, "vec_id": sub_ids[top],
                     "cosine": s[top].astype("float64")}
                )
            )
        if not out:
            return pd.DataFrame(
                {"query_id": pd.Series([], dtype="int64"),
                 "vec_id": pd.Series([], dtype="int64"),
                 "cosine": pd.Series([], dtype="float64")}
            )
        return pd.concat(out, ignore_index=True)


def ivf_knn(
    ds: "ray.data.Dataset",
    queries: np.ndarray,
    k: int = 10,
    nlist: int = 32,
    nprobe: int = 8,
    train_sample: int = 20_000,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    concurrency: int = 4,
    seed: int = 11,
) -> pd.DataFrame:
    """IVF approximate cosine top-k: a k-means coarse quantizer (trained
    on a bounded sample) partitions the space into nlist cells; each
    query exact-scores only vectors assigned to its nprobe nearest
    cells. Centroids are broadcast once (ray.put); the corpus streams;
    expected scored fraction ~nprobe/nlist on balanced cells."""
    queries = np.asarray(queries, dtype=np.float64)
    n_total = ds.count()
    frac = min(1.0, train_sample / max(1, n_total))
    # the k-means train set must be DETERMINISTIC in both membership and
    # row order: ds.random_sample(...).to_pandas() returns blocks in
    # task-COMPLETION order (preserve_order is off), which made the
    # trained centroids -- and hence the IVF result -- flip run-to-run.
    # Hash-keyed sampling pins membership; the id sort pins order.
    if frac >= 1.0:
        sample = ds.to_pandas()
    else:
        from .sampling import deterministic_sample

        sample = deterministic_sample(ds, frac, id_col, salt=seed).to_pandas()
    sample = sample.sort_values(id_col, kind="mergesort").reset_index(drop=True)
    train = _to_matrix(sample[vec_col].to_numpy())
    cent = _kmeans(train, nlist, seed=seed)
    qref = ray.put(queries)
    cref = ray.put(cent)
    partials = ds.map_batches(
        _IvfScorer,
        fn_constructor_kwargs={
            "query_ref": qref, "cent_ref": cref, "k": k,
            "id_col": id_col, "vec_col": vec_col, "nprobe": nprobe,
        },
        batch_format="pandas",
        batch_size=8192,
        concurrency=(1, concurrency),
        num_cpus=1,
    )
    allp = partials.to_pandas()
    out = []
    for qi, grp in allp.groupby("query_id"):
        top = (
            grp.sort_values(["cosine", "vec_id"], ascending=[False, True])
            .head(k)
            .reset_index(drop=True)
        )
        top["rank"] = np.arange(1, len(top) + 1)
        out.append(top)
    if not out:
        return pd.DataFrame(columns=["query_id", "vec_id", "cosine", "rank"])
    return pd.concat(out, ignore_index=True)


def _pair_buckets(ds: "ray.data.Dataset", id_col: str, P: int):
    """The block-nested-loop replication: every row gets its ``part``
    (hash of ``id_col``, the engine's partitioning) as ``side`` and is
    copied into the P partition-PAIR buckets ``pairb = lo * P + hi``
    (lo, hi = sorted (side, k) for every k), so every unordered pair of
    rows meets in exactly one bucket. Callers ``groupby("pairb")``."""

    def replicate(df: pd.DataFrame) -> pd.DataFrame:
        p = df.pop("part").to_numpy()
        rep = df.iloc[np.repeat(np.arange(len(df)), P)].reset_index(drop=True)
        p_rep = np.repeat(p, P)
        k = np.tile(np.arange(P, dtype=np.int64), len(df))
        lo, hi = np.minimum(p_rep, k), np.maximum(p_rep, k)
        rep["side"] = p_rep
        rep["pairb"] = lo * P + hi
        return rep

    return with_part(ds, id_col, P).map_batches(
        replicate, batch_format="pandas"
    )


def cosine_near_dups(
    ds: "ray.data.Dataset",
    threshold: float = 0.4,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    num_parts: int = 8,
) -> "ray.data.Dataset":
    """EXACT embedding-cosine near-duplicate pairs (id_a < id_b, cosine
    >= threshold) with no driver materialization: a distributed
    block-nested-loop. Rows are hash-partitioned into P parts; every
    row is replicated to the P partition-PAIR buckets it participates
    in ((min(p,k), max(p,k)) for all k), ONE groupby co-locates each
    bucket, and each bucket computes its cross (or triangular, when
    i==j) matmul. Every unordered vector pair meets in exactly one
    bucket, so the output needs no dedup.

    Cost model: shuffle volume is P x the vector data and compute is
    the full O(n^2) matmul split into P*(P+1)/2 independent tasks --
    the exact-answer baseline. For corpora where n^2 is not payable,
    use ``cosine_near_dups_lsh`` (bucketed candidates, recall < 1,
    measured by its pytest gate)."""
    import pandas as pd

    P = num_parts

    _EMPTY = pd.DataFrame(
        {"id_a": pd.Series([], dtype="int64"),
         "id_b": pd.Series([], dtype="int64"),
         "cosine": pd.Series([], dtype="float64")}
    )

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        i, j = divmod(int(g["pairb"].iloc[0]), P)
        g = g.drop_duplicates(subset=[id_col, "side"])
        a = g[g["side"] == i]
        # a hash partition can be empty (fewer keys than parts): the
        # cross bucket then has nothing to pair
        if len(a) == 0 or (i == j and len(a) < 2):
            return _EMPTY.copy()
        if i != j and len(g[g["side"] == j]) == 0:
            return _EMPTY.copy()
        m_a = _to_matrix(a[vec_col].to_numpy())
        m_a /= np.maximum(np.linalg.norm(m_a, axis=1, keepdims=True), 1e-12)
        ids_a = a[id_col].to_numpy()
        if i == j:
            m_b, ids_b = m_a, ids_a
        else:
            b = g[g["side"] == j]
            m_b = _to_matrix(b[vec_col].to_numpy())
            m_b /= np.maximum(np.linalg.norm(m_b, axis=1, keepdims=True), 1e-12)
            ids_b = b[id_col].to_numpy()
        ia, ib, c = _close_pairs(m_a, m_b, threshold, triangular=i == j)
        id_a, id_b = ids_a[ia], ids_b[ib]
        swap = id_a > id_b
        id_a2 = np.where(swap, id_b, id_a)
        id_b2 = np.where(swap, id_a, id_b)
        return pd.DataFrame(
            {"id_a": id_a2.astype("int64"), "id_b": id_b2.astype("int64"),
             "cosine": c.astype("float64")}
        )

    return (
        _pair_buckets(ds, id_col, P)
        .groupby("pairb")
        .map_groups(bucket_pairs, batch_format="pandas")
    )


def cosine_near_dups_lsh(
    ds: "ray.data.Dataset",
    threshold: float = 0.4,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    bits: int = 8,
    tables: int = 8,
    seed: int = 7,
) -> "ray.data.Dataset":
    """Approximate cosine near-dup pairs: random-hyperplane LSH buckets
    (multi-table) generate candidates, exact cosine verifies inside each
    co-located bucket -- no all-pairs matmul, no P x replication; recall
    < 1 by construction (collision probability (1-theta/pi)^bits per
    table, unioned over tables), measured against the exact path by the
    pytest gate. The scale path when n^2 is not payable."""
    import pandas as pd

    rng = np.random.Generator(np.random.PCG64(seed))
    planes_ref = None  # lazily created per call; broadcast via closure

    def bucketize(df: pd.DataFrame) -> pd.DataFrame:
        m = _to_matrix(df[vec_col].to_numpy())
        m /= np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
        bcols = (m @ bucketize.planes) > 0
        b = bcols.reshape(len(df), tables, bits)
        packed = np.packbits(b, axis=2, bitorder="little").astype(np.int64)
        nb = packed.shape[2]
        bucket = np.zeros((len(df), tables), dtype=np.int64)
        for byte in range(nb):
            bucket = bucket * 256 + packed[:, :, byte]
        out = pd.DataFrame(
            {
                id_col: np.repeat(df[id_col].to_numpy(), tables),
                "table": np.tile(np.arange(tables, dtype=np.int64), len(df)),
                "bucket": bucket.reshape(-1),
            }
        )
        out["vec"] = list(np.repeat(m, tables, axis=0))
        return out

    bucketize.planes = rng.normal(size=(_dim_of(ds, vec_col), tables * bits))

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for _, grp in g.groupby(["table", "bucket"], sort=False):
            if len(grp) < 2:
                continue
            m = np.stack(grp["vec"].to_numpy())
            ids = grp[id_col].to_numpy()
            ia, ib, c = _close_pairs(m, m, threshold, triangular=True)
            if not len(c):
                continue
            id_a, id_b = ids[ia], ids[ib]
            swap = id_a > id_b
            frames.append(pd.DataFrame(
                {"id_a": np.where(swap, id_b, id_a).astype("int64"),
                 "id_b": np.where(swap, id_a, id_b).astype("int64"),
                 "cosine": c.astype("float64")}
            ))
        if not frames:
            return pd.DataFrame(
                {"id_a": pd.Series([], dtype="int64"),
                 "id_b": pd.Series([], dtype="int64"),
                 "cosine": pd.Series([], dtype="float64")}
            )
        return pd.concat(frames, ignore_index=True)

    # the same pair can surface from several tables
    bucketed = ds.map_batches(bucketize, batch_format="pandas")
    return _dedup_pairs_global(
        by_partition(bucketed, ["table", "bucket"], verify), extra_cols=["cosine"])


def _dim_of(ds: "ray.data.Dataset", vec_col: str) -> int:
    return len(ds.limit(1).to_pandas()[vec_col].iloc[0])


def ann_recall(
    ds: "ray.data.Dataset",
    queries: np.ndarray,
    k: int = 10,
    bits: int = 8,
    radius: int = 2,
    tables: int = 8,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    method: str = "lsh",
    **kwargs,
) -> pd.DataFrame:
    """Recall@k of an approximate path (``method`` in {'lsh', 'ivf'})
    against exact brute force, per query:
    |approx top-k (intersect) exact top-k| / k. The quality harness for
    the ANN scale paths -- run it whenever parameters change.

    Defaults are tuned for the synthetic near-orthogonal embeddings
    (top-k neighbors at cosine ~0.25-0.3, per-bit collision p~0.6):
    measured recall 0.99 at sf0.01. Real text-embedding corpora have
    much closer neighbors (cos > 0.7), where far narrower probes (fewer
    tables, radius 0-1) reach the same recall with strong pruning --
    that tuning is exactly what this harness measures."""
    exact = brute_knn(ds, queries, k=k, id_col=id_col, vec_col=vec_col)
    if method == "ivf":
        approx = ivf_knn(
            ds, queries, k=k, id_col=id_col, vec_col=vec_col, **kwargs
        )
    else:
        approx = lsh_bucketed_knn(
            ds, queries, k=k, bits=bits, radius=radius, tables=tables,
            id_col=id_col, vec_col=vec_col, **kwargs,
        )
    rows = []
    for qi in range(len(queries)):
        want = set(exact.loc[exact["query_id"] == qi, "vec_id"])
        got = set(approx.loc[approx["query_id"] == qi, "vec_id"]) if len(approx) else set()
        rows.append(
            (qi, len(want & got) / max(1, len(want)), len(want), len(got))
        )
    return pd.DataFrame(
        rows, columns=["query_id", "recall_at_k", "n_exact", "n_approx"]
    )


class _KmeansAssigner:
    """Assignment pass: centroids broadcast once via ray.put; emits
    (id, cluster, cosine-to-centroid) per vector."""

    def __init__(self, cent_ref, id_col, vec_col):
        self.cent = ray.get(cent_ref)  # (k, dim), unit-normalized
        self.id_col, self.vec_col = id_col, vec_col

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        m = _to_matrix(batch[self.vec_col].to_numpy())
        m /= np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
        sims = m @ self.cent.T
        assign = np.argmax(sims, axis=1)
        return pd.DataFrame({
            self.id_col: batch[self.id_col].to_numpy(),
            "cluster": assign.astype(np.int64),
            "sim": sims[np.arange(len(m)), assign].astype(np.float64),
        })


def kmeans_cluster(
    ds: "ray.data.Dataset",
    k: int = 16,
    refine_iters: int = 2,
    train_sample: int = 20_000,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    num_parts: int | None = None,
    concurrency: int = 4,
    seed: int = 11,
) -> "ray.data.Dataset":
    """Distributed spherical k-means clustering over an embedding
    column -- the semantic-clustering stage of SemDeDup-style training
    -data pipelines (cluster, then dedup/curate WITHIN clusters so the
    expensive pairwise work never crosses cluster boundaries).

    Three stages, all deterministic (bit-stable run-to-run):
    1. INIT -- driver k-means on a deterministic bounded sample
       (hash-keyed membership + id-sorted order, the ivf_knn posture);
    2. REFINE -- ``refine_iters`` full Lloyd passes over the corpus:
       each batch emits per-cluster (count, sum-vector) partials, ONE
       bounded exchange merges them per cluster with the partials in
       CANONICAL sorted order (float sums are order-sensitive at the
       ULP; sorting pins the bits), and the driver only normalizes the
       k merged rows. Each pass streams the source again (iterative
       algorithms re-scan; O(refine_iters) passes). Empty clusters
       keep their previous centroid.
    3. ASSIGN -- stateless broadcast-centroid pass emitting
       ``(id, cluster:int64, sim:float64)``.

    The exchange carries k x dim doubles per batch -- never vectors of
    the corpus; the driver holds only (k, dim)."""
    cent = kmeans_fit(
        ds, k, refine_iters=refine_iters, train_sample=train_sample,
        id_col=id_col, vec_col=vec_col, num_parts=num_parts, seed=seed,
    )
    return ds.select_columns([id_col, vec_col]).map_batches(
        _KmeansAssigner,
        fn_constructor_kwargs={
            "cent_ref": ray.put(cent), "id_col": id_col, "vec_col": vec_col,
        },
        batch_format="pandas",
        batch_size=8192,
        concurrency=(1, concurrency),
        num_cpus=1,
    ).sort(id_col)


def kmeans_fit(
    ds: "ray.data.Dataset",
    k: int,
    refine_iters: int = 2,
    train_sample: int = 20_000,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    num_parts: int | None = None,
    seed: int = 11,
) -> np.ndarray:
    """Stages 1-2 of ``kmeans_cluster`` (init + distributed Lloyd
    refinement); returns the (k, dim) unit-norm centroid matrix."""
    if num_parts is None:
        num_parts = default_num_parts()
    n_total = ds.count()
    frac = min(1.0, train_sample / max(1, n_total))
    if frac >= 1.0:
        sample = ds.to_pandas()
    else:
        from .sampling import deterministic_sample

        sample = deterministic_sample(ds, frac, id_col, salt=seed).to_pandas()
    sample = sample.sort_values(id_col, kind="mergesort").reset_index(drop=True)
    cent = _kmeans(
        _to_matrix(sample[vec_col].to_numpy()), k, seed=seed, init="farthest"
    )

    for _ in range(max(0, refine_iters)):
        cref = ray.put(cent)
        kk = len(cent)

        def partial(batch: pd.DataFrame, _cref=cref, _k=kk) -> pd.DataFrame:
            c = ray.get(_cref)
            m = _to_matrix(batch[vec_col].to_numpy())
            m /= np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
            assign = np.argmax(m @ c.T, axis=1)
            cl = np.unique(assign)
            rows = []
            for j in cl:
                sel = m[assign == j]
                rows.append({"cluster": int(j), "n": int(len(sel)),
                             "vsum": sel.sum(axis=0).tolist()})
            return pd.DataFrame(rows)

        def merge(g: pd.DataFrame) -> pd.DataFrame:
            rows = []
            for j, sub in g.groupby("cluster", sort=True):
                # canonical partial order -> bit-stable float sums
                items = sorted(
                    (int(n), tuple(v)) for n, v in zip(sub["n"], sub["vsum"])
                )
                tot = sum(n for n, _ in items)
                s = np.zeros(len(items[0][1]), dtype=np.float64)
                for _, v in items:
                    s += np.asarray(v, dtype=np.float64)
                rows.append({"cluster": int(j), "n": tot, "vsum": s.tolist()})
            return pd.DataFrame(rows)

        partials = ds.map_batches(partial, batch_format="pandas", batch_size=8192)
        parts = (
            by_partition(partials, "cluster", merge, num_parts=num_parts)
            .to_pandas()  # k rows of (cluster, n, dim doubles)
            .sort_values("cluster")
        )
        new = cent.copy()
        for j, n, v in zip(parts["cluster"], parts["n"], parts["vsum"]):
            if n > 0:
                vv = np.asarray(v, dtype=np.float64) / n
                new[int(j)] = vv / max(np.linalg.norm(vv), 1e-12)
        # batch COMPOSITION (read-block boundaries) changes with the CPU
        # count, so the partial sums can differ at the last ulp across
        # parallelism levels even with the canonical merge order above;
        # quantizing the centroids far above ulp but far below any real
        # separation makes the refinement (and hence every assignment)
        # identical at any CPU count
        cent = np.round(new, 12)

    return cent


def semantic_dedup(
    ds: "ray.data.Dataset",
    threshold: float = 0.4,
    k: int = 16,
    refine_iters: int = 2,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    num_parts: int | None = None,
    seed: int = 11,
) -> "ray.data.Dataset":
    """SemDeDup-style semantic near-duplicate pairs: k-means cluster the
    embedding space, then find exact cosine pairs >= threshold WITHIN
    each cluster only -- the cluster-then-curate composite that makes
    pairwise dedup payable at corpus scale (the O(n^2) work shrinks to
    sum over clusters of |cluster|^2, and the exchange co-locates each
    cluster once instead of replicating rows to partition-pairs).

    By construction the output equals ``cosine_near_dups`` RESTRICTED
    to co-clustered pairs (the pytest gate); cross-cluster near-dups
    are the recall cost of the cluster boundary -- raise k for smaller
    clusters (cheaper) or use ``cosine_near_dups`` for the exact
    all-pairs answer. Output: (id_a, id_b, cluster, cosine), id_a <
    id_b, canonically sortable."""
    import pandas as pd

    cent = kmeans_fit(
        ds, k, refine_iters=refine_iters, id_col=id_col, vec_col=vec_col,
        num_parts=num_parts, seed=seed,
    )
    cref = ray.put(cent)

    def assign_keep(batch: pd.DataFrame) -> pd.DataFrame:
        c = ray.get(cref)
        m = _to_matrix(batch[vec_col].to_numpy())
        m /= np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
        out = pd.DataFrame({
            id_col: batch[id_col].to_numpy(),
            "cluster": np.argmax(m @ c.T, axis=1).astype(np.int64),
        })
        # plain lists -> Arrow list<double> (numpy cells become the
        # tensor extension type, which breaks cross-block concatenation)
        out["nvec"] = m.tolist()
        return out

    _EMPTY_S = pd.DataFrame(
        {"id_a": pd.Series([], dtype="int64"),
         "id_b": pd.Series([], dtype="int64"),
         "cluster": pd.Series([], dtype="int64"),
         "cosine": pd.Series([], dtype="float64")}
    )

    def within_cluster(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(subset=[id_col])
        if len(g) < 2:
            return _EMPTY_S.copy()
        ids = g[id_col].to_numpy()
        m = np.asarray(g["nvec"].tolist(), dtype=np.float64)
        ia, ib, cvals = _close_pairs(m, m, threshold, triangular=True)
        id_a, id_b = ids[ia], ids[ib]
        swap = id_a > id_b
        return pd.DataFrame(
            {"id_a": np.where(swap, id_b, id_a).astype("int64"),
             "id_b": np.where(swap, id_a, id_b).astype("int64"),
             "cluster": np.full(len(cvals), int(g["cluster"].iloc[0]),
                                dtype=np.int64),
             "cosine": cvals.astype("float64")}
        )

    return (
        ds.select_columns([id_col, vec_col])
        .map_batches(assign_keep, batch_format="pandas", batch_size=8192)
        .groupby("cluster")
        .map_groups(within_cluster, batch_format="pandas")
    )


def hybrid_rrf(
    docs_ds: "ray.data.Dataset",
    emb_ds: "ray.data.Dataset",
    query_text: str,
    query_vec: np.ndarray,
    k_lists: int = 50,
    k_out: int = 20,
    rrf_k: int = 60,
    id_col: str = "doc_id",
    vec_id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> "ray.data.Dataset":
    """Hybrid retrieval by RECIPROCAL RANK FUSION (Cormack et al. 2009):
    fuse a lexical BM25 top-``k_lists`` list with a dense cosine
    top-``k_lists`` list into one ranking via
    ``rrf = sum over lists of 1/(rrf_k + rank)`` -- the standard
    score-free hybrid-search combiner (ranks only, so the two score
    scales never need calibration). Docs present in only one list get
    that list's contribution alone, exactly the retrieved-lists RRF
    definition.

    Conformance-grade construction: BOTH ranks are assigned over the
    6dp-ROUNDED scores with (score DESC, id ASC) total order -- matching
    a SQL ``row_number`` over the rounded score, so an engine-vs-oracle
    score ULP can never flip a rank. The two k-bounded lists meet in a
    FULL OUTER partitioned join; everything upstream is the existing
    distributed machinery (bm25_score's pruned top-k pass, the
    broadcast-query cosine scorer)."""
    from .grouped import grouped_top_k
    from .join import partitioned_join
    from .text import bm25_score

    def _round6(v: np.ndarray) -> np.ndarray:
        v = v + 1e-7
        return np.sign(v) * np.floor(np.abs(v) * 1e6 + 0.5) / 1e6

    bm = bm25_score(docs_ds, query_text)

    def bm_round(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {id_col: df[id_col], "s": _round6(df["bm25"].to_numpy()),
             "__g": 0}
        )

    bm_top = grouped_top_k(
        bm.map_batches(bm_round, batch_format="pandas"),
        "__g", "s", k=k_lists, descending=True, tie_cols=[id_col],
    )

    q = np.asarray(query_vec, dtype=np.float64)
    qn = q / np.linalg.norm(q)
    qref = ray.put(qn)

    def cos_score(df: pd.DataFrame) -> pd.DataFrame:
        qv = ray.get(qref)
        m = _to_matrix(df[vec_col].to_numpy())
        norms = np.linalg.norm(m, axis=1)
        norms[norms == 0] = 1.0
        sims = (m / norms[:, None]) @ qv
        return pd.DataFrame(
            {id_col: df[vec_id_col], "s": _round6(sims), "__g": 0}
        )

    cos_top = grouped_top_k(
        emb_ds.map_batches(cos_score, batch_format="pandas"),
        "__g", "s", k=k_lists, descending=True, tie_cols=[id_col],
    )

    def slim(rank_name: str):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {id_col: df[id_col], rank_name: df["rk"].astype(np.int64)}
            )

        return fn

    import pyarrow as pa

    joined = partitioned_join(
        bm_top.map_batches(slim("r_bm25"), batch_format="pandas"),
        cos_top.map_batches(slim("r_vec"), batch_format="pandas"),
        left_on=id_col,
        how="full",
        left_schema=pa.schema([(id_col, pa.int64()), ("r_bm25", pa.int64())]),
        right_schema=pa.schema([(id_col, pa.int64()), ("r_vec", pa.int64())]),
    )

    def fuse(df: pd.DataFrame) -> pd.DataFrame:
        rb = df["r_bm25"].to_numpy(np.float64)
        rv = df["r_vec"].to_numpy(np.float64)
        c = np.where(np.isnan(rb), 0.0, 1.0 / (rrf_k + rb)) + np.where(
            np.isnan(rv), 0.0, 1.0 / (rrf_k + rv)
        )
        return pd.DataFrame({id_col: df[id_col], "rrf": _round6(c)})

    return (
        joined.map_batches(fuse, batch_format="pandas")
        .sort(["rrf", id_col], descending=[True, False])
        .limit(k_out)
    )


def sq8_train(
    ds: "ray.data.Dataset",
    vec_col: str = "embedding",
) -> tuple[np.ndarray, np.ndarray]:
    """Train a scalar (int8) quantizer: per-dimension [min, max] over
    the corpus via per-batch partial extrema + one tiny fold -- the
    4x-memory-reduction codebook for embedding storage (FAISS-style SQ8;
    public method). Returns (mins, maxs) float64 arrays (driver-held,
    dimension-bounded -- the same positioning as IVF centroids)."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        m = _to_matrix(df[vec_col].to_numpy())
        return pd.DataFrame(
            {"mn": [m.min(axis=0).tobytes()], "mx": [m.max(axis=0).tobytes()],
             "__g": [0]}
        )

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        mns = np.stack([np.frombuffer(b, dtype=np.float64) for b in g["mn"]])
        mxs = np.stack([np.frombuffer(b, dtype=np.float64) for b in g["mx"]])
        return pd.DataFrame(
            {"mn": [mns.min(axis=0).tobytes()], "mx": [mxs.max(axis=0).tobytes()]}
        )

    rows = (
        ds.map_batches(partial, batch_format="pandas")
        .groupby("__g")
        .map_groups(lambda d: fold(d), batch_format="pandas")
        .take_all()
    )
    mins = np.frombuffer(rows[0]["mn"], dtype=np.float64)
    maxs = np.frombuffer(rows[0]["mx"], dtype=np.float64)
    return mins, maxs


def sq8_quantize(vecs: np.ndarray, mins: np.ndarray, maxs: np.ndarray) -> np.ndarray:
    """float vectors -> uint8 codes: round(255 * (v - min) / (max - min)),
    constant dimensions collapse to code 0."""
    span = maxs - mins
    span[span == 0] = 1.0
    q = np.rint(255.0 * (vecs - mins) / span)
    return np.clip(q, 0, 255).astype(np.uint8)


def sq8_dequantize(codes: np.ndarray, mins: np.ndarray, maxs: np.ndarray) -> np.ndarray:
    span = maxs - mins
    span[span == 0] = 1.0
    return mins + codes.astype(np.float64) * span / 255.0


def sq8_knn(
    ds: "ray.data.Dataset",
    queries: np.ndarray,
    mins: np.ndarray,
    maxs: np.ndarray,
    k: int = 10,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> pd.DataFrame:
    """Approximate cosine top-k over the QUANTIZED corpus: each batch
    quantizes to uint8 and scores against the float queries on the
    DEQUANTIZED values (exactly what a store serving int8 vectors
    computes), per-batch partial top-k + tiny merge -- the brute_knn
    skeleton with 4x less vector memory. Recall vs exact kNN is the
    quality gate (``ann_recall``-style; pytest-pinned floor)."""
    mref = ray.put((np.asarray(mins), np.asarray(maxs)))
    q = np.asarray(queries, dtype=np.float64)
    qn = q / np.linalg.norm(q, axis=1, keepdims=True)
    qref = ray.put(qn)

    def score(df: pd.DataFrame) -> pd.DataFrame:
        mn, mx = ray.get(mref)
        qv = ray.get(qref)
        m = _to_matrix(df[vec_col].to_numpy())
        codes = sq8_quantize(m, mn, mx)
        deq = sq8_dequantize(codes, mn, mx)
        norms = np.linalg.norm(deq, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        sims = (deq / norms) @ qv.T
        ids = df[id_col].to_numpy()
        out = []
        kk = min(k, len(ids))
        for qi in range(sims.shape[1]):
            s = sims[:, qi]
            top = np.argpartition(-s, kk - 1)[:kk]
            out.append(
                pd.DataFrame(
                    {"query_id": qi, "vec_id": ids[top],
                     "cosine": s[top].astype("float64")}
                )
            )
        return pd.concat(out, ignore_index=True)

    allp = ds.map_batches(score, batch_format="pandas", batch_size=8192).to_pandas()
    out = []
    for qi, grp in allp.groupby("query_id"):
        top = (
            grp.sort_values(["cosine", "vec_id"], ascending=[False, True])
            .head(k)
            .reset_index(drop=True)
        )
        top["rank"] = np.arange(1, len(top) + 1)
        out.append(top)
    return pd.concat(out, ignore_index=True)


def mutual_top1(
    ds: "ray.data.Dataset",
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    num_parts: int = 8,
):
    """Reciprocal nearest-neighbor pairs (mutual top-1 by cosine): pairs
    (id_a < id_b) where each vector is the other's single nearest
    neighbor -- the alignment/anchor-mining primitive. Tie rule (pinned
    on both sides): highest cosine, then SMALLEST candidate id (the SQL
    oracle's ORDER BY c DESC, ib).

    Scale shape: the same partition-pair block-nested-loop as
    cosine_near_dups (every unordered pair of rows meets in exactly one
    of the P*(P+1)/2 buckets), but each bucket emits only its per-row
    ARGMAX partial (id, candidate nn, cosine) -- O(n * P) slim rows, not
    O(n^2) pairs. A groupby(id) merge picks the global top-1 under the
    same tie rule, and one pair-keyed exchange keeps groups where both
    directions chose each other. The driver never sees vectors."""
    import pandas as pd

    P = num_parts

    _EMPTY = pd.DataFrame(
        {
            id_col: pd.Series([], dtype="int64"),
            "nn": pd.Series([], dtype="int64"),
            "cosine": pd.Series([], dtype="float64"),
        }
    )

    def _best(sims: np.ndarray, cand_ids: np.ndarray):
        """Per-row (best cosine, smallest candidate id among exact
        ties); sims rows may be all -inf (no candidate)."""
        bc = sims.max(axis=1)
        tie = sims == bc[:, None]
        ids_m = np.where(tie, cand_ids[None, :], np.iinfo(np.int64).max)
        return bc, ids_m.min(axis=1)

    def bucket_best(g: pd.DataFrame) -> pd.DataFrame:
        i, j = divmod(int(g["pairb"].iloc[0]), P)
        g = g.drop_duplicates(subset=[id_col, "side"])
        a = g[g["side"] == i]
        if len(a) == 0 or (i == j and len(a) < 2):
            return _EMPTY.copy()
        m_a = _to_matrix(a[vec_col].to_numpy())
        m_a /= np.maximum(np.linalg.norm(m_a, axis=1, keepdims=True), 1e-12)
        ids_a = a[id_col].to_numpy().astype(np.int64)
        if i == j:
            sims = m_a @ m_a.T
            np.fill_diagonal(sims, -np.inf)
            bc, bid = _best(sims, ids_a)
            return pd.DataFrame(
                {id_col: ids_a, "nn": bid, "cosine": bc.astype("float64")}
            )
        b = g[g["side"] == j]
        if len(b) == 0:
            return _EMPTY.copy()
        m_b = _to_matrix(b[vec_col].to_numpy())
        m_b /= np.maximum(np.linalg.norm(m_b, axis=1, keepdims=True), 1e-12)
        ids_b = b[id_col].to_numpy().astype(np.int64)
        sims = m_a @ m_b.T
        bc_a, bid_a = _best(sims, ids_b)
        bc_b, bid_b = _best(sims.T, ids_a)
        return pd.DataFrame(
            {
                id_col: np.concatenate([ids_a, ids_b]),
                "nn": np.concatenate([bid_a, bid_b]),
                "cosine": np.concatenate([bc_a, bc_b]).astype("float64"),
            }
        )

    partials = (
        _pair_buckets(ds, id_col, P)
        .groupby("pairb")
        .map_groups(bucket_best, batch_format="pandas")
    )

    def merge_best(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["cosine", "nn"], ascending=[False, True], kind="mergesort"
        )
        return g.head(1)

    top1 = partials.groupby(id_col).map_groups(
        merge_best, batch_format="pandas"
    )

    def pair_key(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        u = df[id_col].to_numpy()
        v = df["nn"].to_numpy()
        df["lo"] = np.minimum(u, v)
        df["hi"] = np.maximum(u, v)
        return df

    def mutual(g: pd.DataFrame) -> pd.DataFrame:
        # two rows under one unordered pair key == both directions chose
        # each other (each row's key is (min(id, nn), max(id, nn)))
        if len(g) != 2:
            return pd.DataFrame(
                {
                    "id_a": pd.Series([], dtype="int64"),
                    "id_b": pd.Series([], dtype="int64"),
                    "cosine": pd.Series([], dtype="float64"),
                }
            )
        c = g["cosine"].to_numpy()[0] + 1e-7
        c = float(np.sign(c) * np.floor(np.abs(c) * 1e6 + 0.5) / 1e6)
        return pd.DataFrame(
            {
                "id_a": g["lo"].to_numpy()[:1].astype("int64"),
                "id_b": g["hi"].to_numpy()[:1].astype("int64"),
                "cosine": np.array([c], dtype="float64"),
            }
        )

    return (
        top1.map_batches(pair_key, batch_format="pandas")
        .groupby(["lo", "hi"])
        .map_groups(mutual, batch_format="pandas")
    )


class _HardNegScorer:
    """Broadcast (normalized corpus matrix, ids, labels) once per
    actor; each anchor batch scores against the full matrix with
    same-label columns masked out."""

    def __init__(self, corpus_ref, k, id_col, vec_col, label_col):
        self.ids, self.labels, self.mn = ray.get(corpus_ref)
        self.k, self.id_col = k, id_col
        self.vec_col, self.label_col = vec_col, label_col

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        m = _to_matrix(batch[self.vec_col].to_numpy())
        qn = m / np.maximum(
            np.linalg.norm(m, axis=1, keepdims=True), 1e-300
        )
        sims = qn @ self.mn.T
        # shared 6dp rounding BEFORE ranking so engine and oracle break
        # ties on identical values (signed: cosines can be negative)
        sims = sims + 1e-7
        sims = np.sign(sims) * np.floor(np.abs(sims) * 1e6 + 0.5) / 1e6
        a_ids = batch[self.id_col].to_numpy()
        a_lab = batch[self.label_col].to_numpy()
        out = []
        for r in range(len(batch)):
            mask = self.labels != a_lab[r]
            cand = np.flatnonzero(mask)
            s = sims[r, cand]
            # (cosine desc, vec_id asc) via lexsort on negated keys
            order = np.lexsort((self.ids[cand], -s))[: self.k]
            pick = cand[order]
            out.append(
                pd.DataFrame(
                    {
                        "anchor_id": a_ids[r],
                        "neg_id": self.ids[pick],
                        "cosine": s[order],
                        "rank": np.arange(1, len(pick) + 1, dtype=np.int64),
                    }
                )
            )
        if not out:
            return pd.DataFrame(
                {
                    "anchor_id": pd.Series([], dtype="int64"),
                    "neg_id": pd.Series([], dtype="int64"),
                    "cosine": pd.Series([], dtype="float64"),
                    "rank": pd.Series([], dtype="int64"),
                }
            )
        return pd.concat(out, ignore_index=True)


def hard_negatives(
    ds: "ray.data.Dataset",
    k: int = 5,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    label_col: str = "label",
    concurrency: int = 4,
) -> "ray.data.Dataset":
    """Hard-negative mining for contrastive training: for EVERY anchor,
    the top-k most-cosine-similar vectors with a DIFFERENT label
    (the self row shares the anchor's label, so it is excluded for
    free). Cosines are rounded to the shared 6dp convention BEFORE
    ranking, so ties break identically to the SQL oracle's
    (cosine DESC, vec_id) window.

    Scale shape: the normalized corpus matrix + labels broadcast ONCE
    via ray.put and anchors stream through a stateless actor pool --
    the same broadcast-side pattern as brute_knn. The broadcast is the
    documented knob: beyond worker RAM, swap the full matrix for the
    IVF-bucketed path (ivf_knn) with a per-cell label mask."""
    mat = []
    ids = []
    labels = []
    for b in ds.iter_batches(batch_format="pandas", batch_size=8192):
        mat.append(_to_matrix(b[vec_col].to_numpy()))
        ids.append(b[id_col].to_numpy().astype(np.int64))
        labels.append(b[label_col].to_numpy().astype(np.int64))
    m = np.concatenate(mat)
    mn = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-300)
    corpus_ref = ray.put(
        (np.concatenate(ids), np.concatenate(labels), mn)
    )
    return ds.map_batches(
        _HardNegScorer,
        fn_constructor_kwargs={
            "corpus_ref": corpus_ref, "k": k, "id_col": id_col,
            "vec_col": vec_col, "label_col": label_col,
        },
        batch_format="pandas",
        batch_size=4096,
        concurrency=(1, concurrency),
        num_cpus=1,
    )


class _PurityScorer(_HardNegScorer):
    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        m = _to_matrix(batch[self.vec_col].to_numpy())
        qn = m / np.maximum(
            np.linalg.norm(m, axis=1, keepdims=True), 1e-300
        )
        sims = qn @ self.mn.T
        sims = sims + 1e-7
        sims = np.sign(sims) * np.floor(np.abs(sims) * 1e6 + 0.5) / 1e6
        a_ids = batch[self.id_col].to_numpy()
        a_lab = batch[self.label_col].to_numpy()
        lab_out = np.empty(len(batch), dtype=np.int64)
        match = np.empty(len(batch), dtype=np.int64)
        n_nbr = np.empty(len(batch), dtype=np.int64)
        for r in range(len(batch)):
            mask = self.ids != a_ids[r]  # self excluded by id
            cand = np.flatnonzero(mask)
            s = sims[r, cand]
            order = np.lexsort((self.ids[cand], -s))[: self.k]
            pick = cand[order]
            lab_out[r] = a_lab[r]
            match[r] = int((self.labels[pick] == a_lab[r]).sum())
            n_nbr[r] = len(pick)  # < k when the table has <= k vectors
        return pd.DataFrame(
            {"label": lab_out, "n_match": match, "n_vec": 1, "n_nbr": n_nbr}
        )


def knn_purity(
    ds: "ray.data.Dataset",
    k: int = 10,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    label_col: str = "label",
    concurrency: int = 4,
):
    """Embedding-space label purity: for every vector, the fraction of
    its k nearest cosine neighbors (self excluded by id; 6dp-rounded
    cosines, (cosine DESC, vec_id) tie order) that share its label,
    pooled per label (matches / neighbors actually found, so a table
    with <= k vectors is not penalized for the missing ones) -- the
    quick classification-quality check run on an embedding table before
    trusting it for retrieval or clustering. Output: one row per label
    (n_vectors, purity).

    Same broadcast shape as hard_negatives (normalized corpus matrix +
    labels via ray.put once; IVF-bucketed variant is the documented
    beyond-RAM knob); per-batch partials are (label, matches) counts,
    so the reduce is |labels|-bounded."""
    import pandas as pd

    mat, ids, labels = [], [], []
    for b in ds.iter_batches(batch_format="pandas", batch_size=8192):
        mat.append(_to_matrix(b[vec_col].to_numpy()))
        ids.append(b[id_col].to_numpy().astype(np.int64))
        labels.append(b[label_col].to_numpy().astype(np.int64))
    m = np.concatenate(mat)
    mn = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-300)
    corpus_ref = ray.put((np.concatenate(ids), np.concatenate(labels), mn))
    partials = ds.map_batches(
        _PurityScorer,
        fn_constructor_kwargs={
            "corpus_ref": corpus_ref, "k": k, "id_col": id_col,
            "vec_col": vec_col, "label_col": label_col,
        },
        batch_format="pandas",
        batch_size=4096,
        concurrency=(1, concurrency),
        num_cpus=1,
    )
    merged = partials.groupby("label").sum(["n_match", "n_vec", "n_nbr"])

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        nv = df["sum(n_vec)"].to_numpy(dtype=np.int64)
        nm = df["sum(n_match)"].to_numpy(dtype=np.float64)
        p = nm / df["sum(n_nbr)"].to_numpy(dtype=np.float64) + 1e-7
        return pd.DataFrame(
            {
                "label": df["label"].astype(np.int64),
                "n_vectors": nv,
                "purity": np.sign(p) * np.floor(np.abs(p) * 1e6 + 0.5)
                / 1e6,
            }
        )

    return merged.repartition(1).map_batches(
        finish, batch_format="pandas", batch_size=None
    )
