"""PAA + SAX symbolization of per-key series (Lin et al. 2003, "A
Symbolic Representation of Time Series"; public method). Engine scope on
the timeseries tier: compresses each rollup series to a short symbol
string usable for motif grouping, series dedup, and cheap similarity
bucketing (equal SAX words -> candidate pairs), the way MinHash bands
bucket documents.

Shape: ONE hash-partitioned exchange on the series key, then a single
vectorized pandas pass per partition (sort + rank arithmetic + one
groupby-mean -- no per-series Python loop). Series length is bounded by
the rollup tier (e.g. hours per conversation), so per-partition work is
linear in partition rows.

Semantics (conformance-grade, mirrored by the SQL oracle):
- z-normalize each series with mean / sample std (ddof=1);
- PAA over ``w`` segments with integer boundaries ``seg = i*w // n``
  (every point belongs to exactly one segment, segment sizes differ by
  at most one);
- each segment mean is rounded with the repo's shared oracle convention
  (+1e-7 nudge, 6dp, half-away-from-zero) BEFORE symbol lookup, so an
  engine-vs-oracle ULP difference can never flip a symbol at a
  breakpoint boundary;
- symbols are Gaussian equiprobable breakpoints (standard SAX tables),
  ``searchsorted(side='right')`` == the SQL ``CASE WHEN paa < bp``
  ladder;
- series with fewer than ``w`` points or zero variance are dropped
  (both sides filter identically).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..stages.derive import by_partition

# equiprobable N(0,1) breakpoints for alphabet sizes 2..8 (public SAX
# lookup table; values are scipy.stats.norm.ppf(k/a) to 10dp)
_BREAKPOINTS = {
    2: [0.0],
    3: [-0.4307272993, 0.4307272993],
    4: [-0.6744897502, 0.0, 0.6744897502],
    5: [-0.8416212336, -0.2533471031, 0.2533471031, 0.8416212336],
    6: [-0.9674215661, -0.4307272993, 0.0, 0.4307272993, 0.9674215661],
    7: [
        -1.0675705240,
        -0.5659488219,
        -0.1800123698,
        0.1800123698,
        0.5659488219,
        1.0675705240,
    ],
    8: [
        -1.1503493804,
        -0.6744897502,
        -0.3186393639,
        0.0,
        0.3186393639,
        0.6744897502,
        1.1503493804,
    ],
}



def _round6(v: np.ndarray) -> np.ndarray:
    """The repo's shared engine<->oracle rounding: +1e-7 nudge, 6dp,
    half-away-from-zero (mirrors DuckDB ROUND)."""
    v = v + 1e-7
    return np.sign(v) * np.floor(np.abs(v) * 1e6 + 0.5) / 1e6


def sax_breakpoints(alphabet: int) -> list[float]:
    if alphabet not in _BREAKPOINTS:
        raise ValueError(
            f"alphabet size {alphabet} unsupported; pick one of "
            f"{sorted(_BREAKPOINTS)}"
        )
    return _BREAKPOINTS[alphabet]


def sax_symbolize(
    ds: "ray.data.Dataset",
    key_col: str = "conv_id",
    order_col: str = "bucket",
    value_col: str = "token_len_sum",
    w: int = 8,
    alphabet: int = 4,
    num_parts: int | None = None,
    emit_paa: bool = False,
    emit_series: bool = False,
) -> "ray.data.Dataset":
    """Series table (one row per (key, order) point) -> one row per key:
    ``(key, n_points:int64, sax:string)``; with ``emit_paa=True`` the
    ROUNDED segment means ride along as a ``paa: list<double>`` column
    (the exact-verify payload for ``sax_bucket_pairs``); with
    ``emit_series=True`` the full z-normalized series rides along as a
    ``z: list<double>`` column (the payload for ``sax_dtw_pairs`` --
    only worth shipping when a downstream bucket stage needs the raw
    shape). See module docstring."""
    bp = np.array(sax_breakpoints(alphabet))
    letters = np.frombuffer(
        bytes(ord("a") + k for k in range(alphabet)), dtype=np.uint8
    )

    def symbolize(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, order_col], kind="mergesort")
        v = g[value_col].to_numpy(dtype=np.float64)
        keys = g[key_col]
        grp = g.groupby(key_col, sort=False)[value_col]
        n = grp.transform("size").to_numpy(dtype=np.int64)
        mu = grp.transform("mean").to_numpy(dtype=np.float64)
        sd = grp.transform("std").to_numpy(dtype=np.float64)  # ddof=1
        keep = (n >= w) & (sd > 0)
        if not keep.any():
            out = pd.DataFrame(
                {
                    key_col: pd.Series([], dtype=g[key_col].dtype),
                    "n_points": pd.Series([], dtype="int64"),
                    "sax": pd.Series([], dtype="object"),
                }
            )
            if emit_paa:
                out["paa"] = pd.Series([], dtype="object")
            if emit_series:
                out["z"] = pd.Series([], dtype="object")
            return out
        z = (v[keep] - mu[keep]) / sd[keep]
        kk = keys.to_numpy()[keep]
        nn = n[keep]
        # 0-based rank within key: positions are consecutive post-sort
        starts = np.flatnonzero(np.r_[True, kk[1:] != kk[:-1]])
        i = np.arange(len(kk)) - np.repeat(starts, np.diff(np.r_[starts, len(kk)]))
        seg = (i * w) // nn
        # PAA: mean of z per (key, segment) -- one grouped reduce
        paa = (
            pd.DataFrame({"k": kk, "s": seg, "z": z})
            .groupby(["k", "s"], sort=False)["z"]
            .mean()
        )
        paa_r = _round6(paa.to_numpy())
        sym = letters[np.searchsorted(bp, paa_r, side="right")]
        out = paa.reset_index()[["k", "s"]]
        out["sym"] = sym
        out["paa_r"] = paa_r
        out = out.sort_values(["k", "s"], kind="mergesort")
        gk = out.groupby("k", sort=False)
        words = (
            gk["sym"]
            .apply(lambda s: s.to_numpy().tobytes().decode("ascii"))
            .reset_index()
        )
        n_per_key = pd.Series(nn, index=kk).groupby(level=0, sort=False).first()
        words["n_points"] = n_per_key.reindex(words["k"]).to_numpy()
        res = pd.DataFrame(
            {
                key_col: words["k"],
                "n_points": words["n_points"].astype(np.int64),
                "sax": words["sym"],
            }
        )
        if emit_paa:
            paa_lists = gk["paa_r"].apply(lambda s: s.to_numpy()).reset_index()
            res["paa"] = paa_lists["paa_r"].to_numpy()
        if emit_series:
            zl = (
                pd.DataFrame({"k": kk, "z": z})
                .groupby("k", sort=False)["z"]
                .apply(lambda s: s.to_numpy())
            )
            res["z"] = zl.reindex(res[key_col]).to_numpy()
        return res

    return by_partition(
        ds.select_columns([key_col, order_col, value_col]),
        key_col, symbolize, num_parts=num_parts,
    )


def sax_motif_buckets(
    sax_ds: "ray.data.Dataset",
    key_col: str = "conv_id",
    min_size: int = 2,
    num_parts: int | None = None,
) -> "ray.data.Dataset":
    """Group series by IDENTICAL SAX word -> motif buckets: one row per
    series that shares its word with at least ``min_size - 1`` others
    (``key, sax, bucket_size``). The symbolic analog of an LSH band
    bucket: equal words are candidate pairs for exact similarity
    verification, at 1/w-th of the shuffle volume of the raw series.
    ONE hash-partitioned exchange on the 8-char word."""

    def annotate(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop(columns=["part"])
        size = g.groupby("sax", sort=False)["sax"].transform("size")
        out = g.loc[size >= min_size, [key_col, "sax"]].copy()
        out["bucket_size"] = size[size >= min_size].astype(np.int64)
        return out

    return by_partition(
        sax_ds.select_columns([key_col, "sax"]), "sax",
        annotate, num_parts=num_parts,
    )


def sax_bucket_pairs(
    sax_ds: "ray.data.Dataset",
    key_col: str = "conv_id",
    max_bucket: int = 1024,
    num_parts: int | None = None,
) -> "ray.data.Dataset":
    """Exact-verify stage of the SAX similarity cascade: all unordered
    pairs WITHIN each identical-word bucket, scored by Euclidean distance
    between the (rounded) PAA vectors -- the candidate-then-verify shape
    of the MinHash/LSH dedup pipelines, for series. Input must come from
    ``sax_symbolize(..., emit_paa=True)``.

    ONE exchange keyed on the SAX word; per-bucket distances are one
    vectorized Gram-matrix pass (buckets are alphabet^w-diluted and
    small; ``max_bucket`` guards the O(b^2) corner -- an over-full bucket
    raises rather than silently exploding, the same policy as
    interval_join's max_bands)."""

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop(columns=["part"])
        out_k1, out_k2, out_sax, out_d = [], [], [], []
        for word, b in g.groupby("sax", sort=False):
            if len(b) < 2:
                continue
            if len(b) > max_bucket:
                raise ValueError(
                    f"SAX bucket {word!r} holds {len(b)} series "
                    f"(> max_bucket={max_bucket}); raise w/alphabet to "
                    "dilute buckets or max_bucket to accept the O(b^2) cost"
                )
            b = b.sort_values(key_col, kind="mergesort")
            keys = b[key_col].to_numpy()
            m = np.stack(b["paa"].to_numpy())
            d2 = ((m[:, None, :] - m[None, :, :]) ** 2).sum(axis=2)
            iu, ju = np.triu_indices(len(b), k=1)
            out_k1.append(keys[iu])
            out_k2.append(keys[ju])
            out_sax.append(np.repeat(word, len(iu)))
            out_d.append(np.sqrt(d2[iu, ju]))
        if not out_k1:
            return pd.DataFrame(
                {
                    "id_a": pd.Series([], dtype=g[key_col].dtype),
                    "id_b": pd.Series([], dtype=g[key_col].dtype),
                    "sax": pd.Series([], dtype="object"),
                    "paa_dist": pd.Series([], dtype="float64"),
                }
            )
        return pd.DataFrame(
            {
                "id_a": np.concatenate(out_k1),
                "id_b": np.concatenate(out_k2),
                "sax": np.concatenate(out_sax),
                "paa_dist": _round6(np.concatenate(out_d)),
            }
        )

    return by_partition(
        sax_ds.select_columns([key_col, "sax", "paa"]), "sax",
        pairs, num_parts=num_parts,
    )


def dtw_distance(
    a: np.ndarray, b: np.ndarray, band: int | None = None
) -> float:
    """Dynamic-time-warping distance (squared local cost, sqrt of the
    optimal path sum -- UCR convention) with an optional Sakoe-Chiba
    band. Vectorized over ANTI-DIAGONALS: every cell on diagonal d
    depends only on diagonals d-1 / d-2, so the DP runs n+m numpy steps
    instead of n*m Python steps."""
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        return float("nan")
    eff_band = max(band if band is not None else max(n, m), abs(n - m))
    INF = np.inf
    # diag arrays indexed by i: prevK[i] = D[i, d-K-i]
    prev2 = np.full(n + 1, INF)
    prev2[0] = 0.0  # D[0,0]
    prev1 = np.full(n + 1, INF)  # d=1: D[0,1] = D[1,0] = INF
    for d in range(2, n + m + 1):
        cur = np.full(n + 1, INF)
        ilo, ihi = max(1, d - m), min(n, d - 1)
        if ilo <= ihi:
            i = np.arange(ilo, ihi + 1)
            j = d - i
            ok = np.abs(i - j) <= eff_band
            if ok.any():
                i, j = i[ok], j[ok]
                cost = (a[i - 1] - b[j - 1]) ** 2
                best = np.minimum(
                    np.minimum(prev1[i - 1], prev1[i]), prev2[i - 1]
                )
                cur[i] = cost + best
        prev2, prev1 = prev1, cur
    return float(np.sqrt(prev1[n]))


def sax_dtw_pairs(
    ds: "ray.data.Dataset",
    key_col: str = "conv_id",
    order_col: str = "bucket",
    value_col: str = "token_len_sum",
    w: int = 8,
    alphabet: int = 4,
    band: int | None = None,
    max_bucket: int = 1024,
    num_parts: int | None = None,
) -> "ray.data.Dataset":
    """DTW exact-verify over SAX candidate buckets: symbolize (carrying
    the z-normalized series), bucket by identical word, and score every
    in-bucket pair with ``dtw_distance`` -- the elastic-alignment
    counterpart of ``sax_bucket_pairs`` (whose PAA-Euclidean is the
    lock-step metric). Two exchanges total (key-hash, then word-hash);
    the raw series ships ONLY into its word bucket, never all-pairs.
    Not SQL-expressible (the DP is sequential); gated by the brute-DP
    pytest and a committed fixture."""
    sax = sax_symbolize(
        ds, key_col=key_col, order_col=order_col, value_col=value_col,
        w=w, alphabet=alphabet, num_parts=num_parts, emit_series=True,
    )

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop(columns=["part"])
        k1, k2, ws, ds_ = [], [], [], []
        for word, b in g.groupby("sax", sort=False):
            if len(b) < 2:
                continue
            if len(b) > max_bucket:
                raise ValueError(
                    f"SAX bucket {word!r} holds {len(b)} series "
                    f"(> max_bucket={max_bucket})"
                )
            b = b.sort_values(key_col, kind="mergesort")
            keys = b[key_col].to_numpy()
            series = [np.asarray(zz, dtype=np.float64) for zz in b["z"]]
            for x in range(len(b)):
                for y in range(x + 1, len(b)):
                    k1.append(keys[x])
                    k2.append(keys[y])
                    ws.append(word)
                    ds_.append(dtw_distance(series[x], series[y], band))
        if not k1:
            return pd.DataFrame(
                {
                    "id_a": pd.Series([], dtype=g[key_col].dtype),
                    "id_b": pd.Series([], dtype=g[key_col].dtype),
                    "sax": pd.Series([], dtype="object"),
                    "dtw": pd.Series([], dtype="float64"),
                }
            )
        return pd.DataFrame(
            {
                "id_a": np.array(k1),
                "id_b": np.array(k2),
                "sax": np.array(ws),
                "dtw": _round6(np.array(ds_, dtype=np.float64)),
            }
        )

    return by_partition(
        sax.select_columns([key_col, "sax", "z"]), "sax", pairs,
        num_parts=num_parts,
    )
