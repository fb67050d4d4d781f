"""Sweep-line interval concurrency: per time bucket, the maximum number
of simultaneously-open intervals (sessions).

Classic operator the reference lacks (its surface is per-series feature
extraction, tsfeatures/tsfeatures.py); at 100 TB the interesting shape
is the GLOBAL ordered prefix sum over boundary events, which Ray Data
cannot express directly. Both operators run it as the engine's ordered
scan, ``stages.derive.range_scan``, the exchange under pack_sequences
too: only slim (epoch_us, +/-1) boundary rows ever move, intervals
themselves never shuffle, and the scan range-partitions on time so a
partition's own cumsum plus the deltas of every earlier partition
equals the global sweep.

Tie rule (pinned, both sides): boundaries sort by (ts, delta) with the
-1 end boundary BEFORE the +1 start at an equal timestamp -- intervals
are half-open [start, end), so a session ending exactly when another
starts never overlaps it.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..stages._util import ts_to_us
from ..stages.derive import range_scan

_EMPTY = pd.DataFrame(
    {
        "bucket": np.array([], dtype="datetime64[us]"),
        "max_concurrency": np.array([], dtype=np.int64),
    }
)


def _sweep(ds, start_col: str, end_col: str, fn, num_parts: int | None):
    """``range_scan`` over the intervals' boundary rows (eus = epoch µs,
    d = +1 at a start, -1 at an end) with the running delta sum. ``fn``
    gets ``(eus, conc, nxt)``: its partition's boundaries in (eus, d)
    order, the running count after each, and the next partition's first
    boundary. Returns (scan Dataset, boundary count)."""
    def boundaries(df: pd.DataFrame) -> pd.DataFrame:
        s = ts_to_us(df[start_col]).to_numpy()
        e = ts_to_us(df[end_col]).to_numpy()
        n = len(s)
        return pd.DataFrame(
            {
                "eus": np.concatenate([s, e]),
                "d": np.concatenate(
                    [np.ones(n, np.int64), -np.ones(n, np.int64)]
                ),
            }
        )

    def scan(t: pa.Table, before: dict, total: dict, nxt) -> pa.Table:
        eus, d = t["eus"].to_numpy(), t["d"].to_numpy()
        order = np.lexsort((d, eus))
        return fn(eus[order], before["d"] + np.cumsum(d[order]), nxt)

    scan.__name__ = fn.__name__
    parts, total = range_scan(ds.map_batches(boundaries, batch_format="pandas"), "eus",
                              scan, sums=("d",), num_parts=num_parts)
    return parts, total["count"]


def _per_bucket(bucket: np.ndarray, v: np.ndarray, ufunc) -> tuple[np.ndarray, np.ndarray]:
    """(distinct buckets, ``ufunc`` over each bucket's values) of a
    non-decreasing ``bucket`` array."""
    uniq, start = np.unique(bucket, return_index=True)
    return uniq, ufunc.reduceat(v, start)


def interval_concurrency(
    ds,
    start_col: str = "session_start",
    end_col: str = "session_end",
    unit_us: int = 3_600_000_000,
    num_parts: int | None = None,
):
    """Intervals Dataset -> one row per ``unit_us`` bucket that contains
    at least one boundary: (bucket, max_concurrency), where
    max_concurrency is the sweep-line running count's maximum inside the
    bucket. Buckets with no boundary carry a constant count and are
    omitted (the run-length between emitted buckets is implied)."""
    import ray.data as rd

    def bucket_max(eus: np.ndarray, conc: np.ndarray, nxt) -> pa.Table:
        bucket, mx = _per_bucket((eus // unit_us) * unit_us, conc, np.maximum)
        return pa.table({"bucket_us": bucket, "mx": mx})

    partials, n = _sweep(ds, start_col, end_col, bucket_max, num_parts)
    if n == 0:
        # from_pandas drops the schema of a 0-row frame; go through Arrow
        return rd.from_arrow(pa.Table.from_pandas(_EMPTY))

    # a bucket can straddle a range-partition edge: merge partials (the
    # cumsum values are already global, so max-of-maxes is exact)
    merged = partials.groupby("bucket_us").max("mx")

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return _EMPTY.copy()
        return pd.DataFrame(
            {
                "bucket": pd.to_datetime(
                    df["bucket_us"].to_numpy(), unit="us"
                ).astype("datetime64[us]"),
                "max_concurrency": df["max(mx)"].astype(np.int64),
            }
        )

    return merged.map_batches(finish, batch_format="pandas")


def interval_coverage(
    ds,
    start_col: str = "session_start",
    end_col: str = "session_end",
    unit_us: int = 86_400_000_000,
    num_parts: int | None = None,
):
    """Union length of intervals per time bucket: for each ``unit_us``
    bucket, the total time covered by AT LEAST ONE interval (overlaps
    counted once) -- utilization / uptime over session logs. Output:
    (bucket, covered_us), buckets with zero coverage omitted.

    Same ordered scan as interval_concurrency (slim boundary rows,
    time-range partition, running count), plus per-partition segment
    emission: between consecutive DISTINCT boundary timestamps the
    running count is constant, so the segment contributes its (clipped)
    length to every bucket it spans iff the count is positive. The tail
    segment of each partition closes against the next non-empty
    partition's first boundary (``range_scan``'s ``nxt``); equal
    timestamps can never straddle partitions (the partition key is the
    timestamp)."""
    import ray.data as rd

    empty = pd.DataFrame(
        {
            "bucket": np.array([], dtype="datetime64[us]"),
            "covered_us": np.array([], dtype=np.int64),
        }
    )

    def bucket_cover(eus: np.ndarray, conc: np.ndarray, nxt) -> pa.Table:
        # collapse ties: running count AFTER each distinct timestamp
        last = np.r_[eus[1:] != eus[:-1], True]
        t = eus[last]
        c = conc[last]
        # segments: [t_i, t_{i+1}) inside the partition, plus the tail
        # [t_last, next partition's first boundary)
        seg_s = t
        seg_e = np.r_[t[1:], nxt if nxt is not None else t[-1]]
        keep = (c > 0) & (seg_e > seg_s)
        seg_s, seg_e = seg_s[keep], seg_e[keep]
        day_lo = seg_s // unit_us
        day_hi = (seg_e - 1) // unit_us
        counts = (day_hi - day_lo + 1).astype(np.int64)
        idx = np.repeat(np.arange(len(seg_s)), counts)
        off = np.arange(counts.sum()) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        day = day_lo[idx] + off
        cov = np.minimum(seg_e[idx], (day + 1) * unit_us) - np.maximum(
            seg_s[idx], day * unit_us
        )
        # segments are disjoint and in time order, so ``day`` never decreases
        bucket, cov = _per_bucket(day * unit_us, cov, np.add)
        return pa.table({"bucket_us": pa.array(bucket, pa.int64()),
                         "cov": pa.array(cov, pa.int64())})

    partials, n = _sweep(ds, start_col, end_col, bucket_cover, num_parts)
    if n == 0:
        return rd.from_arrow(pa.Table.from_pandas(empty))
    merged = partials.groupby("bucket_us").sum("cov")

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return empty.copy()
        return pd.DataFrame(
            {
                "bucket": pd.to_datetime(
                    df["bucket_us"].to_numpy(), unit="us"
                ).astype("datetime64[us]"),
                "covered_us": df["sum(cov)"].astype(np.int64),
            }
        )

    return merged.map_batches(finish, batch_format="pandas")
