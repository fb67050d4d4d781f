"""The numpy segment layer under every rollup-store operator: Arrow
tables in, Arrow tables out, and no pandas frame built, grouped or
sorted in between.

derive's latency, ``rollup()``, ``merge_rollups()``,
``gapfill_rollup()``, ``compact_tier()``, ``pack_series()`` and
``compress_rollup()`` are the same few steps over the columns of one
Arrow table:

- a stable sort: ``np.lexsort`` over ``codes`` of the sort columns;
- segment starts where the sorted (key, [tier,] bucket) changes;
- count, min and max by ``reduceat``, ``last`` as the last non-NaN value
  of each segment, and sums by ``_steps.c``'s compensated ``seg_ksum``,
  the loop of pandas' groupby sum, so every bit equals the pandas
  operators these replaced (``tests/_rollup_oracles.py``). Over raw rows
  this is ``rollup.py``'s exact core; over rollup rows it is its merge
  core, the one fold ``merge_rollups()``, the salted ``rollup()`` and
  ``compact_tier()`` share;
- gap-fill by offset arithmetic (``series_layout``);
- one ``pa.Table.from_arrays`` for the output, with NaN written as null
  (what pandas -> Arrow conversion does).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..kernels._batch import _STEPS

def ticks(col) -> np.ndarray:
    """int64 of an integer or timestamp column, in its own unit."""
    return pc.cast(col, pa.int64()).to_numpy()


def ts_us(col) -> np.ndarray:
    """Epoch microseconds of a timestamp column of any unit (floor for
    ns), or of an integer column taken as microseconds."""
    unit = col.type.unit if pa.types.is_timestamp(col.type) else "us"
    if unit == "ns":
        return ticks(col) // 1000
    return ticks(col) * {"s": 1_000_000, "ms": 1_000, "us": 1}[unit]


def floats(col) -> np.ndarray:
    """float64 values of a numeric column, null as NaN."""
    return np.asarray(col.to_numpy(), dtype=np.float64)


def codes(col) -> np.ndarray:
    """int64 codes that sort and compare like the column's values:
    dense ranks for strings (byte order, which is code-point order; null
    last), the integer ticks of timestamps, the values otherwise. A
    string column ranks only its distinct values, through its dictionary
    encoding."""
    t = col.type
    if pa.types.is_string(t) or pa.types.is_large_string(t) or pa.types.is_binary(t):
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        enc = pc.dictionary_encode(col, null_encoding="encode")
        rank = pc.rank(enc.dictionary, sort_keys="ascending").to_numpy().astype(np.int64)
        return rank[enc.indices.to_numpy()]
    if pa.types.is_timestamp(t):
        return ticks(col)
    return col.to_numpy()


def factorize(col) -> tuple[np.ndarray, list]:
    """0-based codes of a string column into its sorted distinct values,
    and those values."""
    return codes(col) - 1, sorted(pc.unique(col).to_pylist())


def changes(*cols) -> np.ndarray:
    """Per row: the row starts a new run of equal (cols) tuples."""
    new = np.zeros(len(cols[0]), dtype=bool)
    new[:1] = True
    for c in cols:
        new[1:] |= c[1:] != c[:-1]
    return new


def seg_ksum(v: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """pandas' compensated groupby sum of float64 ``v`` over the segments
    beginning at ``starts``: NaN skipped, 0.0 for an all-NaN segment."""
    v = np.ascontiguousarray(v, dtype=np.float64)
    out = np.empty(len(starts))
    _STEPS.seg_ksum(len(out), np.append(starts, len(v)).astype(np.int64), v, out)
    return out


def last_at(ok: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per segment, the index of its last row where ``ok`` (-1 if none)."""
    return np.maximum.reduceat(np.where(ok, np.arange(len(ok)), -1), starts)


def seg_last(v: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per segment, its last non-NaN value of float64 ``v`` (NaN if none):
    pandas' groupby ``last``."""
    at = last_at(~np.isnan(v), starts)
    return np.where(at >= 0, v[at], np.nan)


def aggregate(v: np.ndarray, starts: np.ndarray) -> dict:
    """count/sum/min/max/last of float64 ``v`` over the non-empty
    segments beginning at ``starts``, with pandas' groupby rules: NaN is
    skipped, sum is NaN where count is 0, last is the last non-NaN
    value."""
    count = np.add.reduceat(~np.isnan(v), starts, dtype=np.int64)
    total = seg_ksum(v, starts)
    total[count == 0] = np.nan
    return {
        "count": count,
        "sum": total,
        "min": np.fmin.reduceat(v, starts),
        "max": np.fmax.reduceat(v, starts),
        "last": seg_last(v, starts),
    }


def series_layout(key: np.ndarray, buck: np.ndarray, w: int):
    """Dense layout of rows sorted by (key, bucket), one row per bucket:
    the first row of each series, its bucket count over its [first,
    last] bucket range, and each row's position in the series laid end
    to end."""
    new = changes(key)
    first = np.flatnonzero(new)
    last = np.r_[first[1:], len(key)] - 1
    nb = (buck[last] - buck[first]) // w + 1
    owner = np.cumsum(new) - 1
    pos = (np.cumsum(nb) - nb)[owner] + (buck - buck[first][owner]) // w
    return first, nb, pos


def gaps(key: np.ndarray, buck: np.ndarray, w: int):
    """The missing buckets of each series of rows sorted by (key,
    bucket): per gap, the row of its series' first bucket and its bucket,
    series after series."""
    if len(key) == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    first, nb, pos = series_layout(key, buck, w)
    hole = np.ones(int(nb.sum()), dtype=bool)
    hole[pos] = False
    at = np.flatnonzero(hole)  # dense positions with no real row
    ends = np.cumsum(nb)
    series = np.searchsorted(ends, at, side="right")
    head = first[series]
    return head, buck[head] + (at - (ends - nb)[series]) * w


def take(col, idx: np.ndarray) -> pa.Array:
    """``col`` at ``idx`` as one Arrow array of the column's type; -1
    gives null."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return col.take(pa.array(idx, type=pa.int64(), mask=idx < 0))


def float_array(v: np.ndarray) -> pa.Array:
    """float64 Arrow array with NaN as null."""
    return pa.array(np.asarray(v, dtype=np.float64), type=pa.float64(), from_pandas=True)

