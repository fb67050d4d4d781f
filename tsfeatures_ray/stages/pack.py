"""Stage 3: the packed-series layout (the wide format), and the one
module that builds it.

The reference's wide layout -- one row per series with a list-valued
``y`` cell (tsfeatures.py:1014-1016, unpacked at :990-992) -- is our
canonical IR in front of the feature kernels: ``PACKED_SCHEMA``, Arrow
``list_(float64())`` cells. ``_packed`` is its one builder, Arrow in and
Arrow out, and every producer goes through it:

- ``_pack_partition``: rollup series (``pack_series``, and
  ``feature_pipeline`` inside its one exchange), each (conv_id, tier)
  series densified over its bucket range, gaps -> 0.0 (a quiet minute
  contributes zero tokens), by offset arithmetic;
- ``pack_long``: a partition of a long panel (unique_id, ds, y), for
  ``tsfeatures()`` and ``long_to_wide()``;
- ``pack_wide``: a wide panel (unique_id, seasonality, y), for
  ``tsfeatures_wide()``.

No per-series Python loop and no pandas frame in any of them.
``ragged`` reads the list cells back as one ragged batch (the feature
kernels' input, ``wide_to_long``'s melt).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray

from ..schema import TIERS
from . import segments as sg
from .derive import by_partition

PACKED_SCHEMA = pa.schema(
    [
        ("unique_id", pa.string()),
        ("tier", pa.string()),
        ("metric", pa.string()),
        ("freq", pa.int32()),
        ("n_buckets", pa.int64()),
        ("y", pa.list_(pa.float64())),
    ]
)


def _packed(uid, n: np.ndarray, values: np.ndarray, freq, tier: str = "-",
            metric: str = "y") -> pa.Table:
    """The one builder of PACKED_SCHEMA tables: series ``i`` is keyed by
    the string ``uid[i]`` and holds the next ``n[i]`` of the float64
    ``values``, laid end to end. ``freq`` is one seasonal period per
    series or one for all; ``tier`` and ``metric`` are one for all."""
    k = len(n)
    offsets = np.r_[0, np.cumsum(n)].astype(np.int32)
    return pa.Table.from_arrays(
        [
            uid,
            pa.array([tier] * k, pa.string()),
            pa.array([metric] * k, pa.string()),
            pa.array(np.broadcast_to(freq, k), pa.int32()),
            pa.array(n, pa.int64()),
            pa.ListArray.from_arrays(pa.array(offsets), pa.array(values, pa.float64())),
        ],
        schema=PACKED_SCHEMA,
    )


def ragged(col) -> tuple[np.ndarray, np.ndarray]:
    """The series of a list column as one ragged batch: int64 offsets
    from 0 and the float64 values (null as NaN). Tolerates Ray's
    variable-shaped tensor extension (produced when a sort or pandas
    round-trip re-encodes the list column): its storage is a struct
    (data: large_list, shapes)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    storage = getattr(col, "storage", None)
    if storage is not None and pa.types.is_struct(storage.type):
        col = storage.field(0)
    col = col.cast(pa.large_list(pa.float64()))
    off = col.offsets.to_numpy()
    return off - off[0], col.values.to_numpy(zero_copy_only=False)[off[0] : off[-1]]


def pack_long(t: pa.Table, freq: int) -> pa.Table:
    """PACKED_SCHEMA rows of a long panel's rows (unique_id, ds, y, in
    any order; other columns ignored): one row per series, keyed by
    unique_id as a string, its y values in stable ``ds`` order -- the
    reference's reliance on pandas-groupby order preservation
    (tsfeatures.py:971; SURVEY.md §2.7 ordering note) -- all at the
    seasonal period ``freq``. One ``np.lexsort`` over the codes of
    (unique_id, ds)."""
    uid = pc.cast(t["unique_id"], pa.string())
    code = sg.codes(uid)
    order = np.lexsort((sg.codes(t["ds"]), code))
    first = np.flatnonzero(sg.changes(code[order]))
    n = np.diff(np.append(first, len(order)))
    return _packed(sg.take(uid, order[first]), n, sg.floats(t["y"])[order], freq)


def pack_wide(t: pa.Table) -> pa.Table:
    """PACKED_SCHEMA rows of a wide panel (unique_id, seasonality, y = a
    list of numbers per series), row for row."""
    off, v = ragged(t["y"])
    freq = pc.cast(t["seasonality"], pa.int32()).to_numpy()
    return _packed(pc.cast(t["unique_id"], pa.string()), np.diff(off), v, freq)


def _pack_partition(metrics):
    """Partition function packing rollup rows (any tiers, any order; an
    Arrow table in, PACKED_SCHEMA out): per tier, its rows by (conv_id,
    bucket_us), each (conv_id, tier) series densified over its bucket
    range (``segments.series_layout``), gaps and NaN values 0.0."""
    if isinstance(metrics, str):
        metrics = [metrics]

    def fn(t: pa.Table) -> pa.Table:
        keys = t["conv_id"].combine_chunks()
        code = sg.codes(t["conv_id"])
        buck = sg.ticks(t["bucket_us"])
        vals = {m: sg.floats(t[m]) for m in metrics}
        parts = [PACKED_SCHEMA.empty_table()]
        for tname, tier in TIERS.items():
            sub = np.flatnonzero(pc.equal(t["tier"], tname).to_numpy(zero_copy_only=False))
            if len(sub) == 0:
                continue
            sub = sub[np.lexsort((buck[sub], code[sub]))]
            first, nb, pos = sg.series_layout(code[sub], buck[sub], tier.bucket_us)
            uid = pc.cast(keys.take(pa.array(sub[first], type=pa.int64())), pa.string())
            for metric in metrics:
                v = vals[metric][sub]
                dense = np.zeros(int(nb.sum()))
                dense[pos] = np.where(np.isnan(v), 0.0, v)
                parts.append(_packed(uid, nb, dense, tier.freq, tname, metric))
        table = pa.concat_tables(parts)
        # fixed PCG64 row permutation. It once evened the cost mix of the
        # feature stage's block slices; no slice depends on it any more,
        # and it stays only so the committed raw digests of the feature
        # outputs hold until the feature fixtures are next re-recorded
        perm = np.random.Generator(np.random.PCG64(42)).permutation(len(table))
        return table.take(pa.array(perm))

    return fn


def pack_series(
    rollup_ds: "ray.data.Dataset",
    metric: str | list[str] = "token_len_sum",
    num_parts: int | None = None,
) -> "ray.data.Dataset":
    """Rollup Dataset -> packed wide Dataset (PACKED_SCHEMA), one
    ``by_partition`` on conv_id over the rollup rows: no sort over a
    materialized rollup that is already partitioned on conv_id, one
    exchange over any other; over a lazy rollup it runs inside the
    rollup's own exchange (``by_partition``'s fusion), as
    ``feature_pipeline``'s pack does."""
    return by_partition(
        rollup_ds, "conv_id", _pack_partition(metric), num_parts=num_parts,
        batch_format="pyarrow",
    )
