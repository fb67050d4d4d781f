"""Stage 3: pack rollup series into list<double> cells (the wide format).

The reference's wide layout -- one row per series with a list-valued
``y`` cell (tsfeatures.py:1014-1016, unpacked at :990-992) -- is our
canonical IR between the rollup and the feature kernels: Arrow
``list_(float64())``. Packing happens per partition (same stable
``part`` key as every other stage) and densifies each (conv_id, tier)
series over its bucket range, gaps -> 0.0 (a quiet minute contributes
zero tokens), fully vectorized via offset arithmetic -- no
per-conversation Python loop, Arrow in and Arrow out. The flagship's
fused rollup+pack (``turn_rollup_fn(pack_metrics=...)``) lays out its
own per-tier segments with the same ``_pack_tiers``.
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


def _pack_tiers(tiers, metrics: list[str]) -> pa.Table:
    """PACKED_SCHEMA rows from ``tiers``: (tier name, key codes, key
    values (Arrow), bucket_us, {metric: values}) per tier, each tier's
    rows sorted by (key, bucket_us), one row per bucket. Every series is
    densified over its bucket range (``segments.series_layout``); gaps
    and NaN values are 0.0."""
    uids, tier_out, metric_out, freq_out, n_out = [], [], [], [], []
    offsets = [0]
    chunks = []
    for tname, code, keys, buck, vals in tiers:
        if len(code) == 0:
            continue
        tier = TIERS[tname]
        first, nb, pos = sg.series_layout(code, buck, tier.bucket_us)
        uid = pc.cast(keys.take(pa.array(first)), pa.string())
        for metric in metrics:
            v = np.asarray(vals[metric], dtype=np.float64)
            dense = np.zeros(int(nb.sum()))
            dense[pos] = np.where(np.isnan(v), 0.0, v)
            chunks.append(dense)
            base = offsets[-1]
            offsets.extend((base + np.cumsum(nb)).tolist())
            uids.append(uid)
            tier_out.extend([tname] * len(first))
            metric_out.extend([metric] * len(first))
            freq_out.extend([tier.freq] * len(first))
            n_out.extend(nb.tolist())
    values = np.concatenate(chunks) if chunks else np.empty(0)
    y = pa.ListArray.from_arrays(
        pa.array(offsets, type=pa.int32()), pa.array(values, type=pa.float64())
    )
    table = pa.Table.from_arrays(
        [
            pa.concat_arrays(uids) if uids else pa.array([], type=pa.string()),
            pa.array(tier_out, type=pa.string()),
            pa.array(metric_out, type=pa.string()),
            pa.array(freq_out, type=pa.int32()),
            pa.array(n_out, type=pa.int64()),
            y,
        ],
        schema=PACKED_SCHEMA,
    )
    # fixed PCG64 row permutation. It once evened the cost mix of the
    # feature stage's block slices; no slice depends on it any more, and
    # it stays only so the committed raw digests of the feature outputs
    # hold until the feature fixtures are next re-recorded
    perm = np.random.Generator(np.random.PCG64(42)).permutation(len(table))
    return table.take(pa.array(perm))


def _pack_partition(metrics):
    """Partition function packing rollup rows (any tiers, any order; an
    Arrow table in, PACKED_SCHEMA out)."""
    if isinstance(metrics, str):
        metrics = [metrics]

    def fn(t: pa.Table) -> pa.Table:
        keys = t["conv_id"].combine_chunks()
        code = sg.codes(keys)
        buck = sg.ticks(t["bucket_us"])
        vals = {m: sg.floats(t[m]) for m in metrics}
        tiers = []
        for tname in TIERS:
            sub = np.flatnonzero(pc.equal(t["tier"], tname).to_numpy(zero_copy_only=False))
            sub = sub[np.lexsort((buck[sub], code[sub]))]
            tiers.append((tname, code[sub], keys.take(pa.array(sub, type=pa.int64())), buck[sub],
                          {m: v[sub] for m, v in vals.items()}))
        return _pack_tiers(tiers, metrics)

    return fn


def pack_series(
    rollup_ds: "ray.data.Dataset",
    metric: str | list[str] = "token_len_sum",
    num_parts: int | None = None,
) -> "ray.data.Dataset":
    """Rollup Dataset -> packed wide Dataset (PACKED_SCHEMA), one
    ``by_partition`` exchange on conv_id over the rollup rows. Raw turns
    pack inside the flagship's own exchange instead
    (``turn_rollup_fn(pack_metrics=...)``)."""
    return by_partition(
        rollup_ds, "conv_id", _pack_partition(metric), num_parts=num_parts,
        batch_format="pyarrow",
    )
