"""Stage 3: pack rollup series into list<double> cells (the wide format).

The reference's wide layout -- one row per series with a list-valued
``y`` cell (tsfeatures.py:1014-1016, unpacked at :990-992) -- is our
canonical IR between the rollup and the feature kernels: Arrow
``list_(float64())``. Packing happens per partition (same stable
``part`` key as every other stage) and densifies each (conv_id, tier)
series over its bucket range, gaps -> 0.0 (a quiet minute contributes
zero tokens), fully vectorized via offset arithmetic -- no
per-conversation Python loop. The flagship's fused rollup+pack
(``turn_rollup_fn(pack_metrics=...)``) lays out its own per-tier
segments with the same ``_pack_tiers``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray

from ..schema import TIERS
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


def _series_layout(conv: np.ndarray, buck: np.ndarray, w: int):
    """Dense layout of rollup rows sorted by (conv_id, bucket_us), one
    row per bucket: the first row of each series, its bucket count over
    its [first, last] bucket range, and each row's position in the
    series laid end to end."""
    new = np.ones(len(conv), dtype=bool)
    new[1:] = conv[1:] != conv[:-1]
    first = np.flatnonzero(new)
    last = np.r_[first[1:], len(conv)] - 1
    nb = (buck[last] - buck[first]) // w + 1
    owner = np.cumsum(new) - 1
    pos = (np.cumsum(nb) - nb)[owner] + (buck - buck[first][owner]) // w
    return first, nb, pos


def _pack_tiers(tiers, metrics: list[str]) -> pa.Table:
    """PACKED_SCHEMA rows from ``tiers``: (tier name, conv ids,
    bucket_us, {metric: values}) per tier, each tier's rows sorted by
    (conv_id, bucket_us), one row per bucket. Every series is densified
    over its bucket range; gaps and NaN values are 0.0."""
    uid_out, tier_out, metric_out, freq_out, n_out = [], [], [], [], []
    offsets = [0]
    chunks = []
    for tname, conv, buck, vals in tiers:
        if len(conv) == 0:
            continue
        tier = TIERS[tname]
        first, nb, pos = _series_layout(conv, buck, tier.bucket_us)
        for metric in metrics:
            v = np.asarray(vals[metric], dtype=np.float64)
            dense = np.zeros(int(nb.sum()))
            dense[pos] = np.where(np.isnan(v), 0.0, v)
            chunks.append(dense)
            base = offsets[-1]
            offsets.extend((base + np.cumsum(nb)).tolist())
            uid_out.extend(conv[first].tolist())
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
            pa.array(uid_out, type=pa.string()),
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
    """Partition function packing rollup rows (any tiers, any order)."""
    if isinstance(metrics, str):
        metrics = [metrics]

    def fn(g: pd.DataFrame) -> pa.Table:
        tier = g["tier"].to_numpy()
        conv = g["conv_id"].to_numpy()
        buck = g["bucket_us"].to_numpy().astype(np.int64)
        vals = {m: g[m].to_numpy() for m in metrics}
        tiers = []
        for tname in TIERS:
            sub = np.flatnonzero(tier == tname)
            sub = sub[np.lexsort((buck[sub], pd.factorize(conv[sub], sort=True)[0]))]
            tiers.append((tname, conv[sub], buck[sub], {m: v[sub] for m, v in vals.items()}))
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
        rollup_ds, "conv_id", _pack_partition(metric), num_parts=num_parts
    )
