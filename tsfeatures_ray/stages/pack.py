"""Stage 3: pack rollup series into list<double> cells (the wide format).

The reference's wide layout -- one row per series with a list-valued
``y`` cell (tsfeatures.py:1014-1016, unpacked at :990-992) -- is our
canonical IR between the rollup and the feature kernels: Arrow
``list_(float64())``. Packing happens per partition (same stable
``part`` key as every other stage) and densifies each (conv_id, tier)
series over its bucket range, gaps -> 0.0 (a quiet minute contributes
zero tokens), fully vectorized via offset arithmetic -- no
per-conversation Python loop.
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


def _pack_partition(metrics):
    if isinstance(metrics, str):
        metrics = [metrics]

    def fn(g: pd.DataFrame) -> pa.Table:
        uid_out, tier_out, metric_out, freq_out, n_out = [], [], [], [], []
        offsets = [0]
        chunks = []
        for tname, tier in TIERS.items():
            sub = g[g["tier"] == tname]
            if len(sub) == 0:
                continue
            w = tier.bucket_us
            sub = sub.sort_values(["conv_id", "bucket_us"], kind="mergesort")
            conv = sub["conv_id"].to_numpy()
            buck = sub["bucket_us"].to_numpy().astype(np.int64)
            # span per conv (sub is sorted by conv, bucket)
            first = np.flatnonzero(np.r_[True, conv[1:] != conv[:-1]])
            last = np.r_[first[1:], len(conv)] - 1
            nb = (buck[last] - buck[first]) // w + 1
            starts = np.concatenate([[0], np.cumsum(nb)[:-1]])
            conv_ord = np.cumsum(np.r_[0, (conv[1:] != conv[:-1]).astype(np.int64)])
            pos = starts[conv_ord] + (buck - buck[first][conv_ord]) // w
            for metric in metrics:
                vals = sub[metric].to_numpy(dtype="float64", na_value=0.0)
                dense = np.zeros(int(nb.sum()))
                dense[pos] = vals
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
        # deterministic within-block shuffle: the natural order groups
        # whole tiers together, so any contiguous slice downstream would
        # inherit wildly uneven kernel cost; mixing here (local, no
        # exchange) keeps later block splits cost-balanced (SURVEY.md S4)
        perm = np.random.Generator(np.random.PCG64(42)).permutation(len(table))
        return table.take(pa.array(perm))

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
