"""Retention tiers: expiry + compaction (north_rule scope; the reference
has no retention concept -- its panel is recomputed wholesale).

Semantics (TimescaleDB/Gorilla-style continuous-aggregate hierarchy,
re-expressed as batch Ray Data transforms):

- ``compact_tier``: roll a fine tier's rows up into a coarser tier
  EXACTLY, in one ``by_partition`` exchange on the key: each partition's
  real fine rows, relabelled as partials of the coarse tier (bucket_us
  floored to the coarse bucket, the fine bucket as ``last_ord_ts``), go
  through ``rollup.py``'s merge core. Counts and sums add, min/max fold
  and each metric's ``last`` is the last non-null one in fine-bucket
  order. The partition function sees whole keys, so the answer does not
  depend on how the input's blocks cut them; a materialized co-located
  input runs no Sort, and a lazy same-key exchange under it fuses.
  Exactness is tested against computing the coarse tier directly from
  the raw turns.
- ``apply_retention``: drop fine-tier rows older than their tier's
  retention horizon AFTER compaction has preserved them in the parent
  tier. ``now_us`` is an explicit argument (no wall-clock reads inside
  the pipeline; determinism and resumability require the driver to pin
  it).

Both stages touch rollup rows only (never the raw input).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray

from ..schema import TIERS
from . import segments as sg
from .derive import by_partition
from .rollup import DEFAULT_SPEC, RollupSpec, _merge_rollup


def _compact(t: pa.Table, src_tier: str, dst_tier: str, spec: RollupSpec) -> pa.Table:
    """``compact_tier``'s partition function: the real ``src_tier`` rows
    relabelled as ``dst_tier`` partials (bucket_us floored to the
    ``dst_tier`` bucket, the fine bucket as ``last_ord_ts``), then the
    merge core."""
    keep = pc.equal(t["tier"], src_tier)
    if "filled" in t.column_names:
        keep = pc.and_(keep, pc.invert(t["filled"]))
    t = t.filter(keep)
    fine = sg.ticks(t["bucket_us"])
    w_dst = TIERS[dst_tier].bucket_us
    partial = pa.Table.from_arrays(
        [t[spec.key], pa.array([dst_tier] * len(t), pa.string()), pa.array(fine - fine % w_dst),
         *(t[c] for c in spec.agg_cols), pa.array(fine), pa.array(np.zeros(len(t), np.int64))],
        names=[spec.key, "tier", "bucket_us", *spec.agg_cols, "last_ord_ts", "last_ord_tie"])
    return _merge_rollup(partial, spec)


def compact_tier(
    rollup_ds: "ray.data.Dataset",
    src_tier: str,
    dst_tier: str,
    spec: RollupSpec = DEFAULT_SPEC,
    num_parts: int | None = None,
) -> "ray.data.Dataset":
    """Fine-tier rollup rows -> coarser-tier rollup rows (exact): one
    ``by_partition`` on the key and ``_compact`` over each partition.
    Output rows by (key, bucket_us)."""
    def compact(t: pa.Table) -> pa.Table:
        return _compact(t, src_tier, dst_tier, spec)

    return by_partition(rollup_ds, spec.key, compact, num_parts=num_parts,
                        batch_format="pyarrow")


DEFAULT_RETENTION_US = {
    "1m": 7 * 86_400_000_000,  # keep 7 days of minute rollups
    "1h": 90 * 86_400_000_000,  # 90 days of hourly
    "1d": None,  # days kept forever
}


def apply_retention(
    rollup_ds: "ray.data.Dataset",
    now_us: int,
    retention_us: dict[str, int | None] | None = None,
) -> "ray.data.Dataset":
    """Filter expired fine-tier rows (vectorized Arrow predicate). The
    caller compacts first (``compact_tier``) so no information is lost;
    this stage only drops."""
    ret = retention_us or DEFAULT_RETENTION_US

    def keep(t: pa.Table) -> pa.Table:
        tier = t["tier"].to_numpy(zero_copy_only=False)
        bucket = t["bucket_us"].to_numpy(zero_copy_only=False)
        keep_np = np.ones(len(t), dtype=bool)
        for tname, horizon in ret.items():
            if horizon is None:
                continue
            keep_np &= ~((tier == tname) & (bucket < now_us - horizon))
        return t.filter(pa.array(keep_np))

    return rollup_ds.map_batches(keep, batch_format="pyarrow")
