"""Retention tiers: expiry + compaction (north_rule scope; the reference
has no retention concept -- its panel is recomputed wholesale).

Semantics (TimescaleDB/Gorilla-style continuous-aggregate hierarchy,
re-expressed as batch Ray Data transforms):

- ``compact_tier``: roll a fine tier's rows up into a coarser tier
  EXACTLY -- count/sum summed, min/max folded, and each metric's
  ``last`` taken from the fine bucket with the greatest bucket_us whose
  value is non-null (per-metric source-bucket argmax, carried through
  the per-batch partial and the merge after the exchange, so batch
  boundaries cannot reorder it). Both steps are the same fold over
  Arrow tables on the segment layer (``segments.py``): one stable sort
  by (key, bucket), ``reduceat`` and ``seg_ksum`` over the segments.
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
from .rollup import DEFAULT_SPEC, RollupSpec, _rollup_table


def _fold(t: pa.Table, key: str, buck: np.ndarray, prefixes: list[str],
          lastsrc: dict) -> tuple[np.ndarray, dict]:
    """Combine rows per (key, ``buck``): the associative fold of the
    rollup aggregates over one stable sort by (key, bucket). Each
    metric's ``last`` is taken at the greatest source bucket
    (``lastsrc[p]``, the fine bucket of the last non-null observation;
    NaN: none), its first row on ties. Returns each segment's first row
    and the folded columns (``{p}_lastsrc`` included), segments by (key,
    bucket)."""
    code = sg.codes(t[key])
    order = np.lexsort((buck, code))
    starts = np.flatnonzero(sg.changes(code[order], buck[order]))
    out = {"bucket_us": buck[order][starts]}
    idx = np.arange(len(order))
    for p in prefixes:
        def col(agg):
            return sg.floats(t[f"{p}_{agg}"])[order]

        out[f"{p}_count"] = np.add.reduceat(t[f"{p}_count"].to_numpy()[order], starts)
        out[f"{p}_sum"] = sg.seg_ksum(col("sum"), starts)
        out[f"{p}_sum"][out[f"{p}_count"] == 0] = np.nan
        out[f"{p}_min"] = np.fmin.reduceat(col("min"), starts)
        out[f"{p}_max"] = np.fmax.reduceat(col("max"), starts)
        src = np.nan_to_num(lastsrc[p][order], nan=-1.0)
        best = np.maximum.reduceat(src, starts)
        is_best = src == np.repeat(best, np.diff(np.r_[starts, len(src)]))
        first = np.minimum.reduceat(np.where(is_best, idx, len(src)), starts)
        last = col("last")[first]
        out[f"{p}_last"] = np.where(best >= 0, last, np.nan)
        out[f"{p}_lastsrc"] = np.where(best >= 0, best, np.nan)
    return order[starts], out


def _compact_partial(t: pa.Table, src_tier: str, dst_tier: str, spec: RollupSpec) -> pa.Table:
    """``compact_tier``'s per-batch partial: the real ``src_tier`` rows
    folded per (key, ``dst_tier`` bucket), each metric's ``lastsrc``
    carried for the merge."""
    key = spec.key
    w_dst = TIERS[dst_tier].bucket_us
    prefixes = list(spec.values.values())
    keep = pc.equal(t["tier"], src_tier)
    if "filled" in t.column_names:
        keep = pc.and_(keep, pc.invert(t["filled"]))
    t = t.filter(keep)
    fine = sg.ticks(t["bucket_us"])
    lastsrc = {p: np.where(np.isnan(sg.floats(t[f"{p}_last"])), np.nan, fine)
               for p in prefixes}
    rows, out = _fold(t, key, fine - fine % w_dst, prefixes, lastsrc)
    return pa.Table.from_arrays(
        [sg.take(t[key], rows)]
        + [pa.array(v) if c.endswith(("_count", "bucket_us")) else sg.float_array(v)
           for c, v in out.items()],
        names=[key, *out],
    )


def _compact_merge(t: pa.Table, dst_tier: str, spec: RollupSpec) -> pa.Table:
    """``compact_tier``'s partition function: the partials folded again,
    as ``dst_tier`` rollup rows by (key, bucket_us)."""
    prefixes = list(spec.values.values())
    rows, out = _fold(t, spec.key, sg.ticks(t["bucket_us"]), prefixes,
                      {p: sg.floats(t[f"{p}_lastsrc"]) for p in prefixes})
    out.update(_row=rows, _tier=np.zeros(len(rows), dtype=np.int64))
    return _rollup_table(t[spec.key], None, out, [dst_tier], spec)


def compact_tier(
    rollup_ds: "ray.data.Dataset",
    src_tier: str,
    dst_tier: str,
    spec: RollupSpec = DEFAULT_SPEC,
    num_parts: int | None = None,
) -> "ray.data.Dataset":
    """Fine-tier rollup rows -> coarser-tier rollup rows (exact): a
    per-batch partial fold, one ``by_partition`` exchange on the key,
    and the same fold over each partition. Output rows by (key,
    bucket_us)."""
    def partial(t: pa.Table) -> pa.Table:
        return _compact_partial(t, src_tier, dst_tier, spec)

    def merge(t: pa.Table) -> pa.Table:
        return _compact_merge(t, dst_tier, spec)

    return by_partition(rollup_ds.map_batches(partial, batch_format="pyarrow"), spec.key,
                        merge, num_parts=num_parts, batch_format="pyarrow")


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
