"""Stage 2: continuous aggregates (rollups) at 1m/1h/1d retention tiers.

Every rollup operator here is Arrow in, Arrow out over the numpy
segment layer (``segments.py``); no pandas frame is built, grouped or
sorted. There are two cores:

- the EXACT core, over raw rows that hold every row of their keys: one
  stable sort by (key, ts, *order), ts in its own unit, then per tier
  segments where (key, bucket) changes (bucket is monotone in ts within
  a key, so each (key, bucket) is one contiguous run). ``rollup()`` runs
  it inside the one exchange that co-locates each key, and the resumable
  run over each partition it sank;
- the MERGE core, over partial rollup rows (each row carries the
  ordering key of its ``last``, ``keep_ord=True``): one stable sort by
  (key, tier, bucket_us, last_ord_ts, last_ord_tie), then segments where
  (key, tier, bucket_us) changes; counts and sums add, min/max fold and
  ``last`` is the last non-null one. ``merge_rollups()`` and the salted
  ``rollup()`` run it; ``gapfill_rollup()`` shares its gap-fill; and
  ``retention.compact_tier()`` runs it over a fine tier's rows
  relabelled as coarse-tier partials (the fine bucket as
  ``last_ord_ts``). It is the store's one fold over rollup rows.

``rollup()`` exchanges the input rows themselves, projected to the
spec's columns, and computes no per-batch partial. Over a lazy derive
it runs inside derive's exchange (``derive.by_partition``'s fusion):
the flagship's ``rollup_pipeline`` is that composition, one exchange
over the raw turns. On the rollup_store benchmark the base slice's
per-batch partials were 4,318 rows x 15 columns, and the raw turns now
exchanged are 7,702 rows x 6 columns. The exact core then gives the
same bits whatever the input's block layout (a per-batch partial
changes the last bits of a float sum). A salted rollup keeps the
partial/merge shape: a giant key's rows spread over many partitions,
so the exact core runs per batch (with ``keep_ord``) and the merge core
after the salted exchange.

This replaces the reference's single-shot in-memory pandas aggregation
(reference tsfeatures.py:970-976 materializes the whole panel on the
driver). The operator is generic over (key, ordering columns, value
columns): the transcript pipeline uses (conv_id, [ts, turn_idx],
{token_len, latency_us->latency}); the events pipeline uses (user_id,
[ts, event_id], {value}).

Aggregate semantics (exact, north_rule):
- <v>_count: non-null observations of v in the bucket;
- <v>_sum/min/max: over non-null observations (the sum is pandas'
  compensated groupby sum, ``segments.seg_ksum``);
- <v>_last: v at the max ordering key among rows where v is non-null;
- gap rows (gapfill=True): every tier bucket between a key's first and
  last bucket exists; counts are 0, other aggregates NULL, ``filled``
  is true.

Output rows: real rows by (key, tier name, bucket_us), then each tier's
gap rows by (key, bucket_us), tiers in the order asked for. The schema
is the pandas -> Arrow conversion of the pandas operators these replaced
(``tests/_rollup_oracles.py``): the key keeps its input type, NaN is
null, ``bucket`` is timestamp[us], counts are int64 and ``last_ord_tie``
keeps its order column's type.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray

from ..schema import TIERS, Tier
from . import segments as sg
from .derive import by_partition


@dataclass(frozen=True)
class RollupSpec:
    """What to roll up: key column, ordering columns (ts first), and
    value columns mapped to their output prefixes."""

    key: str = "conv_id"
    ts: str = "ts"
    order: tuple[str, ...] = ("turn_idx",)  # tie-breakers after ts
    values: dict = field(
        default_factory=lambda: {"token_len": "token_len", "latency_us": "latency"}
    )

    @property
    def agg_cols(self) -> list[str]:
        out = []
        for pref in self.values.values():
            out += [f"{pref}_{a}" for a in ("count", "sum", "min", "max", "last")]
        return out


DEFAULT_SPEC = RollupSpec()

_KEEP_ORD_GAPFILL = ("keep_ord rollups cannot gap-fill inline (gap rows "
                     "have no ordering key); gap-fill after the final "
                     "merge_rollups instead")


def _rollup_table(key_col, code: np.ndarray, rows: dict, names: list[str],
                  spec: RollupSpec, gapfill: bool = False,
                  widths: dict[str, int] | None = None, ord_cols=None) -> pa.Table:
    """The rollup output of ``rows`` (real rows in output order:
    ``_row`` indexes ``key_col`` and ``code``, ``_tier`` indexes
    ``names``, plus ``bucket_us`` and the aggregate columns), with each
    tier's gap rows appended when ``gapfill`` (tiers in ``widths``
    order), and ``ord_cols`` = (last_ord_ts, last_ord_tie) arrays for a
    keep_ord rollup."""
    row, tier, buck = rows["_row"], rows["_tier"], rows["bucket_us"]
    g_row, g_tier, g_buck = [row], [tier], [buck]
    if gapfill:
        for tname, w in widths.items():
            if tname not in names:
                continue
            sub = np.flatnonzero(tier == names.index(tname))
            sub = sub[np.lexsort((buck[sub], code[row[sub]]))]
            head, b = sg.gaps(code[row[sub]], buck[sub], w)
            g_row.append(row[sub[head]])
            g_tier.append(np.full(len(head), names.index(tname)))
            g_buck.append(b)
    n_gap = sum(len(b) for b in g_buck) - len(buck)
    buck = np.concatenate(g_buck).astype(np.int64)
    arrays = [
        sg.take(key_col, np.concatenate(g_row)),
        pa.array(names, type=pa.string()).take(pa.array(np.concatenate(g_tier), type=pa.int64())),
        pa.array(buck.view("datetime64[us]")),
        pa.array(buck),
    ]
    for c in spec.agg_cols:
        if c.endswith("_count"):
            arrays.append(pa.array(np.r_[rows[c].astype(np.int64), np.zeros(n_gap, np.int64)]))
        else:
            arrays.append(sg.float_array(np.r_[rows[c], np.full(n_gap, np.nan)]))
    arrays.append(pa.array(np.r_[np.zeros(len(row), bool), np.ones(n_gap, bool)]))
    cols = [spec.key, "tier", "bucket", "bucket_us", *spec.agg_cols, "filled"]
    if ord_cols is not None:
        arrays += list(ord_cols)
        cols += ["last_ord_ts", "last_ord_tie"]
    return pa.Table.from_arrays(arrays, names=cols)


def _tier_rows(code: np.ndarray, ts_us: np.ndarray, vals: dict,
               tier_objs: list[Tier]) -> tuple[dict, list[str]]:
    """The exact core over rows sorted by (key, ts, ...): per tier, the
    segments where (key, bucket) changes (row ``_row`` to row ``_end``),
    their ``bucket_us`` and the aggregates of each value prefix, as one
    set of rows by (key, tier name, bucket_us); and the tier names
    ``_tier`` indexes."""
    new_key = sg.changes(code)
    widths = {t.name: t.bucket_us for t in tier_objs}
    names = sorted(widths)
    segs = []
    for name in names:
        bucket = ts_us - ts_us % widths[name]
        seg = new_key.copy()
        seg[1:] |= bucket[1:] != bucket[:-1]
        starts = np.flatnonzero(seg)
        cols = {"_row": starts, "_end": np.r_[starts[1:], len(code)] - 1,
                "bucket_us": bucket[starts]}
        for pref, v in vals.items():
            for agg, col in sg.aggregate(v, starts).items():
                cols[f"{pref}_{agg}"] = col
        segs.append(cols)
    tier = np.repeat(np.arange(len(names)), [len(c["_row"]) for c in segs])
    rows = {c: np.concatenate([seg[c] for seg in segs]) for c in segs[0]}
    order = np.lexsort((tier, code[rows["_row"]]))
    rows = {c: v[order] for c, v in rows.items()}
    rows["_tier"] = tier[order]
    return rows, names


def _exact_rollup(t: pa.Table, tier_objs: list[Tier], spec: RollupSpec,
                  gapfill: bool = False, keep_ord: bool = False) -> pa.Table:
    """The exact core over raw rows holding every row of their keys, in
    ``rollup()``'s one stable sort by (key, ts, *order), ts in its own
    unit (derive's latency order): its partition function, and its
    per-batch partial when salted. Buckets and the ``keep_ord`` carry
    (``last_ord_ts``) are in epoch microseconds (floor for ns)."""
    key_col = t[spec.key]
    code = sg.codes(key_col)
    ts = sg.ts_us(t[spec.ts])
    order = np.lexsort([sg.codes(t[c]) for c in reversed(spec.order)]
                       + [sg.ticks(t[spec.ts]), code])
    vals = {pref: sg.floats(t[col])[order] for col, pref in spec.values.items()}
    rows, names = _tier_rows(code[order], ts[order], vals, tier_objs)
    ord_cols = None
    if keep_ord:
        last = order[rows["_end"]]  # the segment's last row: the max ordering key
        tie = (sg.take(t[spec.order[0]], last) if spec.order
               else pa.array(np.zeros(len(last), np.int64)))
        ord_cols = (pa.array(ts[last]), tie)
    rows["_row"] = order[rows["_row"]]
    return _rollup_table(key_col, code, rows, names, spec, gapfill,
                         {x.name: x.bucket_us for x in tier_objs}, ord_cols)


def _merge_rollup(t: pa.Table, spec: RollupSpec, gapfill: bool = False,
                  widths: dict[str, int] | None = None, keep_ord: bool = False) -> pa.Table:
    """The merge core over partial rollup rows (any order; each row
    carries ``last_ord_ts``/``last_ord_tie``): one stable sort by (key,
    tier, bucket_us, last_ord_ts, last_ord_tie), segments where (key,
    tier, bucket_us) changes, counts and sums added, min/max folded and
    the last non-null ``last``."""
    if "last_ord_ts" not in t.column_names:
        raise ValueError(
            "merge_rollups needs rollups produced with keep_ord=True "
            "(the 'last' aggregate is only mergeable when each row "
            "carries its ordering key)"
        )
    key_col = t[spec.key]
    code = sg.codes(key_col)
    tier, names = sg.factorize(t["tier"])
    buck = sg.ticks(t["bucket_us"])
    order = np.lexsort((sg.codes(t["last_ord_tie"]), sg.codes(t["last_ord_ts"]), buck, tier, code))
    starts = np.flatnonzero(sg.changes(code[order], tier[order], buck[order]))
    rows = {"_row": order[starts], "_tier": tier[order][starts], "bucket_us": buck[order][starts]}
    for pref in spec.values.values():
        def col(agg):
            return sg.floats(t[f"{pref}_{agg}"])[order]

        count = np.add.reduceat(t[f"{pref}_count"].to_numpy()[order], starts)
        total = sg.seg_ksum(col("sum"), starts)
        total[count == 0] = np.nan
        rows.update({f"{pref}_count": count, f"{pref}_sum": total,
                     f"{pref}_min": np.fmin.reduceat(col("min"), starts),
                     f"{pref}_max": np.fmax.reduceat(col("max"), starts),
                     f"{pref}_last": sg.seg_last(col("last"), starts)})
    ord_cols = None
    if keep_ord:
        ord_cols = []
        for c in ("last_ord_ts", "last_ord_tie"):
            at = sg.last_at(t[c].is_valid().to_numpy(zero_copy_only=False)[order], starts)
            ord_cols.append(sg.take(t[c], np.where(at >= 0, order[at], -1)))
    return _rollup_table(key_col, code, rows, names, spec, gapfill, widths, ord_cols)


def rollup(
    ds: "ray.data.Dataset",
    tiers: list[str] | None = None,
    gapfill: bool = False,
    num_parts: int | None = None,
    spec: RollupSpec = DEFAULT_SPEC,
    salt_window_us: int | None = None,
    keep_ord: bool = False,
) -> "ray.data.Dataset":
    """Keyed stream Dataset -> rollup Dataset at the given tiers: the
    input projected to the spec's columns, one ``by_partition`` exchange
    on the key, and the exact core over each partition. Over a lazy
    ``derive_turn_metrics`` output the exchange is derive's own: the
    exact core runs right after the latency pass, in the same group.

    ``salt_window_us`` enables SALTED repartitioning for hot keys
    (SURVEY.md §4): the exact core runs per batch (a partial with its
    ordering key), and the merge partition key becomes
    (key, bucket_us // salt_window_us), so one giant key's partials
    spread across many partitions instead of pinning one straggler. Safe
    because every (key, tier, bucket) group still lands intact in exactly
    one partition and the merge is associative (merge-on-read). Gap-fill
    needs whole-key locality, so with salting it must be applied
    afterwards via ``gapfill_rollup``.
    """
    tier_objs = [TIERS[t] for t in (tiers or list(TIERS))]
    if salt_window_us is not None and gapfill:
        raise ValueError(
            "salted rollup cannot gap-fill inline; run gapfill_rollup() after"
        )
    if keep_ord and gapfill:
        raise ValueError(_KEEP_ORD_GAPFILL)
    columns = list(dict.fromkeys([spec.key, spec.ts, *spec.order, *spec.values]))
    if salt_window_us is None:
        def exact(t: pa.Table) -> pa.Table:
            return _exact_rollup(t, tier_objs, spec, gapfill, keep_ord)

        return by_partition(ds, spec.key, exact, num_parts=num_parts, batch_format="pyarrow",
                            columns=columns)

    def salted_partial(t: pa.Table) -> pa.Table:
        part = _exact_rollup(t, tier_objs, spec, keep_ord=True)
        window = pa.array(part["bucket_us"].to_numpy() // salt_window_us)
        salted = pc.binary_join_element_wise(
            pc.cast(part[spec.key], pa.string()), pc.cast(window, pa.string()), "@")
        return part.append_column("salted_key", salted)

    def merge(t: pa.Table) -> pa.Table:
        return _merge_rollup(t, spec, keep_ord=keep_ord)

    partials = ds.select_columns(columns).map_batches(salted_partial, batch_format="pyarrow",
                                                      batch_size=65536)
    return by_partition(partials, "salted_key", merge, num_parts=num_parts,
                        batch_format="pyarrow")


def merge_rollups(
    *rollups: "ray.data.Dataset",
    tiers: list[str] | None = None,
    gapfill: bool = False,
    num_parts: int | None = None,
    spec: RollupSpec = DEFAULT_SPEC,
    keep_ord: bool = False,
) -> "ray.data.Dataset":
    """Merge rollups produced with ``keep_ord=True`` into one rollup --
    the INCREMENTAL INGESTION shape: yesterday's stored rollup + today's
    slice merge EXACTLY (count/sum/min/max are associative; 'last'
    carries its ordering key), so a 100 TB corpus never recomputes
    history. One ``by_partition`` exchange on the key over all the
    inputs, then the merge core (hash-exact equality with a full
    recompute is pinned by the ``rollup_incremental_1h`` driver oracle
    and pytest). An input that is itself an unmaterialized exchange on
    the key (a lazy ``rollup()``, and the derive under it) runs its
    partition functions inside this exchange, so base + new-day
    ``rollup(derive_turn_metrics(...))`` chains and their merge are ONE
    exchange. With ``keep_ord`` the output is again a mergeable partial,
    so it cannot be gap-filled inline, as in ``rollup()``."""
    if not rollups:
        raise ValueError("merge_rollups needs at least one rollup")
    if keep_ord and gapfill:
        raise ValueError(_KEEP_ORD_GAPFILL)
    widths = {t: TIERS[t].bucket_us for t in (tiers or list(TIERS))}

    def merge(t: pa.Table) -> pa.Table:
        return _merge_rollup(t, spec, gapfill, widths, keep_ord)

    return by_partition(list(rollups), spec.key, merge, num_parts=num_parts,
                        batch_format="pyarrow")


def _gapfill(t: pa.Table, spec: RollupSpec = DEFAULT_SPEC) -> pa.Table:
    """``gapfill_rollup``'s partition function: the rows in the order
    they arrive, marked real, then every tier's gap rows."""
    tier, names = sg.factorize(t["tier"])
    rows = {"_row": np.arange(len(t)), "_tier": tier, "bucket_us": sg.ticks(t["bucket_us"])}
    for c in spec.agg_cols:
        rows[c] = t[c].to_numpy() if c.endswith("_count") else sg.floats(t[c])
    return _rollup_table(t[spec.key], sg.codes(t[spec.key]), rows, names, spec, True,
                         {x.name: x.bucket_us for x in TIERS.values()})


def gapfill_rollup(
    rollup_ds: "ray.data.Dataset",
    num_parts: int | None = None,
    spec: RollupSpec = DEFAULT_SPEC,
):
    """Densify an existing (sparse) rollup Dataset."""
    def fn(t: pa.Table) -> pa.Table:
        return _gapfill(t, spec)

    return by_partition(rollup_ds, spec.key, fn, num_parts=num_parts, batch_format="pyarrow")
