"""Temporal joins: as-of join and windowed range join (engine scope --
the reference has no join beyond m4_data.py:117's metadata merge; these
are the two canonical time-series joins a transcript/metrics store
needs and Ray Data lacks natively).

Both are built from the same distributed primitive as
``partitioned_join``: unify both sides into one Arrow schema with a
common equality-key column, co-group the union in ONE ``by_partition``
exchange on it (``interval_join``: on it and the time band), and do
the fine-grained temporal matching with vectorized pandas/numpy INSIDE
the partition function.

Partitioning assumption (SURVEY.md §2 custom-operator rule): all rows
of both sides sharing an equality key land in the same partition --
enforced here by computing the same hash on both sides, so it holds
regardless of upstream block layout. Skewed keys can be salted only for
``range_join`` with a bounded window (salt by time bucket); ``asof_join``
fundamentally needs the whole key history co-located.

- ``asof_join``: for every left row, the single right row with the
  largest ``right_on`` <= left ``on`` (direction='backward'; 'forward'
  symmetric), per key. Left-join semantics (unmatched left rows keep
  nulls). Within a partition this is exactly ``pd.merge_asof`` after a
  ts sort -- C-speed, no Python row loop.
- ``range_join``: inner join of every (left, right) pair with equal
  keys and ``right_on`` within ``[on + lo, on + hi]`` (inclusive).
  Within a partition: right side sorted once per (key, ts), then per
  key two vectorized ``np.searchsorted`` calls bound the window for ALL
  left rows of that key at once; pair expansion is a cumsum/repeat
  arithmetic, no per-row loop. The per-key loop is bounded by distinct
  keys per partition (fine-grained grouping inside the exchange, the
  same pattern as every other partition-fn in this repo).

Oracles: DuckDB ``ASOF JOIN`` reproduces ``asof_join`` exactly; a plain
inequality join (``BETWEEN``) reproduces ``range_join``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray

from ..stages.derive import by_partition, default_num_parts
from .join import _pa_type

_SIDE, _KEY = "__tj_side", "__tj_key"


def _union(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    by: str,
    right_by: str,
    left_schema: "pa.Schema | None",
    right_schema: "pa.Schema | None",
):
    """Unify both sides into one (all-columns, null-padded) Arrow schema
    with a side marker and the common equality key ``_KEY``, and union
    them. Returns (unioned dataset, left col names, right col names,
    types)."""
    lschema = left_schema if left_schema is not None else left.schema()
    rschema = right_schema if right_schema is not None else right.schema()
    lnames, rnames = list(lschema.names), list(rschema.names)
    overlap = set(lnames) & set(rnames)
    if overlap:
        raise ValueError(
            f"temporal join: overlapping column names {sorted(overlap)}; "
            "rename one side before joining"
        )
    types = {n: _pa_type(t) for n, t in zip(lschema.names, lschema.types)}
    types.update({n: _pa_type(t) for n, t in zip(rschema.names, rschema.types)})
    # unify the two key dtypes BEFORE hashing: the partition hash of
    # int64 and float64 representations of the same value differs
    key_t = types[by]
    out_names = lnames + rnames

    def unify(side: int):
        names = lnames if side == 0 else rnames
        key = by if side == 0 else right_by

        def fn(t: pa.Table) -> pa.Table:
            n = len(t)
            key_col = t[key].cast(key_t)
            arrays = []
            for name in out_names:
                if name == key:
                    arrays.append(key_col)
                elif name in names:
                    arrays.append(t[name])
                else:
                    arrays.append(pa.nulls(n, types[name]))
            arrays += [pa.array(np.full(n, side, dtype=np.int8)), key_col]
            return pa.Table.from_arrays(
                arrays, names=out_names + [_SIDE, _KEY]
            )

        return fn

    both = left.map_batches(unify(0), batch_format="pyarrow").union(
        right.map_batches(unify(1), batch_format="pyarrow")
    )
    return both, lnames, rnames, types


def _restore(df: pd.DataFrame, names, types) -> pd.DataFrame:
    """Undo the union-with-nulls upcast (int -> float64) on columns that
    carry no nulls after the split, so keys/ids stay merge-stable."""
    for n in names:
        try:
            want = np.dtype(types[n].to_pandas_dtype())
        except (TypeError, NotImplementedError):
            continue
        if df[n].dtype != want and not df[n].isna().any():
            df[n] = df[n].astype(want)
    return df


def asof_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    on: str,
    by: str,
    right_on: str,
    right_by: str,
    direction: str = "backward",
    tolerance=None,
    num_parts: int | None = None,
    left_schema: "pa.Schema | None" = None,
    right_schema: "pa.Schema | None" = None,
) -> "ray.data.Dataset":
    """Distributed as-of join: each left row picks the nearest-previous
    (direction='backward'), nearest-next ('forward'), or closest-in-
    absolute-distance ('nearest'; equidistant ties prefer BACKWARD --
    pandas merge_asof semantics, probed) right row per key. All column names must be disjoint between the sides. Ties on
    ``right_on`` resolve to the LAST right row in (key, ts, input) order
    -- make the right side unique per (key, ts) upstream when the
    contract needs full determinism (DuckDB's ASOF JOIN picks an
    arbitrary tie row too).

    Right-side integer columns come back float64 (NaN for unmatched
    left rows) so every partition emits one stable schema -- the same
    float64+NaN boundary contract as the rest of the repo.

    Oracle shape::

        SELECT l.*, r.* FROM l ASOF LEFT JOIN r
          ON l.by = r.right_by AND l.on >= r.right_on
    """
    if direction not in ("backward", "forward", "nearest"):
        raise ValueError("direction must be 'backward', 'forward' or 'nearest'")
    both, lnames, rnames, types = _union(
        left, right, by, right_by, left_schema, right_schema
    )
    out_names = lnames + rnames

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        lmask = g[_SIDE].to_numpy() == 0
        ldf = _restore(g.loc[lmask, lnames], lnames, types)
        rdf = _restore(g.loc[~lmask, rnames], rnames, types)
        if not len(ldf):
            out = pd.DataFrame({n: _null_series(0, types[n]) for n in out_names})
            if pa.types.is_timestamp(types[on]):
                out[right_on] = out[right_on].astype(types[on].to_pandas_dtype())
            return _float_ints(out, lnames, types)
        ldf = ldf.sort_values(on, kind="mergesort")
        if not len(rdf):
            out = ldf.reset_index(drop=True)
            for n in rnames:
                out[n] = _null_series(len(out), types[n])
            out[right_on] = out[right_on].astype(ldf[on].dtype)
            return _float_ints(out[out_names], lnames, types)
        rdf = rdf.sort_values(right_on, kind="mergesort")
        if rdf[right_by].dtype != ldf[by].dtype:
            rdf[right_by] = rdf[right_by].astype(ldf[by].dtype)
        if rdf[right_on].dtype != ldf[on].dtype:
            # unify the time axis (e.g. a date-grain right side at [s]
            # against a [us] left side); output carries the left unit
            rdf[right_on] = rdf[right_on].astype(ldf[on].dtype)
        out = pd.merge_asof(
            ldf,
            rdf,
            left_on=on,
            right_on=right_on,
            left_by=by,
            right_by=right_by,
            direction=direction,
            tolerance=tolerance,
        )
        return _float_ints(out[out_names], lnames, types)

    return by_partition(both, _KEY, merge, num_parts=num_parts)


def range_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    on: str,
    by: str,
    right_on: str,
    right_by: str,
    lo,
    hi,
    num_parts: int | None = None,
    left_schema: "pa.Schema | None" = None,
    right_schema: "pa.Schema | None" = None,
) -> "ray.data.Dataset":
    """Distributed windowed range join (inner): emit every (left, right)
    pair with equal keys and ``right_on`` in ``[on + lo, on + hi]``
    (both bounds inclusive; ``lo``/``hi`` are ``pd.Timedelta`` for
    timestamp axes or numbers for numeric axes -- lookback windows use a
    negative ``lo``).

    Oracle shape::

        SELECT l.*, r.* FROM l JOIN r ON l.by = r.right_by
          AND r.right_on BETWEEN l.on + lo AND l.on + hi
    """
    both, lnames, rnames, types = _union(
        left, right, by, right_by, left_schema, right_schema
    )
    out_names = lnames + rnames
    lo64, hi64 = _to_axis_int(lo), _to_axis_int(hi)
    if lo64 > hi64:
        raise ValueError("range_join: lo must be <= hi")

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        lmask = g[_SIDE].to_numpy() == 0
        ldf = _restore(g.loc[lmask, lnames], lnames, types)
        rdf = _restore(g.loc[~lmask, rnames], rnames, types)
        empty = pd.DataFrame(
            {n: pd.Series(dtype=df[n].dtype)
             for df, side in ((ldf, lnames), (rdf, rnames)) for n in side}
        )
        if not len(ldf) or not len(rdf):
            return empty
        if rdf[right_by].dtype != ldf[by].dtype:
            rdf[right_by] = rdf[right_by].astype(ldf[by].dtype)
        rdf = rdf.sort_values([right_by, right_on], kind="mergesort")
        r_ts = _axis_int64(rdf[right_on])
        r_keys = rdf[right_by].to_numpy()
        # per-key slices of the sorted right side
        uniq, starts = np.unique(r_keys, return_index=True)
        bounds = {k: (int(s), int(e)) for k, s, e in
                  zip(uniq, starts, np.append(starts[1:], len(r_keys)))}
        l_idx_parts, r_idx_parts = [], []
        l_ts_all = _axis_int64(ldf[on])
        l_keys = ldf[by].to_numpy()
        # fine-grained per-key matching inside the partition: each
        # iteration is fully vectorized over that key's left rows
        for k, sub in pd.Series(np.arange(len(ldf))).groupby(l_keys, sort=False):
            be = bounds.get(k)
            if be is None:
                continue
            s, e = be
            li = sub.to_numpy()
            lts = l_ts_all[li]
            lo_idx = np.searchsorted(r_ts[s:e], lts + lo64, side="left")
            hi_idx = np.searchsorted(r_ts[s:e], lts + hi64, side="right")
            counts = hi_idx - lo_idx
            total = int(counts.sum())
            if not total:
                continue
            csum = np.concatenate(([0], np.cumsum(counts)[:-1]))
            offs = np.arange(total) - np.repeat(csum, counts)
            l_idx_parts.append(np.repeat(li, counts))
            r_idx_parts.append(np.repeat(lo_idx + s, counts) + offs)
        if not l_idx_parts:
            return empty
        li = np.concatenate(l_idx_parts)
        ri = np.concatenate(r_idx_parts)
        out = pd.concat(
            [ldf.iloc[li].reset_index(drop=True),
             rdf.iloc[ri].reset_index(drop=True)],
            axis=1,
        )
        return out[out_names]

    return by_partition(both, _KEY, merge, num_parts=num_parts)


def _null_series(n: int, t: pa.DataType) -> pd.Series:
    """All-null column with the partition-stable pandas dtype for an
    Arrow type (numbers -> float64 NaN, timestamps -> NaT, else object
    None)."""
    if pa.types.is_timestamp(t):
        u = t.unit or "ns"
        return pd.Series(np.full(n, np.datetime64("NaT", u)),
                         dtype=f"datetime64[{u}]")
    if pa.types.is_integer(t) or pa.types.is_floating(t):
        return pd.Series(np.full(n, np.nan))
    return pd.Series([None] * n, dtype=object)


def _float_ints(df: pd.DataFrame, lnames, types) -> pd.DataFrame:
    """Upcast NON-left integer columns to float64 unconditionally so
    match-complete and match-missing partitions agree on one schema."""
    for n in df.columns:
        if n in lnames:
            continue
        if pa.types.is_integer(types[n]) and df[n].dtype != np.float64:
            df[n] = df[n].astype(np.float64)
    return df


def _to_axis_int(v) -> int:
    """Window bound -> int64 axis units (ns for Timedelta, as-is for
    numbers)."""
    if isinstance(v, pd.Timedelta):
        return int(v.value)
    return int(v)


def _axis_int64(s: pd.Series) -> np.ndarray:
    """Time/numeric axis -> monotonic int64 (datetime64 -> ns)."""
    if np.issubdtype(s.dtype, np.datetime64):
        return s.to_numpy().astype("datetime64[ns]").view(np.int64)
    return s.to_numpy().astype(np.int64)


def interval_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    on: str,
    by: str,
    right_lo: str,
    right_hi: str,
    right_by: str,
    band=None,
    num_parts: int | None = None,
    left_schema: "pa.Schema | None" = None,
    right_schema: "pa.Schema | None" = None,
    max_bands: int = 4096,
) -> "ray.data.Dataset":
    """Point-in-interval join (inner): emit every (left, right) pair
    with equal keys and ``right_lo <= on <= right_hi``.

    Scale shape (time banding -- the documented partitioning
    assumption): the time axis is cut into fixed ``band``-wide bands
    (pd.Timedelta or numeric; default 1h for timestamp axes). Each
    left point belongs to exactly ONE band; each right interval is
    replicated to every band it overlaps (bounded by ``max_bands`` --
    an interval 4096x wider than the band means the band width is
    mis-chosen, raise instead of exploding). The exchange is
    ``by_partition`` on (key, band), so hot keys spread
    across bands, so a single key with millions of intervals does NOT
    pin one partition (the advantage over asof/range_join's pure key
    partitioning). Inside a bucket the match is a vectorized
    points-x-intervals mask (block-nested-loop, bounded by the
    banding), the same pattern as the cosine near-dup buckets.

    Because points live in exactly one band, no pair is emitted twice.
    Pick ``band`` near the typical interval length: too wide packs
    everything into few buckets, too narrow replicates intervals many
    times.
    """
    if num_parts is None:
        num_parts = default_num_parts()
    lschema = left_schema if left_schema is not None else left.schema()
    rschema = right_schema if right_schema is not None else right.schema()
    lnames, rnames = list(lschema.names), list(rschema.names)
    overlap = set(lnames) & set(rnames)
    if overlap:
        raise ValueError(
            f"interval_join: overlapping column names {sorted(overlap)}; "
            "rename one side before joining"
        )
    types = {n: _pa_type(t) for n, t in zip(lschema.names, lschema.types)}
    types.update({n: _pa_type(t) for n, t in zip(rschema.names, rschema.types)})
    if band is None:
        band = (pd.Timedelta(hours=1)
                if pa.types.is_timestamp(types[on]) else 3600)
    band64 = _to_axis_int(band)
    if band64 <= 0:
        raise ValueError("interval_join: band must be positive")
    out_names = lnames + rnames
    key_t = types[by]

    def tag_left(t: pa.Table) -> pa.Table:
        n = len(t)
        bands = _axis_int64(t[on].to_pandas()) // band64
        arrays = [
            t[name] if name in lnames else pa.nulls(n, types[name])
            for name in out_names
        ]
        arrays += [
            pa.array(np.full(n, 0, dtype=np.int8)),
            pa.array(bands, type=pa.int64()),
            t[by].cast(key_t),
        ]
        return pa.Table.from_arrays(
            arrays, names=out_names + [_SIDE, "__tj_band", _KEY]
        )

    def tag_right(t: pa.Table) -> pa.Table:
        lo_b = _axis_int64(t[right_lo].to_pandas()) // band64
        hi_b = _axis_int64(t[right_hi].to_pandas()) // band64
        counts = hi_b - lo_b + 1
        if len(counts) and counts.max() > max_bands:
            raise ValueError(
                f"interval_join: an interval spans {int(counts.max())} bands "
                f"(> max_bands={max_bands}); widen `band`"
            )
        idx = np.repeat(np.arange(len(t)), counts)
        total = int(counts.sum())
        csum = np.concatenate(([0], np.cumsum(counts)[:-1]))
        bands = np.repeat(lo_b, counts) + (np.arange(total) - np.repeat(csum, counts))
        taken = t.take(pa.array(idx, type=pa.int64()))
        arrays = [
            taken[name] if name in rnames else pa.nulls(total, types[name])
            for name in out_names
        ]
        arrays += [
            pa.array(np.full(total, 1, dtype=np.int8)),
            pa.array(bands, type=pa.int64()),
            taken[right_by].cast(key_t),
        ]
        return pa.Table.from_arrays(
            arrays, names=out_names + [_SIDE, "__tj_band", _KEY]
        )

    both = [left.map_batches(tag_left, batch_format="pyarrow"),
            right.map_batches(tag_right, batch_format="pyarrow")]

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        side = g[_SIDE].to_numpy()
        lmask = side == 0
        ldf = _restore(g.loc[lmask, lnames + ["__tj_band"]], lnames, types)
        rdf = _restore(g.loc[~lmask, rnames + ["__tj_band"]], rnames, types)
        empty = pd.DataFrame(
            {n: pd.Series(dtype=df[n].dtype)
             for df, side_names in ((ldf, lnames), (rdf, rnames))
             for n in side_names}
        )
        if not len(ldf) or not len(rdf):
            return empty
        if rdf[right_by].dtype != ldf[by].dtype:
            rdf[right_by] = rdf[right_by].astype(ldf[by].dtype)
        l_ts = _axis_int64(ldf[on])
        r_lo = _axis_int64(rdf[right_lo])
        r_hi = _axis_int64(rdf[right_hi])
        l_code = pd.util.hash_pandas_object(
            pd.DataFrame({"__k": ldf[by].to_numpy(),
                          "__b": ldf["__tj_band"].to_numpy()}), index=False
        ).to_numpy()
        r_code = pd.util.hash_pandas_object(
            pd.DataFrame({"__k": rdf[right_by].to_numpy(),
                          "__b": rdf["__tj_band"].to_numpy()}), index=False
        ).to_numpy()
        l_idx_parts, r_idx_parts = [], []
        r_order = np.argsort(r_code, kind="stable")
        r_code_s = r_code[r_order]
        # bucket = (key, band); vectorized points-x-intervals mask per
        # bucket, bucket sizes bounded by the banding
        for code, sub in pd.Series(np.arange(len(ldf))).groupby(l_code, sort=False):
            s = np.searchsorted(r_code_s, code, side="left")
            e = np.searchsorted(r_code_s, code, side="right")
            if s == e:
                continue
            ri = r_order[s:e]
            # guard hash-bucket collisions: require true key equality
            ri = ri[rdf[right_by].to_numpy()[ri] == ldf[by].to_numpy()[sub.iloc[0]]]
            if not len(ri):
                continue
            li = sub.to_numpy()
            # sorted-interval stab with bounded allocation (VERDICT r3
            # ask #6): points ascend, intervals sort by lo; each fixed
            # 4096-point chunk prunes its candidate intervals to
            # lo <= chunk_max (searchsorted prefix) and hi >= chunk_min
            # before the pair mask, so peak memory is O(chunk x
            # surviving candidates) instead of O(points x intervals) on
            # a hot (key, band) bucket. Pair enumeration itself is
            # inherently Omega(output).
            ts = l_ts[li]
            po = np.argsort(ts, kind="stable")
            li_s, ts_s = li[po], ts[po]
            io_ = np.argsort(r_lo[ri], kind="stable")
            ri_s = ri[io_]
            lo_s, hi_s = r_lo[ri_s], r_hi[ri_s]
            CH = 4096
            for c0 in range(0, len(ts_s), CH):
                tch = ts_s[c0 : c0 + CH]
                lch = li_s[c0 : c0 + CH]
                k = int(np.searchsorted(lo_s, tch[-1], side="right"))
                if k == 0:
                    continue
                cand = np.flatnonzero(hi_s[:k] >= tch[0])
                if not len(cand):
                    continue
                m = (lo_s[cand][None, :] <= tch[:, None]) & (
                    tch[:, None] <= hi_s[cand][None, :]
                )
                pl, pr = np.nonzero(m)
                if not len(pl):
                    continue
                l_idx_parts.append(lch[pl])
                r_idx_parts.append(ri_s[cand[pr]])
        if not l_idx_parts:
            return empty
        li = np.concatenate(l_idx_parts)
        ri = np.concatenate(r_idx_parts)
        out = pd.concat(
            [ldf.iloc[li][lnames].reset_index(drop=True),
             rdf.iloc[ri][rnames].reset_index(drop=True)],
            axis=1,
        )
        return out[out_names]

    return by_partition(both, [_KEY, "__tj_band"], merge, num_parts=num_parts)
