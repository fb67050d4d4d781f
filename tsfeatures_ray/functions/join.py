"""Joins (SURVEY.md §2.4). Two shapes:

- ``broadcast_join``: panel-to-small-metadata (the reference's only join,
  m4_data.py:117 ``df.merge(m4_info)``). The small side is broadcast once
  via ``ray.put`` and read in each actor's ``__init__`` -- never
  re-shipped per batch, never shuffled. Requires the small side to fit
  in memory.
- ``partitioned_join``: distributed hash-partitioned join for two
  Datasets of arbitrary size. The union of both sides goes through ONE
  ``by_partition`` exchange on the join key (the same partitioning as
  every other stage) and is merged per partition; nothing is
  materialized on the driver. This is the scale path for keeper-set
  semi joins and candidate-pair lookups where the "small" side is
  unbounded.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray

from ..stages.derive import by_partition


class _BroadcastJoiner:
    def __init__(self, small_ref, left_on, right_on, how, semi, anti):
        small = ray.get(small_ref)  # broadcast read, once per actor
        self.small = small.set_index(right_on) if not (semi or anti) else None
        self.keys = set(small[right_on]) if (semi or anti) else None
        self.left_on, self.right_on = left_on, right_on
        self.how, self.semi, self.anti = how, semi, anti

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        if self.semi:
            return batch[batch[self.left_on].isin(self.keys)]
        if self.anti:
            return batch[~batch[self.left_on].isin(self.keys)]
        return batch.merge(
            self.small, left_on=self.left_on, right_index=True, how=self.how
        )


def broadcast_join(
    ds: "ray.data.Dataset",
    small: pd.DataFrame,
    left_on: str,
    right_on: str,
    how: str = "inner",
    concurrency: int = 4,
) -> "ray.data.Dataset":
    """Join a streaming Dataset against a small in-memory dimension
    table. ``how`` in {'inner', 'left'}; 'semi' / 'anti' filter by key
    membership only."""
    semi = how == "semi"
    anti = how == "anti"
    ref = ray.put(small)
    return ds.map_batches(
        _BroadcastJoiner,
        fn_constructor_kwargs={
            "small_ref": ref,
            "left_on": left_on,
            "right_on": right_on,
            "how": how if how in ("inner", "left") else "inner",
            "semi": semi,
            "anti": anti,
        },
        batch_format="pandas",
        batch_size=65536,
        concurrency=(1, concurrency),
        num_cpus=1,
    )


_SIDE = "__join_side"


def _pa_type(t) -> pa.DataType:
    """Normalize a Dataset.schema() entry to a pyarrow DataType (pandas-
    backed Datasets report numpy dtypes / python classes; object dtype is
    assumed to hold strings)."""
    if isinstance(t, pa.DataType):
        return t
    for py, at in ((str, pa.string()), (bool, pa.bool_()),
                   (int, pa.int64()), (float, pa.float64())):
        if t is py:
            return at
    dt = np.dtype(t)
    if dt == np.dtype(object):
        return pa.string()
    return pa.from_numpy_dtype(dt)


def partitioned_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    left_on: str,
    right_on: str | None = None,
    how: str = "inner",
    num_parts: int | None = None,
    left_schema: "pa.Schema | None" = None,
    right_schema: "pa.Schema | None" = None,
) -> "ray.data.Dataset":
    """Distributed hash-partitioned join of two Datasets (no driver
    materialization, no broadcast -- both sides stream through ONE
    ``by_partition`` exchange and merge per partition).

    ``how`` in {'inner', 'left', 'right', 'full', 'semi', 'anti'} --
    'full' is the SQL FULL OUTER JOIN (keys coalesce into the shared key
    column; unmatched sides carry nulls). Non-key column names
    must be disjoint between the two sides (rename before joining).
    Partitioning assumption (SURVEY.md §2 custom-operator rule): rows of
    both sides with equal key hash land in the same partition -- enforced
    here by hashing the union of both sides on the unified key column, so
    it holds regardless of upstream block layout. ``part`` is the
    exchange's own column, so neither side may carry one.

    Pass ``left_schema`` / ``right_schema`` (pyarrow) when the side is a
    lazy multi-stage pipeline: ``Dataset.schema()`` on such a Dataset
    executes part of the plan, so an explicit schema avoids running the
    upstream pipeline an extra time.
    """
    right_on = right_on or left_on
    lschema = left_schema if left_schema is not None else left.schema()
    rschema = right_schema if right_schema is not None else right.schema()
    lnames = list(lschema.names)
    rnames = list(rschema.names)
    overlap = (set(lnames) & set(rnames)) - {left_on}
    if overlap:
        raise ValueError(
            f"partitioned_join: overlapping non-key columns {sorted(overlap)}; "
            "rename before joining"
        )
    if "part" in lnames or "part" in rnames:
        raise ValueError(
            "partitioned_join: 'part' is the exchange's partition column; "
            "rename it before joining"
        )
    semi_like = how in ("semi", "anti")
    # semi/anti only need the right KEY -- never ship right payload
    rpayload = [] if semi_like else [n for n in rnames if n != right_on]
    ltypes = {n: _pa_type(t) for n, t in zip(lschema.names, lschema.types)}
    rtypes = {n: _pa_type(t) for n, t in zip(rschema.names, rschema.types)}
    out_names = lnames + rpayload
    # the right key rides in the left key's column slot; both sides share
    # the unified schema so the two Datasets union cleanly
    types = {**{n: rtypes[n] for n in rpayload}, **ltypes}

    def _coerce(col, typ: pa.DataType):
        """Force a column to its declared schema type: blocks that have
        round-tripped through pandas may carry drifted types (e.g. Ray's
        tensor extension instead of list<int64>), and the sort exchange
        cannot concatenate mixed-type blocks. Matching columns pass
        through ZERO-COPY (no combine_chunks -- that would byte-copy
        every payload column, including document text, per batch)."""
        if col.type == typ:
            return col
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        try:
            return col.cast(typ)
        except (pa.ArrowInvalid, pa.ArrowNotImplementedError, pa.ArrowTypeError):
            return pa.array(col.to_pylist(), type=typ)

    def unify(side: int):
        def fn(t: pa.Table) -> pa.Table:
            n = len(t)
            # cast BOTH sides' keys to the unified key type BEFORE hashing:
            # the partition hash of int64 and float64 representations of
            # the same value differs, so an int-keyed side joined against a
            # float-keyed side would silently drop matches otherwise (the
            # cast raises on lossy values instead of mis-joining)
            key_col = t[left_on if side == 0 else right_on].cast(types[left_on])
            arrays = []
            for name in out_names:
                if name == left_on:
                    arrays.append(key_col)
                elif (side == 0 and name in lnames) or (side == 1 and name in rpayload):
                    arrays.append(_coerce(t[name], types[name]))
                else:
                    arrays.append(pa.nulls(n, types[name]))
            arrays.append(pa.array(np.full(n, side, dtype=np.int8)))
            return pa.Table.from_arrays(arrays, names=out_names + [_SIDE])

        return fn

    both = left.map_batches(unify(0), batch_format="pyarrow").union(
        right.map_batches(unify(1), batch_format="pyarrow")
    )

    def restore_dtypes(df: pd.DataFrame) -> pd.DataFrame:
        # the union-with-nulls encoding upcasts the OTHER side's int/bool
        # payload columns to float64/object; restore the declared dtype
        # wherever no nulls remain so keys stay hash- and merge-stable
        # through chained joins
        for n in df.columns:
            if n == left_on:
                continue
            try:
                want = np.dtype(types[n].to_pandas_dtype())
            except (TypeError, NotImplementedError):
                continue
            if df[n].dtype != want and not df[n].isna().any():
                df[n] = df[n].astype(want)
        return df

    # empty merge results must still carry the full declared schema: an
    # empty pandas frame round-trips to Arrow with null-typed (or no)
    # columns, which destabilizes the stream's schema and the driver's
    # output serialization (observed as empty-schema RefBundles)
    empty_names = lnames if semi_like else out_names
    empty_schema = pa.schema(
        [(n, (ltypes if semi_like else types)[n]) for n in empty_names]
    )

    def merge(g: pd.DataFrame):
        lmask = g[_SIDE].to_numpy() == 0
        ldf = g.loc[lmask, lnames]
        rkeys = set(g.loc[~lmask, left_on])
        if how == "semi":
            out = ldf[ldf[left_on].isin(rkeys)]
        elif how == "anti":
            out = ldf[~ldf[left_on].isin(rkeys)]
        else:
            rdf = g.loc[~lmask, [left_on] + rpayload]
            pandas_how = {"left": "left", "right": "right", "full": "outer"}.get(
                how, "inner"
            )
            out = ldf.merge(rdf, on=left_on, how=pandas_how)[out_names]
        if len(out) == 0:
            return empty_schema.empty_table()
        return restore_dtypes(out)

    return by_partition(both, left_on, merge, num_parts=num_parts)


def bloom_semi_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    left_on: str,
    right_on: str | None = None,
    how: str = "semi",
    num_bits: int = 1 << 20,
    num_hashes: int = 4,
    exact_verify: bool = True,
    num_parts: int | None = None,
) -> "ray.data.Dataset":
    """Semi/anti join through a BLOOM-FILTER prefilter: the right side's
    keys are folded into a fixed ``num_bits`` bitmap (two-level OR
    reduce; partial bitmaps are batch-bounded at bits/8 bytes each),
    the bitmap is broadcast ONCE via ``ray.put``, and the left side
    drops every key the filter rejects in a stateless per-batch pass.

    This is the scale alternative to ``broadcast_join``'s exact key SET
    when the right side's distinct keys outgrow driver memory: the
    broadcast payload is CONSTANT (128 KiB at the default 2^20 bits)
    regardless of key cardinality. Bloom rejections are exact (no false
    negatives); acceptances are probabilistic, so with
    ``exact_verify=True`` (default) survivors go through the exact
    ``partitioned_join`` semi/anti -- the filter then only PRUNES the
    exchange volume and the result is exactly the semi/anti join. With
    ``exact_verify=False`` the caller accepts the false-positive rate
    ((1 - e^{-kn/m})^k) in exchange for skipping the exchange entirely.

    Hash positions use the engine's shared avalanche hash under
    ``num_hashes`` salts -- deterministic across processes and oracles.
    """
    from .sampling import knuth_hash32

    if how not in ("semi", "anti"):
        raise ValueError(f"bloom_semi_join supports semi/anti, got {how!r}")
    right_on = right_on or left_on
    nb = np.uint64(num_bits)
    nbytes = num_bits // 8

    def positions(keys: np.ndarray) -> list[np.ndarray]:
        return [
            (knuth_hash32(keys, salt=1000 + s) % nb).astype(np.int64)
            for s in range(num_hashes)
        ]

    def build_partial(df: pd.DataFrame) -> pd.DataFrame:
        bits = np.zeros(num_bits, dtype=bool)
        for pos in positions(df[right_on].to_numpy()):
            bits[pos] = True
        return pd.DataFrame({"bm": [np.packbits(bits).tobytes()], "__g": [0]})

    def or_merge(g: pd.DataFrame) -> pd.DataFrame:
        acc = np.zeros(nbytes, dtype=np.uint8)
        for b in g["bm"]:
            acc |= np.frombuffer(b, dtype=np.uint8)
        return pd.DataFrame({"bm": [acc.tobytes()]})

    bm_rows = (
        right.select_columns([right_on])
        .map_batches(build_partial, batch_format="pandas")
        .groupby("__g")
        .map_groups(lambda d: or_merge(d), batch_format="pandas")
        .take_all()
    )  # exactly one 128 KiB row -- driver-bounded by construction
    bits = np.unpackbits(
        np.frombuffer(bm_rows[0]["bm"], dtype=np.uint8)
    ).astype(bool)
    bits_ref = ray.put(bits)

    def bloom_filter(anti: bool):
        # plain tasks, not a fixed actor pool: the bitmap read is a
        # ZERO-COPY local object-store get per task (bool array), and a
        # fixed pool would reserve CPUs even when two filter stages run
        # in one small session (observed deadlock at num_cpus=4)
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            b = ray.get(bits_ref)
            keys = df[left_on].to_numpy()
            hit = np.ones(len(df), dtype=bool)
            for pos in positions(keys):
                hit &= b[pos]
            # bloom-definite misses: exact non-members
            return df[~hit] if anti else df[hit]

        return fn

    if how == "anti" and not exact_verify:
        raise ValueError(
            "anti without exact_verify would drop false-positive keys "
            "that are NOT in the right side -- exact_verify is required"
        )
    filtered = left.map_batches(
        bloom_filter(how == "anti" and not exact_verify),
        batch_format="pandas",
    )
    if not exact_verify:
        return filtered
    if how == "anti":
        # definite misses (pruned by the filter) are already exact
        # non-members; the exact pass only has to re-check the HITS,
        # then the two disjoint sets union
        misses = left.map_batches(bloom_filter(True), batch_format="pandas")
        verified = partitioned_join(
            filtered, right.select_columns([right_on]), left_on=left_on,
            right_on=right_on, how="anti", num_parts=num_parts,
        )
        return misses.union(verified)
    return partitioned_join(
        filtered, right.select_columns([right_on]), left_on=left_on,
        right_on=right_on, how="semi", num_parts=num_parts,
    )


def skew_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    left_on: str,
    right_on: str | None = None,
    how: str = "inner",
    hot_threshold: int = 250_000,
    max_hot_keys: int = 1024,
    num_parts: int | None = None,
    left_schema: "pa.Schema | None" = None,
    right_schema: "pa.Schema | None" = None,
) -> "ray.data.Dataset":
    """Skew-aware join: LEFT keys whose row count reaches
    ``hot_threshold`` are routed around the hash exchange -- their right-
    side slice is broadcast once (``ray.put``) and joined per batch,
    while every cold key takes the normal ``partitioned_join``. This is
    the classic hot-key mitigation: a power-law key (one conversation
    with millions of rows, one customer with most orders) otherwise
    lands its ENTIRE row set in one partition and serializes the stage.

    Assumptions (documented per the custom-operator rule): the hot-key
    LIST is bounded (``max_hot_keys`` guards it -- more hot keys than
    that means the threshold is mis-set, raise rather than degrade) and
    the right-side slice OF THE HOT KEYS fits in the object store (the
    standard skew-join contract; the hot LEFT side -- the big one --
    streams and never materializes).

    ``how`` in {'inner', 'left', 'semi', 'anti'}: result rows equal the
    plain join's exactly (the split is by key, so no row can appear in
    both halves)."""
    if how not in ("inner", "left", "semi", "anti"):
        raise ValueError(f"skew_join supports inner/left/semi/anti, got {how!r}")
    right_on = right_on or left_on

    # 1. distributed per-key counts on the left; collect ONLY keys over
    # the threshold (bounded by max_hot_keys)
    def count_partial(df: pd.DataFrame) -> pd.DataFrame:
        vc = df[left_on].value_counts()
        return pd.DataFrame({"k": vc.index, "c": vc.to_numpy(np.int64)})

    def count_merge(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby("k", sort=False)["c"].sum().reset_index()
        return m[m["c"] >= hot_threshold]

    hot_rows = by_partition(
        left.select_columns([left_on]).map_batches(
            count_partial, batch_format="pandas"
        ),
        "k", count_merge, num_parts=num_parts,
    ).take_all()
    hot_keys = {r["k"] for r in hot_rows}
    if len(hot_keys) > max_hot_keys:
        raise ValueError(
            f"skew_join found {len(hot_keys)} hot keys (> max_hot_keys="
            f"{max_hot_keys}); raise hot_threshold"
        )
    if not hot_keys:
        return partitioned_join(
            left, right, left_on=left_on, right_on=right_on, how=how,
            num_parts=num_parts, left_schema=left_schema,
            right_schema=right_schema,
        )

    hot_ref = ray.put(hot_keys)

    def split(keep_hot: bool):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            hk = ray.get(hot_ref)
            m = df[left_on].isin(hk)
            return df[m] if keep_hot else df[~m]

        return fn

    cold_left = left.map_batches(split(False), batch_format="pandas")
    hot_left = left.map_batches(split(True), batch_format="pandas")

    def rsplit(df: pd.DataFrame) -> pd.DataFrame:
        hk = ray.get(hot_ref)
        return df[~df[right_on].isin(hk)]

    cold_right = right.map_batches(rsplit, batch_format="pandas")
    # the hot right SLICE is bounded by assumption: materialize + broadcast
    hot_right = right.filter(
        lambda r, hk=hot_keys: r[right_on] in hk
    ).to_pandas()
    if len(hot_right) == 0:
        # an empty Ray->pandas round trip drops the schema; rebuild the
        # columns so the broadcast merge keeps its join key (a hot LEFT
        # key with no right rows is perfectly legal)
        rnames = list(
            (right_schema.names if right_schema is not None
             else right.schema().names)
        )
        hot_right = pd.DataFrame({c: pd.Series([], dtype="object")
                                  for c in rnames})

    cold_out = partitioned_join(
        cold_left, cold_right, left_on=left_on, right_on=right_on, how=how,
        num_parts=num_parts, left_schema=left_schema,
        right_schema=right_schema,
    )
    hot_out = broadcast_join(
        hot_left, hot_right, left_on=left_on, right_on=right_on, how=how
    )
    return cold_out.union(hot_out)


def upsert_merge(
    base: "ray.data.Dataset",
    updates: "ray.data.Dataset",
    key: str,
    version_col: str,
    num_parts: int | None = None,
) -> "ray.data.Dataset":
    """CDC-style UPSERT compaction: merge a base table with an update
    stream, keeping for every key the row with the highest
    ``version_col`` (ties prefer the UPDATE side -- the
    last-writer-wins contract of every merge-on-read table format).
    Both sides must share one schema.

    One key-hash exchange of the union; per partition a single stable
    sort + first-per-key pick -- no driver materialization, so the
    "table" side can be arbitrarily large (this is the compaction step
    a snapshot maintenance job runs over partitioned Parquet)."""
    def mark(src: int):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            return df.assign(__src=np.int8(src))

        return fn

    both = base.map_batches(mark(0), batch_format="pandas").union(
        updates.map_batches(mark(1), batch_format="pandas")
    )

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop(columns=["part"])
        g = g.sort_values(
            [key, version_col, "__src"],
            ascending=[True, False, False],
            kind="mergesort",
        )
        out = g.drop_duplicates(subset=[key], keep="first")
        return out.drop(columns=["__src"])

    return by_partition(both, key, pick, num_parts=num_parts)


def reconcile_tables(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    key: str,
    compare_cols: list[str],
    group_col: str | None = None,
    num_parts: int | None = None,
) -> "ray.data.Dataset":
    """Anti-entropy table reconciliation (dataset diff): classify every
    key as 'added' (right only), 'removed' (left only), 'changed' (both
    sides, any compare_col differs) or 'same', and return counts per
    (group_col, status). The validation primitive behind CDC/upsert
    pipelines (pairs with upsert_merge above); no reference analog (the
    reference has no table maintenance surface).

    Scale shape: both sides stream through ONE key-hash exchange of the
    union; per partition a vectorized outer merge + column compare
    collapses immediately to (group, status) count partials, so the
    final exchange is a tiny groupby over |groups| x 4 rows. Full rows
    never reach the driver. NaN == NaN counts as 'same' (documented
    one-sided choice; both oracle and engine pin it).
    """
    def mark(src: int):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            return df.assign(__src=np.int8(src))

        return fn

    both = left.map_batches(mark(0), batch_format="pandas").union(
        right.map_batches(mark(1), batch_format="pandas")
    )

    gcol = group_col if group_col is not None else "__all"

    def diff(g: pd.DataFrame) -> pd.DataFrame:
        l = g[g["__src"] == 0].drop(columns=["__src", "part"])
        r = g[g["__src"] == 1].drop(columns=["__src", "part"])
        m = l.merge(
            r, on=key, how="outer", suffixes=("_l", "_r"), indicator=True
        )
        changed = np.zeros(len(m), dtype=bool)
        for c in compare_cols:
            a, b = m[f"{c}_l"], m[f"{c}_r"]
            changed |= (a.ne(b) & ~(a.isna() & b.isna())).to_numpy()
        status = np.where(
            m["_merge"].to_numpy() == "right_only",
            "added",
            np.where(
                m["_merge"].to_numpy() == "left_only",
                "removed",
                np.where(changed, "changed", "same"),
            ),
        )
        if group_col is None:
            grp = np.repeat("all", len(m))
        else:
            grp = (
                m[f"{group_col}_r"]
                .where(m[f"{group_col}_r"].notna(), m[f"{group_col}_l"])
                .to_numpy()
            )
        out = (
            pd.DataFrame({gcol: grp, "status": status})
            .groupby([gcol, "status"], sort=False)
            .size()
            .rename("n")
            .reset_index()
        )
        out["n"] = out["n"].astype(np.int64)
        return out

    partials = by_partition(both, key, diff, num_parts=num_parts)
    merged = partials.groupby([gcol, "status"]).sum("n")

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return df.rename(columns={"sum(n)": "n"}).astype({"n": np.int64})

    return merged.map_batches(finish, batch_format="pandas")
