"""Stage 1: per-turn derived metrics (token length, inter-turn latency),
and the engine's two exchanges: ``by_partition``, the co-partition on a
hashed key, and ``range_scan``, the ordered scan (a global prefix sum
over a value-order range partition; see its docstring).

Ray-Data-first layout:

1. a stateless ``map_batches`` (pyarrow, zero-copy) computes
   ``token_len = utf8_length(text)``;
2. ``by_partition`` tags the stable partition key
   ``part = stable_hash(conv_id) % P`` -- the ONE partitioning key the
   whole engine reuses (SURVEY.md §7) -- sorts on it, and calls the
   partition function once per partition: it orders the partition's
   rows by (conv_id, ts, turn_idx) and computes
   ``latency_us = ts - lag(ts)`` per conversation with one numpy
   lexsort and diff (no per-conversation Python calls -- one vectorized
   pass per partition, so tiny conversations cost nothing extra).

One exchange format: every ``by_partition`` tags in pyarrow, sorts
with the stable Arrow sort and hands its partition function Arrow
tables. A pandas partition function (``batch_format="pandas"``, the
operator library) is wrapped once: it gets each partition converted to
a frame and its frame is converted back, so its exchange is the same
as any other.

One exchange per key: ``by_partition`` records the exchange behind
each Dataset it returns. A lazy chain of exchanges on the same key
and partition count (derive -> ``rollup()`` -> ``merge_rollups()``)
runs as ONE exchange whose partition function applies the chain's
functions in turn, re-tagging ``part`` in between. This holds because
every partition function keeps each output row's key (the contract of
``by_partition``), so the rows a later function sees are exactly the
rows its own exchange would hand it, in the same order. A materialized
input whose blocks are already partitioned on the key (an exchange's
own output, for one) is not sorted again: ``by_partition`` looks at
its blocks' partition ids and runs the partition function over them as
they lie.

Partitioning assumption (documented per SURVEY.md §2 custom-operator
rule): all rows of one conv_id land in one partition; within a
partition, rows are ordered by (conv_id, ts, turn_idx). Downstream
rollup / packing relies only on per-row values, not on this ordering,
because its aggregates are merge-on-read associative partials.

The reference analog is the per-group ``_get_feats`` prep
(tsfeatures.py:887-928) plus m4_data's sort (m4_data.py:106); there it
is a driver-side pandas groupby -- here it is a streaming shuffle that
scales to arbitrarily many conversations.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
from ray.data._internal.arrow_ops import transform_pyarrow
from ray.data.block import BlockAccessor
from ray.data.dataset import Dataset, MaterializedDataset
from ray.data.grouped_data import _apply_udf_to_groups

from . import segments as sg


def stable_part(conv_ids, num_parts: int) -> np.ndarray:
    """Deterministic partition id per conv_id (stable across processes;
    pandas' fixed-key siphash of the values as Python objects, NOT
    Python hash()). An Arrow column hashes each distinct value once,
    through its dictionary encoding: the hash of a value depends only
    on the value, so the ids are those of hashing every row."""
    if isinstance(conv_ids, (pa.Array, pa.ChunkedArray)):
        col = conv_ids.combine_chunks() if isinstance(conv_ids, pa.ChunkedArray) else conv_ids
        try:
            enc = pc.dictionary_encode(col, null_encoding="encode")
        except pa.ArrowNotImplementedError:
            pass
        else:
            h = _hash_distinct(enc.dictionary)[enc.indices.to_numpy(zero_copy_only=False)]
            return (h % np.uint64(num_parts)).astype(np.int64)
    arr = np.asarray(conv_ids, dtype=object)
    return (pd.util.hash_array(arr) % np.uint64(num_parts)).astype(np.int64)


def _hash_distinct(values: pa.Array) -> np.ndarray:
    """``pd.util.hash_array`` of the distinct ``values`` as Python
    objects. Strings and null-free integers skip its re-factorizing and
    its per-value retry: such an integer hashes as its decimal string,
    cast in Arrow here, and a null string as pandas hashes a missing
    value (all ones). Integers with a null are floats to numpy, so they
    keep the general path."""
    if pa.types.is_integer(values.type) and not values.null_count:
        values = values.cast(pa.string())
    if not (pa.types.is_string(values.type) or pa.types.is_large_string(values.type)):
        return pd.util.hash_array(np.asarray(values, dtype=object))
    h = pd.util.hash_array(np.asarray(values, dtype=object), categorize=False)
    if values.null_count:
        h[values.is_null().to_numpy(zero_copy_only=False)] = np.iinfo(np.uint64).max
    return h


def _cluster_cpus() -> int:
    """Logical CPUs of the Ray cluster (8 when it cannot be asked)."""
    try:
        return int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        return 8


def default_num_parts() -> int:
    """Partition count: 2 partitions per cluster CPU, at least 4."""
    return max(4, _cluster_cpus() * 2)


def actor_pool_size(concurrency: int) -> int:
    """Size of a fixed actor pool asked for ``concurrency`` actors:
    capped at cluster CPUs - 1 (at least 1). A pool holding every CPU
    starves the read tasks that feed it, and the plan never finishes."""
    return min(concurrency, max(1, _cluster_cpus() - 1))


def _part_ids(batch: pa.Table, key: str | list[str], num_parts: int) -> np.ndarray:
    """Partition id per row of an Arrow table. One column:
    ``stable_part``; several: ``hash_pandas_object`` of the key columns
    (row-wise, index excluded) mod ``num_parts``."""
    keys = [key] if isinstance(key, str) else list(key)
    if len(keys) == 1:
        return stable_part(batch[keys[0]], num_parts)
    h = pd.util.hash_pandas_object(batch.select(keys).to_pandas(), index=False).to_numpy()
    return (h % np.uint64(num_parts)).astype(np.int64)


def with_part(
    ds: "ray.data.Dataset", key: str | list[str], num_parts: int | None = None
) -> "ray.data.Dataset":
    """Tag every row with ``part = _part_ids(key)`` (a per-batch pyarrow
    map, no exchange; a pandas block is converted to Arrow, an Arrow
    block is passed as it is). The one place the engine computes the
    partition key; ``by_partition`` exchanges on it, and the resumable
    run sinks it as ``partition_cols`` to co-locate without an exchange.
    A ``part`` column already on the input is replaced."""
    if num_parts is None:
        num_parts = default_num_parts()
    return ds.map_batches(_tag, batch_format="pyarrow", fn_args=(key, num_parts))


def _tag(batch: pa.Table, key: str | list[str], num_parts: int) -> pa.Table:
    """``batch`` with ``part`` (re)computed from ``key``, last."""
    part = _part_ids(batch, key, num_parts)
    if "part" in batch.column_names:
        batch = batch.drop_columns(["part"])
    return batch.append_column("part", pa.array(part, type=pa.int64()))


@dataclass(frozen=True)
class _Exchange:
    """What a ``by_partition`` ran to produce a Dataset: the tagged
    input its exchange sorts on ``part``, and the function over each
    partition (Arrow in, Arrow out)."""

    tagged: "ray.data.Dataset"
    key: tuple[str, ...]
    num_parts: int
    fn: object


# output Dataset -> its exchange; recording executes nothing, and
# a materialized Dataset is a new, unrecorded object
_EXCHANGES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _name(fn) -> str:
    return getattr(fn, "__name__", type(fn).__name__)


def _retag(fn, key: tuple[str, ...], num_parts: int, columns: list[str] | None):
    """``t -> fn(t)``, projected to ``columns``, with ``part`` re-tagged
    as ``with_part`` tags it, raising if a row's key no longer hashes to
    the group's partition."""
    def retagged(t: pa.Table) -> pa.Table:
        group = t["part"][0].as_py()
        out = fn(t)
        if columns is not None:
            out = out.select(columns)
        out = _tag(out, list(key), num_parts)
        if pc.any(pc.not_equal(out["part"], group)).as_py():
            raise ValueError(
                f"partition function {_name(fn)} returned rows whose key hashes "
                f"outside their partition ({group}); a fused exchange would keep "
                "them in the wrong partition")
        return out

    return retagged


def _side_tagged(tagged: "ray.data.Dataset", side: int) -> "ray.data.Dataset":
    """Side ``side`` of a several-input exchange: every column but
    ``part`` renamed ``"<side>.<name>"``, plus a ``_side`` column. The
    union of the sides then only null-fills other sides' columns and
    never promotes a type."""
    def prefix(t: pa.Table) -> pa.Table:
        names = [c if c == "part" else f"{side}.{c}" for c in t.column_names]
        return t.rename_columns(names).append_column(
            "_side", pa.array(np.full(len(t), side, dtype=np.int64)))

    return tagged.map_batches(prefix, batch_format="pyarrow")


def _own_side(t: pa.Table, side: int) -> pa.Table:
    """The rows and columns of side ``side`` of a group, under their own
    names (and so their own types), ``part`` last."""
    rows = t.filter(pc.equal(t["_side"], side))
    pre = f"{side}."
    cols = [c for c in t.column_names if c.startswith(pre)]
    return rows.select(cols + ["part"]).rename_columns(
        [c[len(pre):] for c in cols] + ["part"])


def _group_fn(fns: list, fn, key: tuple[str, ...], num_parts: int,
              columns: list[str] | None):
    """The function a fused exchange runs on each group: each input's
    own partition function (None: its rows as they are), re-tagged,
    the inputs' rows concatenated in input order as the exchange
    concatenates its blocks, then ``fn``."""
    steps = [f if f is None else _retag(f, key, num_parts, columns) for f in fns]

    def fused(t: pa.Table) -> pa.Table:
        if len(steps) == 1:
            return fn(steps[0](t))
        outs = []
        for side, step in enumerate(steps):
            own = _own_side(t, side)
            if own.num_rows:
                outs.append(own if step is None else step(own))
        return fn(transform_pyarrow.concat(outs, promote_types=True))

    fused.__name__ = _name(fn)
    return fused


@ray.remote
def _block_parts(block, key: str | list[str], num_parts: int) -> np.ndarray:
    """The sorted distinct partition ids of one block (a pandas block is
    read as Arrow, as the exchange reads it)."""
    return np.unique(_part_ids(BlockAccessor.for_block(block).to_arrow(), key, num_parts))


def _row_blocks(ds: MaterializedDataset) -> list:
    """The refs of the materialized ``ds``'s blocks that hold rows, in
    block order (no Dataset plan executes)."""
    bundles = ds._logical_plan.dag.output_data() or []
    return [ref for b in bundles for ref, meta in b.blocks if meta.num_rows != 0]


def _co_located(ds, key: str | list[str], num_parts: int) -> bool:
    """Whether the materialized ``ds`` is already partitioned on ``key``:
    the partition ids of its blocks, in block order, are strictly
    increasing. Each partition then lies in one block, and the
    partitions come in the order the exchange's sort would emit them.
    One small task per block that holds rows; no row reaches the caller
    and no Dataset plan executes."""
    ids = ray.get([_block_parts.remote(ref, key, num_parts) for ref in _row_blocks(ds)])
    return bool(ids) and bool(np.all(np.diff(np.concatenate(ids)) > 0))


def _in_part_order(t: pa.Table) -> pa.Table:
    """``t`` with its rows stably ordered by ``part``: the order the
    exchange's stable Arrow sort gives them."""
    part = t["part"].to_numpy()
    if np.any(part[1:] < part[:-1]):
        t = t.take(pa.array(np.argsort(part, kind="stable")))
    return t


def _each_partition(fn, prep=None):
    """The exchange's block function: ``prep`` the Arrow block (None: it
    is already tagged and sorted on ``part``), then call ``fn`` once per
    partition in it, in ``part`` order (Ray's own per-group loop)."""
    def run(block: pa.Table):
        if prep is not None:
            block = prep(block)
        yield from _apply_udf_to_groups(fn, block, ["part"], "pyarrow")

    run.__name__ = _name(fn)
    return run


def _on_pandas(fn):
    """``fn`` over pandas frames as a function over Arrow tables: it
    gets its partition as Ray gives any pandas UDF an Arrow block, and
    a frame it returns goes back to Arrow without the index or pandas'
    schema metadata (an Arrow table it returns is kept as it is)."""
    def run(t: pa.Table) -> pa.Table:
        out = fn(BlockAccessor.for_block(t).to_pandas())
        if isinstance(out, pd.DataFrame):
            out = pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata()
        return out

    run.__name__ = _name(fn)
    return run


def by_partition(
    ds: "ray.data.Dataset | list[ray.data.Dataset]",
    key: str | list[str],
    fn,
    *,
    num_parts: int | None = None,
    concurrency: int | None = None,
    batch_format: str = "pandas",
    columns: list[str] | None = None,
) -> "ray.data.Dataset":
    """The engine's co-partition exchange: tag ``part`` from ``key``
    (one column or a list of columns) in pyarrow, stably sort on it,
    then ONE ``map_batches`` over whole blocks that calls ``fn`` once
    per partition. ``fn`` gets every row of each key that hashes to its
    partition (plus the ``part`` column), in input order, whatever the
    input block layout. There is one exchange format, Arrow:
    ``batch_format`` picks only ``fn``'s view of its partition, an Arrow
    table with ``"pyarrow"`` (the store operators), a pandas frame with
    ``"pandas"`` (converted once per partition, and its output frame
    converted back to Arrow). ``part`` is the exchange's own column: an
    input column of that name is overwritten. ``concurrency`` caps the
    partition tasks that run at once (None: Ray Data's default).
    ``columns`` projects the input before ``fn`` sees it.

    Contract: each output row of ``fn`` keeps its key, so it hashes to
    the partition it was computed in.

    Already partitioned (checked, never declared): a single materialized
    input whose blocks are co-located on the key (``_co_located``; an
    exchange's materialized output is) runs no sort. Each block is
    tagged and stably ordered by ``part`` in place, so ``fn`` gets the
    rows, in their order, that the sort would hand it. Any other input
    is sorted.

    Fusion (automatic): when ``ds`` is the unmaterialized output of
    another ``by_partition`` on the same key and partition count, no
    second exchange runs; the fused exchange runs at this call's
    ``concurrency``. The first exchange's function ``fn1`` and ``fn``
    run in the same group, as ``fn(retag(fn1(t)))``:
    ``retag`` re-tags ``part`` from the key (raising ``ValueError`` if a
    row left its partition), so ``fn`` sees the columns and the rows, in
    their order, that its own exchange would give it (the Arrow sort is
    stable). ``ds`` may be a list of Datasets, exchanged as their union:
    each input's own exchange, when it fuses, becomes its side of this
    one, and the sides' rows reach ``fn`` concatenated in input order."""
    keys = (key,) if isinstance(key, str) else tuple(key)
    if num_parts is None:
        num_parts = default_num_parts()
    if batch_format == "pandas":
        fn = _on_pandas(fn)
    inputs = ds if isinstance(ds, list) else [ds]
    recs = [_EXCHANGES.get(d) for d in inputs]
    recs = [r if r is not None and (r.key, r.num_parts) == (keys, num_parts) else None
            for r in recs]

    def tag(d):
        return with_part(d if columns is None else d.select_columns(columns), key, num_parts)

    # each input tags in its own last map: no task wave after the union
    sides = [tag(d) if r is None else r.tagged for d, r in zip(inputs, recs)]
    if not any(recs):  # nothing to fuse: one exchange over the inputs' union
        tagged, run = sides[0].union(*sides[1:]) if len(sides) > 1 else sides[0], fn
    else:
        tagged = sides[0]
        if len(sides) > 1:
            prefixed = [_side_tagged(s, i) for i, s in enumerate(sides)]
            tagged = prefixed[0].union(*prefixed[1:])
        run = _group_fn([r and r.fn for r in recs], fn, keys, num_parts, columns)
    # a materialized Dataset is one input with no exchange record
    if isinstance(ds, MaterializedDataset) and _co_located(ds, key, num_parts):
        def in_place(t: pa.Table) -> pa.Table:
            return _in_part_order(_tag(t if columns is None else t.select(columns), key, num_parts))

        source, per_block = ds, _each_partition(run, in_place)
    else:
        source, per_block = tagged.sort("part"), _each_partition(run)
    out = source.map_batches(per_block, batch_size=None, batch_format="pyarrow",
                             concurrency=concurrency)
    if source is ds:  # keep the block order a plan with a Sort keeps
        # on a context of the output's own: the map shares ``ds``'s
        out = Dataset.copy(out, _deep_copy=True)
        out.context.execution_options.preserve_order = True
    _EXCHANGES[out] = _Exchange(tagged, keys, num_parts, run)
    return out


def _present(t: pa.Table, col: str) -> pa.Table:
    """``t`` without the rows whose ``col`` is null or NaN: a missing
    value has no place in an order (SQL aggregates skip NULL)."""
    missing = pc.is_null(t[col], nan_is_null=True)
    return t.filter(pc.invert(missing)) if pc.any(missing).as_py() else t


def _range_ids(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Range partition id of each value: the number of ``edges`` at or
    below it. It depends only on the value and keeps value order, so
    equal values share a partition, -inf lands first and +inf last."""
    return np.searchsorted(edges, values, side="right")


@ray.remote
def _block_range(block, col: str):
    """(min, max) of the finite values of ``col`` in one block (None:
    it has none)."""
    v = _present(BlockAccessor.for_block(block).to_arrow(), col)[col].to_numpy()
    v = v[np.isfinite(v)]
    return (v.min(), v.max()) if len(v) else None


@ray.remote
def _block_totals(block, col: str, sums: tuple[str, ...], edges: np.ndarray) -> dict:
    """One block's per-partition row count, sum of each of ``sums``
    (int64, or float64 for a float column) and smallest ``col`` value
    (the dtype's largest value where the partition has no row)."""
    t = _present(BlockAccessor.for_block(block).to_arrow(), col)
    v = t[col].to_numpy()
    part = _range_ids(v, edges)
    out = {"count": np.bincount(part, minlength=len(edges) + 1)}
    for s in sums:
        x = t[s].to_numpy()
        out[s] = np.zeros(len(out["count"]), np.float64 if x.dtype.kind == "f" else np.int64)
        np.add.at(out[s], part, x)
    top = np.inf if v.dtype.kind == "f" else np.iinfo(v.dtype).max
    out["first"] = np.full(len(out["count"]), top, v.dtype)
    np.minimum.at(out["first"], part, v)
    return out


def range_scan(
    ds: "ray.data.Dataset",
    col: str,
    fn,
    sums: tuple[str, ...] = (),
    num_parts: int | None = None,
) -> "tuple[ray.data.Dataset, dict]":
    """The engine's ordered-scan exchange: a global prefix scan over
    ``col`` (a numeric column) without a global sort of the rows.

    It materializes ``ds`` (the caller's slim projection) once and drops
    the rows whose ``col`` is null or NaN. Each row's partition is
    ``_range_ids`` over ``num_parts - 1`` edges spread evenly between
    the finite min and max of ``col``: it depends only on the value and
    keeps value order. One task per block yields that block's
    per-partition row count, sums of the ``sums`` columns and smallest
    value, and the driver adds them up (no exchange). Then ONE Sort on
    the partition id and a per-partition map, as ``by_partition`` runs:
    ``fn(t, before, total, nxt)`` is called once per non-empty
    partition, with

    - ``t``: the partition's rows (an Arrow table, ``col`` and the
      other columns of ``ds``, in no particular order);
    - ``before``: the exclusive prefix, ``{"count": rows, s: sum of s}``
      over every row in an earlier partition (every smaller value);
    - ``total``: the same over all rows;
    - ``nxt``: the smallest value of the next non-empty partition (None
      for the last).

    Returns the lazy Dataset of ``fn``'s outputs and ``total`` (computed
    eagerly). Its output is not partitioned on a key, so no
    ``by_partition`` fuses with it."""
    if num_parts is None:
        num_parts = default_num_parts()
    mat = ds.materialize()
    refs = _row_blocks(mat)
    ranges = [r for r in ray.get([_block_range.remote(b, col) for b in refs]) if r]
    lo = min(r[0] for r in ranges) if ranges else 0
    hi = max(r[1] for r in ranges) if ranges else 0
    edges = np.linspace(lo, hi, num_parts + 1)[1:-1]
    parts = ray.get([_block_totals.remote(b, col, tuple(sums), edges) for b in refs])
    names = ["count", *sums]
    acc = {s: np.sum([p[s] for p in parts], axis=0) if parts else np.zeros(num_parts, np.int64)
           for s in names}
    total = {s: acc[s].sum().item() for s in names}
    before = {s: (np.cumsum(acc[s]) - acc[s]).tolist() for s in names}
    nxt: list = [None] * num_parts
    if parts:
        first = np.min([p["first"] for p in parts], axis=0)
        filled = np.flatnonzero(acc["count"])
        for p, q in zip(filled[:-1], filled[1:]):
            nxt[p] = first[q].item()

    def tag(t: pa.Table) -> pa.Table:
        t = _present(t, col)
        return t.append_column("part", pa.array(_range_ids(t[col].to_numpy(), edges)))

    def run(t: pa.Table) -> pa.Table:
        p = t["part"][0].as_py()
        return fn(t.drop_columns(["part"]), {s: before[s][p] for s in names}, total, nxt[p])

    run.__name__ = _name(fn)
    out = mat.map_batches(tag, batch_format="pyarrow").sort("part").map_batches(
        _each_partition(run), batch_size=None, batch_format="pyarrow")
    return out, total


def _add_token_len(batch: pa.Table) -> pa.Table:
    """``token_len = utf8_length(text)`` (pyarrow, zero-copy)."""
    token_len = pc.cast(pc.utf8_length(batch["text"]), pa.int64())
    return batch.append_column("token_len", token_len)


def _latency_per_partition(t: pa.Table) -> pa.Table:
    """``t`` in stable (conv_id, ts, turn_idx) order plus ``latency_us``
    = ts - the previous ts of the same conversation (float64, null on
    its first turn), in the integer unit ``ts`` holds. One
    ``np.lexsort`` and one ``np.diff``."""
    code = sg.codes(t["conv_id"])
    ts = sg.ticks(t["ts"])
    order = np.lexsort((t["turn_idx"].to_numpy(), ts, code))
    code, ts = code[order], ts[order]
    lat = np.diff(ts, prepend=ts[:1]).astype("float64")
    lat[sg.changes(code)] = np.nan
    return t.take(pa.array(order)).append_column("latency_us", sg.float_array(lat))


def with_token_len(ds: "ray.data.Dataset", slim: bool = False) -> "ray.data.Dataset":
    """Transcript rows plus ``token_len`` (a per-batch map, no
    exchange). ``slim=True`` keeps only (conv_id, turn_idx, ts,
    token_len): the one builder of the turn projection every rollup path
    exchanges or sinks."""
    ds = ds.map_batches(_add_token_len, batch_format="pyarrow", batch_size=65536)
    return ds.select_columns(["conv_id", "turn_idx", "ts", "token_len"]) if slim else ds


def derive_turn_metrics(
    ds: "ray.data.Dataset",
    num_parts: int | None = None,
    slim: bool = False,
) -> "ray.data.Dataset":
    """transcripts Dataset -> per-turn derived Dataset
    (schema.DERIVED_SCHEMA + the reusable ``part`` column).

    ``slim=True`` drops the payload columns (role/text/tool) BEFORE the
    shuffle: the rollup path only needs (conv_id, turn_idx, ts,
    token_len), so shipping text through the exchange would multiply the
    shuffle volume several-fold for nothing. The full variant exists for
    per-turn products that must carry text (the per-row text-equality
    invariant is checked against that path).
    """
    return by_partition(with_token_len(ds, slim), "conv_id", _latency_per_partition,
                        num_parts=num_parts, batch_format="pyarrow")


def _dialogue_stats_partition(g: pd.DataFrame) -> pd.DataFrame:
    """Vectorized per-partition conversation stats: one stable sort,
    boolean masks + a single pandas groupby -- no per-conversation
    Python. Turn order is ``turn_idx`` (unique per conv by schema)."""
    g = g.sort_values(["conv_id", "turn_idx"], kind="mergesort")
    same_conv = g["conv_id"].eq(g["conv_id"].shift())
    g = g.assign(
        _is_user=(g["role"] == "user").astype(np.int64),
        _is_assistant=(g["role"] == "assistant").astype(np.int64),
        _is_tool=(g["role"] == "tool").astype(np.int64),
        _is_call=(g["tool"] != "").astype(np.int64),
        _alt=((g["role"] != g["role"].shift()) & same_conv).astype(np.int64),
        _user_chars=np.where(g["role"] == "user", g["token_len"], 0),
        _asst_chars=np.where(g["role"] == "assistant", g["token_len"], 0),
        # normalize the datetime unit first: pandas 2.x preserves the
        # source resolution (us from parquet, but ns/s from in-memory
        # frames), and a bare int64 cast would change scale with it
        _ts_us=g["ts"].astype("datetime64[us]").astype("int64"),
    )
    grp = g.groupby("conv_id", sort=False)
    out = grp.agg(
        n_turns=("turn_idx", "size"),
        n_user=("_is_user", "sum"),
        n_assistant=("_is_assistant", "sum"),
        n_tool=("_is_tool", "sum"),
        n_tool_calls=("_is_call", "sum"),
        user_chars=("_user_chars", "sum"),
        assistant_chars=("_asst_chars", "sum"),
        alternations=("_alt", "sum"),
        _ts_min=("_ts_us", "min"),
        _ts_max=("_ts_us", "max"),
        avg_turn_len=("token_len", "mean"),
    )
    # distinct non-empty tool names (nunique skips nothing by itself;
    # mask empties first so "" never counts as a tool)
    tools = g.loc[g["_is_call"] == 1].groupby("conv_id", sort=False)["tool"].nunique()
    out["n_distinct_tools"] = tools.reindex(out.index).fillna(0).astype(np.int64)
    out["duration_us"] = out["_ts_max"] - out["_ts_min"]
    out = out.drop(columns=["_ts_min", "_ts_max"]).reset_index()
    cols = [
        "conv_id", "n_turns", "n_user", "n_assistant", "n_tool",
        "n_tool_calls", "n_distinct_tools", "user_chars",
        "assistant_chars", "alternations", "duration_us", "avg_turn_len",
    ]
    out = out[cols]
    for c in cols[1:-1]:
        out[c] = out[c].astype(np.int64)
    out["avg_turn_len"] = out["avg_turn_len"].astype("float64")
    return out


def dialogue_stats(
    ds: "ray.data.Dataset",
    num_parts: int | None = None,
) -> "ray.data.Dataset":
    """Per-conversation dialogue statistics over raw transcripts: turn /
    role counts, tool-call count and distinct tools used, per-role
    character volume, role-ALTERNATION count (turn-taking: how often the
    speaker changes between consecutive turns), wall-clock duration and
    mean turn length.

    The transcripts-native sibling of ``derive_turn_metrics``: the same
    ONE ``stable_part(conv_id)`` exchange (role/text payload is reduced
    to token_len + role flags BEFORE the shuffle -- only (conv_id,
    turn_idx, role, tool, ts, token_len) moves, never text), then a
    single vectorized pandas pass per partition. No reference analog
    (the reference never looks at payload columns); engine scope for
    transcript-corpus curation -- e.g. filtering conversations by
    tool-usage or turn-taking profile before feature extraction.
    """
    def slim(batch: pa.Table) -> pa.Table:
        return _add_token_len(batch).select(
            ["conv_id", "turn_idx", "role", "tool", "ts", "token_len"])

    return by_partition(
        ds.map_batches(slim, batch_format="pyarrow", batch_size=65536),
        "conv_id", _dialogue_stats_partition, num_parts=num_parts,
    )


def role_transitions(
    ds: "ray.data.Dataset",
    num_parts: int | None = None,
) -> "ray.data.Dataset":
    """Corpus-wide role-TRANSITION matrix over transcripts: counts of
    (previous role -> role) across consecutive turns within each
    conversation -- the turn-taking structure statistic (who speaks
    after whom; e.g. how often a tool result is followed by another
    tool call). Same one conv-hash exchange as dialogue_stats, each
    partition reduced to at most |roles|^2 partial rows, then a tiny
    single-group fold."""
    def slim(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [
                batch["conv_id"].combine_chunks(),
                batch["turn_idx"].combine_chunks(),
                batch["role"].combine_chunks(),
            ],
            names=["conv_id", "turn_idx", "role"],
        )

    def count_pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "turn_idx"], kind="mergesort")
        same = g["conv_id"].eq(g["conv_id"].shift())
        pairs = pd.DataFrame(
            {"role_from": g["role"].shift()[same], "role_to": g["role"][same]}
        )
        out = (
            pairs.groupby(["role_from", "role_to"], sort=False)
            .size()
            .rename("n")
            .reset_index()
        )
        out["__g"] = 0
        return out

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        out = (
            g.groupby(["role_from", "role_to"], sort=False)["n"]
            .sum()
            .reset_index()
        )
        out["n"] = out["n"].astype(np.int64)
        return out

    return (
        by_partition(
            ds.map_batches(slim, batch_format="pyarrow", batch_size=65536),
            "conv_id", count_pairs, num_parts=num_parts,
        )
        .groupby("__g")
        .map_groups(
            lambda d: fold(d.drop(columns=["__g"])), batch_format="pandas"
        )
    )


def topic_drift(ds, num_parts: int | None = None):
    """Within-conversation topic drift: cosine similarity between the
    word-count histograms of a conversation's first and second half
    (split at 2*turn_idx < n_turns over the contiguous 0-based
    ordinal). Low cosine = the conversation changed subject. Emits
    (conv_id, tokens_first, tokens_second, cosine_halves) with NaN
    when either half has no tokens (e.g. single-turn conversations).

    All inner products accumulate as exact int64 counts; the one
    division/sqrt is the pinned expression the SQL oracle evaluates.

    Scale shape: per-batch tokenization emits (conv, turn, token,
    count) partials -- the TEXT never shuffles, only bounded token
    counts -- and ONE ``stable_part(conv_id)`` exchange co-locates
    each conversation, whose half split and cosine then run locally."""
    import re

    word = re.compile(r"[a-z]+")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        convs, turns, toks, cnts = [], [], [], []
        for c, ti, txt in zip(
            df["conv_id"].to_numpy(),
            df["turn_idx"].to_numpy(),
            df["text"].to_numpy(),
        ):
            vc: dict = {}
            for w in word.findall((txt or "").lower()):
                vc[w] = vc.get(w, 0) + 1
            convs.extend([c] * len(vc))
            turns.extend([ti] * len(vc))
            toks.extend(vc.keys())
            cnts.extend(vc.values())
        # marker rows (cnt 0) carry each conv's batch-max turn_idx so n
        # counts token-less turns too (the SQL mx CTE sees ALL turns)
        mk = (
            pd.DataFrame(
                {"conv_id": df["conv_id"], "turn_idx": df["turn_idx"]}
            )
            .groupby("conv_id", sort=False)["turn_idx"]
            .max()
            .reset_index()
        )
        convs.extend(mk["conv_id"].tolist())
        turns.extend(mk["turn_idx"].astype(int).tolist())
        toks.extend([""] * len(mk))
        cnts.extend([0] * len(mk))
        out = pd.DataFrame(
            {
                "conv_id": np.asarray(convs, dtype=object),
                "turn_idx": np.asarray(turns, dtype=np.int64)
                if turns
                else pd.Series([], dtype="int64"),
                "token": pd.Series(toks, dtype="object"),
                "cnt": np.asarray(cnts, dtype=np.int64)
                if cnts
                else pd.Series([], dtype="int64"),
            }
        )
        return out

    def drift(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for conv, gc in g.groupby("conv_id", sort=True):
            n = int(gc["turn_idx"].max()) + 1
            gc = gc[gc["cnt"] > 0]  # drop the max-turn marker rows
            if len(gc) == 0:
                continue  # no tokens at all: SQL emits no row either
            half = (2 * gc["turn_idx"].to_numpy() >= n).astype(np.int64)
            piv = (
                pd.DataFrame(
                    {"half": half, "token": gc["token"], "cnt": gc["cnt"]}
                )
                .groupby(["token", "half"], sort=False)["cnt"]
                .sum()
                .unstack("half", fill_value=0)
            )
            c1 = piv[0].to_numpy(dtype=np.int64) if 0 in piv else None
            c2 = piv[1].to_numpy(dtype=np.int64) if 1 in piv else None
            n1 = int(c1.sum()) if c1 is not None else 0
            n2 = int(c2.sum()) if c2 is not None else 0
            if c1 is None or c2 is None:
                cos = np.nan
            else:
                num = int((c1 * c2).sum())
                a2, b2 = int((c1 * c1).sum()), int((c2 * c2).sum())
                if a2 == 0 or b2 == 0:
                    cos = np.nan
                else:
                    cos = float(num) / (np.sqrt(float(a2)) * np.sqrt(float(b2)))
            r = cos + 1e-7
            rows.append(
                (
                    conv, n1, n2,
                    np.sign(r) * np.floor(np.abs(r) * 1e6 + 0.5) / 1e6,
                )
            )
        return pd.DataFrame(
            rows,
            columns=["conv_id", "tokens_first", "tokens_second",
                     "cosine_halves"],
        ).astype({"tokens_first": np.int64, "tokens_second": np.int64})

    return by_partition(
        ds.map_batches(partial, batch_format="pandas"), "conv_id", drift,
        num_parts=num_parts,
    )
