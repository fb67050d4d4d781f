"""Concat-and-chunk sequence packing for LLM training-data prep.

Semantics (the standard "concatenate the corpus, cut every ``budget``
tokens" packing used to build fixed-length training sequences): lay the
documents out on one global token axis in ``id_col`` order; each doc's
start offset is the exact prefix sum of all earlier docs' token counts.
From the offset follow the packing facts per doc:

    seq_id        = start // budget      (training sequence it starts in)
    offset_in_seq = start %  budget
    n_seqs        = last_token // budget - seq_id + 1   (sequences spanned)

The global prefix sum is computed scalably in two passes -- the classic
distributed scan:

  1. contiguous RANGE partitioning on the key (``part = key // span`` --
     order-preserving, no shuffle of raw text; only (part, token_count)
     partials are aggregated) -> per-partition token totals, a
     ``num_parts``-row table;
  2. the tiny totals table is prefix-summed on the driver (bounded:
     one int per partition, independent of corpus size) and broadcast;
     one ``groupby(part).map_groups`` then emits local cumsum + the
     partition's base offset.

Oracle: ``SUM(tokens) OVER (ORDER BY id ROWS BETWEEN UNBOUNDED
PRECEDING AND 1 PRECEDING)`` reproduces the offsets exactly (integer
arithmetic end-to-end).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data as rd


def pack_sequences(
    ds: "rd.Dataset",
    budget: int = 2048,
    id_col: str = "doc_id",
    tokens_col: str | None = None,
    text_col: str = "text",
    num_parts: int | None = None,
) -> "rd.Dataset":
    """Assign every document its global token offset and packing facts.

    ``tokens_col``: integer token counts; if None, falls back to the
    character count of ``text_col`` as the token proxy (any upstream
    tokenizer's count column plugs in). Returns one row per doc:
    (id, n_tokens, start, seq_id, offset_in_seq, n_seqs).

    ``id_col`` values must be unique AND integer-typed -- they define
    the global layout order, the contiguous range partitioning
    (``(key - lo) // span``), and the pinned int64 output schema.
    String doc ids must be mapped to an int64 ordinal (or a collision-
    checked hash) upstream; a non-integer id column raises TypeError at
    the first batch rather than corrupting offsets silently.
    """
    from ..stages.derive import default_num_parts

    if num_parts is None:
        num_parts = default_num_parts()

    def slim(df: pd.DataFrame) -> pd.DataFrame:
        ids = df[id_col].to_numpy()
        if not np.issubdtype(ids.dtype, np.integer):
            raise TypeError(
                f"pack_sequences requires an integer id_col; got "
                f"{id_col!r} with dtype {ids.dtype}. Map string/float "
                "ids to an int64 ordinal upstream."
            )
        if tokens_col is not None:
            tokv = df[tokens_col].to_numpy()
            if not np.issubdtype(tokv.dtype, np.integer):
                raise TypeError(
                    f"pack_sequences requires integer token counts; got "
                    f"{tokens_col!r} with dtype {tokv.dtype}."
                )
            tok = tokv.astype(np.int64)
        else:
            tok = df[text_col].fillna("").str.len().to_numpy().astype(np.int64)
        return pd.DataFrame(
            {id_col: ids.astype(np.int64), "n_tokens": tok}
        )

    # materialize the slim (id, count) projection ONCE -- 16 bytes/row,
    # object-store resident (spills if huge); the three consumers below
    # (key range, totals, scan) would otherwise each re-read the corpus
    slimmed = ds.map_batches(slim, batch_format="pandas").materialize()

    # contiguous range partition: order-preserving, so per-partition
    # cumsum + partition base offset == the global prefix sum
    rng = _key_range(slimmed, id_col)
    if rng is None:  # empty corpus: emit the schema, zero rows
        return rd.from_pandas(
            pd.DataFrame(
                {
                    c: np.array([], dtype=np.int64)
                    for c in (id_col, "n_tokens", "start", "seq_id",
                              "offset_in_seq", "n_seqs")
                }
            )
        )
    lo, hi = rng
    span = max(1, (hi - lo + num_parts) // num_parts)

    def add_part(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["part"] = (df[id_col].to_numpy() - lo) // span
        return df

    parted = slimmed.map_batches(add_part, batch_format="pandas")

    # pass 1: per-partition totals (bounded num_parts rows -> driver)
    totals = parted.groupby("part").sum("n_tokens").to_pandas()
    totals = totals.sort_values("part")
    base = dict(
        zip(
            totals["part"].to_numpy(),
            np.concatenate(([0], np.cumsum(totals["sum(n_tokens)"].to_numpy())[:-1])),
        )
    )
    base_ref = ray.put(base)

    # every output block carries this exact schema (empty groups included)
    # so the stream is schema-stable and the driver's serialization of the
    # result cannot drift with dtype inference
    out_schema = pa.schema(
        [
            (id_col, pa.int64()),
            ("n_tokens", pa.int64()),
            ("start", pa.int64()),
            ("seq_id", pa.int64()),
            ("offset_in_seq", pa.int64()),
            ("n_seqs", pa.int64()),
        ]
    )

    # pass 2: local ordered cumsum + broadcast base offset
    def scan(g: pd.DataFrame) -> pa.Table:
        if len(g) == 0:
            return out_schema.empty_table()
        b = ray.get(base_ref)
        g = g.sort_values(id_col, kind="mergesort")
        tok = g["n_tokens"].to_numpy()
        start = int(b[int(g["part"].iloc[0])]) + np.concatenate(
            ([0], np.cumsum(tok)[:-1])
        )
        seq_id = start // budget
        last = start + np.maximum(tok, 1) - 1  # empty docs occupy their start seq
        return pa.Table.from_arrays(
            [
                pa.array(g[id_col].to_numpy().astype(np.int64)),
                pa.array(tok),
                pa.array(start),
                pa.array(seq_id),
                pa.array(start % budget),
                pa.array(last // budget - seq_id + 1),
            ],
            schema=out_schema,
        )

    packed = parted.groupby("part").map_groups(scan, batch_format="pandas")
    # canonical output order: map_groups emits blocks in partition-
    # completion order, which is nondeterministic across runs/CPU counts;
    # ids are unique, so sorting pins a total row order for row-order-
    # sensitive consumers (the slim 6-int64-wide table keeps the sort
    # exchange cheap even at corpus scale)
    return packed.sort(id_col)


def pack_sql(table: str, budget: int, id_col: str = "doc_id") -> str:
    """DuckDB oracle for pack_sequences(tokens=char count of text).
    ``table`` is any FROM-able expression (view name or read_parquet)."""
    return f"""
WITH toks AS (
    SELECT {id_col}, CAST(length(text) AS BIGINT) AS n_tokens
    FROM {table}
),
scan AS (
    -- DuckDB window SUM(BIGINT) yields HUGEINT, which pandas fetches as
    -- float64; CAST back to BIGINT (and cast the derived columns) so the
    -- oracle dtype matches the engine's int64 output.
    SELECT {id_col}, n_tokens,
           CAST(COALESCE(SUM(n_tokens) OVER (ORDER BY {id_col}
               ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
               AS BIGINT) AS start
    FROM toks
)
SELECT {id_col}, n_tokens, start,
       CAST(start // {budget} AS BIGINT) AS seq_id,
       CAST(start % {budget} AS BIGINT) AS offset_in_seq,
       CAST((start + GREATEST(n_tokens, 1) - 1) // {budget}
           - start // {budget} + 1 AS BIGINT) AS n_seqs
FROM scan
"""


def _key_range(ds: "rd.Dataset", id_col: str) -> tuple[int, int] | None:
    agg = ds.aggregate(
        rd.aggregate.Min(id_col), rd.aggregate.Max(id_col)
    )
    if not agg or agg.get(f"min({id_col})") is None:  # empty input
        return None
    return int(agg[f"min({id_col})"]), int(agg[f"max({id_col})"])


# bin ids embed the partition: a fixed default count, not the CPU-derived one
_BIN_PARTS = 16


def pack_bins(
    ds: "ray.data.Dataset",
    capacity: int,
    id_col: str = "doc_id",
    size_col: str | None = None,
    text_col: str = "text",
    num_parts: int | None = None,
) -> "ray.data.Dataset":
    """Whole-document BIN PACKING: assign each document to a
    fixed-capacity bin WITHOUT splitting it -- the no-truncation
    counterpart of ``pack_sequences`` (which concatenates and chunks).
    This is the packing mode for example-boundary-preserving training
    (SFT-style), where a document must never straddle sequences.

    First-fit-decreasing per hash partition: docs sort by (size DESC,
    id), each doc takes the first open bin it fits (the classic 11/9
    OPT + 6/9 guarantee holds per partition). Bins are partition-local
    -- ``bin_id = part * 2^32 + local`` -- so no cross-partition state
    exists. The assignment depends neither on the block layout (partition
    membership is the content hash, the in-partition order is total)
    nor, with ``num_parts`` None (``_BIN_PARTS``), on the CPU count. Docs LARGER
    than the capacity each get a dedicated bin and ``oversize = 1``
    (the caller's policy decision; nothing is silently truncated).

    The greedy loop is per-document WITHIN a partition -- inherent to
    bin packing's sequential decision structure; the distributed shape
    is partition-parallel with a documented per-partition bound.

    Output: ``(id, size:int64, bin_id:int64, oversize:int64)``.
    """
    from ..stages.derive import by_partition

    if capacity <= 0:
        raise ValueError("capacity must be positive")

    def slim(df: pd.DataFrame) -> pd.DataFrame:
        if size_col is not None:
            size = df[size_col].to_numpy(np.int64)
        else:
            size = df[text_col].str.len().to_numpy(np.int64)
        return pd.DataFrame({id_col: df[id_col], "size": size})

    def ffd(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["size", id_col], ascending=[False, True],
                          kind="mergesort")
        part = int(g["part"].iloc[0])
        base = part << 32
        sizes = g["size"].to_numpy(np.int64)
        fills: list[int] = []  # open-bin fill levels, index = local bin id
        bin_of = np.empty(len(g), dtype=np.int64)
        oversize = np.zeros(len(g), dtype=np.int64)
        for i, s in enumerate(sizes):
            if s > capacity:
                bin_of[i] = base + len(fills)
                fills.append(int(s))  # full -- nothing else fits
                oversize[i] = 1
                continue
            for b, f in enumerate(fills):
                if f + s <= capacity:
                    bin_of[i] = base + b
                    fills[b] = f + s
                    break
            else:
                bin_of[i] = base + len(fills)
                fills.append(int(s))
        return pd.DataFrame(
            {
                id_col: g[id_col].to_numpy(),
                "size": sizes,
                "bin_id": bin_of,
                "oversize": oversize,
            }
        )

    return by_partition(
        ds.map_batches(slim, batch_format="pandas"), id_col, ffd,
        num_parts=_BIN_PARTS if num_parts is None else num_parts,
    )
