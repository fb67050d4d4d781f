"""Concat-and-chunk sequence packing for LLM training-data prep.

Semantics (the standard "concatenate the corpus, cut every ``budget``
tokens" packing used to build fixed-length training sequences): lay the
documents out on one global token axis in ``id_col`` order; each doc's
start offset is the exact prefix sum of all earlier docs' token counts.
From the offset follow the packing facts per doc:

    seq_id        = start // budget      (training sequence it starts in)
    offset_in_seq = start %  budget
    n_seqs        = last_token // budget - seq_id + 1   (sequences spanned)

The global prefix sum is the engine's ordered scan,
``stages.derive.range_scan``, over the slim (id, token count)
projection: a value-order range partition on the id, per-partition
token totals added up on the driver (one int per partition, independent
of corpus size), then one Sort on the partition and a local cumsum plus
the tokens of every earlier partition. Raw text never moves.

Oracle: ``SUM(tokens) OVER (ORDER BY id ROWS BETWEEN UNBOUNDED
PRECEDING AND 1 PRECEDING)`` reproduces the offsets exactly (integer
arithmetic end-to-end).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

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
    the global layout order, the range partitioning and the pinned int64
    output schema. String doc ids must be mapped to an int64 ordinal (or
    a collision-checked hash) upstream; a non-integer id column raises
    TypeError at the first batch rather than corrupting offsets silently.
    """
    from ..stages.derive import range_scan

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

    # every output block carries this exact schema so the stream is
    # schema-stable and the driver's serialization of the result cannot
    # drift with dtype inference
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

    # local ordered cumsum + the tokens of every earlier partition
    def scan(t: pa.Table, before: dict, total: dict, nxt) -> pa.Table:
        t = t.sort_by(id_col)
        tok = t["n_tokens"].to_numpy()
        start = before["n_tokens"] + np.concatenate(([0], np.cumsum(tok)[:-1]))
        seq_id = start // budget
        last = start + np.maximum(tok, 1) - 1  # empty docs occupy their start seq
        return pa.Table.from_arrays(
            [t[id_col], pa.array(tok), pa.array(start), pa.array(seq_id),
             pa.array(start % budget), pa.array(last // budget - seq_id + 1)],
            schema=out_schema,
        )

    packed, total = range_scan(ds.map_batches(slim, batch_format="pandas"), id_col, scan,
                               sums=("n_tokens",), num_parts=num_parts)
    if total["count"] == 0:  # empty corpus: emit the schema, zero rows
        return rd.from_arrow(out_schema.empty_table())
    # canonical output order: the scan emits blocks in partition-
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
