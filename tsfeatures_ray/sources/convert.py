"""Panel layout converters: the analog of the reference's data-prep ops
(reference m4_data.py:82-99 ``pd.wide_to_long`` melt + dropna,
m4_data.py:109-115 per-series date synthesis, m4_data.py:79 ``nrows``
truncation -> ``ds.limit``; m4_data.py:105 concat -> ``ds.union``).

Ray-Data-first, Arrow in and Arrow out: the melt (``wide_to_long``) is
a stateless ``map_batches`` of offset arithmetic, and the pack
(``long_to_wide``) is one ``by_partition`` exchange whose partition
function is the engine's one long-panel packer,
``stages.pack.pack_long``. No driver-side pandas on the full data.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from ..stages import segments as sg
from ..stages.derive import by_partition
from ..stages.pack import pack_long, ragged


def wide_to_long(ds: "rd.Dataset") -> "rd.Dataset":
    """Explode a wide panel (unique_id, seasonality, y=list<double>) to a
    long panel (unique_id, ds, y) -- the inverse of packing; analog of
    the reference's wide_to_long melt (m4_data.py:82-84). Pure per-batch
    transform (no shuffle): each wide row carries its whole series."""

    def explode(t: pa.Table) -> pa.Table:
        off, flat = ragged(t["y"])
        lengths = np.diff(off)
        return pa.table(
            {
                "unique_id": sg.take(pc.cast(t["unique_id"], pa.string()),
                                     np.repeat(np.arange(len(t)), lengths)),
                "ds": pa.array(np.arange(off[-1]) - np.repeat(off[:-1], lengths)),
                "y": pa.array(flat, type=pa.float64()),
            }
        )

    return ds.map_batches(explode, batch_format="pyarrow")


def long_to_wide(
    ds: "rd.Dataset", seasonality: int = 1, num_parts: int | None = None
) -> "rd.Dataset":
    """Pack a long panel (unique_id, ds, y) into wide rows with list
    cells -- the reference's wide format (tsfeatures.py:1014-1016). One
    shuffle on the series key, Arrow in and Arrow out: each partition
    packs through ``stages.pack.pack_long``."""

    def pack(t: pa.Table) -> pa.Table:
        return pack_long(t, seasonality)

    return by_partition(ds, "unique_id", pack, num_parts=num_parts, batch_format="pyarrow")


def train_test_split(
    ds: "rd.Dataset", horizon: int, num_parts: int | None = None,
    short: str = "raise",
) -> tuple["rd.Dataset", "rd.Dataset"]:
    """Per-series holdout split of a long panel (unique_id, ds, y): the
    LAST ``horizon`` observations of every series become the test panel,
    the rest the train panel -- the reference's M4 prep shape
    (m4_data.py:88-106: per-uid length via groupby-max, then offset
    split). One shuffle on the series key, shared by both outputs via a
    materialized tagged table; no driver-side pandas.

    ``short`` sets the policy for series with length <= horizon (whose
    train side would be empty, turning downstream scale factors like
    mase into silent NaN): 'raise' (default, matching the reference M4
    prep's implicit length assumption), 'all_test' (keep them, entirely
    in the test panel), or 'drop' (exclude them from both panels)."""
    if short not in ("raise", "all_test", "drop"):
        raise ValueError(f"train_test_split: unknown short policy {short!r}")

    def tag(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["unique_id", "ds"], kind="mergesort")
        uid = g["unique_id"].astype(str).to_numpy()
        first = np.flatnonzero(np.r_[True, uid[1:] != uid[:-1]])
        counts = np.diff(np.r_[first, len(uid)])
        is_short = counts <= horizon
        if is_short.any() and short == "raise":
            bad = uid[first[is_short][0]]
            raise ValueError(
                f"train_test_split: series {bad!r} has length "
                f"{int(counts[is_short][0])} <= horizon {horizon}; the "
                "train side would be empty (downstream scale factors like "
                "mase would silently become NaN). Pass short='all_test' "
                "or short='drop' to override."
            )
        pos = np.arange(len(uid)) - np.repeat(first, counts)
        is_test = pos >= np.repeat(counts - horizon, counts)
        out = g.drop(columns=["part"])
        out["_test"] = is_test
        if is_short.any() and short == "drop":
            out = out[~np.repeat(is_short, counts)]
        return out

    tagged = by_partition(ds, "unique_id", tag, num_parts=num_parts).materialize()
    train = tagged.filter(expr="_test == False").drop_columns(["_test"])
    test = tagged.filter(expr="_test == True").drop_columns(["_test"])
    return train, test


def synth_date_range(
    ds: "rd.Dataset", start_us: int = 0, step_us: int = 86_400_000_000
) -> "rd.Dataset":
    """Attach synthetic evenly spaced timestamps to a long panel ordered
    by (unique_id, ds) -- analog of the reference's per-series
    pd.date_range synthesis (m4_data.py:109-115)."""

    def attach(t: pa.Table) -> pa.Table:
        ts = pa.array(
            start_us + np.asarray(t["ds"]) * step_us, type=pa.timestamp("us")
        )
        return t.append_column("ts", ts)

    return ds.map_batches(attach, batch_format="pyarrow")
