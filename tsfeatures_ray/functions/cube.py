"""Multi-level (GROUPING SETS / CUBE / ROLLUP) aggregation in ONE pass
over the input and ONE exchange -- the OLAP summary operator the
reference lacks (its only key is ever ``unique_id``, SURVEY.md §1.1).

The naive construction (one ``groupby`` per grouping set) re-reads and
re-shuffles the input S times. Here every batch is pre-aggregated ONCE
per grouping set *inside* ``map_batches`` -- so what enters the exchange
is S tiny partial tables per batch, each bounded by the batch's distinct
key combinations, never by its row count -- and a single hash exchange on
``(set_id, key values)`` merges the partials (count/sum are added,
min/max are folded; all associative). The classic partial+merge rollup
shape (stages/rollup.py) generalized to several key sets at once.

Output: one row per (grouping set, key combination) carrying every key
column (NULL where the set does not group by it), the aggregates, and
``grouping_id`` -- the SQL ``GROUPING(k1, .., kn)`` bitmask with the SQL
convention (FIRST key = most significant bit; bit set when the key is
NOT part of the row's set), so results align column-for-column with a
DuckDB GROUPING SETS oracle.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..stages.derive import by_partition

_COMBO = "__gs_combo"
_SET = "__gs_set"


def _normalize_sets(
    keys: list[str], sets: list[list[str]] | None, mode: str
) -> list[list[str]]:
    if sets is not None:
        for s in sets:
            unknown = set(s) - set(keys)
            if unknown:
                raise ValueError(f"grouping set {s} uses unknown keys {unknown}")
        return [list(s) for s in sets]
    if mode == "cube":
        out = []
        for mask in range(1 << len(keys)):
            out.append([k for i, k in enumerate(keys) if mask & (1 << i)])
        return out
    if mode == "rollup":
        return [keys[:i] for i in range(len(keys), -1, -1)]
    raise ValueError(f"mode must be 'cube' or 'rollup', got {mode!r}")


def grouping_sets_agg(
    ds: "ray.data.Dataset",
    keys: list[str],
    value_col: str,
    sets: list[list[str]] | None = None,
    mode: str = "cube",
    num_parts: int | None = None,
) -> "ray.data.Dataset":
    """One-exchange GROUPING SETS aggregation of ``value_col``:
    ``n`` (non-null count), ``total`` (sum), ``vmin``, ``vmax`` per
    (set, key combination), plus the ``grouping_id`` bitmask.

    ``sets`` gives the explicit grouping sets; otherwise ``mode`` builds
    the full ``cube`` (all 2^k subsets) or the ``rollup`` ladder
    (k, k-1, ..., ()) over ``keys``.
    """
    gsets = _normalize_sets(keys, sets, mode)
    kbits = {k: 1 << (len(keys) - 1 - i) for i, k in enumerate(keys)}
    gids = [sum(kbits[k] for k in keys if k not in s) for s in gsets]

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        val = df[value_col]
        for sid, (s, gid) in enumerate(zip(gsets, gids)):
            if s:
                g = df.groupby(s, dropna=False, sort=False)[value_col]
                p = g.agg(n="count", total="sum", vmin="min", vmax="max")
                p = p.reset_index()
            else:
                p = pd.DataFrame(
                    {
                        "n": [val.count()],
                        "total": [val.sum()],
                        "vmin": [val.min()],
                        "vmax": [val.max()],
                    }
                )
            for k in keys:
                if k not in s:
                    # dtype-preserving all-null column (NaT for datetime,
                    # NaN for object): keeps the concat result dtype
                    # stable across pandas versions, so null values
                    # stringify identically in every batch and the
                    # partition assignment below can never split a group
                    p[k] = df[k].iloc[:0].reindex(p.index)
            p[_SET] = sid
            outs.append(p[keys + [_SET, "n", "total", "vmin", "vmax"]])
        out = pd.concat(outs, ignore_index=True)
        combo = out[_SET].astype(str)
        for k in keys:
            s_k = out[k]
            # normalize EVERY null spelling (None/NaT/NaN) to one token
            combo = combo + "\x1f" + pd.Series(
                np.where(s_k.isna(), "\x00", s_k.astype(str)), index=out.index
            )
        out[_COMBO] = combo.to_numpy()
        return out

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop(columns=[_COMBO, "part"])
        m = (
            g.groupby([_SET] + keys, dropna=False, sort=False)
            .agg(
                n=("n", "sum"),
                total=("total", "sum"),
                vmin=("vmin", "min"),
                vmax=("vmax", "max"),
            )
            .reset_index()
            # an all-null key comes back float64: keep each key's dtype,
            # so every partition's output has one Arrow type per key
            .astype(g[keys].dtypes.to_dict())
        )
        m["grouping_id"] = np.array(gids, dtype=np.int64)[m[_SET].to_numpy()]
        m["n"] = m["n"].astype(np.int64)
        # SQL SUM over an all-NULL group is NULL; pandas sums to 0.0
        m.loc[m["n"] == 0, "total"] = np.nan
        return m[keys + ["grouping_id", "n", "total", "vmin", "vmax"]]

    return by_partition(
        ds.select_columns(keys + [value_col]).map_batches(
            partial, batch_format="pandas"
        ),
        _COMBO, merge, num_parts=num_parts,
    )
