"""Fuzzy string self-join: all pairs within Levenshtein distance 1 via
the symmetric-delete (SymSpell) candidate scheme + exact verification.

Training-data-ops operator (no reference analog): near-identical keys /
titles / names are a canonical dirty-data dedup problem. The scale
shape avoids the O(N^2) cross join entirely: every string emits itself
plus its len(s) single-deletion variants; two strings are within edit
distance 1 iff their variant sets intersect (complete for d <= 1:
substitutions share a common deletion, insert/delete pairs share the
shorter string, equals share themselves), so candidates form inside a
variant-keyed exchange. A second pair-keyed exchange dedups candidates
that share several variants, then an O(len) two-pointer check verifies
each surviving pair exactly -- no DP matrix, no driver materialization.

Skew note: a variant shared by G strings yields G*(G-1)/2 candidate
pairs; for natural-language keys G is small (names differing at one
position). Corpora with degenerate hot variants should cap or salt the
variant groups -- the candidate stage is where that knob lives.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..stages.derive import by_partition


def _edit_le1(s: str, t: str) -> int:
    """Exact Levenshtein distance, answering only {0, 1, 2+} (returns 2
    for anything >= 2); O(len) two-pointer, no DP."""
    if s == t:
        return 0
    ls, lt = len(s), len(t)
    if abs(ls - lt) > 1:
        return 2
    if ls == lt:
        diff = sum(a != b for a, b in zip(s, t))
        return 1 if diff == 1 else 2
    if ls > lt:
        s, t, ls = t, s, lt
    i = 0
    while i < ls and s[i] == t[i]:
        i += 1
    return 1 if s[i:] == t[i + 1:] else 2


def edit1_pairs(
    ds,
    id_col: str,
    str_col: str,
    num_parts: int | None = None,
):
    """Dataset -> all pairs (id_a < id_b, dist) with Levenshtein
    distance <= 1 between their ``str_col`` values. ``dist`` is exact
    (0 for identical strings, else 1)."""

    def variants(df: pd.DataFrame) -> pd.DataFrame:
        ids_out: list = []
        s_out: list = []
        v_out: list = []
        for i, s in zip(df[id_col].to_numpy(), df[str_col].to_numpy()):
            s = "" if s is None else str(s)
            # the string itself + every single-deletion variant
            vs = [s] + [s[:k] + s[k + 1:] for k in range(len(s))]
            v_out.extend(vs)
            ids_out.extend([i] * len(vs))
            s_out.extend([s] * len(vs))
        return pd.DataFrame(
            {
                "v": np.asarray(v_out, dtype=object),
                id_col: np.asarray(ids_out, dtype=np.int64),
                "s": np.asarray(s_out, dtype=object),
            }
        )

    _EMPTY = pd.DataFrame(
        {
            "id_a": pd.Series([], dtype="int64"),
            "id_b": pd.Series([], dtype="int64"),
            "s_a": pd.Series([], dtype="object"),
            "s_b": pd.Series([], dtype="object"),
            "pair": pd.Series([], dtype="int64"),
        }
    )

    def candidates(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(subset=["v", id_col])
        outs = []
        for _, grp in g.groupby("v", sort=False):
            n = len(grp)
            if n < 2:
                continue
            ids = grp[id_col].to_numpy()
            ss = grp["s"].to_numpy()
            ia, ib = np.triu_indices(n, k=1)
            a, b = ids[ia], ids[ib]
            swap = a > b
            outs.append(
                pd.DataFrame(
                    {
                        "id_a": np.where(swap, b, a).astype(np.int64),
                        "id_b": np.where(swap, a, b).astype(np.int64),
                        "s_a": np.where(swap, ss[ib], ss[ia]),
                        "s_b": np.where(swap, ss[ia], ss[ib]),
                    }
                )
            )
        if not outs:
            return _EMPTY.copy()
        out = pd.concat(outs, ignore_index=True).drop_duplicates(
            subset=["id_a", "id_b"]
        )
        # the same pair can surface under several shared variants that
        # hash to DIFFERENT variant partitions: route by pair hash so the
        # second exchange makes the dedup global
        out["pair"] = (
            out["id_a"].to_numpy() * 1_000_003 + out["id_b"].to_numpy()
        )
        return out

    cand = by_partition(
        ds.map_batches(variants, batch_format="pandas"), "v", candidates,
        num_parts=num_parts,
    )

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(subset=["id_a", "id_b"])
        if len(g) == 0:
            return pd.DataFrame(
                {
                    "id_a": pd.Series([], dtype="int64"),
                    "id_b": pd.Series([], dtype="int64"),
                    "dist": pd.Series([], dtype="int64"),
                }
            )
        d = np.fromiter(
            (
                _edit_le1(str(a), str(b))
                for a, b in zip(g["s_a"].to_numpy(), g["s_b"].to_numpy())
            ),
            dtype=np.int64,
            count=len(g),
        )
        keep = d <= 1
        return pd.DataFrame(
            {
                "id_a": g["id_a"].to_numpy()[keep].astype(np.int64),
                "id_b": g["id_b"].to_numpy()[keep].astype(np.int64),
                "dist": d[keep],
            }
        )

    return by_partition(cand, "pair", verify, num_parts=num_parts)
