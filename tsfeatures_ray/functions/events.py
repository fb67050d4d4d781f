"""Event-funnel and cohort-retention analytics over a keyed event log.

Product-analytics operators the reference (a per-series feature
library) has no analog for, but any events table of this shape needs:
``funnel_conversion`` finds each key's earliest strictly-ordered
completion of a step sequence (view -> click -> purchase), and
``cohort_retention`` builds the classic first-seen-day x day-offset
distinct-user retention matrix.

Scale shape (ray_guide pattern): ONE bounded exchange co-locating each
key's events on its hash partition, then per-partition vectorized
pandas passes -- per-STEP loops (bounded, e.g. 3) but never per-key
Python loops. Cohort partials are exact per partition (keys do not
straddle partitions), so the final merge is a tiny second exchange
over (cohort_day, day_offset) partial counts.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..stages._util import ts_to_us
from ..stages.derive import by_partition

_DAY_US = 86_400_000_000
_NAT_I64 = np.iinfo(np.int64).min  # int64 min IS datetime64 NaT


def funnel_conversion(
    ds,
    steps: tuple[str, ...] = ("view", "click", "purchase"),
    key: str = "user_id",
    ts: str = "ts",
    type_col: str = "event_type",
    num_parts: int | None = None,
):
    """Events Dataset -> one row per distinct key: ``t_<step>`` (the
    earliest completion time of each funnel step, NaT once the funnel
    stalls) and ``steps_completed``.

    Semantics (the classic first-match funnel, exactly the iterated
    ``MIN(ts) ... WHERE ts > t_prev`` SQL construction): t_1 is the
    key's earliest ``steps[0]`` event; t_k is the earliest ``steps[k]``
    event STRICTLY after t_{k-1}. A key missing step k has NaT for
    every later step; keys with no ``steps[0]`` event still emit a row
    (steps_completed = 0), so the output covers every distinct key.
    """
    if len(steps) < 1:
        raise ValueError("funnel needs at least one step")

    def funnel(g: pd.DataFrame) -> pd.DataFrame:
        us = ts_to_us(g[ts]).to_numpy()
        kv = g[key].to_numpy()
        base = pd.unique(kv)
        base.sort()
        out = pd.DataFrame({key: base})
        # running per-key threshold: step k only matches events with
        # ts strictly greater; keys absent from `cur` have stalled
        # (Series.map -> NaN -> comparison False)
        cur = pd.Series(np.full(len(base), -1, dtype=np.float64),
                        index=base)
        completed = np.zeros(len(base), dtype=np.int64)
        for step in steps:
            m = (g[type_col].to_numpy() == step)
            sub = pd.DataFrame({key: kv[m], "_us": us[m]})
            thr = sub[key].map(cur)
            sub = sub[sub["_us"].to_numpy() > thr.to_numpy()]
            hit = sub.groupby(key, sort=False)["_us"].min()
            col = np.full(len(base), _NAT_I64, dtype=np.int64)
            idx = out[key].map(
                pd.Series(hit.to_numpy(), index=hit.index))
            got = idx.notna().to_numpy()
            col[got] = idx.to_numpy()[got].astype(np.int64)
            out[f"t_{step}"] = col.view("datetime64[us]")
            completed += got.astype(np.int64)
            cur = hit.astype(np.float64)
        out["steps_completed"] = completed
        return out

    return by_partition(ds, key, funnel, num_parts=num_parts)


def cohort_retention(
    ds,
    key: str = "user_id",
    ts: str = "ts",
    num_parts: int | None = None,
):
    """Events Dataset -> (cohort_day, day_offset, n_users): how many of
    the keys first seen on cohort_day were active again day_offset days
    later (day_offset 0 = the cohort's own size). Days are UTC calendar
    days (epoch-floor); n_users counts DISTINCT keys, exact because each
    key's events are co-located on one hash partition, so per-partition
    distinct counts are disjoint partials and the final merge is a tiny
    (cohort_day, day_offset) sum."""
    def partial(g: pd.DataFrame) -> pd.DataFrame:
        day = (ts_to_us(g[ts]).to_numpy() // _DAY_US).astype(np.int64)
        df = pd.DataFrame({key: g[key].to_numpy(), "_day": day})
        d0 = df.groupby(key, sort=False)["_day"].transform("min")
        df["_d0"] = d0
        df["_off"] = df["_day"] - d0
        part = (
            df.drop_duplicates([key, "_day"])
            .groupby(["_d0", "_off"], sort=False)
            .size()
            .reset_index(name="n_users")
        )
        part["cohort_day"] = (
            part["_d0"].to_numpy() * _DAY_US
        ).view("datetime64[us]")
        part["day_offset"] = part["_off"].astype("int64")
        part["n_users"] = part["n_users"].astype("int64")
        return part[["cohort_day", "day_offset", "n_users"]]

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return (
            g.groupby(["cohort_day", "day_offset"], sort=False)
            ["n_users"].sum().astype("int64").reset_index()
        )

    return by_partition(
        ds, key, partial, num_parts=num_parts
    ).groupby(["cohort_day", "day_offset"]).map_groups(
        merge, batch_format="pandas"
    )


def top_event_paths(
    ds: "ray.data.Dataset",
    k: int = 20,
    key: str = "user_id",
    type_col: str = "event_type",
    ts_col: str = "ts",
    order_col: str = "event_id",
    path_len: int = 3,
    num_parts: int | None = None,
) -> "ray.data.Dataset":
    """Top-k most frequent consecutive event-type SEQUENCES of length
    ``path_len`` across all per-key streams (the path-analysis /
    navigation-pattern statistic). One key-hash exchange; each partition
    reduces to its distinct path counts (vectorized shift comparison,
    no per-key loop), a tiny fold sums and takes the global top-k with
    deterministic ties (count DESC, then path lexicographic)."""
    def count_paths(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, ts_col, order_col], kind="mergesort")
        cols = {}
        ok = np.ones(len(g), dtype=bool)
        for j in range(path_len):
            shifted_key = g[key].shift(path_len - 1 - j)
            cols[f"t{j+1}"] = g[type_col].shift(path_len - 1 - j)
            ok &= (shifted_key == g[key]).to_numpy()
        steps = pd.DataFrame(cols)[ok]
        if len(steps) == 0:
            out = pd.DataFrame(
                {f"t{j+1}": pd.Series([], dtype="object")
                 for j in range(path_len)}
            )
            out["n"] = pd.Series([], dtype="int64")
            out["__g"] = pd.Series([], dtype="int64")
            return out
        out = (
            steps.groupby(list(steps.columns), sort=False)
            .size()
            .rename("n")
            .reset_index()
        )
        out["__g"] = 0
        return out

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        tcols = [c for c in g.columns if c.startswith("t")]
        m = g.groupby(tcols, sort=False)["n"].sum().reset_index()
        m = m.sort_values(
            ["n"] + tcols, ascending=[False] + [True] * len(tcols),
            kind="mergesort",
        ).head(k)
        m["n"] = m["n"].astype(np.int64)
        return m.reset_index(drop=True)

    cols = [key, type_col, ts_col, order_col]
    return (
        by_partition(
            ds.select_columns(cols), key, count_paths,
            num_parts=num_parts,
        )
        .groupby("__g")
        .map_groups(lambda d: fold(d.drop(columns=["__g"])),
                    batch_format="pandas")
    )


def session_cooccurrence(
    ds: "ray.data.Dataset",
    key: str = "user_id",
    type_col: str = "event_type",
    ts_col: str = "ts",
    order_col: str = "event_id",
    gap_us: int = 30 * 60 * 1_000_000,
    num_parts: int | None = None,
) -> "ray.data.Dataset":
    """Market-basket analysis over GAP-SESSIONS: for every unordered
    pair of event types that co-occur in a session, the co-occurrence
    count and the LIFT = p(ab) / (p(a) p(b)) over sessions -- lift > 1
    means the two event types cluster in the same sessions more than
    independence predicts.

    One key-hash exchange: sessions are per-key, so session membership,
    the per-session distinct type sets, and all in-session pairs are
    computed inside the partition (types per session is tiny, so the
    pair expansion is bounded); a |types|^2-bounded fold merges counts
    and computes lift against per-type session counts."""
    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, ts_col, order_col], kind="mergesort")
        ts_us = ts_to_us(g[ts_col]).to_numpy()
        keys = g[key].to_numpy()
        new_key = np.r_[True, keys[1:] != keys[:-1]]
        brk = np.r_[True, (ts_us[1:] - ts_us[:-1]) > gap_us]
        sid = np.cumsum(new_key | brk)
        st = (
            pd.DataFrame({"sid": sid, "t": g[type_col].to_numpy()})
            .drop_duplicates()
        )
        # per-session unordered type pairs via an in-partition self-merge
        m = st.merge(st, on="sid")
        m = m[m["t_x"] < m["t_y"]]
        pc = (
            m.groupby(["t_x", "t_y"], sort=False)
            .size()
            .rename("n_ab")
            .reset_index()
            .rename(columns={"t_x": "type_a", "t_y": "type_b"})
        )
        tc = (
            st.groupby("t", sort=False)["sid"]
            .size()
            .rename("n_t")
            .reset_index()
            .rename(columns={"t": "type_a"})
        )
        tc["type_b"] = ""
        tc = tc.rename(columns={"n_t": "n_ab"})[["type_a", "type_b", "n_ab"]]
        ns = pd.DataFrame(
            {"type_a": ["\x00total"], "type_b": [""],
             "n_ab": [int(st["sid"].nunique())]}
        )
        out = pd.concat([pc, tc, ns], ignore_index=True)
        out["__g"] = 0
        return out

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby(["type_a", "type_b"], sort=False)["n_ab"].sum().reset_index()
        total = float(m.loc[m["type_a"] == "\x00total", "n_ab"].sum())
        singles = m[(m["type_b"] == "") & (m["type_a"] != "\x00total")]
        per_type = dict(zip(singles["type_a"], singles["n_ab"]))
        p = m[(m["type_b"] != "")].copy()
        na = p["type_a"].map(per_type).to_numpy(np.float64)
        nb = p["type_b"].map(per_type).to_numpy(np.float64)
        nab = p["n_ab"].to_numpy(np.float64)
        lift = (nab / total) / ((na / total) * (nb / total))
        return pd.DataFrame(
            {
                "type_a": p["type_a"],
                "type_b": p["type_b"],
                "n_sessions_ab": p["n_ab"].astype(np.int64),
                "lift": lift,
            }
        )

    cols = [key, type_col, ts_col, order_col]
    return (
        by_partition(
            ds.select_columns(cols), key, pairs,
            num_parts=num_parts,
        )
        .groupby("__g")
        .map_groups(lambda d: fold(d.drop(columns=["__g"])),
                    batch_format="pandas")
    )


def session_attribution(
    ds,
    key: str = "user_id",
    ts: str = "ts",
    order: str = "event_id",
    event_col: str = "event_type",
    target: str = "purchase",
    gap_us: int = 30 * 60 * 1_000_000,
    num_parts: int | None = None,
):
    """First-touch attribution: credit every ``target`` conversion to
    the FIRST event type of its session (sessions = maximal runs with
    consecutive gaps <= gap_us, the sessionize rule). Output: one row
    per first-touch type with n_sessions, n_conversions (total target
    events in those sessions) and conv_rate (share of sessions
    containing >= 1 target), 6dp-rounded.

    Scale shape: ONE key-hash exchange; inside the sorted partition the
    session assignment is the vectorized cumsum-of-breaks, the first
    touch is the first row of each (key, session) run, and the batch
    collapses straight to per-first-touch partials -- the final
    exchange is |event types| rows."""
    def partial(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame(
                {
                    "first_touch": pd.Series([], dtype="object"),
                    "ns": pd.Series([], dtype="int64"),
                    "nc": pd.Series([], dtype="int64"),
                    "nconv": pd.Series([], dtype="int64"),
                }
            )
        g = g.sort_values([key, ts, order], kind="mergesort")
        ts_us = ts_to_us(g[ts]).to_numpy()
        keys = g[key].to_numpy()
        new_key = np.r_[True, keys[1:] != keys[:-1]]
        brk = new_key | np.r_[True, (ts_us[1:] - ts_us[:-1]) > gap_us]
        sid = np.cumsum(brk)  # globally unique within the partition
        ev = g[event_col].to_numpy()
        starts = np.flatnonzero(brk)
        first_touch = np.repeat(ev[starts], np.diff(np.r_[starts, len(ev)]))
        hit = (ev == target).astype(np.int64)
        sess = (
            pd.DataFrame({"sid": sid, "ft": first_touch, "hit": hit})
            .groupby("sid", sort=False)
            .agg(ft=("ft", "first"), n_hits=("hit", "sum"))
        )
        out = (
            sess.assign(converted=(sess["n_hits"] > 0).astype(np.int64), one=1)
            .groupby("ft", sort=False)
            .agg(
                ns=("one", "sum"),
                nc=("converted", "sum"),
                nconv=("n_hits", "sum"),
            )
            .reset_index()
            .rename(columns={"ft": "first_touch"})
        )
        for c in ("ns", "nc", "nconv"):
            out[c] = out[c].astype(np.int64)
        return out

    partials = by_partition(ds, key, partial, num_parts=num_parts)
    merged = partials.groupby("first_touch").sum(["ns", "nc", "nconv"])

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        rate = (
            df["sum(nc)"].to_numpy(dtype=np.float64)
            / df["sum(ns)"].to_numpy(dtype=np.float64)
            + 1e-7
        )
        return pd.DataFrame(
            {
                "first_touch": df["first_touch"],
                "n_sessions": df["sum(ns)"].astype(np.int64),
                "n_conversions": df["sum(nconv)"].astype(np.int64),
                "conv_rate": np.sign(rate)
                * np.floor(np.abs(rate) * 1e6 + 0.5) / 1e6,
            }
        )

    return merged.map_batches(finish, batch_format="pandas")


def scd2_build(
    ds,
    key: str = "user_id",
    ts: str = "ts",
    order: str = "event_id",
    attr: str = "event_type",
    end_sentinel: str = "2100-01-01",
    num_parts: int | None = None,
):
    """Type-2 slowly-changing-dimension build from an append-only
    change log: collapse each key's consecutive runs of an identical
    ``attr`` value into one versioned row (key, attr, valid_from,
    valid_to, n_rows) where valid_from is the run's first timestamp,
    valid_to the NEXT run's first timestamp (the ``end_sentinel`` on
    the key's open current version -- an explicit high date rather
    than NULL so downstream range predicates and the oracle hash need
    no NULL semantics), and n_rows the number of log rows the run
    absorbed. Ties at one timestamp are ordered by ``order`` on both
    sides of the contract.

    Scale shape: ONE ``by_partition`` exchange on ``key``; inside
    the sorted partition runs are a vectorized change-flag cumsum (no
    per-key Python loop) and every key's versions complete locally
    because keys never straddle partitions."""
    sentinel = np.datetime64(end_sentinel, "us")

    def versions(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, ts, order], kind="mergesort")
        k = g[key].to_numpy()
        a = g[attr].to_numpy()
        t = g[ts].to_numpy().astype("datetime64[us]")
        if len(g) == 0:
            return pd.DataFrame(
                {
                    key: pd.Series([], dtype=g[key].dtype),
                    attr: pd.Series([], dtype=g[attr].dtype),
                    "valid_from": pd.Series([], dtype="datetime64[us]"),
                    "valid_to": pd.Series([], dtype="datetime64[us]"),
                    "n_rows": pd.Series([], dtype="int64"),
                }
            )
        newkey = np.r_[True, k[1:] != k[:-1]]
        change = newkey | np.r_[True, a[1:] != a[:-1]]
        starts = np.flatnonzero(change)
        n_rows = np.diff(np.append(starts, len(k))).astype(np.int64)
        vk, va, vf = k[starts], a[starts], t[starts]
        # next run's start within the same key closes this version
        same_next = np.r_[vk[1:] == vk[:-1], False]
        vt = np.where(same_next, np.roll(vf, -1), sentinel)
        return pd.DataFrame(
            {
                key: vk,
                attr: va,
                "valid_from": vf,
                "valid_to": vt.astype("datetime64[us]"),
                "n_rows": n_rows,
            }
        )

    return by_partition(
        ds.select_columns([key, ts, order, attr]), key,
        versions, num_parts=num_parts,
    )
