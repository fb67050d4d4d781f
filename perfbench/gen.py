"""Seeded benchmark inputs, generated in the benchmark process.

This module deliberately does not import the engine: an engine change
must never change what the benchmark feeds it.

* ``transcripts`` builds the transcript table (conv_id, turn_idx, role,
  text, tool, ts) and splits it at a fixed instant into a base slice and
  a new-day slice.
* ``monthly_panel`` builds a long (unique_id, ds, y) panel of
  monthly-seasonal series of similar length, shaped like M4-monthly.

Conversation lengths, long pauses, start times and series lengths are
the quantiles of their distributions at fixed strata, assigned in a
seeded order; everything else is drawn from the seed. Two seeds thus
give different inputs with the same length distribution, and so nearly
the same amount of work.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

TRANSCRIPT_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("role", pa.string()),
        ("text", pa.string()),
        ("tool", pa.string()),
        ("ts", pa.timestamp("us")),
    ]
)
PANEL_SCHEMA = pa.schema(
    [("unique_id", pa.string()), ("ds", pa.timestamp("us")), ("y", pa.float64())]
)

DAY_US = 86_400_000_000
EPOCH_US = 1_767_225_600_000_000  # 2026-01-01T00:00:00Z
WINDOW_DAYS = 8
# the new-day slice starts mid-hour and mid-day, so 1h and 1d buckets
# straddle the two slices and their merge is exercised
SPLIT_US = EPOCH_US + (WINDOW_DAYS - 2) * DAY_US + 13 * 3_600_000_000 + 37 * 60_000_000
# retention "now": end of the window, so the first day of 1m rows expires
NOW_US = EPOCH_US + WINDOW_DAYS * DAY_US

_POOL = ("abcdefghijklmnopqrstuvwxyz0123456789 " * 40)
_TOOLS = np.array(["search", "python", "browser", "calculator"])


def _strata(rng: np.random.Generator, n: int) -> np.ndarray:
    """The midpoints of ``n`` equal-probability strata, in random order:
    the multiset is fixed, which value lands where depends on the seed."""
    return rng.permutation((np.arange(n) + 0.5) / n)


def transcripts(seed: int, n_convs: int, hot_turns: int) -> tuple[pa.Table, pa.Table]:
    """(base, new_day) transcript slices of ``n_convs`` conversations.

    Geometric conversation lengths (mean 45, capped at 600), one hot
    conversation of ``hot_turns`` turns, three 1-turn and three 2-turn
    conversations, and irregular gaps: log-normal within a burst, plus
    a fixed share of long pauses of minutes to an hour."""
    rng = np.random.Generator(np.random.PCG64(seed))
    mean_turns = 45
    u = _strata(rng, n_convs - 7)
    geometric = np.ceil(np.log1p(-u) / np.log1p(-1.0 / mean_turns))
    lengths = np.concatenate(
        [[hot_turns, 1, 1, 1, 2, 2, 2], np.clip(geometric, 1, 600)]
    ).astype(np.int64)
    n_rows = int(lengths.sum())
    conv_of_row = np.repeat(np.arange(n_convs), lengths)
    first_row = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    turn_idx = np.arange(n_rows) - first_row[conv_of_row]

    role_draw = rng.random(n_rows)
    roles = np.where(role_draw < 0.08, "tool",
                     np.where(turn_idx % 2 == 0, "user", "assistant"))
    tools = np.where(roles == "tool", _TOOLS[rng.integers(0, 4, n_rows)], "")

    base = rng.integers(20, 180, n_convs).astype(float)
    trend = rng.normal(0.0, 0.8, n_convs)
    amp = rng.uniform(0.0, 30.0, n_convs)
    period = rng.integers(5, 30, n_convs).astype(float)
    t = turn_idx.astype(float)
    c = conv_of_row
    token_len = (base[c] + trend[c] * t
                 + amp[c] * np.sin(2 * np.pi * t / period[c])
                 + rng.normal(0.0, 8.0, n_rows))
    token_len = np.clip(np.round(token_len), 0, 1400).astype(np.int64)
    offsets = rng.integers(0, 64, n_rows)
    texts = [_POOL[o:o + n] for o, n in zip(offsets.tolist(), token_len.tolist())]

    # gaps: log-normal seconds (median ~25 s), 1% long pauses (2 min ..
    # 1 h, at fixed strata), 2% exact duplicate timestamps; never on turn 0
    gaps = np.exp(rng.normal(3.2, 1.1, n_rows))
    n_pause = max(1, int(0.01 * n_rows))
    pause_at = rng.choice(n_rows, n_pause, replace=False)
    gaps[pause_at] = np.exp(np.log(120.0) + _strata(rng, n_pause) * np.log(30.0))
    gaps_us = (gaps * 1e6).astype(np.int64)
    gaps_us[rng.random(n_rows) < 0.02] = 0
    gaps_us[turn_idx == 0] = 0
    cum = np.cumsum(gaps_us)
    since_start = cum - cum[first_row][c]
    start = EPOCH_US + (_strata(rng, n_convs) * (WINDOW_DAYS - 0.5) * DAY_US).astype(np.int64)
    ts = start[c] + since_start

    perm = rng.permutation(n_rows)
    conv_ids = np.array([f"c{seed % 1000:03d}-{i:06d}" for i in range(n_convs)])
    table = pa.table(
        {
            "conv_id": pa.array(conv_ids[c][perm], pa.string()),
            "turn_idx": pa.array(turn_idx[perm], pa.int32()),
            "role": pa.array(roles[perm], pa.string()),
            "text": pa.array([texts[i] for i in perm.tolist()], pa.string()),
            "tool": pa.array(tools[perm], pa.string()),
            "ts": pa.array(ts[perm], pa.timestamp("us")),
        },
        schema=TRANSCRIPT_SCHEMA,
    )
    new = ts[perm] >= SPLIT_US
    return table.filter(pa.array(~new)), table.filter(pa.array(new))


def monthly_panel(seed: int, n_series: int, min_len: int, max_len: int) -> pa.Table:
    """Long panel of monthly series: level x (1 + trend + seasonal) +
    noise, all positive, lengths stratified over [min_len, max_len]."""
    rng = np.random.Generator(np.random.PCG64(seed + 7919))
    lens = (min_len + _strata(rng, n_series) * (max_len - min_len + 1)).astype(np.int64)
    sid = np.repeat(np.arange(n_series), lens)
    first = np.concatenate([[0], np.cumsum(lens)[:-1]])
    t = (np.arange(len(sid)) - first[sid]).astype(float)
    level = rng.uniform(500.0, 8000.0, n_series)
    slope = rng.normal(0.002, 0.004, n_series)
    amp = rng.uniform(0.02, 0.25, n_series)
    phase = rng.uniform(0.0, 2 * np.pi, n_series)
    noise = rng.uniform(0.01, 0.08, n_series)
    y = level[sid] * (1.0 + slope[sid] * t
                      + amp[sid] * np.sin(2 * np.pi * t / 12.0 + phase[sid])
                      + noise[sid] * rng.standard_normal(len(sid)))
    y = np.maximum(y, 1.0)
    # month starts from a per-series start month in 1990..2004
    start_month = rng.integers(0, 180, n_series)
    months = (start_month[sid] + t.astype(np.int64)).astype("datetime64[M]")
    ds = (np.datetime64("1990-01", "M") + (months - np.datetime64("1970-01", "M")))
    ds = ds.astype("datetime64[us]")
    uids = np.array([f"M{seed % 1000:03d}-{i:05d}" for i in range(n_series)])
    perm = rng.permutation(len(sid))
    return pa.table(
        {
            "unique_id": pa.array(uids[sid][perm], pa.string()),
            "ds": pa.array(ds[perm], pa.timestamp("us")),
            "y": pa.array(y[perm], pa.float64()),
        },
        schema=PANEL_SCHEMA,
    )


def write(table: pa.Table, path: str) -> None:
    pq.write_table(table, path, row_group_size=64 * 1024)
