"""Panel forecast-evaluation metrics (reference tsfeatures/metrics/
metrics.py:12-245 kernels, :275-345 ``evaluate_panel`` driver).

Metric kernels are exact ports of the reference formulas (pure NumPy).
``evaluate_panel`` replaces the reference's Pool.map -- which pickles the
ENTIRE indexed panel to every worker (reference metrics.py:334-341, an
O(uids x panel) shipping cost) -- with key co-partitioning: all four
panels get the same stable hash-partition key, one ``by_partition``
exchange aligns them, and each partition evaluates its own series vectorized.
"""

from __future__ import annotations

from math import sqrt

import numpy as np
import pandas as pd

import ray

from .stages.derive import by_partition

AVAILABLE_METRICS = [
    "mse", "rmse", "mape", "smape", "mase", "rmsse", "mini_owa", "pinball_loss",
]


def mse(y: np.ndarray, y_hat: np.ndarray) -> float:
    """Mean squared error (reference metrics.py:19-41)."""
    return float(np.mean(np.square(y - y_hat)))


def rmse(y: np.ndarray, y_hat: np.ndarray) -> float:
    """Root mean squared error (reference metrics.py:43-67)."""
    return float(sqrt(np.mean(np.square(y - y_hat))))


def mape(y: np.ndarray, y_hat: np.ndarray) -> float:
    """Mean absolute percentage error (reference metrics.py:69-91)."""
    return float(100.0 * np.mean(np.abs(y - y_hat) / np.abs(y)))


def smape(y: np.ndarray, y_hat: np.ndarray) -> float:
    """Symmetric MAPE, bounded 0-200 (reference metrics.py:93-121)."""
    scale = np.abs(y) + np.abs(y_hat)
    scale = np.where(scale == 0, 1e-3, scale)
    return float(200.0 * np.mean(np.abs(y - y_hat) / scale))


def mase(y: np.ndarray, y_hat: np.ndarray, y_train: np.ndarray,
         seasonality: int = 1) -> float:
    """M4 mean absolute scaled error (reference metrics.py:123-153)."""
    scale = np.mean(np.abs(y_train[seasonality:] - y_train[:-seasonality]))
    return float(100.0 * np.mean(np.abs(y - y_hat)) / scale)


def rmsse(y: np.ndarray, y_hat: np.ndarray, y_train: np.ndarray,
          seasonality: int = 1) -> float:
    """M5 root mean squared scaled error (reference metrics.py:155-180)."""
    scale = np.mean(np.square(y_train[seasonality:] - y_train[:-seasonality]))
    return float(100.0 * sqrt(mse(y, y_hat) / scale))


def mini_owa(y: np.ndarray, y_hat: np.ndarray, y_train: np.ndarray,
             seasonality: int, y_bench: np.ndarray) -> float:
    """Overall weighted average vs a benchmark (reference metrics.py:182-218)."""
    mase_y = mase(y, y_hat, y_train, seasonality)
    mase_b = mase(y, y_bench, y_train, seasonality)
    smape_y = smape(y, y_hat)
    smape_b = smape(y, y_bench)
    return float(((mase_y / mase_b) + (smape_y / smape_b)) / 2)


def pinball_loss(y: np.ndarray, y_hat: np.ndarray, tau: float = 0.5) -> float:
    """Quantile (pinball) loss (reference metrics.py:220-245)."""
    delta_y = y - y_hat
    return float(np.mean(np.maximum(tau * delta_y, (tau - 1) * delta_y)))


_METRICS = {
    "mse": mse, "rmse": rmse, "mape": mape, "smape": smape,
    "mase": mase, "rmsse": rmsse, "mini_owa": mini_owa,
    "pinball_loss": pinball_loss,
}


def evaluate_panel(
    y_test,
    y_hat,
    y_train=None,
    metric=mse,
    seasonality: int | None = None,
    y_bench=None,
    num_parts: int | None = None,
):
    """Per-series metric over a panel.

    Two input shapes:
    - pandas DataFrames (unique_id, ds, y / y_hat) like the reference ->
      returns a pandas DataFrame [unique_id, error] in y_test's
      first-appearance order, ids in their original dtype. Validation
      mirrors reference metrics.py:318-322. Caps the panel at driver RAM
      -- the API-parity path.
    - ray.data.Datasets with the same columns -> returns a STREAMING
      Dataset [unique_id, error]: each input is tagged per batch (no
      driver concat, no materialization), the tagged streams union, and
      ONE by_partition(unique_id) co-partitions all roles. The scale
      path: panels of any size flow through the exchange without ever
      touching the driver.
    """
    import ray.data as rd

    # metric may be one callable/name (reference parity: one 'error'
    # column) or a LIST of them -- all computed in the SAME exchange,
    # one output column per metric (the multi-metric panel eval would
    # otherwise pay one shuffle per metric)
    multi = isinstance(metric, (list, tuple))
    metrics = metric if multi else [metric]
    names = [m if isinstance(m, str) else m.__name__ for m in metrics]
    # built-in names resolve through _METRICS; a callable runs as given
    fns = {
        nm: _METRICS[m] if isinstance(m, str) else m
        for nm, m in zip(names, metrics)
    }
    needs_train = any(
        nm in ("mase", "rmsse", "mini_owa") for nm in names
    )
    has_bench = "mini_owa" in names

    def tag(df: pd.DataFrame, role: str, value_col: str) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "unique_id": df["unique_id"].astype(str),
                "ds": df["ds"],
                "value": df[value_col].astype("float64"),
                "role": role,
            }
        )

    out_cols = names if multi else ["error"]

    def eval_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["unique_id", "role", "ds"], kind="mergesort")
        out = []
        for uid, sub in g.groupby("unique_id", sort=False):
            pieces = {r: s["value"].to_numpy() for r, s in sub.groupby("role")}
            row = [uid]
            for nm in names:
                kwargs = {"y": pieces["test"], "y_hat": pieces["hat"]}
                if nm in ("mase", "rmsse", "mini_owa"):
                    kwargs["y_train"] = pieces["train"]
                    kwargs["seasonality"] = seasonality
                if nm == "mini_owa":
                    kwargs["y_bench"] = pieces["bench"]
                row.append(fns[nm](**kwargs))
            out.append(tuple(row))
        return pd.DataFrame(out, columns=["unique_id"] + out_cols)

    roles = [(y_test, "test", "y"), (y_hat, "hat", "y_hat")]
    if needs_train:
        roles.append((y_train, "train", "y"))
    if has_bench:
        roles.append((y_bench, "bench", "y_hat"))

    if isinstance(y_test, rd.Dataset):
        def tagger(role, value_col):
            return lambda df: tag(df, role, value_col)

        streams = [
            src.map_batches(tagger(role, vc), batch_format="pandas")
            for src, role, vc in roles
        ]
        allp = streams[0].union(*streams[1:])
        return by_partition(allp, "unique_id", eval_partition, num_parts=num_parts)

    uids = y_test["unique_id"].unique()
    assert len(y_test) == len(y_hat), "not same length"
    assert all(uids == y_hat["unique_id"].unique()), "not same u_ids"
    allp = rd.from_pandas(
        pd.concat([tag(df, r, vc) for df, r, vc in roles], ignore_index=True)
    )
    res = by_partition(
        allp, "unique_id", eval_partition, num_parts=num_parts
    ).to_pandas()
    # the exchange keys on str ids; hand back the caller's ids in the
    # reference's order (y_test first appearance)
    res = res.set_index("unique_id").loc[pd.Index(uids).astype(str)]
    res.insert(0, "unique_id", uids)
    return res.reset_index(drop=True)


def rolling_origin_backtest(
    ds,
    key: str,
    order: str,
    value: str,
    horizons: tuple = (1, 2, 3),
    step_us: int | None = None,
):
    """Rolling-origin evaluation of the naive forecaster: for every
    origin t and horizon h, yhat_{t+h} = y_t, and the target counts
    only where the series actually has a bucket at t + h*step
    (TIME-indexed join, so gaps are never silently bridged by row
    shifts). Emits one row per horizon: n, mae, rmse.

    Why it belongs here: the reference's mase/rmsse metrics
    (metrics/metrics.py:121-189) are ratios AGAINST this exact naive
    baseline -- this operator is the distributed backtest that produces
    the baseline denominator at corpus scale.

    Exactness: errors are differences of integer-valued float64 series,
    |e| and e^2 accumulate as int64 partials (bounded by the
    per-partition series size), so mae/rmse are single float expressions
    on exact integer sums -- same algebra as the SQL oracle's
    CAST(SUM(...) AS DOUBLE). The per-key partials run through
    ``by_partition`` on ``key``, so every series arrives whole whatever
    the input block layout."""
    if step_us is None:
        step_us = 3_600_000_000  # hourly buckets
    hs = [int(h) for h in horizons]
    if not hs or any(h < 1 for h in hs):
        raise ValueError("horizons must be >= 1")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([key, order], kind="mergesort")
        k = df[key].to_numpy()
        t = df[order].astype("datetime64[us]").astype("int64").to_numpy()
        yi = np.rint(df[value].to_numpy(dtype=np.float64)).astype(np.int64)
        # one monotone int64 per row: (key ordinal << 32) | bucket
        # ordinal relative to the key's first bucket -- searchsorted
        # then works across the whole batch in one call per horizon
        kcode = pd.factorize(k)[0].astype(np.int64)
        o = t // np.int64(step_us)
        newk = np.r_[True, kcode[1:] != kcode[:-1]]
        starts = np.flatnonzero(newk)
        first_o = np.repeat(o[starts], np.diff(np.append(starts, len(o))))
        code = (kcode << 32) | (o - first_o)
        rows = []
        for h in hs:
            target = code + np.int64(h)
            idx = np.searchsorted(code, target)
            safe = np.minimum(idx, len(code) - 1)
            ok = (idx < len(code)) & (code[safe] == target)
            e = yi[idx[ok]] - yi[ok]
            rows.append(
                (
                    h,
                    np.int64(len(e)),
                    np.abs(e).sum(dtype=np.int64),
                    (e * e).sum(dtype=np.int64),
                )
            )
        return pd.DataFrame(
            rows, columns=["horizon", "n", "sae", "sse"]
        ).astype({"horizon": np.int64})

    merged = by_partition(ds, key, partial).groupby("horizon").sum(["n", "sae", "sse"])

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("horizon")
        # a horizon with zero pairs matches no oracle row: drop it
        # instead of emitting (n=0, NaN, NaN)
        df = df[df["sum(n)"] > 0]
        n = df["sum(n)"].to_numpy(dtype=np.float64)
        mae = df["sum(sae)"].to_numpy(dtype=np.float64) / n + 1e-7
        rmse = (
            np.sqrt(df["sum(sse)"].to_numpy(dtype=np.float64) / n) + 1e-7
        )
        return pd.DataFrame(
            {
                "horizon": df["horizon"].astype(np.int64),
                "n": df["sum(n)"].astype(np.int64),
                "mae": np.floor(mae * 1e6 + 0.5) / 1e6,
                "rmse": np.floor(rmse * 1e6 + 0.5) / 1e6,
            }
        )

    return merged.repartition(1).map_batches(
        finish, batch_format="pandas", batch_size=None
    )
