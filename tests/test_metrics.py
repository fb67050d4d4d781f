"""Metric kernels vs hand-computed values + co-partitioned panel
evaluation (reference tsfeatures/metrics parity)."""

import numpy as np
import pandas as pd
import pytest

from tsfeatures_ray.metrics import (
    evaluate_panel,
    mape,
    mase,
    mini_owa,
    mse,
    pinball_loss,
    rmse,
    rmsse,
    smape,
)


def test_metric_kernels_formulas():
    y = np.array([1.0, 2.0, 3.0, 4.0])
    yh = np.array([1.5, 2.0, 2.0, 5.0])
    assert mse(y, yh) == pytest.approx((0.25 + 0 + 1 + 1) / 4)
    assert rmse(y, yh) == pytest.approx(np.sqrt(mse(y, yh)))
    assert mape(y, yh) == pytest.approx(100 * np.mean([0.5, 0, 1 / 3, 0.25]))
    assert smape(y, yh) == pytest.approx(
        200 * np.mean([0.5 / 2.5, 0, 1 / 5, 1 / 9])
    )
    y_train = np.array([1.0, 3.0, 2.0, 5.0])
    scale = np.mean(np.abs(y_train[1:] - y_train[:-1]))
    assert mase(y, yh, y_train, 1) == pytest.approx(
        100 * np.mean(np.abs(y - yh)) / scale
    )
    scale2 = np.mean(np.square(y_train[1:] - y_train[:-1]))
    assert rmsse(y, yh, y_train, 1) == pytest.approx(
        100 * np.sqrt(mse(y, yh) / scale2)
    )
    assert pinball_loss(y, yh, 0.5) == pytest.approx(
        np.mean(np.maximum(0.5 * (y - yh), -0.5 * (y - yh)))
    )
    owa = mini_owa(y, yh, y_train, 1, y_bench=np.array([2.0, 2.0, 2.0, 2.0]))
    assert np.isfinite(owa)


def test_smape_zero_scale_guard():
    # reference metrics.py:117: zero scale replaced by 1e-3
    assert np.isfinite(smape(np.array([0.0]), np.array([0.0])))


def test_evaluate_panel_matches_per_series(ray_session):
    rng = np.random.RandomState(3)
    rows = []
    for uid in ["a", "b", "c"]:
        y = rng.rand(8) * 10
        rows.append(pd.DataFrame({"unique_id": uid, "ds": range(8), "y": y}))
    y_test = pd.concat(rows, ignore_index=True)
    y_hat = y_test.rename(columns={"y": "y_hat"}).copy()
    y_hat["y_hat"] = y_hat["y_hat"] + rng.randn(len(y_hat))

    out = evaluate_panel(y_test, y_hat, metric="rmse")
    assert list(out.columns) == ["unique_id", "error"]
    for uid in ["a", "b", "c"]:
        want = rmse(
            y_test[y_test.unique_id == uid]["y"].to_numpy(),
            y_hat[y_hat.unique_id == uid]["y_hat"].to_numpy(),
        )
        got = out[out.unique_id == uid]["error"].iloc[0]
        assert got == pytest.approx(want)


def test_evaluate_panel_scaled_metric(ray_session):
    rng = np.random.RandomState(4)
    test_rows, hat_rows, train_rows = [], [], []
    for uid in ["u1", "u2"]:
        tr = rng.rand(20) * 5
        te = rng.rand(6) * 5
        train_rows.append(pd.DataFrame({"unique_id": uid, "ds": range(20), "y": tr}))
        test_rows.append(pd.DataFrame({"unique_id": uid, "ds": range(20, 26), "y": te}))
        hat_rows.append(
            pd.DataFrame({"unique_id": uid, "ds": range(20, 26), "y_hat": te + 0.5})
        )
    out = evaluate_panel(
        pd.concat(test_rows), pd.concat(hat_rows), pd.concat(train_rows),
        metric="mase", seasonality=2,
    )
    for uid in ["u1", "u2"]:
        tr = pd.concat(train_rows).query("unique_id == @uid")["y"].to_numpy()
        te = pd.concat(test_rows).query("unique_id == @uid")["y"].to_numpy()
        want = mase(te, te + 0.5, tr, 2)
        assert out[out.unique_id == uid]["error"].iloc[0] == pytest.approx(want)


def test_evaluate_panel_dataset_path_agrees(ray_session):
    """The streaming Dataset overload (no driver concat) must produce
    exactly the pandas path's per-series errors, for both a plain metric
    and a train-scaled one."""
    import ray.data as rd

    rng = np.random.RandomState(11)
    test_rows, hat_rows, train_rows = [], [], []
    for uid in [f"u{i}" for i in range(17)]:
        n_tr, n_te = rng.randint(10, 30), 6
        ytr = rng.rand(n_tr) * 10
        y = rng.rand(n_te) * 10
        train_rows.append(pd.DataFrame(
            {"unique_id": uid, "ds": range(n_tr), "y": ytr}))
        test_rows.append(pd.DataFrame(
            {"unique_id": uid, "ds": range(n_tr, n_tr + n_te), "y": y}))
        hat_rows.append(pd.DataFrame(
            {"unique_id": uid, "ds": range(n_tr, n_tr + n_te),
             "y_hat": y + rng.randn(n_te)}))
    y_test = pd.concat(test_rows, ignore_index=True)
    y_hat = pd.concat(hat_rows, ignore_index=True)
    y_train = pd.concat(train_rows, ignore_index=True)

    for metric, kwargs in (("smape", {}), ("mase", {"seasonality": 1})):
        want = evaluate_panel(
            y_test, y_hat, y_train=y_train, metric=metric, **kwargs)
        got_ds = evaluate_panel(
            rd.from_pandas(y_test), rd.from_pandas(y_hat),
            y_train=rd.from_pandas(y_train), metric=metric, **kwargs)
        assert hasattr(got_ds, "to_pandas")  # streaming Dataset out
        got = got_ds.to_pandas().sort_values(
            "unique_id", kind="mergesort").reset_index(drop=True)
        want = want.sort_values(
            "unique_id", kind="mergesort").reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want)


def test_rolling_origin_backtest_hand_case(ray_session):
    """Gapped series: horizon targets resolve by TIME, not row shift."""
    import ray.data as rd

    from tsfeatures_ray.metrics import rolling_origin_backtest

    h = pd.Timedelta(hours=1)
    t0 = pd.Timestamp("2024-01-01")
    # key A buckets at 0,1,3 hours (gap at 2): h=1 pairs (0->1) only,
    # h=2 pairs (1->3), h=3 pairs (0->3)
    df = pd.DataFrame(
        {
            "k": ["A", "A", "A", "B", "B"],
            "bucket": pd.Series(
                [t0, t0 + h, t0 + 3 * h, t0, t0 + h]
            ).astype("datetime64[us]"),
            "y": [10.0, 13.0, 4.0, 100.0, 90.0],
        }
    )
    got = (
        rolling_origin_backtest(
            rd.from_pandas(df), "k", "bucket", "y", horizons=(1, 2, 3)
        )
        .to_pandas()
        .set_index("horizon")
    )
    # h=1: A(0->1) e=3, B(0->1) e=-10 -> n=2 mae=6.5 rmse=sqrt(109/2)
    assert int(got.loc[1, "n"]) == 2
    assert got.loc[1, "mae"] == 6.5
    assert got.loc[1, "rmse"] == round(np.sqrt(109 / 2) + 1e-7, 6)
    # h=2: A(1->3) e=-9 -> n=1
    assert int(got.loc[2, "n"]) == 1 and got.loc[2, "mae"] == 9.0
    # h=3: A(0->3) e=-6
    assert int(got.loc[3, "n"]) == 1 and got.loc[3, "mae"] == 6.0


def test_rolling_origin_backtest_validation(ray_session):
    from tsfeatures_ray.metrics import rolling_origin_backtest

    with pytest.raises(ValueError):
        rolling_origin_backtest(None, "k", "b", "y", horizons=())
    with pytest.raises(ValueError):
        rolling_origin_backtest(None, "k", "b", "y", horizons=(0,))


def test_rolling_origin_backtest_block_layout_invariant(ray_session):
    """A key split across blocks must still contribute every (origin,
    origin + h) pair: the result on a 97-way repartitioned panel equals
    the result on the intact one-block panel."""
    import ray.data as rd

    from tsfeatures_ray.metrics import rolling_origin_backtest

    rng = np.random.default_rng(5)
    hours = np.sort(rng.choice(60, size=(6, 40), replace=True), axis=1)
    df = pd.DataFrame(
        {
            "k": np.repeat([f"k{i}" for i in range(6)], 40),
            "bucket": (pd.Timestamp("2024-01-01")
                       + pd.to_timedelta(hours.ravel(), unit="h")),
            "y": rng.integers(0, 50, 240).astype("float64"),
        }
    ).drop_duplicates(["k", "bucket"])
    df["bucket"] = df["bucket"].astype("datetime64[us]")
    intact = rd.from_pandas(df)  # one block: every key whole
    want = rolling_origin_backtest(intact, "k", "bucket", "y").to_pandas()
    got = rolling_origin_backtest(intact.repartition(97), "k", "bucket", "y")
    pd.testing.assert_frame_equal(got.to_pandas(), want)


def test_evaluate_panel_pandas_keeps_id_dtype_and_order(ray_session):
    """Reference parity: the pandas path returns the ids in their own
    dtype and in y_test's first-appearance order, not as sorted str."""
    y_test = pd.DataFrame(
        {"unique_id": [3, 3, 1, 1, 2, 2], "ds": [0, 1] * 3,
         "y": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]}
    )
    y_hat = y_test.rename(columns={"y": "y_hat"}).assign(
        y_hat=[1.0, 4.0, 3.0, 3.0, 5.0, 7.0]
    )
    got = evaluate_panel(y_test, y_hat, metric="mse")
    want = pd.DataFrame({"unique_id": [3, 1, 2], "error": [2.0, 0.5, 0.5]})
    pd.testing.assert_frame_equal(got, want)


def test_evaluate_panel_custom_callable(ray_session):
    """A user metric callable (not a built-in name) runs as given, on
    both the pandas and the Dataset path."""
    import ray.data as rd

    def max_abs_err(y, y_hat):
        return float(np.max(np.abs(y - y_hat)))

    y_test = pd.DataFrame(
        {"unique_id": ["a"] * 3 + ["b"] * 3, "ds": [0, 1, 2] * 2,
         "y": [1.0, 2.0, 3.0, 5.0, 5.0, 5.0]}
    )
    y_hat = y_test.rename(columns={"y": "y_hat"}).assign(
        y_hat=[1.5, 2.0, 1.0, 5.0, 9.0, 4.0]
    )
    want = pd.DataFrame({"unique_id": ["a", "b"], "error": [2.0, 4.0]})
    got = evaluate_panel(y_test, y_hat, metric=max_abs_err)
    pd.testing.assert_frame_equal(got, want)
    got_ds = evaluate_panel(
        rd.from_pandas(y_test), rd.from_pandas(y_hat), metric=[max_abs_err, "mse"]
    ).to_pandas().sort_values("unique_id").reset_index(drop=True)
    assert list(got_ds.columns) == ["unique_id", "max_abs_err", "mse"]
    assert got_ds["max_abs_err"].tolist() == [2.0, 4.0]
