"""``stages.derive.range_scan``, the engine's ordered scan: the
exclusive prefix count and sum every row sees, and the next partition's
first value, equal a numpy stable global sort plus cumsum, whatever the
partition count and block layout; missing values are skipped and
infinities sort to the ends."""

import numpy as np
import pyarrow as pa
import pytest


def _prefix_fn():
    """A scan function (nested, so Ray workers unpickle it by value)
    giving, per row of a partition in (v, rid) order, its exclusive
    prefix count and sum of ``w``, the partition's last value and
    ``nxt``."""
    def prefix_rows(t: pa.Table, before: dict, total: dict, nxt) -> pa.Table:
        v, rid, w = t["v"].to_numpy(), t["rid"].to_numpy(), t["w"].to_numpy()
        order = np.lexsort((rid, v))
        v, rid, w = v[order], rid[order], w[order]
        n = len(v)
        return pa.table({
            "rid": rid,
            "count_before": before["count"] + np.arange(n),
            "w_before": before["w"] + np.cumsum(w) - w,
            "last": np.repeat(v[-1:], n),
            "nxt": pa.array([nxt] * n, pa.float64()),
        })

    return prefix_rows


def _want(v: np.ndarray, w: np.ndarray):
    """Exclusive prefix count and sum of ``w`` per row (by row id) of
    the rows whose ``v`` is not NaN, from a stable global sort."""
    keep = np.flatnonzero(~np.isnan(v.astype(np.float64)))
    order = keep[np.argsort(v[keep], kind="stable")]
    count = np.full(len(v), -1)
    count[order] = np.arange(len(order))
    wsum = np.zeros(len(v), w.dtype)
    wsum[order] = np.cumsum(w[order]) - w[order]
    return keep, count, wsum, v[order]


def _blocks(table: pa.Table, many: bool):
    import ray.data as rd

    if not many:
        return rd.from_arrow(table)
    n = len(table)
    cuts = sorted({0, 1, min(7, n), n // 3, n // 2, n})
    return rd.from_arrow([table.slice(a, b - a) for a, b in zip(cuts[:-1], cuts[1:])])


def _columns(rng):
    n = 600
    return {
        "int_ties": rng.integers(-20, 20, n),
        "float_ties": np.round(rng.normal(0, 3, n), 0) * 0.25,
        "epoch_us": 1_700_000_000_000_000 + rng.integers(-10, 10, n) * 3_600_000_000,
        "all_equal": np.full(n, 7, np.int64),
    }


@pytest.mark.parametrize("num_parts", [1, 3, 16])
@pytest.mark.parametrize("many", [False, True])
def test_prefixes_equal_a_global_stable_sort(ray_session, num_parts, many):
    from tsfeatures_ray.stages.derive import range_scan

    rng = np.random.default_rng(40 + num_parts)
    for name, v in _columns(rng).items():
        n = len(v)
        w = rng.integers(-1_000, 1_000, n) if v.dtype.kind == "i" else rng.normal(size=n)
        table = pa.table({"v": v, "rid": np.arange(n), "w": w})
        out, total = range_scan(_blocks(table, many), "v", _prefix_fn(),
                                sums=("w",), num_parts=num_parts)
        got = out.to_pandas().sort_values("rid")
        keep, count, wsum, in_order = _want(v, w)
        assert total["count"] == n and got["rid"].tolist() == list(range(n)), name
        np.testing.assert_array_equal(got["count_before"].to_numpy(), count, err_msg=name)
        if w.dtype.kind == "i":
            np.testing.assert_array_equal(got["w_before"].to_numpy(), wsum, err_msg=name)
            assert total["w"] == w.sum()
        else:
            np.testing.assert_allclose(got["w_before"].to_numpy(), wsum, atol=1e-9, err_msg=name)
        # nxt: the first value after the partition's last row, in value order
        last = got["last"].to_numpy()
        after = np.searchsorted(in_order, last, side="right")
        want_nxt = np.where(after < len(in_order),
                            in_order[np.minimum(after, len(in_order) - 1)], np.nan)
        np.testing.assert_array_equal(got["nxt"].to_numpy(), want_nxt.astype(np.float64),
                                      err_msg=name)


def test_infinities_sort_to_the_ends_and_missing_values_are_skipped(ray_session):
    from tsfeatures_ray.stages.derive import range_scan

    v = np.array([3.0, np.inf, -np.inf, 1.0, np.nan, 2.0, np.inf, -1.0, np.nan, 2.0])
    w = np.arange(len(v)) + 1
    table = pa.table({"v": v, "rid": np.arange(len(v)), "w": w})
    nulls = table.set_column(0, "v", pa.array([None if k == 3 else x for k, x in enumerate(v)]))
    for src, keep_rows in ((table, ~np.isnan(v)), (nulls, ~np.isnan(v) & (np.arange(len(v)) != 3))):
        for num_parts in (1, 3, 16):
            out, total = range_scan(_blocks(src, True), "v", _prefix_fn(),
                                    sums=("w",), num_parts=num_parts)
            got = out.to_pandas().sort_values("rid")
            vv = np.where(keep_rows, v, np.nan)
            keep, count, wsum, _ = _want(vv, w)
            assert total == {"count": len(keep), "w": int(w[keep].sum())}
            assert got["rid"].tolist() == keep.tolist()
            np.testing.assert_array_equal(got["count_before"].to_numpy(), count[keep])
            np.testing.assert_array_equal(got["w_before"].to_numpy(), wsum[keep])


def test_empty_input_never_calls_fn(ray_session):
    import ray.data as rd

    from tsfeatures_ray.stages.derive import range_scan

    def never(t, before, total, nxt):
        raise AssertionError("fn called on an empty input")

    empty = pa.table({"v": pa.array([], pa.int64()), "w": pa.array([], pa.int64())})
    for src in (rd.from_arrow(empty), rd.from_arrow(pa.table({"v": [np.nan], "w": [1]}))):
        out, total = range_scan(src, "v", never, sums=("w",), num_parts=3)
        assert total == {"count": 0, "w": 0}
        assert out.count() == 0
