"""Plan shape of the feature entry points: building a plan runs
nothing (no eager materialize or count on the driver), and a
``tsfeatures`` run is its one exchange plus one map -- no repartition
and no second exchange between the pack and the kernels."""

import re

import numpy as np
import pandas as pd
import pytest


@pytest.fixture
def executions(monkeypatch):
    """Names of the Dataset plans executed while the test runs (every
    execution of a Ray Data plan starts by creating its executor)."""
    from ray.data._internal.plan import ExecutionPlan

    calls = []
    create = ExecutionPlan.create_executor

    def counted(self):
        calls.append(self.get_dataset_id())
        return create(self)

    monkeypatch.setattr(ExecutionPlan, "create_executor", counted)
    return calls


def _panel(n_series=30, n=40):
    rng = np.random.RandomState(0)
    return pd.DataFrame({
        "unique_id": np.repeat([f"s{i}" for i in range(n_series)], n),
        "ds": np.tile(np.arange(n), n_series),
        "y": rng.randn(n_series * n),
    })


def test_feature_entry_points_execute_nothing_when_called(ray_session, executions):
    import ray.data as rd

    from tsfeatures_ray.pipelines import feature_pipeline, tsfeatures
    from tsfeatures_ray.pipelines.flagship import slim_turns
    from tsfeatures_ray.stages.derive import by_partition
    from tsfeatures_ray.stages.features import features_over_packed
    from tsfeatures_ray.stages.rollup import turn_rollup_fn

    sf = "sf0.001"  # the synthetic transcripts of that scale factor
    packed = by_partition(slim_turns(sf), "conv_id",
                          turn_rollup_fn(["1h"], pack_metrics="token_len_sum"),
                          batch_format="pyarrow")
    plans = [
        features_over_packed(packed),
        features_over_packed(packed, balance=False, concurrency=2),
        tsfeatures(rd.from_pandas(_panel()), freq=12),
        feature_pipeline(sf, tiers=["1h"]),
    ]
    assert executions == []
    # the probe itself sees an execution
    assert plans[2].materialize().count() == 30
    assert len(executions) >= 1


def test_tsfeatures_runs_one_sort_and_no_repartition(ray_session):
    from tsfeatures_ray.pipelines import tsfeatures

    ds = tsfeatures(_panel(), freq=12).materialize()
    assert ds.count() == 30
    ops = re.findall(r"^Operator \d+ (.+?):", ds.stats(), flags=re.M)
    assert sum("Sort" in op for op in ops) == 1, ops
    assert not any("Repartition" in op for op in ops), ops


def test_tsfeatures_wide_frame_runs_as_batch_row_tasks(ray_session):
    """A pandas frame given to tsfeatures_wide (one Arrow block) runs its
    kernels as several tasks, not as one task over the single block:
    ``features_over_packed`` re-cuts the shuffled blocks into
    ``BATCH_ROWS``-row blocks."""
    from tsfeatures_ray.pipelines import tsfeatures_wide
    from tsfeatures_ray.stages.features import BATCH_ROWS

    n = 2 * BATCH_ROWS + 50
    rng = np.random.RandomState(1)
    wide = pd.DataFrame({"unique_id": [f"w{i}" for i in range(n)],
                         "seasonality": 1,
                         "y": [rng.randn(6).tolist() for _ in range(n)]})
    ds = tsfeatures_wide(wide, features=["series_length"], scale=False).materialize()
    assert sorted(ds.to_pandas()["unique_id"]) == sorted(wide["unique_id"])
    tasks = re.findall(r"^Operator \d+ .*FeatureKernels.*?: (\d+) tasks", ds.stats(), flags=re.M)
    assert len(tasks) == 1 and int(tasks[0]) >= 2, ds.stats()


def test_one_block_packed_dataset_runs_as_batch_row_tasks(ray_session):
    """A packed Dataset of ONE block (``rd.from_arrow`` of a user-packed
    table) runs its kernels as one task per ``BATCH_ROWS`` rows, not as
    one task over the block: the balancing shuffle keeps the block
    count, so ``features_over_packed`` re-cuts the shuffled blocks."""
    import pyarrow as pa
    import ray.data as rd

    from tsfeatures_ray.stages.features import BATCH_ROWS, features_over_packed
    from tsfeatures_ray.stages.pack import PACKED_SCHEMA

    n = 2 * BATCH_ROWS + 50
    rng = np.random.RandomState(2)
    table = pa.Table.from_arrays(
        [
            pa.array([f"p{i}" for i in range(n)], pa.string()),
            pa.array(["-"] * n, pa.string()),
            pa.array(["y"] * n, pa.string()),
            pa.array([1] * n, pa.int32()),
            pa.array([6] * n, pa.int64()),
            pa.array([rng.randn(6).tolist() for _ in range(n)], pa.list_(pa.float64())),
        ],
        schema=PACKED_SCHEMA,
    )
    ds = features_over_packed(rd.from_arrow(table), features=["series_length"],
                              scale=False).materialize()
    assert sorted(ds.to_pandas()["unique_id"]) == sorted(table["unique_id"].to_pylist())
    tasks = re.findall(r"^Operator \d+ .*FeatureKernels.*?: (\d+) tasks", ds.stats(), flags=re.M)
    assert len(tasks) == 1 and int(tasks[0]) >= 2, ds.stats()
