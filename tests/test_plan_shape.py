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

    from tsfeatures_ray.pipelines import feature_pipeline, rollup_pipeline, tsfeatures
    from tsfeatures_ray.stages.features import features_over_packed
    from tsfeatures_ray.stages.pack import pack_series

    sf = "sf0.001"  # the synthetic transcripts of that scale factor
    packed = pack_series(rollup_pipeline(sf, ["1h"]), metric="token_len_sum")
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


def _ops(ds) -> list[str]:
    return re.findall(r"^Operator \d+ (.+?):", ds.stats(), flags=re.M)


def test_tsfeatures_runs_one_sort_and_no_repartition(ray_session):
    """Over blocks that are not partitioned on unique_id (one series
    lies in both blocks) the exchange is one Sort, with no Repartition."""
    import pyarrow as pa
    import ray.data as rd

    from tsfeatures_ray.pipelines import tsfeatures

    table = pa.Table.from_pandas(_panel(), preserve_index=False)
    ds = tsfeatures(rd.from_arrow([table.slice(0, 620), table.slice(620)]), freq=12).materialize()
    assert ds.count() == 30
    ops = _ops(ds)
    assert sum("Sort" in op for op in ops) == 1, ops
    assert not any("Repartition" in op for op in ops), ops


def test_tsfeatures_over_a_frame_runs_no_sort(ray_session):
    """A pandas frame enters as one Arrow block, which holds every
    partition whole: the exchange runs no Sort."""
    from tsfeatures_ray.pipelines import tsfeatures

    ds = tsfeatures(_panel(), freq=12).materialize()
    assert ds.count() == 30
    ops = _ops(ds)
    assert not any("Sort" in op or "Repartition" in op for op in ops), ops


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


def _turns(seed: int, start_us: int = 0):
    """Raw transcript turns of 30 conversations (Arrow, three blocks)."""
    import pyarrow as pa
    import ray.data as rd

    rng = np.random.RandomState(seed)
    n = rng.randint(1, 25, size=30)
    table = pa.table({
        "conv_id": np.repeat([f"c{i}" for i in range(30)], n),
        "turn_idx": pa.array(np.concatenate([np.arange(k) for k in n]), pa.int32()),
        "ts": pa.array(start_us + np.sort(rng.randint(0, 86_400_000_000, size=n.sum())),
                       pa.timestamp("us")),
        "text": ["w" * int(k) for k in rng.randint(0, 40, size=n.sum())],
    })
    step = -(-len(table) // 3)
    return rd.from_arrow([table.slice(i, step) for i in range(0, len(table), step)])


def _store_sorts(ds) -> list[str]:
    return [op for op in re.findall(r"^Operator \d+ (.+?):", ds.stats(), flags=re.M)
            if "Sort" in op]


def _base_and_new():
    from tsfeatures_ray.stages.derive import derive_turn_metrics
    from tsfeatures_ray.stages.rollup import merge_rollups, rollup

    base = rollup(derive_turn_metrics(_turns(0), slim=True), keep_ord=True)
    new = rollup(derive_turn_metrics(_turns(1, 86_400_000_000), slim=True), keep_ord=True)
    return merge_rollups(base, new, gapfill=True)


def test_store_operators_execute_nothing_when_called(ray_session, executions):
    from tsfeatures_ray.stages.derive import derive_turn_metrics
    from tsfeatures_ray.stages.rollup import rollup

    plans = [_base_and_new(), rollup(derive_turn_metrics(_turns(2), slim=True))]
    assert executions == []
    assert plans[1].materialize().count() > 0


def test_base_and_new_merge_runs_one_sort(ray_session):
    """base + new-day derive -> keep_ord rollup -> gap-filled merge is ONE
    exchange (five before same-key exchanges fused), and derive ->
    rollup is one."""
    from tsfeatures_ray.stages.derive import derive_turn_metrics
    from tsfeatures_ray.stages.rollup import rollup

    merged = _base_and_new().materialize()
    assert merged.count() > 0
    assert len(_store_sorts(merged)) == 1, merged.stats()
    rolled = rollup(derive_turn_metrics(_turns(3), slim=True)).materialize()
    assert len(_store_sorts(rolled)) == 1, rolled.stats()


def test_flagship_pipelines_run_one_sort(ray_session):
    """rollup_pipeline and feature_pipeline, with and without
    ``concurrency``, are compositions of the stage operators that run
    as ONE Sort: derive, rollup and pack + kernels share one exchange."""
    from tsfeatures_ray.pipelines import feature_pipeline, rollup_pipeline

    sf = "sf0.001"
    feats = ["series_length"]
    plans = [rollup_pipeline(sf, ["1h"], gapfill=True),
             feature_pipeline(sf, tiers=["1h"], features=feats),
             feature_pipeline(sf, tiers=["1h"], features=feats, concurrency=2)]
    for ds in plans:
        ds = ds.materialize()
        assert ds.count() > 0
        assert len(_store_sorts(ds)) == 1, ds.stats()


def test_exchange_fusion_ignores_concurrency(ray_session):
    """A lazy derive -> rollup under a same-key ``by_partition`` with a
    ``concurrency`` cap is still one Sort: the fused exchange runs at
    the outermost call's cap."""
    from tsfeatures_ray.stages.derive import by_partition, derive_turn_metrics
    from tsfeatures_ray.stages.rollup import rollup

    def tiers_seen(t):
        return t.group_by("conv_id").aggregate([("tier", "count_distinct")])

    lazy = rollup(derive_turn_metrics(_turns(4), slim=True))
    ds = by_partition(lazy, "conv_id", tiers_seen, concurrency=2,
                      batch_format="pyarrow").materialize()
    assert ds.count() == 30
    assert len(_store_sorts(ds)) == 1, ds.stats()


def test_compact_tier_over_materialized_rollup_runs_only_its_own_sort(ray_session,
                                                                      executions):
    """Fusion never reaches across ``materialize()``, and a materialized
    merge is already partitioned on the key: compacting it is one
    execution that adds no Sort, only its own partition function, and
    re-runs none of the merge's partition functions."""
    from tsfeatures_ray.stages.retention import compact_tier

    merged = _base_and_new().materialize()
    del executions[:]
    compacted = compact_tier(merged, "1m", "1h").materialize()
    assert len(executions) == 1
    assert compacted.count() > 0
    ops = re.findall(r"^Operator \d+ (.+?):", compacted.stats(), flags=re.M)
    before = re.findall(r"^Operator \d+ (.+?):", merged.stats(), flags=re.M)
    assert ops[:len(before)] == before  # the merge's own (finished) execution
    assert ops[len(before):] == ["MapBatches(compact)"], ops


def test_rollup_compact_1h_runs_one_sort(ray_session):
    """The contract query's plan, ``compact_tier`` over the lazy
    ``rollup_pipeline``, runs derive, the rollup and the compaction in
    ONE Sort: compaction has no per-batch partial to exchange."""
    from tsfeatures_ray.pipelines import rollup_pipeline
    from tsfeatures_ray.stages.retention import compact_tier

    ds = compact_tier(rollup_pipeline("sf0.001", ["1m"]), "1m", "1h").materialize()
    assert ds.count() > 0
    assert len(_store_sorts(ds)) == 1, ds.stats()


def _keyed_frames():
    import ray.data as rd

    rng = np.random.default_rng(14)
    df = pd.DataFrame({"k": rng.integers(0, 50, 2_000), "v": rng.normal(size=2_000)})
    return rd.from_pandas([df.iloc[:1_000], df.iloc[1_000:]])


def _halver():
    """A pandas partition function (nested, so Ray workers unpickle it
    by value)."""
    def halve(g: pd.DataFrame) -> pd.DataFrame:
        return g.assign(v=g["v"] / 2)

    return halve


def test_pandas_format_chain_runs_one_sort(ray_session):
    """Two lazy pandas-format ``by_partition`` calls on one key fuse
    into one exchange: one Sort."""
    from tsfeatures_ray.stages.derive import by_partition

    halve = _halver()
    ds = by_partition(by_partition(_keyed_frames(), "k", halve), "k", halve).materialize()
    assert ds.count() == 2_000
    assert len(_store_sorts(ds)) == 1, ds.stats()


def test_pandas_format_over_materialized_exchange_runs_no_sort(ray_session):
    """A pandas-format ``by_partition`` over the materialized output of
    a pandas-format exchange on the same key adds no Sort, only its own
    partition function."""
    from tsfeatures_ray.stages.derive import by_partition

    halve = _halver()
    first = by_partition(_keyed_frames(), "k", halve).materialize()
    second = by_partition(first, "k", halve).materialize()
    assert second.count() == 2_000
    ops = re.findall(r"^Operator \d+ (.+?):", second.stats(), flags=re.M)
    before = re.findall(r"^Operator \d+ (.+?):", first.stats(), flags=re.M)
    assert ops[:len(before)] == before
    assert ops[len(before):] == ["MapBatches(halve)"], ops


def test_pack_sequences_runs_no_aggregate_on_part(ray_session, monkeypatch):
    """pack_sequences' prefix sum is ``range_scan``: its per-partition
    totals come from one task per block, so no plan it executes holds
    an Aggregate grouped on ``part`` (only the scan's Sort)."""
    import ray.data as rd
    from ray.data._internal.logical.operators.all_to_all_operator import Aggregate, Sort
    from ray.data._internal.plan import ExecutionPlan

    from tsfeatures_ray.functions import pack_sequences

    ops = []
    create = ExecutionPlan.create_executor

    def recording(self):
        stack = [self._logical_plan.dag]
        while stack:
            op = stack.pop()
            ops.append(op)
            stack.extend(op.input_dependencies)
        return create(self)

    monkeypatch.setattr(ExecutionPlan, "create_executor", recording)
    docs = pd.DataFrame({"doc_id": np.arange(200), "text": ["x" * k for k in range(200)]})
    out = pack_sequences(rd.from_pandas([docs.iloc[:90], docs.iloc[90:]]), budget=64,
                         num_parts=4).to_pandas()
    assert out["start"].tolist() == np.concatenate(([0], np.cumsum(np.arange(199)))).tolist()
    keys = [op._key for op in ops if isinstance(op, Aggregate)]
    assert not [k for k in keys if "part" in ([k] if isinstance(k, str) else list(k or []))], keys
    assert any(isinstance(op, Sort) for op in ops)
