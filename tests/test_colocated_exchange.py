"""Observed co-location: a ``by_partition`` over a materialized Arrow
Dataset whose blocks already hold whole partitions, in partition order
(an exchange's own materialized output), runs no Sort, and its output
equals the sorted exchange's, raw ``.equals()``: rows, their order and
the schema. The Sort is forced on the same data through a lazy identity
``map_batches``. Any other layout (a partition split over two blocks,
blocks in the wrong order, unpartitioned slices) takes the Sort."""

import re

import numpy as np
import pyarrow as pa
import pytest

MIN = 60_000_000
METRICS = ["token_len_sum", "latency_sum"]


def _turns(seed: int, n_convs: int = 40, max_turns: int = 30) -> pa.Table:
    """Raw transcript turns (conv_id, turn_idx, ts, text), conversations
    interleaved, timestamps over two days."""
    rng = np.random.RandomState(seed)
    convs, turns, ts = [], [], []
    for c in range(n_convs):
        n = rng.randint(1, max_turns)
        convs += [f"c{c:03d}"] * n
        turns += list(range(n))
        ts += list(np.sort(rng.randint(0, 2 * 1440, size=n)) * MIN + rng.randint(0, MIN, size=n))
    order = rng.permutation(len(convs))
    return pa.table({
        "conv_id": pa.array(np.asarray(convs)[order].tolist(), pa.string()),
        "turn_idx": pa.array(np.asarray(turns)[order], pa.int32()),
        "ts": pa.array(np.asarray(ts, dtype=np.int64)[order], pa.timestamp("us")),
        "text": pa.array(["w" * int(k) for k in rng.randint(0, 50, size=len(order))]),
    })


def _ds(table: pa.Table, blocks: int = 3):
    import ray.data as rd

    step = -(-len(table) // blocks)
    return rd.from_arrow([table.slice(i, step) for i in range(0, len(table), step)])


def _lazy(ds):
    """``ds`` behind an identity map: not materialized, so the exchange sorts."""
    return ds.map_batches(lambda t: t, batch_format="pyarrow")


def _arrow(ds) -> pa.Table:
    """The rows of ``ds`` in block order (empty blocks, which may carry
    no columns at all, left out)."""
    import ray

    return pa.concat_tables([t for t in ray.get(ds.to_arrow_refs()) if t.num_rows])


def _assert_same(got, want):
    """Equal schema, rows and row order; float columns bit for bit (Arrow's
    ``equals`` never holds for a NaN)."""
    got, want = _arrow(got), _arrow(want)
    assert got.schema == want.schema
    assert got.num_rows == want.num_rows > 0
    for name in got.column_names:
        a, b = got[name].combine_chunks(), want[name].combine_chunks()
        if pa.types.is_floating(a.type):
            bits = f"u{a.type.bit_width // 8}"
            assert a.is_null().equals(b.is_null()), name
            assert np.array_equal(a.to_numpy(zero_copy_only=False).view(bits),
                                  b.to_numpy(zero_copy_only=False).view(bits)), name
        else:
            assert a.equals(b), name


def _ops(ds) -> list[str]:
    return re.findall(r"^Operator \d+ (.+?):", ds.stats(), flags=re.M)


def _sorts(ds) -> int:
    return sum("Sort" in op for op in _ops(ds))


def _blocks(ds) -> list:
    """(ref, metadata) of every block of a materialized Dataset, in order."""
    return [b for bundle in ds._logical_plan.dag.output_data() for b in bundle.blocks]


def _default_parts() -> int:
    from tsfeatures_ray.stages.derive import default_num_parts

    return default_num_parts()


def _block_part_ids(ds, key: str, num_parts: int) -> list[np.ndarray]:
    import ray

    from tsfeatures_ray.stages.derive import _part_ids

    return [np.unique(_part_ids(ray.get(ref), key, num_parts))
            for ref, meta in _blocks(ds) if meta.num_rows]


def _derived(seed: int = 1, n_convs: int = 40, max_turns: int = 30, num_parts=None):
    from tsfeatures_ray.stages.derive import derive_turn_metrics

    return derive_turn_metrics(_ds(_turns(seed, n_convs, max_turns)), slim=True,
                               num_parts=num_parts).materialize()


def _rolled(seed: int = 1, n_convs: int = 300, max_turns: int = 30, blocks: int = 3,
            num_parts=None):
    """A materialized exchange output of several blocks, each holding
    whole partitions: the rollup of derived rows cut into ``blocks``
    slices. The slices must hold at least 1,024 rows each: Ray runs
    smaller blocks through one tag task, and the sort makes one reducer
    per block it gets."""
    from tsfeatures_ray.stages.rollup import rollup

    rows = _arrow(_derived(seed, n_convs, max_turns, num_parts))
    assert len(rows) >= 1024 * blocks
    return rollup(_ds(rows, blocks), num_parts=num_parts).materialize()


def test_flagship_composition_runs_one_sort(ray_session):
    """The bench's flagship composition -- a materialized gap-filled
    rollup, then pack -> features and compress over it -- runs ONE Sort
    in all, the rollup's own (pack sorted again before). The ignored
    ``pre_partitioned=True`` gives the same plan and table."""
    from tsfeatures_ray.pipelines import rollup_pipeline
    from tsfeatures_ray.stages.compress import compress_rollup
    from tsfeatures_ray.stages.features import features_over_packed
    from tsfeatures_ray.stages.pack import pack_series

    rolled = rollup_pipeline("sf0.001", gapfill=True).materialize()
    feats = features_over_packed(pack_series(rolled, metric=METRICS), balance=False).materialize()
    blocks = compress_rollup(rolled, metric="token_len_sum").materialize()
    trusted = compress_rollup(rolled, metric="token_len_sum", pre_partitioned=True).materialize()
    assert _sorts(rolled) == 1
    assert feats.count() > 0
    assert (_sorts(feats), _sorts(blocks)) == (1, 1), (_ops(feats), _ops(blocks))
    assert _ops(trusted) == _ops(blocks)
    _assert_same(trusted, blocks)


def _pack(ds):
    from tsfeatures_ray.stages.pack import pack_series

    return pack_series(ds, metric=METRICS)


def _gapfill(ds):
    from tsfeatures_ray.stages.rollup import gapfill_rollup

    return gapfill_rollup(ds)


def _compress(ds):
    from tsfeatures_ray.stages.compress import compress_rollup

    return compress_rollup(ds)


@pytest.mark.parametrize("op", [_pack, _gapfill, _compress])
def test_store_operator_over_a_materialized_rollup_equals_the_sort(ray_session, op):
    rolled = _rolled()
    assert len(_block_part_ids(rolled, "conv_id", _default_parts())) > 1
    no_sort, sort = op(rolled).materialize(), op(_lazy(rolled)).materialize()
    assert (_sorts(no_sort), _sorts(sort)) == (1, 2)  # the rollup's own, then the forced one
    _assert_same(no_sort, sort)


def test_rollup_of_a_materialized_derive_equals_the_sort(ray_session):
    from tsfeatures_ray.stages.rollup import rollup

    derived = _derived()
    no_sort, sort = rollup(derived).materialize(), rollup(_lazy(derived)).materialize()
    assert (_sorts(no_sort), _sorts(sort)) == (1, 2)
    _assert_same(no_sort, sort)


def test_tsfeatures_of_a_frame_equals_the_sort(ray_session):
    import pandas as pd
    import ray.data as rd

    from tsfeatures_ray.pipelines import tsfeatures

    rng = np.random.RandomState(3)
    frame = pd.DataFrame({
        "unique_id": np.repeat([f"s{i}" for i in range(24)], 36),
        "ds": np.tile(np.arange(36), 24),
        "y": rng.randn(24 * 36),
    }).sample(frac=1.0, random_state=4)
    table = pa.Table.from_pandas(frame, preserve_index=False)
    no_sort = tsfeatures(frame, freq=12).materialize()
    sort = tsfeatures(_lazy(rd.from_arrow(table)), freq=12).materialize()
    assert (_sorts(no_sort), _sorts(sort)) == (0, 1)
    _assert_same(no_sort, sort)


class _CountedCheck:
    """``derive._block_parts`` that records the block of every task it starts."""

    def __init__(self, fn):
        self.fn, self.refs = fn, []

    def remote(self, ref, *args):
        self.refs.append(ref)
        return self.fn.remote(ref, *args)


@pytest.mark.parametrize("op", ["pack", "gapfill"])
def test_empty_column_less_blocks_start_no_check(ray_session, monkeypatch, op):
    """More partitions than keys: the exchange's empty reducers leave
    zero-row blocks with no columns (Ray builds them; no partition
    function runs on them). The check starts no task for them, and the
    operator over the layout still runs no Sort and equals the Sort."""
    import ray

    from tsfeatures_ray.stages import derive
    from tsfeatures_ray.stages.pack import pack_series
    from tsfeatures_ray.stages.rollup import gapfill_rollup

    parts = 16
    rolled = _rolled(5, n_convs=5, max_turns=4000, blocks=8, num_parts=parts)
    full = [ref for ref, meta in _blocks(rolled) if meta.num_rows]
    empty = [ref for ref, meta in _blocks(rolled) if not meta.num_rows]
    assert len(full) > 1 and empty
    assert all(ray.get(ref).num_columns == 0 for ref in empty)

    counted = _CountedCheck(derive._block_parts)
    monkeypatch.setattr(derive, "_block_parts", counted)
    run = {"pack": lambda d: pack_series(d, metric=METRICS, num_parts=parts),
           "gapfill": lambda d: gapfill_rollup(d, num_parts=parts)}[op]
    no_sort = run(rolled).materialize()
    assert counted.refs == full
    sort = run(_lazy(rolled)).materialize()
    assert (_sorts(no_sort), _sorts(sort)) == (1, 2)
    _assert_same(no_sort, sort)


def test_partition_split_over_two_blocks_takes_the_sort(ray_session, monkeypatch):
    """A small ``target_max_block_size`` makes Ray cut the rollup's
    output blocks inside a partition: the operator falls back to the
    Sort, with an unchanged answer."""
    from ray.data import DataContext

    from tsfeatures_ray.stages.pack import pack_series
    from tsfeatures_ray.stages.rollup import rollup

    rows = _arrow(_derived(2, n_convs=300))
    whole = rollup(_ds(rows)).materialize()
    monkeypatch.setattr(DataContext.get_current(), "target_max_block_size", 64 * 1024)
    split = rollup(_ds(rows)).materialize()
    ids = np.concatenate(_block_part_ids(split, "conv_id", _default_parts()))
    assert len(ids) > len(np.unique(ids))  # some partition lies in two blocks
    got = pack_series(split, metric=METRICS).materialize()
    assert (_sorts(whole), _sorts(got)) == (1, 2)
    _assert_same(got, pack_series(whole, metric=METRICS).materialize())


def _by_part(table: pa.Table, num_parts: int) -> list[pa.Table]:
    """``table``'s rows split into one table per partition, in partition order."""
    from tsfeatures_ray.stages.derive import _part_ids

    part = _part_ids(table, "conv_id", num_parts)
    return [table.filter(pa.array(part == p)) for p in np.unique(part)]


def test_blocks_in_descending_partition_order_take_the_sort(ray_session):
    """Every block holds one whole partition, but the blocks run from
    the last partition to the first: the Sort runs, and the answer is
    that of the same partitions in ascending order."""
    import ray.data as rd

    from tsfeatures_ray.stages.rollup import rollup

    parts = _by_part(_arrow(_derived(6)), _default_parts())
    assert len(parts) > 1
    ascending = rollup(rd.from_arrow(parts)).materialize()
    descending = rollup(rd.from_arrow(parts[::-1])).materialize()
    assert (_sorts(ascending), _sorts(descending)) == (0, 1)
    _assert_same(descending, ascending)


def test_unpartitioned_materialized_slices_take_the_sort(ray_session):
    """``rd.from_arrow`` of shuffled row slices is materialized but not
    partitioned: the Sort runs, and the answer equals the lazy input's."""
    from tsfeatures_ray.stages.rollup import rollup

    table = _arrow(_derived(7))
    shuffled = table.take(pa.array(np.random.RandomState(8).permutation(len(table))))
    got = rollup(_ds(shuffled, blocks=4)).materialize()
    assert _sorts(got) == 1
    _assert_same(got, rollup(_lazy(_ds(shuffled, blocks=4))).materialize())


def test_same_key_exchange_over_a_no_sort_output_equals_over_the_sort(ray_session):
    """A later same-key operator over a no-Sort output -- lazy (it fuses)
    or materialized (checked again) -- gives the table it gives over the
    sorted exchange's output."""
    from tsfeatures_ray.stages.rollup import gapfill_rollup, rollup

    derived = _derived(9)
    want = gapfill_rollup(rollup(_lazy(derived))).materialize()
    lazy = gapfill_rollup(rollup(derived)).materialize()
    chained = gapfill_rollup(rollup(derived).materialize()).materialize()
    assert _sorts(chained) == 1  # derive's own
    _assert_same(lazy, want)
    _assert_same(chained, want)


def test_no_sort_exchange_leaves_its_input_context_alone(ray_session):
    """The no-Sort path keeps its output's block order on a context of the
    output's own: building it, and executing it, leaves the input's
    ``preserve_order`` and that of later plans built from the input as
    they were."""
    import ray.data as rd

    from tsfeatures_ray.stages.rollup import rollup

    def preserve(ds) -> bool:
        return ds.context.execution_options.preserve_order

    m = rd.from_arrow(_by_part(_arrow(_derived(6)), _default_parts()))
    assert not preserve(m)
    out = rollup(m)
    assert preserve(out) and not preserve(m)
    out = out.materialize()
    assert _sorts(out) == 0
    assert not preserve(m)
    assert not preserve(m.map_batches(lambda t: t, batch_format="pyarrow"))
