"""One exchange per key: a lazy chain of same-key Arrow store operators
runs as one ``by_partition`` exchange (``derive.by_partition``'s
fusion), and its output equals the unfused chain's, raw ``.equals()``:
rows, their order and the schema. The unfused side is forced by
materializing each intermediate, which leaves nothing to fuse with."""

import numpy as np
import pyarrow as pa
import pytest

MIN = 60_000_000


def _turns(seed: int, n_convs: int = 40, conv_type=pa.string(), ts_unit: str = "us",
           start_us: int = 0) -> pa.Table:
    """Raw transcript turns: (conv_id, turn_idx, ts, role, text, tool),
    conversations interleaved, timestamps over two days."""
    rng = np.random.RandomState(seed)
    convs, turns, ts = [], [], []
    for c in range(n_convs):
        n = rng.randint(1, 30)
        convs += [f"c{c:03d}"] * n
        turns += list(range(n))
        ts += list(start_us + np.sort(rng.randint(0, 2 * 1440, size=n)) * MIN
                   + rng.randint(0, MIN, size=n))
    order = rng.permutation(len(convs))
    ts = np.asarray(ts, dtype=np.int64)[order]
    if ts_unit == "ns":
        ts = ts * 1000
    return pa.table({
        "conv_id": pa.array(np.asarray(convs)[order].tolist(), conv_type),
        "turn_idx": pa.array(np.asarray(turns)[order], pa.int32()),
        "ts": pa.array(ts, pa.timestamp(ts_unit)),
        "role": pa.array(rng.choice(["user", "assistant"], size=len(order))),
        "text": pa.array(["w" * int(k) for k in rng.randint(0, 50, size=len(order))]),
        "tool": pa.array([""] * len(order)),
    })


def _ds(table: pa.Table, blocks: int = 3):
    import ray.data as rd

    step = -(-len(table) // blocks)
    return rd.from_arrow([table.slice(i, step) for i in range(0, len(table), step)])


def _arrow(ds) -> pa.Table:
    """The rows of ``ds`` in block order (empty blocks, which may carry
    no columns at all, left out)."""
    import ray

    return pa.concat_tables([t for t in ray.get(ds.to_arrow_refs()) if t.num_rows])


def _assert_same(fused, unfused):
    got, want = _arrow(fused), _arrow(unfused)
    assert got.schema == want.schema
    assert got.num_rows == want.num_rows > 0
    assert got.equals(want)


def _sorts(ds) -> int:
    import re

    return sum("Sort" in op for op in re.findall(r"^Operator \d+ (.+?):", ds.stats(), flags=re.M))


@pytest.mark.parametrize("keep_ord,gapfill", [(False, False), (False, True), (True, False)])
def test_rollup_of_lazy_derive_equals_unfused(ray_session, keep_ord, gapfill):
    from tsfeatures_ray.stages.derive import derive_turn_metrics
    from tsfeatures_ray.stages.rollup import rollup

    src = _turns(1)
    fused = rollup(derive_turn_metrics(_ds(src), slim=True), gapfill=gapfill,
                   keep_ord=keep_ord).materialize()
    unfused = rollup(derive_turn_metrics(_ds(src), slim=True).materialize(), gapfill=gapfill,
                     keep_ord=keep_ord).materialize()
    # the materialized derive is already partitioned: rollup runs no Sort of its own
    assert (_sorts(fused), _sorts(unfused)) == (1, 1)
    _assert_same(fused, unfused)


def _chain(table: pa.Table, materialize: bool):
    from tsfeatures_ray.stages.derive import derive_turn_metrics
    from tsfeatures_ray.stages.rollup import rollup

    derived = derive_turn_metrics(_ds(table), slim=True)
    if materialize:
        return rollup(derived.materialize(), keep_ord=True).materialize()
    return rollup(derived, keep_ord=True)


@pytest.mark.parametrize("gapfill", [True, False])
def test_merge_of_two_lazy_chains_equals_unfused(ray_session, gapfill):
    """Base and new-day derive -> rollup chains and their merge run as
    one exchange, equal to the merge of the materialized rollups, both
    as the union the merge exchanged before fusion existed and as a list
    of plain inputs."""
    from tsfeatures_ray.stages.rollup import merge_rollups

    base, new = _turns(2), _turns(3, n_convs=25, start_us=1440 * MIN)
    fused = merge_rollups(_chain(base, False), _chain(new, False), gapfill=gapfill).materialize()
    a, b = _chain(base, True), _chain(new, True)
    assert _sorts(fused) == 1
    _assert_same(fused, merge_rollups(a.union(b), gapfill=gapfill).materialize())
    _assert_same(fused, merge_rollups(a, b, gapfill=gapfill).materialize())


def test_merge_of_stored_and_lazy_rollup_equals_unfused(ray_session, tmp_path):
    """The incremental-ingestion shape: yesterday's stored rollup read
    back (a plain input) merged with today's lazy derive -> rollup (a
    fused input)."""
    import ray.data as rd

    from tsfeatures_ray.stages.rollup import merge_rollups

    _chain(_turns(4), True).write_parquet(str(tmp_path / "stored"))
    stored = rd.read_parquet(str(tmp_path / "stored"))
    new = _turns(5, start_us=1440 * MIN)
    fused = merge_rollups(stored, _chain(new, False), gapfill=True).materialize()
    unfused = merge_rollups(stored.union(_chain(new, True)), gapfill=True).materialize()
    _assert_same(fused, unfused)


def test_merge_of_sides_with_different_source_types(ray_session):
    """Each side keeps its own types inside the fused exchange: a
    ``string`` against a ``large_string`` conv_id, ``timestamp[us]``
    against ``timestamp[ns]`` ts (latency stays in the unit each side's
    ts holds), and one side's extra column."""
    from tsfeatures_ray.stages.rollup import merge_rollups

    base = _turns(6)
    new = _turns(7, conv_type=pa.large_string(), ts_unit="ns", start_us=1440 * MIN)
    stored = _chain(base, True)
    extra = stored.map_batches(
        lambda t: t.append_column("note", pa.array(["x"] * len(t))), batch_format="pyarrow")
    fused = merge_rollups(_chain(base, False), _chain(new, False), gapfill=True).materialize()
    unfused = merge_rollups(stored.union(_chain(new, True)), gapfill=True).materialize()
    assert _arrow(fused).schema.field("conv_id").type == pa.large_string()
    _assert_same(fused, unfused)
    fused = merge_rollups(extra, _chain(new, False)).materialize()
    _assert_same(fused, merge_rollups(extra.union(_chain(new, True))).materialize())


def test_gapfill_and_compress_of_lazy_rollup_equal_unfused(ray_session):
    from tsfeatures_ray.stages.compress import compress_rollup
    from tsfeatures_ray.stages.derive import derive_turn_metrics
    from tsfeatures_ray.stages.rollup import gapfill_rollup, rollup

    src = _turns(8)

    def rolled(materialize: bool):
        derived = derive_turn_metrics(_ds(src), slim=True)
        return rollup(derived.materialize()).materialize() if materialize else rollup(derived)

    fused = gapfill_rollup(rolled(False)).materialize()
    assert _sorts(fused) == 1
    _assert_same(fused, gapfill_rollup(rolled(True)).materialize())
    fused = compress_rollup(rolled(False)).materialize()
    assert _sorts(fused) == 1
    _assert_same(fused, compress_rollup(rolled(True)).materialize())


def test_mismatched_num_parts_do_not_fuse(ray_session):
    from tsfeatures_ray.stages.derive import derive_turn_metrics
    from tsfeatures_ray.stages.rollup import rollup

    src = _turns(9)
    chained = rollup(derive_turn_metrics(_ds(src), num_parts=5, slim=True),
                     num_parts=7).materialize()
    unfused = rollup(derive_turn_metrics(_ds(src), num_parts=5, slim=True).materialize(),
                     num_parts=7).materialize()
    assert _sorts(chained) == 2
    _assert_same(chained, unfused)


def test_key_changing_partition_function_raises(ray_session):
    """A first function whose output rows no longer hash to their
    partition cannot be fused silently: the fused exchange raises,
    naming it."""
    from tsfeatures_ray.stages.derive import by_partition

    def rename_convs(t: pa.Table) -> pa.Table:
        i = t.column_names.index("conv_id")
        return t.set_column(i, "conv_id", pa.array([f"x{k}" for k in range(len(t))]))

    def identity(t: pa.Table) -> pa.Table:
        return t

    first = by_partition(_ds(_turns(10)), "conv_id", rename_convs, num_parts=4,
                         batch_format="pyarrow")
    with pytest.raises(ValueError, match="rename_convs"):
        by_partition(first, "conv_id", identity, num_parts=4,
                     batch_format="pyarrow").materialize()


def test_merge_rollups_needs_an_input():
    from tsfeatures_ray.stages.rollup import merge_rollups

    with pytest.raises(ValueError, match="at least one rollup"):
        merge_rollups()
