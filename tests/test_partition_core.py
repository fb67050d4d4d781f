"""One partition core: every hash co-partition in the engine and the
operator library goes through ``stages.derive.by_partition`` /
``with_part``, so the partition id of a row is computed in exactly one
place. The AST guard keeps hand-written ``stable_part`` tags from
growing back, a second one keeps the feature stage on its single
dispatch path; the list-key tests pin the multi-column rule."""

import ast
import pathlib

import numpy as np
import pandas as pd
import pyarrow as pa

ROOT = pathlib.Path(__file__).resolve().parents[1]
CORE = ROOT / "tsfeatures_ray" / "stages" / "derive.py"
FEATURES = ROOT / "tsfeatures_ray" / "stages" / "features.py"

# sites that may still call stable_part directly: path relative to the
# repo root -> one-line reason (empty: every site is ported)
ALLOWED: dict[str, str] = {}


def _calls(path: pathlib.Path, name: str) -> list[int]:
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            fn = node.func
            called = (
                fn.id if isinstance(fn, ast.Name)
                else fn.attr if isinstance(fn, ast.Attribute) else None
            )
            if called == name:
                lines.append(node.lineno)
    return lines


def test_stable_part_only_in_partition_core():
    files = sorted((ROOT / "tsfeatures_ray").rglob("*.py"))
    files.append(ROOT / "__ray_entry__.py")
    offenders = []
    for f in files:
        rel = str(f.relative_to(ROOT))
        if f == CORE or rel in ALLOWED:
            continue
        offenders += [f"{rel}:{ln}" for ln in _calls(f, "stable_part")]
    assert not offenders, (
        "hand-written stable_part tag(s); route the exchange through "
        f"stages.derive.by_partition: {offenders}"
    )


def test_feature_stage_has_one_dispatch_path():
    """The feature stage dispatches through exactly one map_batches and
    never through a keyed exchange: no second path (grouped giant
    routing, a probe map) grows back."""
    maps = _calls(FEATURES, "map_batches")
    assert len(maps) <= 1, f"stages/features.py map_batches at lines {maps}"
    keyed = _calls(FEATURES, "groupby") + _calls(FEATURES, "map_groups")
    assert not keyed, f"stages/features.py groupby/map_groups at lines {keyed}"


def _called(node: ast.AST) -> list[str]:
    """Names of the functions and methods called under ``node``."""
    return [
        c.func.id if isinstance(c.func, ast.Name) else c.func.attr
        for c in ast.walk(node)
        if isinstance(c, ast.Call) and isinstance(c.func, (ast.Name, ast.Attribute))
    ]


def test_exchange_is_one_sort_and_co_location_is_never_declared():
    """``by_partition`` is one Sort (taken or skipped by its own check)
    and a per-partition map, with no ``groupby``/``map_groups``; no
    caller declares its input partitioned with ``pre_partitioned=``."""
    body = next(n for n in ast.walk(ast.parse(CORE.read_text()))
                if isinstance(n, ast.FunctionDef) and n.name == "by_partition")
    called = _called(body)
    assert "groupby" not in called and "map_groups" not in called, called
    assert called.count("sort") == 1, called
    files = sorted((ROOT / "tsfeatures_ray").rglob("*.py"))
    files += [ROOT / "bench.py", ROOT / "__ray_entry__.py"]
    declared = [
        f"{f.relative_to(ROOT)}:{c.lineno}"
        for f in files for c in ast.walk(ast.parse(f.read_text()))
        if isinstance(c, ast.Call) and any(k.arg == "pre_partitioned" for k in c.keywords)
    ]
    assert not declared, f"pre_partitioned= passed at {declared}"


def _frame() -> pd.DataFrame:
    rng = np.random.default_rng(11)
    n = 500
    return pd.DataFrame(
        {
            "a": rng.choice(["x", "y", "zz", "w"], n),
            "b": rng.integers(-3, 40, n),
            # integer-valued: partial sums are exact in any order
            "v": rng.integers(-50, 50, n).astype("float64"),
        }
    )


def test_with_part_list_key_matches_multicolumn_rule(ray_session):
    """``with_part`` on a key list tags the same ids as the multi-column
    rule the operator library always used: one column -> stable_part,
    several -> hash_pandas_object(df[keys], index=False) % P."""
    import ray.data as rd

    from tsfeatures_ray.stages.derive import stable_part, with_part

    df = _frame()
    P = 7
    want2 = (
        pd.util.hash_pandas_object(df[["a", "b"]], index=False).to_numpy()
        % np.uint64(P)
    ).astype(np.int64)
    want1 = stable_part(df["a"].to_numpy(), P)
    arrow = pa.Table.from_pandas(df, preserve_index=False)
    for src in (rd.from_pandas(df), rd.from_arrow(arrow)):
        got = with_part(src, ["a", "b"], P).to_pandas()
        np.testing.assert_array_equal(got["part"].to_numpy(), want2)
        got = with_part(src, ["a"], P).to_pandas()
        np.testing.assert_array_equal(got["part"].to_numpy(), want1)


def test_two_column_grouped_agg_block_layout_invariant(ray_session):
    import ray.data as rd

    from tsfeatures_ray.functions import grouped_agg

    df = _frame()
    aggs = {"v": ["sum", "count", "min", "max"]}
    keys = ["a", "b"]

    def run(ds):
        return (
            grouped_agg(ds, keys, aggs).to_pandas()
            .sort_values(keys, kind="mergesort").reset_index(drop=True)
        )

    one = rd.from_pandas(df)
    want = run(one)
    got = run(one.repartition(97))
    assert len(want) == df.groupby(keys).ngroups
    pd.testing.assert_frame_equal(got, want)


def _stable_part_oracle(conv_ids, num_parts: int) -> np.ndarray:
    """``stable_part`` as it hashed every row before hashing each
    distinct Arrow value once: pandas' siphash over a Python object per
    row."""
    arr = np.asarray(conv_ids, dtype=object)
    return (pd.util.hash_array(arr) % np.uint64(num_parts)).astype(np.int64)


def test_stable_part_hashes_like_every_row():
    """Arrow keys hash each distinct value once (dictionary encoding)
    and give the ids of hashing every row: strings, large strings,
    chunked columns, integers (which hash like their strings), nulls,
    and pandas input."""
    from tsfeatures_ray.stages.derive import stable_part

    rng = np.random.default_rng(12)
    words = [f"conv-{k}" for k in rng.integers(0, 300, 2_000)]
    with_nulls = [w if k % 7 else None for k, w in enumerate(words)]
    ints = rng.integers(-5, 400, 2_000)
    cases = [
        pa.array(words),
        pa.array(words, pa.large_string()),
        pa.array(with_nulls),
        pa.chunked_array([pa.array(words[:700]), pa.array(words[700:]), pa.array([], pa.string())]),
        pa.array(ints),
        pa.chunked_array([pa.array(ints[:5]), pa.array(ints[5:])]),
        pa.array([int(k) if k % 5 else None for k in ints]),
        pa.array([None, None], pa.string()),
        pa.array([], pa.string()),
        pd.Series(with_nulls).to_numpy(),
        pd.Series(ints).to_numpy(),
    ]
    for col in cases:
        for num_parts in (1, 7, 64):
            np.testing.assert_array_equal(stable_part(col, num_parts),
                                          _stable_part_oracle(col, num_parts))
    np.testing.assert_array_equal(stable_part(pa.array([5, 17]), 64),
                                  stable_part(pa.array(["5", "17"]), 64))


def test_pandas_partition_function_gets_rows_in_input_order(ray_session):
    """A pandas partition function over pandas blocks gets each key's
    rows in input order: the exchange is the stable Arrow one whatever
    the block format or the function's view."""
    import ray.data as rd

    from tsfeatures_ray.stages.derive import by_partition

    rng = np.random.default_rng(13)
    n = 4_000
    df = pd.DataFrame({"k": rng.choice(["a", "b", "c", "d", "e"], n),
                       "seq": np.arange(n, dtype=np.int64)})

    def arrival(g: pd.DataFrame) -> pd.DataFrame:
        return g.assign(arrived=np.arange(len(g), dtype=np.int64))

    src = rd.from_pandas([df.iloc[: n // 2], df.iloc[n // 2:]])
    got = by_partition(src, "k", arrival, num_parts=3).to_pandas()
    assert len(got) == n
    for k, g in got.groupby("k"):
        seq = g.sort_values("arrived")["seq"].to_numpy()
        assert np.all(np.diff(seq) > 0), k


# files that may still hand-write a groupby on the partition column
# ("part" or "ppart"), all hash-bucket sites; this list may only shrink
GROUPBY_PART_ALLOWED = [
    "tsfeatures_ray/functions/dedup.py",
    "tsfeatures_ray/functions/similarity.py",
    "tsfeatures_ray/functions/spans.py",
]
# the modules whose ordered scans run on stages.derive.range_scan
RANGE_SCAN_USERS = [
    "tsfeatures_ray/functions/concurrency.py",
    "tsfeatures_ray/functions/pack.py",
    "tsfeatures_ray/functions/stats.py",
]


def _groupby_part(path: pathlib.Path) -> list[int]:
    """Lines of ``groupby("part")``/``groupby("ppart")`` calls (a list
    key holding either counts too)."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "groupby" and node.args):
            arg = node.args[0]
            keys = arg.elts if isinstance(arg, (ast.List, ast.Tuple)) else [arg]
            if any(isinstance(k, ast.Constant) and k.value in ("part", "ppart") for k in keys):
                lines.append(node.lineno)
    return lines


def test_groupby_on_the_partition_column_only_in_pinned_files():
    """A range-partition prefix scan goes through
    ``stages.derive.range_scan``: no hand-written ``groupby("part")``
    outside the pinned hash-bucket files, and no hand-made broadcast
    (``ray.put``) in the modules that moved onto the scan. A pinned
    file with no site left must leave the list."""
    assert len(GROUPBY_PART_ALLOWED) <= 3
    found = {str(f.relative_to(ROOT)): _groupby_part(f)
             for f in sorted((ROOT / "tsfeatures_ray").rglob("*.py"))}
    offenders = [f"{rel}:{ln}" for rel, lines in found.items()
                 if rel not in GROUPBY_PART_ALLOWED for ln in lines]
    assert not offenders, f"hand-written groupby on the partition column: {offenders}"
    stale = [rel for rel in GROUPBY_PART_ALLOWED if not found.get(rel)]
    assert not stale, f"no groupby on the partition column left; unpin {stale}"
    puts = [f"{rel}:{ln}" for rel in RANGE_SCAN_USERS for ln in _calls(ROOT / rel, "put")]
    assert not puts, f"hand-made broadcast at {puts}"
