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


def test_stable_part_integer_and_string_edges():
    """The string/integer path (integers cast to their decimal strings
    in Arrow, the distinct values hashed without re-factorizing) gives
    the ids of hashing every row as a Python object: int64 extremes and
    negatives, uint64 above 2^63, int32, string and large_string, each
    with and without nulls."""
    from tsfeatures_ray.stages.derive import stable_part

    rng = np.random.default_rng(14)
    i64 = [-(2**63), 2**63 - 1, -1, 0, 1] + rng.integers(-(2**63), 2**63 - 1, 300).tolist()
    u64 = [2**63, 2**64 - 1, 0] + [int(v) for v in rng.integers(2**63, 2**64 - 1, 300, dtype=np.uint64)]
    i32 = [-(2**31), 2**31 - 1] + rng.integers(-(2**31), 2**31 - 1, 300).tolist()
    words = [f"w{v}" for v in i32] + ["", "é", "日本"]
    cases = [(i64, pa.int64()), (u64, pa.uint64()), (i32, pa.int32()),
             (words, pa.string()), (words, pa.large_string())]
    for values, typ in cases:
        values = values * 2  # repeated values share a dictionary entry
        for col in (values, [v if k % 9 else None for k, v in enumerate(values)]):
            arr = pa.array(col, typ)
            for num_parts in (1, 7, 64):
                np.testing.assert_array_equal(stable_part(arr, num_parts),
                                              _stable_part_oracle(arr, num_parts))


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


# files that may still hand-write a groupby on a partition column; this
# list may only shrink (empty: every hash co-partition runs on
# by_partition)
GROUPBY_PART_ALLOWED: list[str] = []
# the modules whose ordered scans run on stages.derive.range_scan
RANGE_SCAN_USERS = [
    "tsfeatures_ray/functions/concurrency.py",
    "tsfeatures_ray/functions/pack.py",
    "tsfeatures_ray/functions/stats.py",
]


def _string_constants(tree: ast.Module) -> dict[str, str]:
    """Module-level names bound to a string literal (``X = "..."``,
    ``X: str = "..."`` or ``X, Y = "...", "..."``)."""
    consts = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            pairs = [(t, node.value) for t in node.targets]
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            pairs = [(node.target, node.value)]
        else:
            continue
        for target, value in pairs:
            if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
                pairs += list(zip(target.elts, value.elts))
            elif (isinstance(target, ast.Name) and isinstance(value, ast.Constant)
                    and isinstance(value.value, str)):
                consts[target.id] = value.value
    return consts


def _groupby_part(source: str) -> list[int]:
    """Lines of ``groupby`` calls keyed on a partition column: a key (or
    a list key holding one) whose name ends in ``part``, written as a
    literal or as a module-level string constant."""
    tree = ast.parse(source)
    consts = _string_constants(tree)

    def name(k: ast.AST):
        if isinstance(k, ast.Constant):
            return k.value
        return consts.get(k.id) if isinstance(k, ast.Name) else None

    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "groupby" and node.args):
            arg = node.args[0]
            keys = arg.elts if isinstance(arg, (ast.List, ast.Tuple)) else [arg]
            if any(isinstance(name(k), str) and name(k).endswith("part") for k in keys):
                lines.append(node.lineno)
    return lines


def test_groupby_part_guard_resolves_constants():
    src = (
        '_SIDE, _PART = "__side", "__tj_part"\n'
        'KEY: str = "ppart"\n'
        'a = ds.groupby("part")\n'
        'b = ds.groupby(_PART)\n'
        'c = ds.groupby(["x", KEY])\n'
        'd = ds.groupby(_SIDE)\n'
        'e = ds.groupby("parts")\n'
    )
    assert _groupby_part(src) == [3, 4, 5]


def test_groupby_on_the_partition_column_only_in_pinned_files():
    """Every hash co-partition goes through ``stages.derive.by_partition``
    and every range-partition prefix scan through
    ``stages.derive.range_scan``: no hand-written groupby on a partition
    column outside the pinned files (none are left), and no hand-made
    broadcast (``ray.put``) in the modules that moved onto the scan. A
    pinned file with no site left must leave the list."""
    assert not GROUPBY_PART_ALLOWED, "the pinned list may only shrink"
    found = {str(f.relative_to(ROOT)): _groupby_part(f.read_text())
             for f in sorted((ROOT / "tsfeatures_ray").rglob("*.py"))}
    offenders = [f"{rel}:{ln}" for rel, lines in found.items()
                 if rel not in GROUPBY_PART_ALLOWED for ln in lines]
    assert not offenders, f"hand-written groupby on the partition column: {offenders}"
    stale = [rel for rel in GROUPBY_PART_ALLOWED if not found.get(rel)]
    assert not stale, f"no groupby on the partition column left; unpin {stale}"
    puts = [f"{rel}:{ln}" for rel in RANGE_SCAN_USERS for ln in _calls(ROOT / rel, "put")]
    assert not puts, f"hand-made broadcast at {puts}"
