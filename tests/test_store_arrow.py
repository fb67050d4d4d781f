"""The rollup store on the Arrow segment layer: ``seg_ksum`` is pandas'
groupby sum to the bit, ``rollup()``'s float sums do not depend on the
input's block layout, ``merge_rollups`` refuses a gap-filled keep_ord
output, and no pandas frame is built on the store path or on the panel
entry points' data path (AST guards)."""

import ast
import importlib
import inspect

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from tsfeatures_ray.stages import segments as sg


def test_seg_ksum_equals_pandas_groupby_sum_bit_for_bit():
    """600 random segments of 1-40 values from 1e-3 to 1e16 (both signs),
    with NaN and +-inf among them: every sum has pandas' bits (its Kahan
    loop, NaN skipped, the compensation reset when it turns NaN). A plain
    ``np.add.reduceat`` misses many of them, so the test can tell."""
    rng = np.random.RandomState(7)
    sizes = rng.randint(1, 41, size=600)
    n = int(sizes.sum())
    v = 10.0 ** rng.uniform(-3, 16, size=n) * rng.choice([-1.0, 1.0], size=n)
    u = rng.rand(n)
    v[u < 0.08] = np.nan
    v[(u >= 0.08) & (u < 0.09)] = np.inf
    v[(u >= 0.09) & (u < 0.10)] = -np.inf
    v[rng.rand(n) < 0.02] = np.nan  # a few all-NaN short segments as well
    starts = np.r_[0, np.cumsum(sizes)[:-1]]
    labels = np.repeat(np.arange(len(sizes)), sizes)
    want = pd.Series(v).groupby(labels).sum().to_numpy()
    got = sg.seg_ksum(v, starts)
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    with np.errstate(invalid="ignore"):  # inf + -inf
        plain = np.add.reduceat(np.where(np.isnan(v), 0.0, v), starts)
    finite = np.isfinite(want)
    assert (plain[finite].view(np.int64) != want[finite].view(np.int64)).sum() > 50


def test_rollup_float_sums_do_not_depend_on_block_layout(ray_session):
    """One (key, 1d bucket) of 66,000 float values (small ones with a
    +-1e16 every 997th row) straddles the 65,536-row batch boundary.
    ``rollup()`` gives the same bits from one block and from three
    blocks, and they are pandas' single-pass groupby sum over the key's
    rows. A per-batch partial drops the Kahan compensation at the batch
    boundary: for this data the sums of both layouts' batch partials are
    off in the last bits, which the test checks too."""
    import ray.data as rd

    from tsfeatures_ray.stages.rollup import RollupSpec, rollup

    rng = np.random.RandomState(6)
    n = 70_000
    value = rng.uniform(0, 3, size=n)
    value[::997] = 1e16 * rng.choice([-1.0, 1.0], size=len(value[::997]))
    table = pa.table({
        "user_id": pa.array(np.where(np.arange(n) < 66_000, 5, 9), pa.int64()),
        "event_id": pa.array(np.arange(n), pa.int64()),
        "ts": pa.array(np.sort(rng.randint(0, 86_400_000_000, size=n)).view("datetime64[us]")),
        "value": pa.array(value),
    })
    spec = RollupSpec(key="user_id", ts="ts", order=("event_id",), values={"value": "value"})

    def ksum(v):
        return pd.Series(v).groupby(np.zeros(len(v), dtype=int)).sum().to_numpy()

    want = ksum(value[:66_000])
    assert ksum(np.r_[ksum(value[:65_536]), ksum(value[65_536:66_000])]) != want
    assert ksum(np.r_[ksum(value[:30_000]), ksum(value[30_000:60_000]),
                      ksum(value[60_000:66_000])]) != want
    one = rollup(rd.from_arrow(table), tiers=["1d"], spec=spec).to_pandas()
    three = rollup(rd.from_arrow([table.slice(0, 30_000), table.slice(30_000, 30_000),
                                  table.slice(60_000)]), tiers=["1d"], spec=spec).to_pandas()
    for got in (one, three):
        got = got.set_index("user_id")["value_sum"].loc[[5]].to_numpy()
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def test_merge_rollups_refuses_gapfilled_keep_ord(ray_session):
    """A keep_ord merge's output is a mergeable partial; gap rows have no
    ordering key, so gap-filling it inline is refused, as in
    ``rollup()`` (merging such output again would turn every gap row
    into a real row with count 0)."""
    import ray.data as rd

    from tsfeatures_ray.stages.rollup import merge_rollups

    ds = rd.from_items([{"conv_id": "a"}])
    with pytest.raises(ValueError, match="keep_ord"):
        merge_rollups(ds, gapfill=True, keep_ord=True)


def _store_sources():
    """(name, AST) of the store path: the store operators' modules, the
    segment layer and the resumable run's stage B."""
    from tsfeatures_ray.state import lineage

    # by module path: the package re-exports a function named ``rollup``
    mods = [importlib.import_module(f"tsfeatures_ray.stages.{m}")
            for m in ("rollup", "retention", "compress", "pack", "segments")]
    out = [(m.__name__, ast.parse(inspect.getsource(m))) for m in mods]
    out.append(("lineage._stage_b_task", ast.parse(inspect.getsource(lineage._stage_b_task))))
    return out


def test_store_path_builds_no_pandas_frame():
    """AST guard: the store path calls no ``pd.DataFrame``, ``pd.concat``,
    ``groupby`` or ``sort_values``, passes no ``batch_format="pandas"``,
    and every ``by_partition`` call there passes
    ``batch_format="pyarrow"``. The guard parses the modules themselves
    (each operator module's exchange is seen)."""
    found, exchanges = [], set()
    for name, tree in _store_sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("groupby", "sort_values"):
                found.append(f"{name}: .{node.attr} at line {node.lineno}")
            if (isinstance(node, ast.Attribute) and node.attr in ("DataFrame", "concat")
                    and isinstance(node.value, ast.Name) and node.value.id in ("pd", "pandas")):
                found.append(f"{name}: pd.{node.attr} at line {node.lineno}")
            if not isinstance(node, ast.Call):
                continue
            fmt = {k.arg: k.value for k in node.keywords if k.arg == "batch_format"}
            val = fmt.get("batch_format")
            if isinstance(val, ast.Constant) and val.value == "pandas":
                found.append(f"{name}: batch_format='pandas' at line {node.lineno}")
            if getattr(node.func, "id", getattr(node.func, "attr", None)) != "by_partition":
                continue
            exchanges.add(name.rsplit(".", 1)[-1])
            if not (isinstance(val, ast.Constant) and val.value == "pyarrow"):
                found.append(f"{name}: by_partition without batch_format='pyarrow' "
                             f"at line {node.lineno}")
    assert not found, found
    assert exchanges == {"rollup", "retention", "compress", "pack"}, exchanges



def test_panel_entry_points_pack_in_arrow():
    """AST guard: ``tsfeatures``, ``tsfeatures_wide`` and ``long_to_wide``
    construct no ``pd.DataFrame`` and call no ``sort_values`` or
    ``groupby``, and each ``by_partition`` call there passes
    ``batch_format="pyarrow"``; under ``tsfeatures_ray/``, only
    ``stages/pack.py`` builds tables with ``PACKED_SCHEMA`` (passes it
    to a call or calls one of its methods)."""
    import pathlib

    from tsfeatures_ray.pipelines import flagship
    from tsfeatures_ray.sources import convert

    found, exchanges = [], []
    for fn in (flagship.tsfeatures, flagship.tsfeatures_wide, convert.long_to_wide):
        for node in ast.walk(ast.parse(inspect.getsource(fn))):
            if isinstance(node, ast.Attribute) and node.attr in ("groupby", "sort_values"):
                found.append(f"{fn.__name__}: .{node.attr}")
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Attribute) and func.attr == "DataFrame"
                    and getattr(func.value, "id", None) in ("pd", "pandas")):
                found.append(f"{fn.__name__}: pd.DataFrame(...)")
            if getattr(func, "id", None) == "by_partition":
                exchanges.append(fn.__name__)
                fmt = [k.value for k in node.keywords if k.arg == "batch_format"]
                if not (fmt and isinstance(fmt[0], ast.Constant) and fmt[0].value == "pyarrow"):
                    found.append(f"{fn.__name__}: by_partition without batch_format='pyarrow'")
    assert not found, found
    assert sorted(exchanges) == ["long_to_wide", "tsfeatures"], exchanges

    pkg = pathlib.Path(inspect.getfile(flagship)).parents[1]
    builders = set()
    for path in pkg.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            args = list(node.args) + [k.value for k in node.keywords]
            if isinstance(node.func, ast.Attribute):  # PACKED_SCHEMA.empty_table()
                args.append(node.func.value)
            if any(getattr(a, "id", getattr(a, "attr", None)) == "PACKED_SCHEMA" for a in args):
                builders.add(path.relative_to(pkg).as_posix())
    assert builders == {"stages/pack.py"}, builders
