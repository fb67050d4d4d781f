"""Driver-simulation harness: runs every queries() entry at a given sf
and compares row-count / schema / order-insensitive values against the
matching oracle_sql() via DuckDB -- the same gate the round driver
applies. Prints one line per query, then a summary line such as
``178/179 OK; failed: docs_packed_bins``; exits non-zero on any failure.
Usage: python tools/check_contract.py [sf_dir] [query ...]"""

from __future__ import annotations

import os
import sys
import time

import duckdb
import numpy as np
import pandas as pd

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from tools.make_fixtures import RECORDED  # noqa: E402

# id columns of the feature and series queries
ID_COLS = ["unique_id", "tier", "metric"]

TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


def to_df(res) -> pd.DataFrame:
    import ray.data as rd

    if isinstance(res, rd.Dataset):
        return res.to_pandas()
    if isinstance(res, pd.DataFrame):
        return res
    return res.to_pandas()  # pyarrow.Table


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        s = df[c]
        if str(s.dtype).startswith(("Int", "UInt", "int", "uint", "Float")):
            df[c] = s.astype("float64")
        elif str(s.dtype).startswith("datetime"):
            df[c] = s.astype("datetime64[us]").astype("int64").astype("float64")
        elif s.dtype == bool or str(s.dtype) == "boolean":
            df[c] = s.astype("float64")
    sort_cols = list(df.columns)
    df = df.sort_values(sort_cols, kind="mergesort").reset_index(drop=True)
    return df


def _equal(gv: np.ndarray, wv: np.ndarray) -> np.ndarray:
    if gv.dtype.kind == "f":
        return (gv == wv) | (np.isnan(gv) & np.isnan(wv))
    return gv == wv


def _keyed_report(name: str, g: pd.DataFrame, w: pd.DataFrame) -> list[str]:
    """Per-column mismatches of two normalized frames, matched by key:
    the query's fixture key (tools/make_fixtures.py) or its id columns.
    The all-column sort in ``normalize`` lets one changed value in an
    early column shift every row after it; matching by key does not.
    Empty when there is no key or it does not identify rows."""
    keys = RECORDED.get(name) or [c for c in ID_COLS if c in g.columns]
    if not keys or any(k not in g.columns for k in keys):
        return []
    gi, wi = g.set_index(keys), w.set_index(keys)
    if not (gi.index.is_unique and wi.index.is_unique):
        return []
    out = []
    for what, ks in (("missing", wi.index.difference(gi.index)),
                     ("extra", gi.index.difference(wi.index))):
        if len(ks):
            out.append(f"{len(ks)} {what} keys {keys}, e.g. {list(ks[:3])}")
    common = wi.index.intersection(gi.index)
    gi, wi = gi.loc[common], wi.loc[common]
    for c in wi.columns:
        gv, wv = gi[c].to_numpy(), wi[c].to_numpy()
        bad = np.flatnonzero(~_equal(gv, wv))
        if len(bad):
            ex = "; ".join(
                f"{common[i]} got={gv[i]!r} want={wv[i]!r}" for i in bad[:3]
            )
            out.append(f"col {c}: {len(bad)} mismatches by {keys}, e.g. {ex}")
    return out


def compare(name: str, got: pd.DataFrame, want: pd.DataFrame) -> list[str]:
    """Errors of ``got`` against ``want``; empty means they match. The
    rule is exact (NaN-aware) equality of the two normalized frames;
    when the frames carry a key, mismatching values are reported by key
    instead of by sorted position."""
    errs = []
    if len(got) != len(want):
        errs.append(f"rowcount {len(got)} != {len(want)}")
    if sorted(got.columns) != sorted(want.columns):
        errs.append(f"schema {sorted(got.columns)} != {sorted(want.columns)}")
        return errs
    g, w = normalize(got), normalize(want)
    if len(g) == len(w):
        for c in g.columns:
            gv, wv = g[c].to_numpy(), w[c].to_numpy()
            ok = _equal(gv, wv)
            if not ok.all():
                bad = np.flatnonzero(~ok)[:3]
                errs.append(
                    f"col {c}: {len(np.flatnonzero(~ok))} mismatches, e.g. "
                    f"idx {bad.tolist()} got={gv[bad].tolist()} want={wv[bad].tolist()}"
                )
    if errs:
        keyed = _keyed_report(name, g, w)
        if keyed:
            errs = [e for e in errs if not e.startswith("col ")] + keyed
    return errs


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import ray

    ray.init(address="local",
             num_cpus=int(os.environ.get("CHECK_NUM_CPUS", "8")),
             include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entrymod

    con = duckdb.connect()
    for t in TABLES:
        p = os.path.join(sf_dir, f"{t}.parquet")
        if os.path.exists(p):
            con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    failed, ran = [], 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        ran += 1
        t0 = time.time()
        try:
            got = to_df(fn(sf_dir))
        except Exception as e:
            print(f"FAIL {name}: query raised {type(e).__name__}: {e}")
            failed.append(name)
            continue
        dt = time.time() - t0
        if name not in oracles:
            print(f"ok   {name}: rows-only, {len(got)} rows  ({dt:.1f}s)")
            continue
        try:
            want = con.sql(oracles[name]).df()
        except Exception as e:
            print(f"FAIL {name}: oracle raised {type(e).__name__}: {e}")
            failed.append(name)
            continue
        errs = compare(name, got, want)
        if errs:
            failed.append(name)
            print(f"FAIL {name} ({dt:.1f}s):")
            for e in errs:
                print(f"      {e}")
        else:
            print(f"OK   {name}: {len(got)} rows match oracle  ({dt:.1f}s)")
    ray.shutdown()
    print(f"{ran - len(failed)}/{ran} OK" + (f"; failed: {', '.join(failed)}" if failed else ""))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
