"""Strict output-determinism probe: runs selected queries() entries N
times in one Ray session and hashes the result in a ROW-ORDER- and
DTYPE-SENSITIVE way (stricter than tools/check_contract.py, which sorts
before comparing). A driver whose value-hash is sensitive to row order /
dtype drift is simulated exactly by this digest: any run-to-run hash
difference here reproduces a driver hash-red even when values match.

Usage: python tools/hash_stability.py [--save F | --compare F] [sf_dir] [repeats] [query ...]
Env:   CHECK_NUM_CPUS (default 8)

``--save F`` writes each query's raw and sorted digests (of its first
run) to the JSON file F. ``--compare F`` checks every run against the
digests saved in F and exits non-zero if any digest differs or a query
is missing from F. A before/after bit-identity check of a change is
then: ``--save before.json`` on the old tree, ``--compare before.json``
on the new one, same box, same arguments and the same CHECK_NUM_CPUS
(the default partition count, and so the raw row order, follows the
CPU count).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np
import pandas as pd

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def strict_digest(df: pd.DataFrame, sort_rows: bool = False) -> str:
    df = df[sorted(df.columns)]
    if sort_rows and len(df):
        df = df.sort_values(list(df.columns), kind="mergesort")
    h = hashlib.sha256()
    h.update(("|".join(f"{c}:{df[c].dtype}" for c in df.columns)).encode())
    for c in df.columns:
        s = df[c]
        if s.dtype == object:
            h.update("\x00".join("" if v is None else str(v) for v in s).encode())
        else:
            v = np.ascontiguousarray(s.to_numpy())
            if v.dtype.kind == "f":
                v = np.where(np.isnan(v), np.nan, v)  # canonical NaN bits
            h.update(v.tobytes())
    return h.hexdigest()[:16]


def _take_option(name: str) -> str | None:
    """Remove ``name FILE`` from sys.argv and return FILE (None if absent)."""
    if name not in sys.argv:
        return None
    i = sys.argv.index(name)
    if i + 1 >= len(sys.argv):
        sys.exit(f"{name} needs a file name")
    value = sys.argv[i + 1]
    del sys.argv[i : i + 2]
    return value


def main():
    save, compare = _take_option("--save"), _take_option("--compare")
    if save and compare:
        sys.exit("give --save or --compare, not both")
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    repeats = int(sys.argv[2]) if len(sys.argv) > 2 else 3
    names = sys.argv[3:] or ["docs_packed", "docs_packed_bpe", "docs_training_corpus"]
    saved = None
    if compare:
        with open(compare) as f:
            saved = json.load(f)

    import ray

    ray.init(address="local",
             num_cpus=int(os.environ.get("CHECK_NUM_CPUS", "8")),
             include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entrymod
    from tools.check_contract import to_df

    qs = entrymod.queries()
    if names == ["all"]:  # sweep the whole registry
        names = list(qs)
    bad = 0
    record = {}
    for name in names:
        digests, sorted_digests = [], []
        for _ in range(repeats):
            df = to_df(qs[name](sf_dir))
            digests.append(strict_digest(df))
            sorted_digests.append(strict_digest(df, sort_rows=True))
        record[name] = {"raw": digests[0], "sorted": sorted_digests[0]}
        uniq, suniq = sorted(set(digests)), sorted(set(sorted_digests))
        if len(uniq) == 1:
            print(f"STABLE   {name}: {uniq[0]} sorted={suniq[0]} x{repeats}")
        elif len(suniq) == 1:
            print(f"ORDERONLY {name}: sorted={suniq[0]} raw={digests}")
        else:
            bad += 1
            print(f"UNSTABLE {name}: {digests} sorted={sorted_digests}")
        if saved is not None:
            want = saved.get(name)
            if want is None:
                bad += 1
                print(f"MISSING  {name}: not in {compare}")
            elif uniq != [want["raw"]] or suniq != [want["sorted"]]:
                bad += 1
                print(f"CHANGED  {name}: saved raw={want['raw']} sorted={want['sorted']}")
            else:
                print(f"SAME     {name}")
    ray.shutdown()
    if save:
        with open(save, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
