"""Self-test of the benchmark at a tiny input size.

    python3 perfbench/selftest.py

Checks that every workload runs and prints every metric named in
BENCHMARK.json with its unit, untraced and traced, and that a
deliberately corrupted output (one flipped Gorilla block byte, one
changed feature value) makes the run count as failed. Exits 0 when all
of that holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

import pandas as pd  # noqa: E402
import pyarrow as pa  # noqa: E402
import pyarrow.parquet as pq  # noqa: E402

from perfbench import checks, run, workloads  # noqa: E402

SEED = 5
TINY = {
    "flagship": {"n_convs": 16, "hot_turns": 60},
    "rollup_store": {"n_convs": 16, "hot_turns": 60},
    "panel_long": {"n_series": 12, "min_len": 40, "max_len": 60},
}


def flip_block_byte(out: str) -> None:
    path = os.path.join(out, "blocks")
    t = pq.read_table(path).to_pandas()
    blk = bytearray(t.at[0, "block"])
    blk[-1] ^= 0x01
    t.at[0, "block"] = bytes(blk)
    _rewrite(path, t)


def change_feature_value(out: str) -> None:
    path = os.path.join(out, "features")
    t = pq.read_table(path).to_pandas()
    row = checks._sample(t, SEED).index[0]
    t.loc[row, "series_length"] += 1.0
    _rewrite(path, t)


def _rewrite(path: str, df: pd.DataFrame) -> None:
    workloads.clear(path)
    os.makedirs(path)
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False), os.path.join(path, "data.parquet"))


def invoke(workload: str, trace: int) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", str(SEED), "--seconds", "0",
                         "--trace", str(trace)])
    assert code == 0, f"{workload} trace={trace} exited {code}"
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads.SIZES.update(TINY)
    run.SETUPS = 2  # two sessions, one job each: digests compared across sessions
    problems = []
    for w in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = invoke(w, trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                problems.append(f"{w} trace={trace}: metrics {sorted(set(got) ^ set(want))} "
                                "missing or extra, or units differ")
            if not res["correct"] or res["failed"]:
                problems.append(f"{w} trace={trace}: a clean run failed its checks")
            print(f"{w} trace={trace}: {len(got)} metrics, correct={res['correct']}", flush=True)

    real = dict(workloads.JOBS)
    for w, corrupt in (("flagship", flip_block_byte), ("rollup_store", flip_block_byte),
                       ("flagship", change_feature_value), ("panel_long", change_feature_value)):
        def job(inp, out, tr=None, _w=w, _c=corrupt):
            res = real[_w](inp, out, tr)
            _c(out)
            return res

        workloads.JOBS[w] = job
        try:
            res = invoke(w, 0)
        finally:
            workloads.JOBS[w] = real[w]
        ok = res["failed"] == res["attempted"] and not res["correct"]
        if not ok:
            problems.append(f"{w}: {corrupt.__name__} was not counted as failed")
        print(f"{w} {corrupt.__name__}: failed {res['failed']}/{res['attempted']}", flush=True)

    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
