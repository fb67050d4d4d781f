"""Interleaved A/B pairs of the benchmark: a parent checkout against a
change checkout, one workload.

    python tools/bench_pairs.py --parent DIR --change DIR --workload rollup_store \
        --pairs 10 --seed 61 --seconds 10 [--trace 0] [--json runs.json]

Pair i runs ``perfbench/run.py --workload W --seed S+i --seconds T
--trace X`` in both checkouts, each from its own root, one after the
other: parent first on even pairs, change first on odd ones (ABBA), so
a drift of the box over the session falls on both sides alike. Each
pair has a fresh seed and both sides the same ``--seconds``.

It prints the ``nproc`` the runs report beside the CPUs of its own
affinity mask (``os.sched_getaffinity``), and warns when they differ:
``nproc`` honours ``OMP_NUM_THREADS``, so the reported count, which is
also the ``num_cpus`` perfbench gives Ray, can be below the CPUs the
box allows.

For every metric ``BENCHMARK.json`` declares (``end_to_end`` with
``--trace 0``, ``per_layer`` with ``--trace 1``) it prints both sides'
medians with their quartiles, the change/parent ratio of the medians,
how many pairs the change won (by the metric's ``better`` direction),
the failed/attempted job counts of each side, and in how many pairs the
two sides' per-job output digests are equal. For an end-to-end
metric it also prints whether the claim rule holds (the change wins
>= 9/10 of the pairs and its median is better than the parent's by
more than the parent's interquartile range) and whether the regression
bound holds (the change's median is worse than the parent's by at most
``bound``, relative).

It reads ``BENCHMARK.json`` from the change checkout and runs
``perfbench/run.py``; it writes nothing in either checkout beyond what
``perfbench/run.py`` itself writes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys

import numpy as np


def run_one(checkout: str, workload: str, seed: int, seconds: float, trace: int,
            timeout: float) -> dict:
    """One ``perfbench/run.py`` run: its last JSON line plus the set of
    per-job output digests and ``nproc`` from its context line, or a
    failed run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        r = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=timeout)
        lines = r.stdout.strip().splitlines()
        out, ctx = json.loads(lines[-1]), json.loads(lines[-2])["context"]
        if r.returncode or "metrics" not in out:
            raise ValueError(f"exit {r.returncode}")
        out["digests"] = sorted({str(j.get("digest")) for j in ctx["jobs"]})
        out["nproc"] = ctx.get("nproc")
        return out
    except (subprocess.TimeoutExpired, ValueError, IndexError, KeyError,
            json.JSONDecodeError) as e:
        print(f"  {checkout} seed {seed}: run failed ({e})", file=sys.stderr)
        return {"attempted": 1, "failed": 1, "metrics": {}, "digests": []}


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = np.percentile(xs, [25, 50, 75])
    return float(q1), float(med), float(q3)


def summarize(metric: dict, parent: list[dict], change: list[dict], end_to_end: bool) -> dict:
    """One metric over the pairs whose both runs report it."""
    name, lower = metric["name"], metric.get("better", "lower") == "lower"
    pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
             for p, c in zip(parent, change)
             if name in p["metrics"] and name in c["metrics"]
             and p["metrics"][name]["value"] is not None and c["metrics"][name]["value"] is not None]
    row = {"metric": name, "n": len(pairs)}
    if not pairs:
        return row
    a, b = [p for p, _ in pairs], [c for _, c in pairs]
    (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(a), quartiles(b)
    wins = sum((c < p) if lower else (c > p) for p, c in pairs)
    gap = (pmed - cmed) if lower else (cmed - pmed)
    row.update(parent=(pmed, pq1, pq3), change=(cmed, cq1, cq3), wins=wins,
               ratio=cmed / pmed if pmed else math.nan)
    if end_to_end:
        row["claim"] = wins >= math.ceil(0.9 * len(pairs)) and gap > pq3 - pq1
        worse = (cmed - pmed) if lower else (pmed - cmed)
        row["bound_ok"] = worse <= metric["bound"] * abs(pmed)
    return row


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--timeout", type=float, default=1800, help="seconds per run")
    ap.add_argument("--json", help="write every run's result to this file")
    args = ap.parse_args()

    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    parent, change = [], []
    for i in range(args.pairs):
        seed = args.seed + i
        sides = [("parent", args.parent, parent), ("change", args.change, change)]
        for label, checkout, runs in (sides if i % 2 == 0 else sides[::-1]):
            runs.append(run_one(checkout, args.workload, seed, args.seconds, args.trace,
                                args.timeout))
            job = runs[-1]["metrics"].get("job_s", {}).get("value")
            print(f"pair {i + 1}/{args.pairs} seed {seed} {label}: job_s={job}", file=sys.stderr)

    fails = {s: (sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))
             for s, runs in (("parent", parent), ("change", change))}
    reported = sorted({r.get("nproc") for r in parent + change} - {None})
    usable = len(os.sched_getaffinity(0))
    print(f"workload {args.workload}, {args.pairs} ABBA pairs from seed {args.seed}, "
          f"--seconds {args.seconds} --trace {args.trace}, nproc (as the runs report it) "
          f"{reported}, CPUs in this process's affinity mask {usable}")
    if reported and reported != [usable]:
        print(f"warning: the runs report nproc {reported} but {usable} CPUs may run them; "
              f"`nproc` honours OMP_NUM_THREADS (here {os.environ.get('OMP_NUM_THREADS')!r}), "
              "which caps the CPU count perfbench reports and gives Ray. State the CPU count "
              "the runs really used (the reported nproc) with every claim.")
    same = sum(bool(p["digests"]) and p["digests"] == c["digests"] for p, c in zip(parent, change))
    print(f"failed/attempted: parent {fails['parent'][0]}/{fails['parent'][1]}, "
          f"change {fails['change'][0]}/{fails['change'][1]}; "
          f"per-job output digests equal in {same}/{args.pairs} pairs")
    head = "| metric | parent median [q1, q3] | change median [q1, q3] | ratio | wins |"
    if not args.trace:
        head += " claim | bound |"
    print(head)
    print("|" + "---|" * (head.count("|") - 1))
    rows = [summarize(m, parent, change, not args.trace) for m in declared]
    for r in rows:
        if not r["n"] or r["parent"] == r["change"] == (0, 0, 0):
            continue  # not measured by this workload
        cells = [r["metric"], "%.4g [%.4g, %.4g]" % r["parent"], "%.4g [%.4g, %.4g]" % r["change"],
                 "%+.1f%%" % (100 * (r["ratio"] - 1)), f"{r['wins']}/{r['n']}"]
        if not args.trace:
            cells += ["holds" if r["claim"] else "no", "ok" if r["bound_ok"] else "BROKEN"]
        print("| " + " | ".join(cells) + " |")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"args": vars(args), "parent": parent, "change": change, "rows": rows},
                      f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
