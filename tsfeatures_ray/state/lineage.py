"""Per-partition lineage records + resumable runs (north_rule).

A run is split into:

- stage A (one streaming Dataset job, no exchange): the flagship's
  slim read (conv_id, turn_idx, ts, token_len) tagged with the stable
  ``part`` key and sunk as Parquet partitioned by it
  (``derived/part=<p>/``) -- the partitioned write co-locates each
  conversation. Recorded in the manifest as one record with the input
  fragment list and ``num_parts``.
- stage B (per-partition): one Ray task per hash partition reads
  ``derived/part=<p>`` with pyarrow and runs derive's latency then
  ``rollup()``'s exact core over it (Arrow in and out) -- the partition
  functions the benchmarked ``rollup_pipeline`` runs inside its one
  exchange -- (+ optionally pack + features), written with pyarrow to a
  temp dir and atomically renamed to ``rollup/part=<p>/``, then a
  manifest record {partition, rows, checksum, inputs} is appended
  (write+flush+fsync).

Resume = rerun the same command with the same ``num_parts``: completed
partitions are found in the manifest (and their output dirs exist) and
are skipped; a killed run therefore never recomputes finished work and
the final output is byte-identical in content. The manifest is JSONL so
concurrent readers see a prefix; a partial last line (crash mid-append)
is ignored.

The reference has no checkpoint/resume at all (a failed Pool run
recomputes everything, reference tsfeatures.py:970-976); this module is
the scale-path replacement.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa


class Manifest:
    """Append-only JSONL lineage manifest."""

    def __init__(self, path: str):
        self.path = path

    def load(self) -> dict[str, dict]:
        out: dict[str, dict] = {}
        if not os.path.exists(self.path):
            return out
        with open(self.path) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn write from a crash mid-append
                out[rec["partition"]] = rec
        return out

    def append(self, record: dict) -> None:
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        with open(self.path, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
            f.flush()
            os.fsync(f.fileno())


def _df_checksum(df: pd.DataFrame) -> str:
    """Deterministic content checksum (row-order independent)."""
    h = pd.util.hash_pandas_object(
        df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True),
        index=False,
    )
    return hex(int(np.bitwise_xor.reduce(h.to_numpy()) + np.uint64(len(df))))


class _Killed(RuntimeError):
    pass


def _stage_b_task(
    part_dir: str,
    tmp_dir: str,
    tiers: list[str] | None,
    gapfill: bool,
    with_features: bool,
    sleep_s: float = 0.0,
) -> dict:
    """Stage-B body for ONE hash partition: derive's latency and the
    exact rollup over the sunk partition, written to ``tmp_dir``; the caller
    owns the atomic rename and the manifest append. Runs as a Ray task so
    K missing partitions recover in ~max(partition) wall, not ~sum.
    ``sleep_s`` is a test hook that makes the parallel-recovery timing
    gate deterministic."""
    import shutil
    import time

    import pyarrow.parquet as pq

    from ..schema import TIERS
    from ..stages.derive import _latency_per_partition
    from ..stages.features import FeatureKernels
    from ..stages.pack import _pack_partition
    from ..stages.rollup import DEFAULT_SPEC, _exact_rollup
    from ..stages.segments import float_array

    if sleep_s:
        time.sleep(sleep_s)
    tier_objs = [TIERS[t] for t in (tiers or list(TIERS))]
    table = _exact_rollup(_latency_per_partition(pq.read_table(part_dir)), tier_objs,
                          DEFAULT_SPEC, gapfill)
    if os.path.exists(tmp_dir):
        shutil.rmtree(tmp_dir)  # stale temp from a killed run
    os.makedirs(tmp_dir, exist_ok=True)
    pq.write_table(table, os.path.join(tmp_dir, "data.parquet"))
    if with_features:
        feats = FeatureKernels()(_pack_partition("token_len_sum")(table))
        # NaN features as null, as the pandas -> Arrow conversion wrote them
        feats = pa.Table.from_arrays(
            [float_array(c.to_numpy()) if pa.types.is_floating(c.type) else c
             for c in feats.columns], names=feats.column_names)
        pq.write_table(feats, os.path.join(tmp_dir, "features.parquet"))
    return {
        "rows": table.num_rows,
        "checksum": _df_checksum(table.drop_columns(["bucket"]).to_pandas()),
    }


def run_resumable_rollup(
    sf_dir: str,
    out_dir: str,
    tiers: list[str] | None = None,
    num_parts: int = 8,
    gapfill: bool = False,
    kill_after: int | None = None,
    with_features: bool = False,
    _test_sleep_s: float = 0.0,
) -> dict:
    """Resumable transcripts -> rollup (-> features) run. Returns summary
    stats. Each hash partition's rollup (and, with ``with_features``,
    its feature matrix) is written atomically and recorded in the
    manifest; ``kill_after=k`` aborts after k stage-B partitions (test
    hook for the kill-and-resume gate). Missing partitions are
    recomputed as PARALLEL Ray tasks -- the driver keeps only the
    atomic rename + manifest bookkeeping, in task-completion order, so
    recovering K partitions costs ~max(partition) wall, not ~sum.
    Resuming with a ``num_parts`` other than the one stage A was sunk
    with raises ValueError (the sunk partitions would not line up)."""
    import shutil

    import ray

    from ..pipelines.flagship import slim_turns
    from ..sources.synth import transcripts_path
    from ..stages.derive import with_part

    manifest = Manifest(os.path.join(out_dir, "manifest.jsonl"))
    done = manifest.load()
    tpath = transcripts_path(sf_dir)
    derived_dir = os.path.join(out_dir, "derived")

    # ---- stage A: slim read + part tag, partitioned sink (no exchange) --
    if "derived" not in done:
        tmp = derived_dir + ".tmp"
        if os.path.exists(tmp):
            shutil.rmtree(tmp)
        with_part(slim_turns(sf_dir), "conv_id", num_parts).write_parquet(
            tmp, partition_cols=["part"]
        )
        os.replace(tmp, derived_dir)
        manifest.append(
            {
                "partition": "derived",
                "inputs": [tpath],
                "rows": -1,
                "checksum": "",
                "num_parts": num_parts,
            }
        )
        done = manifest.load()
    elif done["derived"].get("num_parts") != num_parts:
        raise ValueError(
            f"resume with num_parts={num_parts}, but {derived_dir} was "
            f"written with num_parts={done['derived'].get('num_parts')}; "
            "rerun with that value or start in a fresh out_dir"
        )

    # ---- stage B: per-partition rollup, parallel Ray tasks -------------
    computed, skipped = 0, 0
    task = ray.remote(num_cpus=1)(_stage_b_task)
    pending: dict = {}  # ObjectRef -> (pid, part_dir, tmp, final)
    for p in range(num_parts):
        pid = f"part-{p}"
        final = os.path.join(out_dir, "rollup", f"part={p}")
        if pid in done and os.path.exists(final):
            skipped += 1
            continue
        part_dir = os.path.join(derived_dir, f"part={p}")
        if not os.path.exists(part_dir):
            manifest.append(
                {"partition": pid, "inputs": [], "rows": 0, "checksum": "0x0"}
            )
            continue
        tmp = final + ".tmp"
        ref = task.remote(
            part_dir, tmp, tiers, gapfill, with_features, _test_sleep_s
        )
        pending[ref] = (pid, part_dir, tmp, final)

    # rename + manifest bookkeeping in completion order: only the 8-byte
    # summary record crosses back to the driver, never partition data
    try:
        while pending:
            ready, _ = ray.wait(list(pending), num_returns=1)
            ref = ready[0]
            pid, part_dir, tmp, final = pending.pop(ref)
            rec = ray.get(ref)
            if os.path.exists(final):
                shutil.rmtree(final)
            os.replace(tmp, final)
            manifest.append(
                {
                    "partition": pid,
                    "inputs": sorted(os.listdir(part_dir)),
                    "rows": rec["rows"],
                    "checksum": rec["checksum"],
                }
            )
            computed += 1
            if kill_after is not None and computed >= kill_after:
                raise _Killed(
                    f"killed after {computed} partitions (test hook)"
                )
    finally:
        # on abort (kill hook / driver error) stop in-flight work so a
        # rerun in the same Ray session never races stale writers on the
        # temp dirs it is about to reuse
        for ref in pending:
            ray.cancel(ref, force=True)

    return {"computed": computed, "skipped": skipped, "num_parts": num_parts}


def read_resumable_output(out_dir: str) -> pd.DataFrame:
    """Concatenate the per-partition rollup outputs."""
    parts = []
    base = os.path.join(out_dir, "rollup")
    for d in sorted(os.listdir(base)):
        p = os.path.join(base, d, "data.parquet")
        if os.path.exists(p):
            parts.append(pd.read_parquet(p))
    return pd.concat(parts, ignore_index=True)
