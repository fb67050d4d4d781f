"""The three benchmark jobs, their inputs and their output checks.

Each job calls the engine only through its public functions. With a
tracer, every layer's output is materialized before the next call, so
each span holds that layer's own work; without one, the job runs the
way a user would run it (lazy, streaming where the engine streams).
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from . import checks, gen
from .trace import Tracer, span

METRICS = ["token_len_sum", "latency_sum"]
LINEAGE_PARTS = 4
SLIM_COLS = ["conv_id", "turn_idx", "ts", "text"]

SIZES = {
    "flagship": {"n_convs": 40, "hot_turns": 150},
    "rollup_store": {"n_convs": 200, "hot_turns": 300},
    "panel_long": {"n_series": 55, "min_len": 150, "max_len": 260},
}
WORKLOADS = list(SIZES)


@dataclass
class Inputs:
    workload: str
    seed: int
    sf_dir: str = ""  # engine-style dir; its transcripts live under TSF_RAY_SYNTH_DIR
    base_path: str = ""  # those transcripts: every turn (flagship) or the base slice
    new_path: str = ""
    panel_path: str = ""
    stats: dict | None = None


def make_inputs(workload: str, seed: int, work: str) -> Inputs:
    """Generate and write the workload's inputs; the engine later finds
    the transcripts through ``TSF_RAY_SYNTH_DIR`` and explicit paths."""
    p = SIZES[workload]
    inp = Inputs(workload, seed)
    if workload == "panel_long":
        panel = gen.monthly_panel(seed, **p)
        inp.panel_path = os.path.join(work, "panel.parquet")
        gen.write(panel, inp.panel_path)
        _, lens = np.unique(panel["unique_id"].to_numpy(zero_copy_only=False), return_counts=True)
        inp.stats = {"rows": panel.num_rows, "series": int(len(lens)),
                     "len_quantiles": {"panel": _quantiles(lens)}}
        return inp
    base, new = gen.transcripts(seed, **p)
    # the engine maps a dir named sf<k> to $TSF_RAY_SYNTH_DIR/sf<k>/transcripts.parquet
    synth = os.environ["TSF_RAY_SYNTH_DIR"]
    sf = WORKLOADS.index(workload) + 1
    os.makedirs(os.path.join(synth, f"sf{sf}"), exist_ok=True)
    inp.sf_dir = os.path.join(work, f"sf{sf}")
    engine_path = os.path.join(synth, f"sf{sf}", "transcripts.parquet")
    both = pa.concat_tables([base, new])
    inp.base_path = engine_path
    if workload == "flagship":
        gen.write(both, engine_path)
    else:
        gen.write(base, engine_path)
        inp.new_path = os.path.join(work, "new_day.parquet")
        gen.write(new, inp.new_path)
    # gap-filled series length per tier: one bucket per tier unit spanned
    spans = pd.DataFrame({"c": both["conv_id"].to_numpy(zero_copy_only=False),
                          "t": both["ts"].cast(pa.int64()).to_numpy()}).groupby("c")["t"].agg(["min", "max"])
    inp.stats = {"turns": both.num_rows, "base_turns": base.num_rows,
                 "new_day_turns": new.num_rows, "conversations": len(spans),
                 "len_quantiles": {tier: _quantiles(spans["max"] // w - spans["min"] // w + 1)
                                   for tier, w in checks.TIER_US.items()}}
    return inp


def _quantiles(lens) -> dict:
    lens = np.asarray(lens)
    return {q: float(np.quantile(lens, v)) for q, v in
            (("p50", 0.5), ("p90", 0.9), ("p99", 0.99), ("max", 1.0))}


def _mat(ds, tr: Tracer | None):
    """Materialize when tracing, so the layer's work lands in its span."""
    return ds.materialize() if tr is not None else ds


def flagship(inp: Inputs, out: str, tr: Tracer | None = None) -> dict:
    """Pruned read -> one groupby(part) exchange -> 3-tier gap-filled
    rollup (materialized once) -> pack -> 17 default kernels ->
    Gorilla blocks, every product written as Parquet."""
    from tsfeatures_ray.pipelines import rollup_pipeline
    from tsfeatures_ray.stages.compress import compress_rollup
    from tsfeatures_ray.stages.features import features_over_packed
    from tsfeatures_ray.stages.pack import pack_series

    with span(tr, "job"):
        with span(tr, "rollup"):
            rolled = rollup_pipeline(inp.sf_dir, gapfill=True).materialize()
        with span(tr, "sink"):
            rolled.write_parquet(os.path.join(out, "rollup"))
        with span(tr, "pack"):
            packed = _mat(pack_series(rolled, metric=METRICS), tr)
        with span(tr, "features"):
            feats = _mat(features_over_packed(packed, balance=False), tr)
        with span(tr, "sink"):
            feats.write_parquet(os.path.join(out, "features"))
        with span(tr, "compress"):
            blocks = _mat(compress_rollup(rolled, metric="token_len_sum", pre_partitioned=True), tr)
        with span(tr, "sink"):
            blocks.write_parquet(os.path.join(out, "blocks"))
    return {"packed": packed}


def _derived_rollup(path: str, tr: Tracer | None):
    import ray.data as rd

    from tsfeatures_ray.stages.derive import derive_turn_metrics
    from tsfeatures_ray.stages.rollup import rollup

    derived = derive_turn_metrics(rd.read_parquet(path, columns=SLIM_COLS), slim=True)
    return _mat(rollup(derived, keep_ord=True), tr)


def rollup_store(inp: Inputs, out: str, tr: Tracer | None = None) -> dict:
    """Maintain the rollup store, with no feature kernels: a resumable
    partitioned write with a manifest, base + new-day keep_ord rollups
    merged with gap-fill, 1m->1h->1d compaction, expiry at a pinned now,
    Gorilla blocks, and a read-back that decodes every block."""
    from tsfeatures_ray.stages.compress import compress_rollup, decode_block
    from tsfeatures_ray.stages.retention import apply_retention, compact_tier
    from tsfeatures_ray.stages.rollup import merge_rollups
    from tsfeatures_ray.state.lineage import run_resumable_rollup

    with span(tr, "job"):
        with span(tr, "lineage"):
            summary = run_resumable_rollup(inp.sf_dir, os.path.join(out, "lineage"),
                                           num_parts=LINEAGE_PARTS)
        with span(tr, "rollup"):
            base = _derived_rollup(inp.base_path, tr)
            new = _derived_rollup(inp.new_path, tr)
        with span(tr, "rollup.merge"):
            merged = merge_rollups(base, new, gapfill=True).materialize()
        with span(tr, "sink"):
            merged.write_parquet(os.path.join(out, "rollup"))
        with span(tr, "retention.compact"):
            c1h = compact_tier(merged, "1m", "1h").materialize()
            c1d = _mat(compact_tier(c1h, "1h", "1d"), tr)
        with span(tr, "sink"):
            c1h.write_parquet(os.path.join(out, "compact_1h"))
            c1d.write_parquet(os.path.join(out, "compact_1d"))
        with span(tr, "retention.expire"):
            kept = _mat(apply_retention(merged, now_us=gen.NOW_US), tr)
        with span(tr, "sink"):
            kept.write_parquet(os.path.join(out, "retained"))
        with span(tr, "compress"):
            blocks = _mat(compress_rollup(merged, metric="token_len_sum", pre_partitioned=True), tr)
        with span(tr, "sink"):
            blocks.write_parquet(os.path.join(out, "blocks"))
        with span(tr, "compress.decode"):
            n_points = sum(len(decode_block(b)[0]) for b in block_bytes(out))
    return {"lineage": summary, "decoded_points": n_points}


def panel_long(inp: Inputs, out: str, tr: Tracer | None = None) -> dict:
    """The reference API ``tsfeatures(panel, freq=12)`` over a long
    monthly panel: balance shuffle, "auto" giant probe, long-panel
    exchange + pack, 17 default kernels."""
    import ray.data as rd

    from tsfeatures_ray.pipelines import tsfeatures

    with span(tr, "job"):
        with span(tr, "features"):
            feats = _mat(tsfeatures(rd.read_parquet(inp.panel_path), freq=12), tr)
        with span(tr, "sink"):
            feats.write_parquet(os.path.join(out, "features"))
    return {}


JOBS = {"flagship": flagship, "rollup_store": rollup_store, "panel_long": panel_long}


def warm_batch(batch: pa.Table) -> pa.Table:
    """Worker warm-up: import the engine and run every default kernel
    once on a tiny series."""
    from tsfeatures_ray.stages.features import FeatureKernels

    y = pa.array([np.sin(np.arange(36.0)).tolist()], pa.list_(pa.float64()))
    FeatureKernels()(pa.table({"unique_id": ["w"], "freq": pa.array([12], pa.int32()), "y": y}))
    return batch


def block_bytes(out: str) -> list[bytes]:
    return pq.read_table(os.path.join(out, "blocks"), columns=["block"])["block"].to_pylist()


def read_source(inp: Inputs) -> None:
    """The pruned read alone (traced runs only)."""
    import ray.data as rd

    if inp.workload == "panel_long":
        rd.read_parquet(inp.panel_path).materialize()
    else:
        rd.read_parquet(inp.base_path, columns=SLIM_COLS).materialize()


def packed_series(inp: Inputs, result: dict) -> pa.Table:
    """The series the job's kernels ran over (none for rollup_store), one
    row per series, in the engine's packed layout."""
    if inp.workload == "flagship":
        import ray

        return pa.concat_tables(ray.get(result["packed"].to_arrow_refs()))
    if inp.workload == "panel_long":
        return checks.pack_panel(pq.read_table(inp.panel_path))
    from tsfeatures_ray.stages.pack import PACKED_SCHEMA

    return PACKED_SCHEMA.empty_table()


def check(inp: Inputs, out: str, result: dict, seed: int) -> list[str]:
    """Every output check of the workload; returns the failures."""
    fails: list[str] = []
    if inp.workload in ("flagship", "rollup_store"):
        roll = pq.read_table(os.path.join(out, "rollup")).to_pandas()
        raw = [inp.base_path] if inp.workload == "flagship" else [inp.base_path, inp.new_path]
        fails += checks.rollup_vs_duckdb(roll, raw, gapfilled=True)
        fails += checks.blocks_match(pq.read_table(os.path.join(out, "blocks")).to_pandas(), roll)
    if inp.workload == "flagship":
        feats = pq.read_table(os.path.join(out, "features")).to_pandas()
        fails += checks.features_vs_rollup(feats, roll, METRICS, seed)
    if inp.workload == "rollup_store":
        fails += checks.store_consistent(out, roll, inp.base_path, result["lineage"],
                                         LINEAGE_PARTS, gen.NOW_US, result["decoded_points"])
    if inp.workload == "panel_long":
        feats = pq.read_table(os.path.join(out, "features")).to_pandas()
        fails += checks.features_vs_panel(feats, pq.read_table(inp.panel_path), seed)
    return fails


def digest(inp: Inputs, out: str) -> str:
    """Digest of the rollup and feature products of one job run."""
    names = {"flagship": ["rollup", "features"],
             "rollup_store": ["rollup", "retained", "compact_1h", "compact_1d", "lineage/rollup"],
             "panel_long": ["features"]}[inp.workload]
    return "-".join(checks.table_digest(os.path.join(out, n)) for n in names)


def clear(path: str) -> None:
    """Remove a file, link or directory tree, if present."""
    if os.path.islink(path) or os.path.isfile(path):
        os.remove(path)
    elif os.path.isdir(path):
        shutil.rmtree(path)
