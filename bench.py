#!/usr/bin/env python
"""Headline benchmark: rolled-up points + feature vectors per second.

Stages timed separately over $GRAFT_SF_DIR (default /root/testdata/sf0.1),
over the engine's one-exchange layout:
  1. rollup:   transcripts (pruned read) -> ONE by_partition exchange
               (a sort on part) whose partition function co-locates
               conversations AND computes latency + the exact 3-tier
               gap-filled rollup (rollup_pipeline) -> materialized
               (shared below) -> partitioned parquet.
  2. features: materialized rollup -> pack -> default kernel set ->
               parquet. The rollup is already partitioned on conv_id,
               so pack runs over its blocks with no second sort.
  3. compress: same materialized rollup -> Gorilla/delta-of-delta
               blocks -> parquet, again with no sort.

Prints ONE JSON line. ``--scaling`` runs the same job in fresh processes
at num_cpus=8 and num_cpus=32 and reports both throughputs plus the
scaling efficiency (BASELINE.md criterion: >= 0.8).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time


def run_bench() -> dict:
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False

    import pyarrow.parquet as pq
    import ray.data as rd

    from tsfeatures_ray.pipelines import rollup_pipeline
    from tsfeatures_ray.sources.synth import transcripts_path
    from tsfeatures_ray.stages.compress import compress_rollup
    from tsfeatures_ray.stages.features import features_over_packed
    from tsfeatures_ray.stages.pack import pack_series

    tpath = transcripts_path(sf_dir)  # generated+cached before timing
    out_root = f"/tmp/tsfr_bench_{num_cpus}"
    if os.path.exists(out_root):
        shutil.rmtree(out_root)
    os.makedirs(out_root)
    rollup_dir = os.path.join(out_root, "rollup")
    feat_dir = os.path.join(out_root, "features")
    blk_dir = os.path.join(out_root, "blocks")

    # warm the OS page cache AND the Ray worker pool (process spawn +
    # engine imports in every worker) so we measure compute+shuffle,
    # not cold start
    pq.read_table(tpath)

    def _warm(b):
        import tsfeatures_ray.kernels  # noqa: F401  (preload in workers)
        import tsfeatures_ray.stages.features  # noqa: F401

        return b

    rd.range(num_cpus * 1000).map_batches(
        _warm, batch_size=500, num_cpus=1
    ).count()

    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    # the engine's ONE exchange: co-locate conversations AND compute
    # latency + the exact gap-filled rollup in the same partition
    # function; materialized once (orders of magnitude smaller than the
    # input) and shared by the sink, the feature path and the codec
    rolled = rollup_pipeline(sf_dir, gapfill=True).materialize()
    rolled.write_parquet(rollup_dir)
    timings["rollup"] = time.perf_counter() - t0
    n_points = rolled.count()

    t0 = time.perf_counter()
    # pack and compress see that the materialized rollup is already
    # partitioned on conv_id and run no sort; no balancing shuffle --
    # pack mixes within partitions
    packed = pack_series(rolled, metric=["token_len_sum", "latency_sum"])
    feats = features_over_packed(packed, balance=False)
    feats.write_parquet(feat_dir)
    timings["features"] = time.perf_counter() - t0
    n_vectors = sum(
        pq.ParquetFile(os.path.join(feat_dir, f)).metadata.num_rows
        for f in os.listdir(feat_dir)
        if f.endswith(".parquet")
    )

    t0 = time.perf_counter()
    blocks = compress_rollup(rolled, metric="token_len_sum")
    blocks.write_parquet(blk_dir)
    timings["compress"] = time.perf_counter() - t0

    total = sum(timings.values())
    result = {
        "metric": "rollup+features+compress wall seconds (3 tiers, default kernel set)",
        "value": round(total, 3),
        "unit": "sec",
        "queries": {k: round(v, 3) for k, v in timings.items()},
        "sf": sf_dir,
        "num_cpus": num_cpus,
        "rollup_points": int(n_points),
        "feature_vectors": int(n_vectors),
        "points_per_sec": round(n_points / timings["rollup"], 1),
        "vectors_per_sec": round(n_vectors / timings["features"], 1),
        "throughput_rows_per_sec": round((n_points + n_vectors) / total, 1),
    }
    ray.shutdown()
    return result


def hw_ceiling() -> dict:
    """Hardware scaling ceiling for the kernel workload, measured WITHOUT
    Ray: plain pinned multiprocessing at 8 and 32 processes. On this
    class of box, per-core throughput drops when all cores run (shared
    memory bandwidth / turbo), which bounds any engine's efficiency."""
    import multiprocessing as mp

    ctx = mp.get_context("spawn")
    results = {}
    for procs in (8, 32):
        best = 0.0
        for _ in range(2):  # best-of-2: the ceiling is as noisy as the engine
            with ctx.Pool(procs) as p:
                counts = p.map(_hw_work, range(procs))
            best = max(best, sum(counts) / 6.0)
        results[procs] = best
    return {
        "per_proc_8": round(results[8] / 8, 1),
        "per_proc_32": round(results[32] / 32, 1),
        "ceiling": round((results[32] / results[8]) / 4.0, 3),
    }


def _hw_work(seed: int) -> int:
    """One ceiling-probe worker: runs the ENGINE'S REAL kernel path --
    FeatureKernels over a ~256-series batch (lane-batched optimizers +
    per-series kernels, same mix as the feature stage) -- so the
    measured ceiling reflects the workload that actually scales (the
    round-3 probe ran per-series Python loops, which share SMT cores
    far better than the round-4 SIMD lanes and so OVERSTATED the
    ceiling for the new kernels). Returns series processed in ~6 s."""
    import os

    for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[v] = "1"
    import time

    import numpy as np
    import pyarrow as pa

    from tsfeatures_ray.stages.features import FeatureKernels

    rng = np.random.RandomState(seed)
    lens = rng.choice([1, 2, 6, 12, 20, 40, 80, 160], size=256,
                      p=[0.3, 0.2, 0.1, 0.1, 0.1, 0.1, 0.05, 0.05])
    ys = [list(100 + np.cumsum(rng.randn(int(n)))) for n in lens]
    batch = pa.table(
        {
            "unique_id": pa.array([str(i) for i in range(len(ys))]),
            "freq": pa.array([24] * len(ys), type=pa.int64()),
            "y": pa.array(ys, type=pa.list_(pa.float64())),
        }
    )
    fk = FeatureKernels()
    t0 = time.perf_counter()
    cnt = 0
    while time.perf_counter() - t0 < 6.0:
        fk(batch)
        cnt += len(ys)
    return cnt


def run_scaling() -> None:
    def run(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu))
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    lo, hi = 8, 32
    # best-of-N per level with a settle pause between sessions: raylet
    # teardown of the previous run otherwise bleeds into the next
    # measurement and dominates the efficiency number on a ~30s job.
    # GRAFT_BENCH_RUNS=1 for long (sf>=0.5) inputs where one run is
    # already stable and two would double a ~10min measurement.
    n_runs = int(os.environ.get("GRAFT_BENCH_RUNS", "2"))

    def best_of(n):
        results = []
        for _ in range(n_runs):
            results.append(run(n))
            time.sleep(15)  # raylet teardown settle
        return min(results, key=lambda r: r["value"])

    r_lo = best_of(lo)
    r_hi = best_of(hi)
    ceiling = hw_ceiling()
    thr_lo = r_lo["throughput_rows_per_sec"]
    thr_hi = r_hi["throughput_rows_per_sec"]
    eff = (thr_hi / thr_lo) / (hi / lo)
    print(
        json.dumps(
            {
                "metric": "scaling efficiency (throughput ratio / cpu ratio)",
                "value": round(eff, 3),
                "unit": "efficiency",
                "sec_8": r_lo["value"],
                "sec_32": r_hi["value"],
                "throughput_8": thr_lo,
                "throughput_32": thr_hi,
                "queries_8": r_lo["queries"],
                "queries_32": r_hi["queries"],
                "hw_ceiling": ceiling,
                "efficiency_vs_hw_ceiling": round(
                    (r_lo["value"] / r_hi["value"]) / (hi / lo) / ceiling["ceiling"], 3
                ),
                "sf": r_lo["sf"],
            }
        )
    )


def run_ops() -> dict:
    """Per-operator throughput for the training-data ops over the real
    testdata tables at $GRAFT_SF_DIR's sibling sf0.1 (documents /
    embeddings / events are driver-provided, not synthesized)."""
    sf_dir = os.environ.get("GRAFT_OPS_SF_DIR", "/root/testdata/sf0.1")
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))

    import numpy as np
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus,
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import ray.data as rd

    docs_path = os.path.join(sf_dir, "documents.parquet")
    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    ev_path = os.path.join(sf_dir, "events.parquet")
    out: dict[str, dict] = {}

    def timed(name, n_rows, fn):
        t0 = time.perf_counter()
        res = fn()
        dt = time.perf_counter() - t0
        out[name] = {"sec": round(dt, 2), "rows_per_sec": round(n_rows / dt)}
        return res

    import pyarrow.parquet as pq

    n_docs = pq.ParquetFile(docs_path).metadata.num_rows
    n_emb = pq.ParquetFile(emb_path).metadata.num_rows
    n_ev = pq.ParquetFile(ev_path).metadata.num_rows

    from tsfeatures_ray.functions.dedup import (
        exact_dedup,
        minhash_near_dups_distributed,
        simhash_near_dups,
    )
    from tsfeatures_ray.functions.similarity import brute_knn, cosine_near_dups
    from tsfeatures_ray.functions.sketches import histogram_quantiles
    from tsfeatures_ray.functions.text import language_id, text_metrics

    docs = lambda: rd.read_parquet(docs_path, columns=["doc_id", "text"])  # noqa: E731
    timed("text_metrics", n_docs, lambda: text_metrics(docs()).count())
    timed("language_id", n_docs, lambda: language_id(docs()).count())
    timed("exact_dedup", n_docs, lambda: exact_dedup(docs()).count())
    timed("near_dups_lsh_verify", n_docs,
          lambda: minhash_near_dups_distributed(docs(), threshold=0.8).count())
    timed("near_dups_estimate_cascade", n_docs,
          lambda: minhash_near_dups_distributed(
              docs(), threshold=0.8, estimate_filter=True).count())
    timed("simhash_near_dups_exact", n_docs,
          lambda: simhash_near_dups(docs(), max_hamming=6).count())

    # auto-cascade policy A/B: synthetic corpora at 1 KB and 32 KB mean
    # doc size; the auto rule (mean bytes >= 8 x 8 x num_perm) must pick
    # the measured winner at BOTH sizes
    from tsfeatures_ray.functions.dedup import _mean_doc_bytes

    def _synth_docs(n, size, seed):
        rng = np.random.default_rng(seed)
        words = [
            "".join(rng.choice(list("abcdefghijklmnopqrstuvwxyz"), 6))
            for _ in range(800)
        ]
        texts = [
            " ".join(rng.choice(words, max(4, size // 7))) for _ in range(n)
        ]
        for j in range(n // 10):  # 10% near-dups, ~2% words mutated
            w = texts[j * 7 % n].split(" ")
            for _ in range(max(1, len(w) // 50)):
                w[int(rng.integers(len(w)))] = words[int(rng.integers(800))]
            texts.append(" ".join(w))
        import pandas as _pd

        return _pd.DataFrame(
            {"doc_id": np.arange(len(texts), dtype=np.int64), "text": texts}
        )

    for label, n, size in [("1kb", 2500, 1024), ("32kb", 800, 32768)]:
        path = f"/tmp/tsfr_cascade_{label}.parquet"
        _synth_docs(n, size, seed=42).to_parquet(path, index=False)
        sdocs = lambda p=path: rd.read_parquet(p)  # noqa: E731
        walls = {}
        for mode in (False, True):
            t0 = time.perf_counter()
            minhash_near_dups_distributed(
                sdocs(), threshold=0.8, estimate_filter=mode
            ).count()
            walls[mode] = time.perf_counter() - t0
        auto_cascade = bool(
            _mean_doc_bytes(sdocs(), "text") >= 8 * 8 * 64
        )
        out[f"near_dups_auto_{label}"] = {
            "sec": round(walls[auto_cascade], 2),  # what auto actually runs
            "rows_per_sec": round((n + n // 10) / walls[auto_cascade]),
            "plain_sec": round(walls[False], 2),
            "cascade_sec": round(walls[True], 2),
            "auto_picks": "cascade" if auto_cascade else "plain",
            "auto_correct": auto_cascade == (walls[True] < walls[False]),
        }
    emb = rd.read_parquet(emb_path, columns=["vec_id", "embedding"])
    q = np.stack([r["embedding"] for r in emb.take(16)])
    timed("brute_knn_16q", n_emb, lambda: len(brute_knn(emb, q, k=10)))
    timed("cosine_near_dups_exact", n_emb,
          lambda: cosine_near_dups(emb, threshold=0.4).count())
    ev = rd.read_parquet(ev_path, columns=["user_id", "value"])
    timed("hist_quantiles", n_ev, lambda: histogram_quantiles(
        ev, "value", "user_id", lo=0.0, hi=512.0).count())

    from tsfeatures_ray.functions import (
        chunk_documents,
        hash_split,
        pack_sequences,
        redact,
    )

    timed("chunk_documents", n_docs,
          lambda: chunk_documents(docs(), size=200, overlap=50).count())
    timed("redact", n_docs, lambda: redact(docs()).count())
    timed("hash_split", n_docs,
          lambda: hash_split(
              rd.read_parquet(docs_path, columns=["doc_id"]), [0.8, 0.1, 0.1]
          ).count())
    timed("pack_sequences", n_docs,
          lambda: pack_sequences(docs(), budget=2048).count())
    from tsfeatures_ray.functions import duplicated_span_stats

    timed("dup_spans_exact_k24", n_docs,
          lambda: duplicated_span_stats(docs(), k=24).count())
    timed("dup_spans_winnow_w16", n_docs,
          lambda: duplicated_span_stats(
              docs(), k=24, mode="winnow", window=16).count())

    from tsfeatures_ray.functions import asof_join, range_join
    import pandas as _pd

    def _ev(cols):
        return rd.read_parquet(ev_path, columns=cols)

    def _asof():
        left = _ev(["event_id", "ts", "user_id"])
        right = _ev(["event_id", "ts", "user_id"]).map_batches(
            lambda t: t.rename_columns(["p_event_id", "p_ts", "p_user_id"]),
            batch_format="pyarrow",
        )
        return asof_join(left, right, on="ts", by="user_id",
                         right_on="p_ts", right_by="p_user_id").count()

    def _range():
        left = _ev(["event_id", "ts", "user_id"])
        right = _ev(["event_id", "ts", "user_id"]).map_batches(
            lambda t: t.rename_columns(["p_event_id", "p_ts", "p_user_id"]),
            batch_format="pyarrow",
        )
        return range_join(left, right, on="ts", by="user_id",
                          right_on="p_ts", right_by="p_user_id",
                          lo=_pd.Timedelta(hours=-1),
                          hi=_pd.Timedelta(0)).count()

    timed("asof_join_self", n_ev, _asof)
    timed("range_join_1h_self", n_ev, _range)

    from tsfeatures_ray.functions import grouped_top_k, interval_join, rolling_agg
    from tsfeatures_ray.functions.windows import sessionize
    import pyarrow as _pa

    def _interval():
        sess = sessionize(
            _ev(["user_id", "event_id", "ts", "value"])
        ).drop_columns(["n_events", "value_sum"]).map_batches(
            lambda t: t.rename_columns(
                ["s_user_id", "session_idx", "session_start", "session_end"]),
            batch_format="pyarrow",
        )
        return interval_join(
            _ev(["event_id", "ts", "user_id"]), sess,
            on="ts", by="user_id", right_lo="session_start",
            right_hi="session_end", right_by="s_user_id",
            right_schema=_pa.schema(
                [("s_user_id", _pa.int64()), ("session_idx", _pa.int64()),
                 ("session_start", _pa.timestamp("us")),
                 ("session_end", _pa.timestamp("us"))]),
        ).count()

    timed("interval_join_sessions", n_ev, _interval)

    from tsfeatures_ray.functions.sketches import approx_top_tokens

    timed("approx_top_tokens", n_docs,
          lambda: approx_top_tokens(docs(), k=50).count())

    from tsfeatures_ray.functions.text import tfidf_stats

    timed("tfidf_stats", n_docs, lambda: tfidf_stats(docs()).count())

    from tsfeatures_ray.functions.sketches import exact_quantile

    timed("exact_p95_selection", n_ev,
          lambda: exact_quantile(_ev(["value"]), "value", 0.95,
                                 bins=256, pull_threshold=10_000))

    from tsfeatures_ray.functions.grouped import grouped_agg

    timed("grouped_agg_user", n_ev,
          lambda: grouped_agg(_ev(["event_id", "user_id", "value"]),
                              "user_id",
                              {"value": ["sum", "min", "max", "count",
                                         "mean", "last"]},
                              order_col="event_id").count())
    from tsfeatures_ray.functions.similarity import kmeans_cluster

    timed("kmeans_cluster_k16", n_emb,
          lambda: kmeans_cluster(
              rd.read_parquet(emb_path, columns=["vec_id", "embedding"]),
              k=16, refine_iters=2).count())

    from tsfeatures_ray.functions.similarity import semantic_dedup

    timed("semantic_dedup_k16", n_emb,
          lambda: semantic_dedup(
              rd.read_parquet(emb_path, columns=["vec_id", "embedding"]),
              threshold=0.4, k=16, refine_iters=2).count())

    from tsfeatures_ray.functions.text import trigram_logppl

    timed("trigram_logppl", n_docs,
          lambda: trigram_logppl(docs()).count())

    from tsfeatures_ray.functions.dedup import jaccard_near_dups

    timed("jaccard_dups_exact", n_docs,
          lambda: jaccard_near_dups(docs(), threshold=0.8).count())

    from tsfeatures_ray.functions.grouped import grouped_corr

    timed("grouped_corr_user", n_ev,
          lambda: grouped_corr(_ev(["event_id", "user_id", "value"]),
                               "user_id", "event_id", "value").count())
    timed("grouped_top3", n_ev,
          lambda: grouped_top_k(_ev(["event_id", "user_id", "value"]),
                                "user_id", "value", k=3,
                                tie_cols=["event_id"]).count())
    timed("rolling_agg_w4", n_ev,
          lambda: rolling_agg(_ev(["event_id", "user_id", "value"]),
                              key="user_id", order="event_id",
                              cols=["value"], window=4).count())

    from tsfeatures_ray.functions import rolling_corr

    timed("rolling_corr_w4", n_ev,
          lambda: rolling_corr(_ev(["event_id", "user_id", "value"]),
                               key="user_id", order="event_id",
                               x_col="event_id", y_col="value",
                               window=4).count())

    # round-5 fourth-session additions
    from tsfeatures_ray.functions.dedup import containment_pairs
    from tsfeatures_ray.functions.similarity import hard_negatives
    from tsfeatures_ray.functions.stats import mann_whitney_u, pareto_abc
    from tsfeatures_ray.functions.text import cross_source_ppl
    from tsfeatures_ray.functions.windows import (
        hampel_outliers,
        time_weighted_avg,
    )

    timed("containment_pairs_t50", n_docs,
          lambda: containment_pairs(docs(), threshold=0.5).count())
    timed("cross_source_ppl", n_docs,
          lambda: cross_source_ppl(
              rd.read_parquet(docs_path, columns=["source", "text"])
          ).count())
    timed("hard_negatives_k5", n_emb,
          lambda: hard_negatives(
              rd.read_parquet(emb_path), k=5).count())
    timed("twap_1d", n_ev,
          lambda: time_weighted_avg(
              rd.read_parquet(
                  ev_path,
                  columns=["user_id", "ts", "event_id", "value"])
          ).count())
    timed("hampel_w7", n_ev,
          lambda: hampel_outliers(
              _ev(["user_id", "event_id", "value"]),
              key="user_id", order="event_id", col="value").count())
    timed("mann_whitney", n_ev,
          lambda: mann_whitney_u(
              rd.read_parquet(ev_path, columns=["event_type", "value"]),
              "value", "event_type", "purchase", "error").count())
    timed("pareto_abc_user", n_ev,
          lambda: pareto_abc(
              rd.read_parquet(ev_path, columns=["user_id", "value"]),
              "user_id", "value").count())
    result = {
        "metric": "per-op wall seconds / rows per second (training-data ops)",
        "value": round(sum(v["sec"] for v in out.values()), 2),
        "unit": "sec",
        "queries": out,
        "sf": sf_dir,
        "num_cpus": num_cpus,
        "table_rows": {"documents": n_docs, "embeddings": n_emb,
                       "events": n_ev},
    }
    ray.shutdown()
    return result


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        run_scaling()
    elif "--ops" in sys.argv:
        print(json.dumps(run_ops()))
    else:
        print(json.dumps(run_bench()))
