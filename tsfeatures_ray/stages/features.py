"""Stage 4: the feature kernels.

The reference's execution model is one OS process per series
(tsfeatures.py:970-971). Ours is the idiomatic Ray Data equivalent:
stateless ``map_batches(..., batch_format="pyarrow", num_cpus=1)``
tasks, each calling a per-worker cached ``FeatureKernels`` whose setup
(feature list resolution, scratch state) runs once per worker and whose
``__call__`` processes a BATCH of packed series (amortizing task
overhead over many series, unlike the reference's task-per-series).

Output is a wide feature table with a FIXED schema: the seasonal
superset of the default feature set (42 feature columns, SURVEY.md
§2.1); nonseasonal series leave the seasonal-only columns NaN. A fixed
schema is what lets blocks concatenate without Arrow schema conflicts.

BLAS threading: the reference pins MKL/OMP to one thread per worker
(tsfeatures.py:6-8); Ray already exports OMP_NUM_THREADS=1 to workers,
so each num_cpus=1 task is single-threaded by construction.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
import pyarrow as pa

import ray

from ..kernels import ALL_FEATURES, DEFAULT_FEATURES, compute_features

# canonical output order: reference default feature list order, seasonal
# superset (SURVEY.md §2.1; reference tsfeatures.py:932-937)
DEFAULT_FEATURE_COLS: list[str] = [
    # acf_features
    "x_acf1", "x_acf10", "diff1_acf1", "diff1_acf10", "diff2_acf1",
    "diff2_acf10", "seas_acf1",
    # arch_stat
    "arch_lm",
    # crossing_points
    "crossing_points",
    # entropy
    "entropy",
    # flat_spots
    "flat_spots",
    # heterogeneity
    "arch_acf", "garch_acf", "arch_r2", "garch_r2",
    # holt_parameters
    "alpha", "beta",
    # lumpiness
    "lumpiness",
    # nonlinearity
    "nonlinearity",
    # pacf_features
    "x_pacf5", "diff1x_pacf5", "diff2x_pacf5", "seas_pacf",
    # stl_features
    "nperiods", "seasonal_period", "trend", "spike", "linearity",
    "curvature", "e_acf1", "e_acf10", "seasonal_strength", "peak", "trough",
    # stability
    "stability",
    # hw_parameters
    "hw_alpha", "hw_beta", "hw_gamma",
    # unitroot_kpss / unitroot_pp
    "unitroot_kpss", "unitroot_pp",
    # series_length / hurst
    "series_length", "hurst",
]


def _resolve(features) -> list[Callable]:
    if features is None:
        return DEFAULT_FEATURES
    out = []
    for f in features:
        if isinstance(f, str):
            if f not in ALL_FEATURES:
                raise KeyError(
                    f"unknown feature {f!r}; available: {sorted(ALL_FEATURES)}"
                )
            out.append(ALL_FEATURES[f])
        else:
            out.append(f)
    return out


class FeatureKernels:
    """Packed series batches -> wide feature rows."""

    def __init__(self, features=None, scale: bool = True, columns=None):
        self.features = _resolve(features)
        self.scale = scale
        if columns is None and self.features is DEFAULT_FEATURES:
            # what the probe below derives for the default list, without
            # running every kernel twice per instance
            columns = DEFAULT_FEATURE_COLS
        if columns is None:
            # derive the column set from a probe run on tiny seasonal and
            # nonseasonal series (cheap; once per instance)
            cols = []
            seen = set()
            probe = np.arange(64, dtype=float) + np.sin(np.arange(64) / 3)
            for freq in (12, 1):
                for k in compute_features(probe, freq, self.features, scale=False):
                    if k not in seen:
                        seen.add(k)
                        cols.append(k)
            # keep canonical ordering when the default set is used
            if set(cols) == set(DEFAULT_FEATURE_COLS):
                cols = list(DEFAULT_FEATURE_COLS)
            self.columns = cols
        else:
            self.columns = list(columns)

    @staticmethod
    def _extract_series(col) -> tuple[np.ndarray, np.ndarray]:
        """(offsets, flat values) from a list<double> column, tolerating
        Ray's variable-shaped tensor extension (produced when a sort or
        pandas round-trip re-encodes the list column)."""
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        t = col.type
        if pa.types.is_list(t) or pa.types.is_large_list(t):
            return col.offsets.to_numpy(), col.values.to_numpy(zero_copy_only=False)
        # ray.data tensor extension: storage struct (data: large_list, shapes)
        storage = getattr(col, "storage", None)
        if storage is not None and pa.types.is_struct(storage.type):
            data = storage.field(0)
            if isinstance(data, pa.ChunkedArray):
                data = data.combine_chunks()
            return data.offsets.to_numpy(), data.values.to_numpy(zero_copy_only=False)
        # last resort: python lists
        pylist = col.to_pylist()
        offsets = np.zeros(len(pylist) + 1, dtype=np.int64)
        for i, v in enumerate(pylist):
            offsets[i + 1] = offsets[i] + len(v)
        flat = np.concatenate([np.asarray(v, float) for v in pylist]) if pylist else np.empty(0)
        return offsets, flat

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..kernels._batch import holt_parameters_batch, hw_parameters_batch
        from ..kernels._math import scalets
        from ..kernels.het import heterogeneity_batch

        batch_impls = {
            "holt_parameters": lambda xs, fr: holt_parameters_batch(xs),
            "hw_parameters": hw_parameters_batch,
            "heterogeneity": heterogeneity_batch,
        }
        offsets, flat = self._extract_series(batch["y"])
        freqs = batch["freq"].to_numpy()
        n = len(batch)
        # scale once per series (identical to compute_features' scalets).
        # Unscaled series are COPIED out of the Arrow buffer: a zero-copy
        # view's pointer alignment varies with block layout, and BLAS
        # kernels (lstsq/QR/matmul) are alignment-sensitive in the last
        # bit -- fresh allocations keep outputs run-deterministic.
        xs = []
        for i in range(n):
            x = np.array(flat[offsets[i] : offsets[i + 1]], dtype=float)
            xs.append(scalets(x) if self.scale else x)
        # registry kernels with a cross-series (lane-batched) impl run
        # ONCE per batch; custom callables that merely share a registry
        # name keep the per-series path
        plan = []  # (feature_fn, batch_result | None), feature-list order
        for f in self.features:
            name = getattr(f, "__name__", "")
            if name in batch_impls and ALL_FEATURES.get(name) is f:
                plan.append((f, batch_impls[name](xs, freqs)))
            else:
                plan.append((f, None))
        plan.reverse()  # reversed dict.update == ChainMap first-wins
        out = {c: np.full(n, np.nan) for c in self.columns}
        for i in range(n):
            row: dict = {}
            fi = int(freqs[i])
            for f, br in plan:
                if br is None:
                    row.update(f(xs[i], fi))
                else:
                    for k, v in br.items():
                        row[k] = v[i]
            for k, v in row.items():
                if k in out:
                    out[k][i] = v
        id_cols = [c for c in ("unique_id", "tier", "metric") if c in batch.column_names]
        arrays = [batch[c] for c in id_cols] + [
            pa.array(out[c], type=pa.float64()) for c in self.columns
        ]
        return pa.Table.from_arrays(arrays, names=id_cols + self.columns)


_TASK_KERNEL_CACHE: dict = {}


def _make_kernel_task(features, scale):
    """Stateless-task wrapper with a per-worker cached FeatureKernels
    instance: worker processes persist across tasks, so setup amortizes
    exactly like an actor pool without paying pool spin-up."""
    key = (tuple(f if isinstance(f, str) else f.__name__ for f in features)
           if features is not None else None, scale)
    feat_names = features

    def kernel_task(batch: pa.Table) -> pa.Table:
        fk = _TASK_KERNEL_CACHE.get(key)
        if fk is None:
            fk = _TASK_KERNEL_CACHE[key] = FeatureKernels(feat_names, scale)
        return fk(batch)

    return kernel_task


# giant-probe histogram resolution: 4096 geometric bins across 40
# octaves (lengths 1 .. 2^40) put adjacent bin edges 2^(40/4096) = 0.7%
# apart -- effectively exact for a 4x-p99 routing threshold
_PROBE_BINS = 4096
_PROBE_LOG2_MAX = 40.0


def _giant_probe_partial(batch: pa.Table, cap: int) -> pa.Table:
    """Per-block partial for the giant-routing probe: row count, a
    geometric length histogram, and the block's exact top-``cap``
    lengths (top-k partials merge losslessly on the driver). One output
    row per block, so the collect is bounded by block count."""
    lens = batch.column("n_buckets").to_numpy()
    n = int(len(lens))
    if n == 0:
        hist = np.zeros(_PROBE_BINS, dtype=np.int64)
        top = np.array([], dtype=np.int64)
    else:
        b = np.clip(
            (
                np.log2(np.maximum(lens, 1)) / _PROBE_LOG2_MAX * _PROBE_BINS
            ).astype(np.int64),
            0,
            _PROBE_BINS - 1,
        )
        hist = np.bincount(b, minlength=_PROBE_BINS).astype(np.int64)
        srt = np.sort(lens.astype(np.int64))
        top = srt[-cap:] if n > cap else srt
    return pa.table(
        {
            "n": pa.array([n], type=pa.int64()),
            "hist": pa.array([hist.tolist()], type=pa.list_(pa.int64())),
            "top": pa.array([top.tolist()], type=pa.list_(pa.int64())),
        }
    )


def features_over_packed(
    packed: "ray.data.Dataset",
    features=None,
    scale: bool = True,
    concurrency=None,
    batch_size: int = 1024,
    balance: bool = True,
    giant_threshold: "int | str | None" = "auto",
) -> "ray.data.Dataset":
    """Run the feature kernels over a packed Dataset.

    Skew handling (SURVEY.md §4): per-series kernel cost is O(n)-O(n^2)
    in series length and the pack order groups expensive tiers together,
    so with ``balance=True`` the (small -- one row per series) packed
    table is randomly shuffled and split into fine-grained blocks before
    dispatch; every block then carries a near-equal cost mix and the
    straggler tail collapses (measured 38s -> 14s on the sf0.1 bench at
    32 CPUs). Only packed rows move -- never the raw input.

    Giant-series policy (SURVEY.md §4; DEFAULT ON since round 4):
    series of >= ``giant_threshold`` buckets are routed to a dedicated
    pool of single-series tasks dispatched alongside (not behind) the
    main pool: a multi-hour kernel call on one power-law outlier then
    bounds the stage wall at max(giant, rest/N) instead of adding
    head-of-line latency to whichever batch it lands in. The default
    ``"auto"`` probes the packed length distribution (the packed table
    is one row per series, orders of magnitude below the input, and is
    materialized once anyway) and routes series longer than
    max(50_000, 4 x p99), capped at 8 x concurrency routed series: only
    true power-law outliers whose SOLO kernel cost is large in absolute
    terms pay the single-task overhead. Pass ``None`` to disable. Unsplittable series
    are inherent to per-series kernels -- this policy bounds their
    damage rather than pretending to parallelize one series.

    Execution: stateless tasks (kernels hold no model state; a
    per-worker cache amortizes setup, and tasks avoid actor-pool
    spin-up and scale elastically).
    """
    if concurrency is None:
        try:
            concurrency = max(2, int(ray.cluster_resources().get("CPU", 8)) - 1)
        except Exception:
            concurrency = 4
    _resolve(features)  # validate feature names eagerly, on the driver
    kernel_fn = _make_kernel_task(features, scale)
    if giant_threshold is not None:
        packed = packed.materialize()
        if giant_threshold == "auto":
            # Route a series when its SOLO kernel cost is large
            # in absolute terms (>= 50k points: tens of seconds on any
            # core -- at sf1.0 one unrouted 132k-point conversation was
            # a measured 42 s straggler gating a 61 s stage) AND it is a
            # genuine outlier (>= 4x p99, so uniformly-long corpora stay
            # in the lane-batched pool where they belong). The split
            # machinery's union costs a few fixed seconds, so the rule
            # deliberately does NOT fire for small outliers that a
            # 1024-row batch absorbs anyway. Routed count is capped at
            # 8x concurrency by raising the cut to the largest lengths.
            # distributed probe: per-block (count, geometric histogram,
            # exact top-cap lengths) partials -- the driver sees one
            # ~4 KB row per BLOCK, bounded by block count, never one int
            # per series (billions of series would otherwise pull GBs)
            cap = concurrency * 8
            probe = (
                packed.select_columns(["n_buckets"])
                .map_batches(
                    lambda b: _giant_probe_partial(b, cap),
                    batch_format="pyarrow",
                )
                .to_pandas()
            )
            ntot = int(probe["n"].sum()) if len(probe) else 0
            if ntot == 0:
                giant_threshold = 1 << 30
            else:
                hist = np.sum(
                    np.array(probe["hist"].tolist(), dtype=np.int64), axis=0
                )
                top = np.sort(np.concatenate(probe["top"].tolist()))[-cap:]
                # order statistic int(0.99 n) lands in bin `b99`; its
                # upper edge over-estimates p99 by < 0.7% (4096 bins over
                # 40 octaves), immaterial to the max(50k, 4*p99) rule
                rank = min(ntot - 1, int(0.99 * ntot))
                b99 = int(np.searchsorted(np.cumsum(hist), rank + 1))
                p99 = int(
                    min(
                        2.0 ** ((b99 + 1) / _PROBE_BINS * _PROBE_LOG2_MAX),
                        float(top[-1]),
                    )
                )
                giant_threshold = max(50_000, 4 * p99)
                if len(top) == cap and int(top[0]) >= giant_threshold:
                    # >= cap series over the cut: raise it to the cap-th
                    # largest length (top[0] is exact -- top-k partials
                    # merge losslessly)
                    giant_threshold = int(top[0])
        # packed is materialized above, so count() is metadata-cheap
        n_rows = packed.count()
        n_big = packed.filter(expr=f"n_buckets >= {giant_threshold}").count()
        if n_big > 0:
            # ONE keyed exchange instead of big.union(small): Ray Data's
            # streaming executor does not overlap union branches (sf1.0
            # @32 measured: union wall 147.8 s vs 108.2 s small-only +
            # 59.4 s big-only run separately -- the giant branch
            # serialized behind the main pool). Isolating each giant in
            # its own singleton GROUP inside a single groupby exchange
            # keeps the routing goal (a dedicated task per giant,
            # scheduled alongside the pool) with no union barrier. The
            # ~4096-row small groups double as the lane-batch sweet spot
            # (single-core probe on the sf1.0 packed table: 2558 / 2028 /
            # 1673 / 1592 us/row at widths 1024 / 2048 / 4096 / 8192).
            return _dispatch_grouped(
                packed, kernel_fn, concurrency, giant_threshold,
                n_rows - n_big,
            )
        n_rows_plain = n_rows
    else:
        n_rows_plain = None
    return _dispatch(
        packed, kernel_fn, concurrency, batch_size, balance, n_rows=n_rows_plain
    )


def _dispatch_grouped(packed, kernel_fn, concurrency, giant_threshold,
                      n_small):
    """Giant-aware dispatch as a single groupby exchange: small series
    hash into ~4096-row mixed groups, each giant gets a singleton group
    (group key derived from its unique (id, tier, metric) row hash in a
    disjoint negative namespace), and the kernel runs once per group.
    Every task is independently schedulable -- the stage wall is
    max(longest giant, rest / N) without relying on union overlap."""
    import pandas as pd

    width = 4096
    n_small_groups = max(2 * concurrency, -(-max(n_small, 1) // width))

    def assign(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t.append_column("__grp", pa.array([], pa.int64()))
        key = (
            pd.Series(t.column("unique_id").to_pylist())
            + "|" + pd.Series(t.column("tier").to_pylist())
            + "|" + pd.Series(t.column("metric").to_pylist())
        )
        h = pd.util.hash_array(key.to_numpy(dtype=object), categorize=False)
        nb = t.column("n_buckets").to_numpy()
        grp = (h % np.uint64(n_small_groups)).astype(np.int64)
        giant = nb >= giant_threshold
        if giant.any():
            # disjoint negative namespace; a 62-bit hash collision (two
            # giants sharing a task) is the pre-routing behavior, not an
            # error
            grp[giant] = -1 - (h[giant] % np.uint64(1 << 62)).astype(np.int64)
        return t.append_column("__grp", pa.array(grp, pa.int64()))

    def per_group(t: pa.Table) -> pa.Table:
        return kernel_fn(t.drop_columns(["__grp"]))

    return (
        packed.map_batches(assign, batch_format="pyarrow")
        .groupby("__grp")
        .map_groups(per_group, batch_format="pyarrow", num_cpus=1)
    )


def _dispatch(packed, kernel_fn, concurrency, batch_size, balance, n_rows=None):
    # pack already mixes series within each block (pack.py), so the plain
    # repartition below slices those mixed runs into fine-grained,
    # cost-balanced blocks; balance=True adds a full random_shuffle for
    # packed inputs that did NOT come from this engine's pack stage
    # Task composition stays length-MIXED (pack interleaves series; the
    # balance shuffle restores the mix for foreign inputs): with ~1024
    # rows per batch every task carries a near-equal cost mix, so no
    # mega-task forms. Inside a batch the lane-batched kernels run every
    # series as one ragged lane (each compiled step loop stops at its own
    # series' length), so mixing lengths costs them nothing, while
    # task-level length homogeneity would concentrate the long-series
    # cost into one straggler (measured 17s -> 47s when tried; don't sort
    # here).
    if balance:
        packed = packed.random_shuffle(seed=7)
    # Block count targets the BATCH SIZE, not the CPU count (round 4):
    # the lane-batched kernels' per-row cost depends on batch width, so
    # tying blocks to concurrency would make per-row speed vary with
    # cluster size (it silently deflated the measured scaling
    # efficiency). A floor of 2 waves keeps every core busy when the
    # input is small. FLOOR division (round 5): ceil made every block
    # land just UNDER batch_size, so map_batches re-bundled block PAIRS
    # into double-width tasks -- half as many tasks as intended, and at
    # sf0.1 @32 the resulting 40-on-31-slot wave quantization idled 22
    # cores for the whole second wave (interleaved A/B: 10.6/11.0 s ->
    # 9.1/9.6 s). Floor keeps each block >= batch_size, so one block =
    # one task at exactly the intended width.
    if n_rows is not None:
        n_blocks = max(concurrency * 2, n_rows // max(1, batch_size), 1)
    else:
        n_blocks = concurrency * 4
    return packed.repartition(n_blocks).map_batches(
        kernel_fn,
        batch_format="pyarrow",
        batch_size=batch_size,
        num_cpus=1,
    )
