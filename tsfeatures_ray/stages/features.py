"""Stage 4: the feature kernels.

The reference's execution model is one ``Pool.starmap`` over per-series
chunks (tsfeatures.py:970-971). Ours runs a ``FeatureKernels`` instance,
built once on the driver (feature list resolution and column probe run
once per pipeline call, not per task or worker), over BATCHES of packed
series: it scales each ragged batch once and calls each kernel's batch
form once (kernels/__init__: the kernel protocol), so no default kernel
runs per series, and it cuts a larger table into ``BATCH_ROWS``-row
slices itself, which bounds its memory. The flagship
(``feature_pipeline``) and ``tsfeatures()`` call it inside the partition
function of their one ``by_partition`` exchange (for the flagship, the
derive -> rollup exchange it fuses with), on the series that partition
just packed; ``features_over_packed`` maps it over an already packed
Dataset.

Output is a wide feature table with a FIXED schema: the seasonal
superset of the default feature set (42 feature columns, SURVEY.md
§2.1); nonseasonal series leave the seasonal-only columns NaN. A fixed
schema is what lets blocks concatenate without Arrow schema conflicts.

Threading: the reference pins MKL/OMP to one thread per worker
(tsfeatures.py:6-8); no kernel here calls BLAS, and each num_cpus=1 task
is single-threaded by construction.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
import pyarrow as pa

import ray

from ..kernels import ALL_FEATURES, DEFAULT_FEATURES, compute_features, per_row, scale_lanes
from .pack import ragged

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


# rows per kernel batch: wide enough to amortize the per-call setup of
# the lane-batched kernels, small enough to bound a batch's temporaries
BATCH_ROWS = 1024


class FeatureKernels:
    """Packed series batches -> wide feature rows. Every kernel runs as
    one batch form per batch: a default kernel's ``f.batch``, a kernel
    with only the scalar contract (opt-in extras, user callables) its
    ``per_row`` form. A table of more than ``BATCH_ROWS`` rows runs as
    consecutive ``BATCH_ROWS``-row batches; no value depends on the
    batch composition (``test_composition_independence``)."""

    def __init__(self, features=None, scale: bool = True):
        self.features = _resolve(features)
        self.scale = scale
        self.batch_forms = [getattr(f, "batch", None) or per_row(f) for f in self.features]
        if self.features is DEFAULT_FEATURES:
            # what the probe below derives for the default list, without
            # running every kernel twice per instance
            self.columns = list(DEFAULT_FEATURE_COLS)
        else:
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

    def __call__(self, batch: pa.Table) -> pa.Table:
        if len(batch) > BATCH_ROWS:
            return pa.concat_tables([self(batch.slice(i, BATCH_ROWS))
                                     for i in range(0, len(batch), BATCH_ROWS)])
        off, v = ragged(batch["y"])
        freqs = batch["freq"].to_numpy().astype(np.int64)
        n = len(batch)
        # scale once per batch (each lane identical to compute_features'
        # scalets); unscaled, the kernels get a private copy
        v = scale_lanes(off, v) if self.scale else v.copy()
        # every kernel runs ONCE per batch and writes whole columns, in
        # reverse list order so an earlier kernel's column overwrites a
        # later one's: the reference's ChainMap first-wins merge
        out = {c: np.full(n, np.nan) for c in self.columns}
        for f in reversed(self.batch_forms if n else []):
            for k, col in f(off, v, freqs).items():
                if k in out:
                    out[k][:] = col
        id_cols = [c for c in ("unique_id", "tier", "metric") if c in batch.column_names]
        arrays = [batch[c] for c in id_cols] + [
            pa.array(out[c], type=pa.float64()) for c in self.columns
        ]
        return pa.Table.from_arrays(arrays, names=id_cols + self.columns)


def features_over_packed(
    packed: "ray.data.Dataset",
    features=None,
    scale: bool = True,
    concurrency=None,
    balance: bool = True,
) -> "ray.data.Dataset":
    """Run the feature kernels over a packed Dataset (one row per
    series): ONE lazy ``map_batches`` of a driver-built
    ``FeatureKernels`` in ``BATCH_ROWS``-row batches, with no
    materialize or count before it. For packed input that
    has no exchange of its own (``tsfeatures_wide``, user-packed
    tables); the flagship and ``tsfeatures()`` run the kernels inside
    their exchange's partition function instead.

    Skew handling (SURVEY.md §4): per-series kernel cost is O(n)-O(n^2)
    in series length. ``balance=True`` puts a ``random_shuffle`` of the
    packed rows first, so that input sorted by length or key does not
    turn into length-homogeneous tasks that concentrate the long-series
    cost into one straggler, and then a streaming re-cut of any block
    over ``BATCH_ROWS`` rows (the shuffle keeps the block count, and
    one block would run every batch in one task). Inside a batch the
    lane-batched kernels run every series as one ragged lane, so mixing
    lengths costs them nothing. A single giant series is unsplittable by
    nature: it costs its own batch's task that series' solo time,
    nothing more.

    Output values do not depend on the batch composition
    (``test_composition_independence``), so neither ``balance`` nor
    ``concurrency`` changes a feature value, only the row order.
    ``concurrency`` (the reference's ``threads`` parity knob) caps the
    number of concurrent kernel tasks; None leaves it to Ray Data.
    """
    # validates feature names eagerly and probes the columns once, here
    kernels = FeatureKernels(features, scale)
    if balance:
        packed = packed.random_shuffle(seed=7).repartition(
            target_num_rows_per_block=BATCH_ROWS
        )
    return packed.map_batches(
        kernels, batch_format="pyarrow", batch_size=BATCH_ROWS, num_cpus=1,
        concurrency=concurrency,
    )
