"""End-to-end pipelines and the public tsfeatures-compatible API.

``tsfeatures`` / ``tsfeatures_wide`` mirror the reference's entry points
(reference tsfeatures.py:930-976, 1001-1039) with a Ray Data execution
model: long panel Dataset -> ONE per-key exchange whose partition
function packs list<double> series and runs the kernels on them -> wide
feature Dataset. The flagship transcript pipeline runs derive -> rollup
-> pack -> features inside its one exchange the same way.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data as rd

from ..sources.synth import transcripts_path
from ..stages.derive import _add_token_len, by_partition, derive_turn_metrics
from ..stages.features import BATCH_ROWS, FeatureKernels, features_over_packed
from ..stages.pack import PACKED_SCHEMA
from ..stages.rollup import turn_rollup_fn


def derived_pipeline(
    sf_dir: str, num_parts: int | None = None, slim: bool = False
) -> "rd.Dataset":
    """transcripts parquet -> per-turn derived metrics Dataset.

    The slim path prunes AT THE READ: role/tool never leave storage
    (token_len needs text; at scale the payload columns are most of the
    bytes, so reading them for a rollup would dominate I/O)."""
    cols = ["conv_id", "turn_idx", "ts", "text"] if slim else None
    ds = rd.read_parquet(transcripts_path(sf_dir), columns=cols)
    return derive_turn_metrics(ds, num_parts=num_parts, slim=slim)


def slim_turns(sf_dir: str) -> "rd.Dataset":
    """Pruned read + token_len, NO exchange yet: (conv_id, turn_idx, ts,
    token_len). The single exchange downstream both co-locates
    conversations and computes everything that needs co-location."""
    ds = rd.read_parquet(
        transcripts_path(sf_dir), columns=["conv_id", "turn_idx", "ts", "text"]
    )
    ds = ds.map_batches(_add_token_len, batch_format="pyarrow", batch_size=65536)
    return ds.select_columns(["conv_id", "turn_idx", "ts", "token_len"])


def rollup_pipeline(
    sf_dir: str,
    tiers: list[str] | None = None,
    gapfill: bool = False,
    num_parts: int | None = None,
) -> "rd.Dataset":
    """transcripts parquet -> rollup Dataset at the given tiers in ONE
    exchange: the by_partition that co-locates each conversation also
    computes latency and the exact rollup inside the same map_groups
    (turn_rollup_fn) -- the old derive-shuffle + partial-merge-shuffle
    pair collapsed into one. The shuffle runs slim: payload columns
    never enter the exchange."""
    return by_partition(
        slim_turns(sf_dir), "conv_id", turn_rollup_fn(tiers, gapfill),
        num_parts=num_parts, batch_format="pyarrow",
    )


def feature_pipeline(
    sf_dir: str,
    tiers: list[str] | None = None,
    metric: str = "token_len_sum",
    features=None,
    scale: bool = True,
    num_parts: int | None = None,
    concurrency=None,
) -> "rd.Dataset":
    """Flagship: transcripts -> rollups -> packed series -> features in
    ONE by_partition exchange. Its partition function derives latency,
    rolls up and packs (``turn_rollup_fn`` with ``pack_metrics``), then
    runs the driver-built ``FeatureKernels`` on the series it just
    packed, in ``BATCH_ROWS``-row slices: no second exchange, and no
    materialize, count or repartition between pack and kernels. The
    output depends only on groupby semantics, never on block layout.
    ``concurrency`` caps the exchange's concurrent partition tasks."""
    kernels = FeatureKernels(features, scale)
    rollup_pack = turn_rollup_fn(tiers, pack_metrics=metric)

    def turn_features(t: pa.Table) -> pa.Table:
        return kernels(rollup_pack(t))

    return by_partition(
        slim_turns(sf_dir), "conv_id", turn_features,
        num_parts=num_parts, concurrency=concurrency, batch_format="pyarrow",
    )


# ---------------------------------------------------------------------------
# tsfeatures-compatible public API over arbitrary long/wide panels
# ---------------------------------------------------------------------------

def _pack_long_partition(g: pd.DataFrame) -> pa.Table:
    """Pack a partition of a long panel (unique_id, ds, y) into wide rows.

    Per-group row order follows ``ds`` (stable sort), matching the
    reference's reliance on pandas-groupby order preservation
    (tsfeatures.py:971; SURVEY.md §2.7 ordering note)."""
    g = g.sort_values(["unique_id", "ds"], kind="mergesort")
    uid = g["unique_id"].astype(str).to_numpy()
    yv = g["y"].to_numpy(dtype="float64")
    first = np.flatnonzero(np.r_[True, uid[1:] != uid[:-1]])
    counts = np.diff(np.r_[first, len(uid)])
    freq = g["freq"].to_numpy()[first].astype("int32")
    offsets = np.r_[0, np.cumsum(counts)].astype("int32")
    y = pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()),
                                 pa.array(yv, type=pa.float64()))
    return pa.Table.from_arrays(
        [
            pa.array(uid[first], type=pa.string()),
            pa.array(["-"] * len(first), type=pa.string()),
            pa.array(["y"] * len(first), type=pa.string()),
            pa.array(freq, type=pa.int32()),
            pa.array(counts, type=pa.int64()),
            y,
        ],
        schema=PACKED_SCHEMA,
    )


def infer_panel_freq(sample: pd.DataFrame, dict_freqs=None) -> int:
    """Reference-parity frequency inference (tsfeatures.py:898-913):
    ``pd.infer_freq`` on the ``ds`` column mapped through FREQS, raising
    the reference's errors on failure. Runs on a per-series sample."""
    from ..kernels import FREQS

    dict_freqs = dict_freqs or FREQS
    inf_freq = pd.infer_freq(sample["ds"])
    if inf_freq is None:
        raise Exception(
            "Failed to infer frequency from the `ds` column, "
            "please provide the frequency using the `freq` argument."
        )
    # normalize pandas offset aliases to their base letter (e.g. MS -> M)
    freq = dict_freqs.get(inf_freq, dict_freqs.get(inf_freq[:1].upper()))
    if freq is None:
        raise Exception(
            "Error trying to convert infered frequency from the `ds` column "
            "to integer. Please provide a dictionary with that frequency "
            "as key and the integer frequency as value. "
            f"Infered frequency: {inf_freq}"
        )
    return int(freq)


def tsfeatures(
    panel: "rd.Dataset | pd.DataFrame",
    freq: int | None = None,
    features=None,
    scale: bool = True,
    num_parts: int | None = None,
    concurrency=None,
    dict_freqs=None,
    threads: int | None = None,
) -> "rd.Dataset":
    """Ray-native analog of reference ``tsfeatures(ts, freq)``
    (tsfeatures.py:930-976): long panel with columns
    (unique_id, ds, y) -> wide feature Dataset, one row per series.

    ``freq=None`` infers the seasonal period from the ``ds`` column the
    way the reference does (pd.infer_freq + FREQS / ``dict_freqs``,
    raising on failure) using one sampled series -- the engine otherwise
    pins seasonality per tier/config (SURVEY.md §1.3).

    One by_partition exchange on unique_id: its partition function packs
    the partition's series (``_pack_long_partition``) and runs the
    driver-built ``FeatureKernels`` on them in ``BATCH_ROWS``-row
    slices. ``concurrency`` caps the exchange's concurrent partition
    tasks (None: Ray Data's default); ``threads`` is the reference's
    parallelism knob (Pool size, tsfeatures.py:970), accepted for
    drop-in parity as an alias of it."""
    if concurrency is None and threads is not None:
        concurrency = threads
    # validates feature names eagerly and probes the columns once, here
    kernels = FeatureKernels(features, scale)
    if isinstance(panel, pd.DataFrame):
        panel = rd.from_pandas(panel)
    if freq is None:
        head = panel.limit(2000).to_pandas()
        one = head[head["unique_id"] == head["unique_id"].iloc[0]]
        freq = infer_panel_freq(one.sort_values("ds"), dict_freqs)

    def add_cols(df: pd.DataFrame) -> pd.DataFrame:
        # hash the series key as str, the type the packed rows carry
        return df.assign(unique_id=df["unique_id"].astype(str), freq=np.int32(freq))

    def panel_features(g: pd.DataFrame) -> pa.Table:
        return kernels(_pack_long_partition(g))

    return by_partition(
        panel.map_batches(add_cols, batch_format="pandas"), "unique_id",
        panel_features, num_parts=num_parts, concurrency=concurrency,
    )


def tsfeatures_wide(
    panel: "rd.Dataset | pd.DataFrame",
    features=None,
    scale: bool = True,
    concurrency=None,
    threads: int | None = None,
) -> "rd.Dataset":
    """Ray-native analog of reference ``tsfeatures_wide``
    (tsfeatures.py:1001-1039): wide panel (unique_id, seasonality,
    y=list<double>) -> feature Dataset. The wide layout needs NO
    shuffle at all -- rows are already one-per-series. ``threads`` is
    the reference parity alias of ``concurrency``."""
    if concurrency is None and threads is not None:
        concurrency = threads
    if isinstance(panel, pd.DataFrame):
        tbl = pa.table(
            {
                "unique_id": pa.array(panel["unique_id"].astype(str)),
                "tier": pa.array(["-"] * len(panel)),
                "metric": pa.array(["y"] * len(panel)),
                "freq": pa.array(panel["seasonality"].astype("int32")),
                "n_buckets": pa.array([len(v) for v in panel["y"]], type=pa.int64()),
                "y": pa.array([list(map(float, v)) for v in panel["y"]],
                              type=pa.list_(pa.float64())),
            }
        )
        # BATCH_ROWS-row blocks: one block would run as one kernel task
        panel = rd.from_arrow([tbl.slice(i, BATCH_ROWS)
                               for i in range(0, max(len(tbl), 1), BATCH_ROWS)])
    else:
        def adapt(t: pa.Table) -> pa.Table:
            cols = {
                "unique_id": t["unique_id"].cast(pa.string()),
                "tier": pa.array(["-"] * len(t)),
                "metric": pa.array(["y"] * len(t)),
                "freq": t["seasonality"].cast(pa.int32()),
                "n_buckets": pa.compute.list_value_length(t["y"]).cast(pa.int64()),
                "y": t["y"].cast(pa.list_(pa.float64())),
            }
            return pa.table(cols)

        panel = panel.map_batches(adapt, batch_format="pyarrow")
    return features_over_packed(
        panel, features=features, scale=scale, concurrency=concurrency
    )
