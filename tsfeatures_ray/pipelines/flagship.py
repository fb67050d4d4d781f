"""End-to-end pipelines and the public tsfeatures-compatible API.

``tsfeatures`` / ``tsfeatures_wide`` mirror the reference's entry points
(reference tsfeatures.py:930-976, 1001-1039) with a Ray Data execution
model, Arrow tables throughout. ``tsfeatures``: long panel Dataset ->
ONE per-key exchange whose partition function packs the partition's
series (``stages.pack.pack_long``) and runs the kernels on them -> wide
feature Dataset. ``tsfeatures_wide``: wide panel -> one
``stages.pack.pack_wide`` map -> the kernels, no exchange. A pandas
frame given to either enters as one Arrow table. The flagship transcript
pipeline is a composition of the stage operators, derive -> ``rollup()``
-> pack + features, each a ``by_partition`` on conv_id, which
``by_partition``'s fusion runs as one exchange.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from ..sources.synth import transcripts_path
from ..stages.derive import by_partition, derive_turn_metrics, with_token_len
from ..stages.features import FeatureKernels, features_over_packed
from ..stages.pack import _pack_partition, pack_long, pack_wide
from ..stages.rollup import rollup


def _transcripts(sf_dir: str, slim: bool) -> "rd.Dataset":
    """The transcripts parquet read. ``slim`` prunes AT THE READ to what
    the slim turn projection needs: role/tool never leave storage
    (token_len needs text; at scale the payload columns are most of the
    bytes, so reading them for a rollup would dominate I/O)."""
    cols = ["conv_id", "turn_idx", "ts", "text"] if slim else None
    return rd.read_parquet(transcripts_path(sf_dir), columns=cols)


def derived_pipeline(
    sf_dir: str, num_parts: int | None = None, slim: bool = False
) -> "rd.Dataset":
    """transcripts parquet -> per-turn derived metrics Dataset."""
    return derive_turn_metrics(_transcripts(sf_dir, slim), num_parts=num_parts, slim=slim)


def slim_turns(sf_dir: str) -> "rd.Dataset":
    """Pruned read + token_len, NO exchange: (conv_id, turn_idx, ts,
    token_len), what the resumable run sinks partitioned by ``part``."""
    return with_token_len(_transcripts(sf_dir, slim=True), slim=True)


def rollup_pipeline(
    sf_dir: str,
    tiers: list[str] | None = None,
    gapfill: bool = False,
    num_parts: int | None = None,
) -> "rd.Dataset":
    """transcripts parquet -> rollup Dataset at the given tiers in ONE
    exchange: ``rollup()`` over the lazy slim derive, which fusion runs
    inside derive's exchange (latency, then the exact rollup, in each
    partition). The shuffle runs slim: payload columns never enter the
    exchange. Materialized, the output is partitioned on conv_id, so a
    later conv_id ``by_partition`` over it runs no sort."""
    return rollup(derived_pipeline(sf_dir, num_parts, slim=True), tiers, gapfill, num_parts)


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
    ONE exchange: a ``by_partition`` over the lazy ``rollup_pipeline``,
    which fusion runs in the same groups. Each partition derives
    latency, rolls up, packs (``_pack_partition``) and runs the
    driver-built ``FeatureKernels`` on the series it just packed, in
    ``BATCH_ROWS``-row slices: no second exchange, and no materialize,
    count or repartition between pack and kernels. The output depends
    only on groupby semantics, never on block layout. ``concurrency``
    caps the exchange's concurrent partition tasks."""
    kernels = FeatureKernels(features, scale)
    pack = _pack_partition(metric)

    def rollup_features(t: pa.Table) -> pa.Table:
        return kernels(pack(t))

    return by_partition(
        rollup_pipeline(sf_dir, tiers, num_parts=num_parts), "conv_id", rollup_features,
        num_parts=num_parts, concurrency=concurrency, batch_format="pyarrow",
    )


# ---------------------------------------------------------------------------
# tsfeatures-compatible public API over arbitrary long/wide panels
# ---------------------------------------------------------------------------

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

    One by_partition exchange on unique_id, Arrow in and Arrow out: its
    partition function packs the partition's series (``pack_long``) and
    runs the driver-built ``FeatureKernels`` on them in ``BATCH_ROWS``-row
    slices. ``concurrency`` caps the exchange's concurrent partition
    tasks (None: Ray Data's default); ``threads`` is the reference's
    parallelism knob (Pool size, tsfeatures.py:970), accepted for
    drop-in parity as an alias of it."""
    if concurrency is None and threads is not None:
        concurrency = threads
    # validates feature names eagerly and probes the columns once, here
    kernels = FeatureKernels(features, scale)
    if isinstance(panel, pd.DataFrame):
        panel = rd.from_arrow(pa.Table.from_pandas(panel, preserve_index=False))
    if freq is None:
        head = panel.take_batch(2000, batch_format="pyarrow")
        one = head.filter(pc.equal(head["unique_id"], head["unique_id"][0]))
        freq = infer_panel_freq(one.take(pc.sort_indices(one["ds"])).to_pandas(), dict_freqs)

    def panel_features(t: pa.Table) -> pa.Table:
        return kernels(pack_long(t, freq))

    return by_partition(
        panel, "unique_id", panel_features, num_parts=num_parts,
        concurrency=concurrency, batch_format="pyarrow",
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
    shuffle at all -- rows are already one-per-series: one ``pack_wide``
    map, then ``features_over_packed``. A pandas frame enters as an
    Arrow table. ``threads`` is the reference parity alias of
    ``concurrency``."""
    if concurrency is None and threads is not None:
        concurrency = threads
    if isinstance(panel, pd.DataFrame):
        panel = rd.from_arrow(pa.Table.from_pandas(panel, preserve_index=False))
    return features_over_packed(
        panel.map_batches(pack_wide, batch_format="pyarrow"),
        features=features, scale=scale, concurrency=concurrency,
    )
