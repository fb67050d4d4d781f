"""Layout invariance of the operators whose hash co-partitions run on
``stages.derive.by_partition``: the partition count only moves rows
between partitions, so each operator's sorted output is the same at 1,
3 and 16 partitions. Operators without a ``num_parts`` argument follow
``by_partition``'s default, which the test pins per run."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

PARTS = (1, 3, 16)


def _corpus() -> pd.DataFrame:
    """Docs with exact copies, light mutations and a shared span."""
    rng = np.random.default_rng(5)
    words = np.array("alpha beta gamma delta eps zeta eta theta iota kappa lambda mu".split())
    base = [" ".join(rng.choice(words, 30)) for _ in range(24)]
    boiler = " this span is shared boilerplate across docs "
    texts = list(base)
    texts += base[:4]  # exact copies
    for t in base[4:10]:  # near copies: one word swapped
        w = t.split()
        w[int(rng.integers(len(w)))] = "omega"
        texts.append(" ".join(w))
    texts += [t[:40] + boiler + t[40:] for t in base[10:16]]
    return pd.DataFrame({"doc_id": np.arange(len(texts), dtype=np.int64), "text": texts})


def _intervals():
    rng = np.random.default_rng(6)
    base = np.datetime64("2024-01-01", "us")
    left = pd.DataFrame({
        "l_id": np.arange(200),
        "ts": base + rng.integers(0, 7_200_000_000, 200).astype("timedelta64[us]"),
        "uid": rng.integers(0, 7, 200),
    })
    lo = rng.integers(0, 6_000_000_000, 60)
    right = pd.DataFrame({
        "r_id": np.arange(60),
        "lo": base + lo.astype("timedelta64[us]"),
        "hi": base + (lo + rng.integers(1, 2_400_000_000, 60)).astype("timedelta64[us]"),
        "ruid": rng.integers(0, 8, 60),
    })
    return left, right


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def _run(name: str, num_parts: int) -> pd.DataFrame:
    import ray.data as rd

    from tsfeatures_ray import functions as fx

    docs = _corpus()
    ds = rd.from_pandas([docs.iloc[:15], docs.iloc[15:30], docs.iloc[30:]])
    if name == "exact_dedup":
        out = fx.exact_dedup(ds, num_parts=num_parts)
    elif name == "minhash_lsh_candidates":
        out = fx.minhash_lsh_candidates(ds)
    elif name == "simhash_near_dups":
        out = fx.simhash_near_dups(ds, max_hamming=6)
    elif name == "duplicated_span_stats":
        out = fx.duplicated_span_stats(ds, k=12, num_parts=num_parts)
    else:
        left, right = _intervals()
        out = fx.interval_join(
            rd.from_pandas([left.iloc[:90], left.iloc[90:]]), rd.from_pandas(right),
            on="ts", by="uid", right_lo="lo", right_hi="hi", right_by="ruid",
            band=pd.Timedelta(minutes=20), num_parts=num_parts,
        )
    return _sorted(out.to_pandas())


@pytest.mark.parametrize("name", ["exact_dedup", "minhash_lsh_candidates",
                                  "simhash_near_dups", "duplicated_span_stats",
                                  "interval_join"])
def test_sorted_output_is_the_same_at_any_partition_count(ray_session, monkeypatch, name):
    from tsfeatures_ray.stages import derive

    outs = []
    for num_parts in PARTS:
        monkeypatch.setattr(derive, "default_num_parts", lambda n=num_parts: n)
        outs.append(_run(name, num_parts))
    assert len(outs[0]) > 0
    for num_parts, out in zip(PARTS[1:], outs[1:]):
        pd.testing.assert_frame_equal(out, outs[0], obj=f"{name} at {num_parts} parts")
