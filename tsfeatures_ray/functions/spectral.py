"""Distributed periodogram probes: DFT power of each key's series at a
fixed set of harmonics, with an exact SQL replay.

Complements the per-series spectral entropy kernel (kernels/simple.py
entropy, reference tsfeatures/tsfeatures.py entropy): that one needs
the FULL spectrum (FFT, no SQL analog), while this operator evaluates
the DFT at k <= a handful of candidate harmonics directly as
sum(z * cos) / sum(z * sin) dot products -- which a SQL oracle can
evaluate term for term (SUM(z * COS(2*pi*k*i/n))), making seasonality
screening hash-verifiable at corpus scale.

Determinism: series are z-normalized from exact integer sums (the
rollup metrics are integer-valued), so every |z| is O(1); cos/sin may
differ from the oracle's libm by an ulp and float sums are unordered,
but the accumulated error is O(n * 1e-16) against the shared 6dp
rounding -- orders of magnitude inside the contract. Power is scaled
by 2/n so the maximum (a pure harmonic) is O(n)-free.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..stages.derive import by_partition


def periodogram_probe(
    ds,
    key: str,
    order: str,
    value: str,
    ks: tuple = (1, 2, 3, 4, 5, 6, 7, 8),
    num_parts: int | None = None,
):
    """One row per (key, k): power_k = (2/n) * (c_k^2 + s_k^2) of the
    z-normalized series, where c_k/s_k are the cos/sin dot products at
    harmonic k over the key's ``order``-sorted positions i = 0..n-1.
    Keys need n >= 4 and nonzero variance; k >= n/2 rows are dropped
    (aliased harmonics)."""
    kks = [int(k) for k in ks]
    if not kks or any(k < 1 for k in kks):
        raise ValueError("ks must be >= 1")

    def probe(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, order], kind="mergesort")
        kk = g[key].to_numpy()
        yi = np.rint(g[value].to_numpy(dtype=np.float64)).astype(np.int64)
        grp = pd.Series(yi).groupby(kk, sort=False)
        n = grp.transform("size").to_numpy(dtype=np.float64)
        sy = grp.transform("sum").to_numpy(dtype=np.float64)
        syy = pd.Series(yi * yi).groupby(kk, sort=False).transform(
            "sum"
        ).to_numpy(dtype=np.float64)
        m = sy / n
        var = (syy - sy * sy / n) / (n - 1)
        i = pd.Series(np.ones(len(kk))).groupby(kk, sort=False).cumcount()
        i = i.to_numpy(dtype=np.float64)
        ok = (n >= 4) & (var > 0)
        with np.errstate(invalid="ignore", divide="ignore"):
            z = (yi - m) / np.sqrt(var)
        rows = []
        for k in kks:
            ang = 2.0 * np.pi * k * i / n
            zc = np.where(ok, z * np.cos(ang), 0.0)
            zs = np.where(ok, z * np.sin(ang), 0.0)
            d = pd.DataFrame(
                {key: kk, "zc": zc, "zs": zs, "ok": ok & (k < n / 2.0)}
            )
            a = (
                d[d["ok"]]
                .groupby(key, sort=True)
                .agg(c=("zc", "sum"), s=("zs", "sum"), cnt=("zc", "size"))
            )
            p = (
                2.0
                / a["cnt"].to_numpy(dtype=np.float64)
                * (a["c"].to_numpy() ** 2 + a["s"].to_numpy() ** 2)
                + 1e-7
            )
            rows.append(
                pd.DataFrame(
                    {
                        key: a.index.to_numpy(),
                        "k": np.int64(k),
                        "power": np.floor(p * 1e6 + 0.5) / 1e6,
                    }
                )
            )
        out = pd.concat(rows, ignore_index=True)
        return out.astype({"k": np.int64})

    return by_partition(
        ds.select_columns([key, order, value]), key, probe,
        num_parts=num_parts,
    )
