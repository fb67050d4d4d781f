"""Gates for the batch kernels (kernels/_batch.py, het.py, simple.py,
stl.py) and their compiled loops (kernels/_steps.c).

1. STEP EQUALITY -- each objective loop gives the same bits as the numpy
   step loop it replaced (tests/_step_oracles.py) on ragged lanes: K =
   1..125 candidates, NaN and inf values, penalty regions, m in {2, 4,
   12, 24}; GARCH with libm log on every lane.
2. PATH EQUALITY -- the lane fits equal the per-series Python-float fits
   (scalar Nelder-Mead) kept in tests/_step_oracles.py.
3. COMPOSITION INDEPENDENCE -- a series' result does not depend on
   which (or how many) other series share its batch. This is what keeps
   feature outputs deterministic across block layouts, runs and CPU
   counts.
4. STAGE PARITY -- FeatureKernels' batched __call__ equals per-series
   compute_features for every feature column, and the per-series forms
   the equal-length batch forms replaced (tests/_step_oracles.py) bit for
   bit; no default kernel runs per series.
5. BUILD -- the compiled loops' build flags, cache and failure modes.
6. STL -- the compiled decomposition equals a Python-float port of its
   loop bit-for-bit and the numpy STL it replaced to rounding;
   SuperSmoother's vectorized interpolation keeps the loop's bits.
7. PRIMITIVES -- lsq, acovf (with Levinson-Durbin) and the Hurst range
   equal Python-float ports (or the numpy code) bit for bit and the
   numpy primitives they replaced to rounding; the compiled Nelder-Mead
   equals the numpy driver bit for bit; every batch kernel equals the
   numpy kernel it replaced to rounding on non-degenerate series.
8. PORTABILITY -- the default kernels give the same bytes under every
   OpenBLAS core type, and no kernel calls BLAS.
"""

from __future__ import annotations

import ctypes
import math
import os
import subprocess
import sys
import time
import warnings

import _step_oracles as O
import numpy as np
import pytest

from tsfeatures_ray.kernels import _batch as B
from tsfeatures_ray.kernels._math import scalets

SRC = os.path.join(os.path.dirname(B.__file__), "_steps.c")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _series_pool(seed=0, n_series=60, lengths=(6, 9, 13, 17, 25, 33, 50, 70, 100, 140)):
    rng = np.random.RandomState(seed)
    pool = []
    for _ in range(n_series):
        n = int(rng.choice(lengths))
        kind = rng.randint(3)
        if kind == 0:
            x = np.cumsum(rng.randn(n))
        elif kind == 1:
            x = np.cumsum(rng.randn(n)) + 0.3 * np.arange(n)
        else:
            x = rng.randn(n) * np.exp(np.sin(np.arange(n) / 5.0))
        pool.append(scalets(x))
    return pool


def _eq(a, b):
    a, b = float(a), float(b)
    return (np.isnan(a) and np.isnan(b)) or a == b


def _same(got, want):
    """Same bits everywhere, NaN where the other is NaN."""
    got, want = np.asarray(got, float), np.asarray(want, float)
    nan = np.isnan(got)
    return (got.shape == want.shape and np.array_equal(nan, np.isnan(want))
            and np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64)))


# ---------------------------------------------------------------------------
# 1. step equality on ragged lanes
# ---------------------------------------------------------------------------

def _ragged_case(seed, n_series=23, lengths=(1, 2, 5, 13, 40, 97, 156)):
    """Ragged series with a NaN and an inf in two of them, and an
    ascending subset of lanes (the batched Nelder-Mead's idx)."""
    rng = np.random.RandomState(seed)
    ys = [np.cumsum(rng.randn(int(rng.choice(lengths)))) for _ in range(n_series)]
    ys[3][len(ys[3]) // 2] = np.nan
    ys[7][-1] = np.inf
    lanes = np.flatnonzero(rng.rand(n_series) < 0.8)
    return rng, ys, lanes


def _candidates(rng, shape, lo, hi):
    """Uniform candidates spanning the penalty region, with NaN / inf."""
    c = rng.uniform(lo, hi, shape)
    c.flat[:: 11] = np.nan
    c.flat[5:: 13] = np.inf
    return c


def _sorted_oracle(ys, lanes, fn, per_lane):
    """Run a *_prefix oracle on the selected series (sorted, padded,
    time-major) and return its rows in lane order."""
    order, yT, cnt = O.pad_sorted_time_major([ys[i] for i in lanes])
    rows = fn(*(v[order] for v in per_lane), yT, cnt)
    out = np.empty_like(rows)
    out[order] = rows
    return out


@pytest.mark.parametrize("K", [1, 3, 4, 49, 117, 125])
def test_holt_steps_equal_numpy_loop(K):
    rng, ys, lanes = _ragged_case(K)
    shape = (len(lanes), K)
    a, b = _candidates(rng, shape, -0.2, 1.2), _candidates(rng, shape, -0.2, 1.2)
    l, bb = rng.randn(*shape) * 3, rng.randn(*shape)
    off, y = B._ragged(ys)
    got = B._holt_sse(lanes, off, y, a, b, l, bb)
    want = _sorted_oracle(ys, lanes, O._holt_sse_prefix, (a, b, l, bb))
    assert _same(got, want)


@pytest.mark.parametrize("m", [2, 4, 12, 24])
@pytest.mark.parametrize("K", [1, 3, 63, 125])
def test_hw_steps_equal_numpy_loop(m, K):
    rng, ys, lanes = _ragged_case(100 * m + K)
    shape = (len(lanes), K)
    a, b, g = (_candidates(rng, shape, -0.2, 1.2) for _ in range(3))
    l0, b0 = rng.randn(len(ys)), rng.randn(len(ys))
    l0[5] = np.nan
    s0 = rng.randn(len(ys), m)
    off, y = B._ragged(ys)
    got = B._hw_sse(lanes, off, y, m, a, b, g, l0, b0, s0)

    def oracle(a, b, g, l0, b0, s0, yT, cnt):
        return O._hw_sse_prefix(a, b, g, l0, b0, s0, yT, cnt, m)

    want = _sorted_oracle(ys, lanes, oracle, (a, b, g, l0[lanes], b0[lanes], s0[lanes]))
    assert _same(got, want)


def _nll_libm(e2, omega, a, b, backcast):
    """Python-float GARCH NLL with math.log (libm)."""
    if not (omega > 0 and a >= 0 and b >= 0 and a + b < 0.9999):
        return O._PENALTY
    s_t = prev = backcast
    ll = 0.0
    for e2t in e2:
        s_t = (omega + a * prev) + b * s_t
        if s_t <= 0:
            return O._PENALTY
        ll += (math.log(2 * math.pi) + math.log(s_t)) + e2t / s_t
        prev = e2t
    half = 0.5 * ll
    return half if math.isfinite(half) else O._PENALTY


def _libm_log(a):
    """math.log elementwise (NaN for x < 0, -inf at 0)."""
    return np.array([math.log(v) if v > 0 else (-math.inf if v == 0 else math.nan)
                     for v in a.ravel().tolist()]).reshape(a.shape)


def _garch_nll(lanes, off, e2, omega, a, b, backcast):
    nll = np.empty(np.shape(omega))
    B._STEPS.garch_nll(*nll.shape, lanes, off, e2, *(B._f64(v) for v in (omega, a, b)),
                       backcast, nll)
    return nll


def _garch_case(seed, K):
    rng, xs, lanes = _ragged_case(seed, lengths=(1, 10, 40, 156, 511, 512, 700))
    shape = (len(lanes), K)
    e2s = [x**2 for x in xs]
    off, e2 = B._ragged(e2s)
    backcast = np.array([float(np.sum(v[:5])) if len(v) else 1.0 for v in e2s])
    backcast[np.isnan(backcast)] = 1.0
    omega = rng.uniform(-0.5, 1.0, shape)  # omega <= 0: penalty, and s_t <= 0
    a = rng.uniform(-0.1, 0.6, shape)
    b = rng.uniform(-0.1, 0.9, shape)
    omega.flat[::9] = np.nan
    b.flat[4::17] = np.inf
    return rng, xs, e2s, lanes, off, e2, backcast, omega, a, b


@pytest.mark.parametrize("K", [1, 3, 4, 125])
def test_garch_steps_equal_numpy_loop_and_libm_rule(K):
    """Every lane, short or long, takes libm log: the numpy step loop
    with math.log, and the Python-float loop, give the C loop's bits."""
    _, _, e2s, lanes, off, e2, backcast, omega, a, b = _garch_case(K, K)
    got = _garch_nll(lanes, off, e2, omega, a, b, backcast)
    n = np.array([len(e2s[i]) for i in lanes])
    assert (n < O.LIBM_LOG_N).any() and (n >= O.LIBM_LOG_N).any()
    want = _sorted_oracle(
        e2s, lanes,
        lambda om, a_, b_, bc, yT, cnt: O._garch_nll_prefix(om, a_, b_, yT, cnt, bc, _libm_log),
        (omega, a, b, backcast[lanes]),
    )
    assert _same(got, want)
    for r in range(0, len(lanes), 5):
        i = lanes[r]
        want_r = [_nll_libm(e2s[i].tolist(), float(omega[r, k]), float(a[r, k]),
                            float(b[r, k]), float(backcast[i])) for k in range(K)]
        assert _same(got[r], want_r), r


def test_garch_mean_update_equals_numpy_loop():
    rng, xs, e2s, lanes, off, e2, backcast, omega, a, b = _garch_case(5, 1)
    om, a, b = omega[:, 0].copy(), a[:, 0].copy(), b[:, 0].copy()
    _, x = B._ragged(xs)
    inv, wx, ok = np.empty(len(lanes)), np.empty(len(lanes)), np.empty(len(lanes), np.uint8)
    B._STEPS.garch_mu(len(lanes), lanes, off, x, e2, om, a, b, backcast, inv, wx, ok)
    order, _, cnt = O.pad_sorted_time_major([xs[i] for i in lanes])
    S, T = len(lanes), len(cnt)
    x_pad, e2_pad = np.zeros((S, T)), np.zeros((S, T))
    for row, j in enumerate(order):
        x_pad[row, : len(xs[lanes[j]])] = xs[lanes[j]]
        e2_pad[row, : len(xs[lanes[j]])] = e2s[lanes[j]]
    w_inv, w_wx, w_ok = O.garch_mu_terms_prefix(
        x_pad, e2_pad, cnt, om[order], a[order], b[order], backcast[lanes][order])
    assert _same(inv[order], w_inv) and _same(wx[order], w_wx)
    assert np.array_equal(ok[order].astype(bool), w_ok)
    assert 0 < ok.sum() < len(ok)  # both outcomes covered


# ---------------------------------------------------------------------------
# 2. lane fits == per-series Python-float fits
# ---------------------------------------------------------------------------

def test_holt_single_equals_lane():
    pool = _series_pool(1) + _series_pool(11, 2, lengths=(600,))
    lane = B.holt_parameters_batch(*B._ragged(pool), np.ones(len(pool), np.int64))
    for i, y in enumerate(pool):
        a, b = O.holt_fit_single(y)
        assert _eq(a, lane["alpha"][i]) and _eq(b, lane["beta"][i]), i


def test_hw_single_equals_lane():
    pool = _series_pool(2) + _series_pool(12, 1, lengths=(600,))
    for m in (2, 4, 12, 24):
        ys = [y for y in pool if len(y) >= 2 * m]
        lane = B.hw_parameters_batch(*B._ragged(ys), np.full(len(ys), m))
        for i, y in enumerate(ys):
            r = O.hw_fit_single(y, m)
            got = (lane["hw_alpha"][i], lane["hw_beta"][i], lane["hw_gamma"][i])
            for v1, v2 in zip(r, got):
                assert _eq(v1, v2), (m, i)


def test_garch_single_equals_lane():
    pool = [y for y in _series_pool(3) if len(y) >= 10]
    pool += _series_pool(13, 1, lengths=(600,))
    mu0 = np.array([float(np.mean(y)) for y in pool])
    var0 = np.array([float(np.var(y)) for y in pool])
    lane = B._garch_mu(*B._ragged(pool), mu0, var0)
    for i, y in enumerate(pool):
        mu = O.garch_mu_single(y, float(np.mean(y)), float(np.var(y)))
        assert _eq(mu, lane[i]), i


# ---------------------------------------------------------------------------
# 3. composition independence
# ---------------------------------------------------------------------------

def test_composition_independence():
    """The same series gives identical bits alone, at any position of a
    1024-row batch of mixed lengths and mixed seasonal periods, and
    through the scalar compute_features -- for every default kernel."""
    from tsfeatures_ray.kernels import DEFAULT_FEATURES, compute_features

    rng = np.random.RandomState(4)
    # (23, 12) and (24, 12): one short of STL and exactly two periods;
    # (2100, 1): the Hurst envelope; 0-2 points: the 1h / 1d tiers
    probes = [(100, 12), (30, 4), (600, 24), (13, 2), (23, 12), (24, 12), (2100, 1), (3, 1),
              (0, 1), (1, 12), (2, 4)]
    lengths = [0, 1, 2, 5, 9, 13, 25, 50, 100, 156, 300, 600]
    filler = [scalets(np.cumsum(rng.randn(int(rng.choice(lengths)))))
              for _ in range(1024 - len(probes))]
    ffreq = [int(rng.choice([1, 2, 4, 12, 24])) for _ in filler]
    raw = [np.cumsum(rng.randn(n)) + 5 * np.sin(np.arange(n) * 2 * np.pi / m)
           for n, m in probes]
    ys = [scalets(x) for x in raw]
    ms = [m for _, m in probes]
    assert len(DEFAULT_FEATURES) == 17

    def fit(batch, freqs):
        off, v = B._ragged(batch)
        out = {}
        for f in DEFAULT_FEATURES:
            out.update(f.batch(off, v, np.array(freqs)))
        return out

    solo = [fit([y], [m]) for y, m in zip(ys, ms)]
    for j, (x, m) in enumerate(zip(raw, ms)):
        scalar = compute_features(x, m)
        for k, v in solo[j].items():
            if k in scalar:
                assert _eq(scalar[k], v[0]), (j, k)
    for shift in range(3):
        # every probe somewhere else in the batch each time: ends and middle
        pos = [(p * 127 + shift * 511) % 1024 for p in range(len(probes))]
        batch, freqs = list(filler), list(ffreq)
        for p, j in sorted(zip(pos, range(len(probes)))):
            batch.insert(p, ys[j])
            freqs.insert(p, ms[j])
        assert len(batch) == 1024
        got = fit(batch, freqs)
        for p, j in zip(pos, range(len(probes))):
            for k, v in solo[j].items():
                assert _eq(got[k][p], v[0]), (shift, j, k)


# ---------------------------------------------------------------------------
# 4. stage parity
# ---------------------------------------------------------------------------

def test_feature_stage_matches_per_series():
    import pyarrow as pa

    from tsfeatures_ray.kernels import compute_features
    from tsfeatures_ray.stages.features import FeatureKernels

    rng = np.random.RandomState(7)
    raw = []
    for _ in range(40):
        n = int(rng.choice([3, 8, 30, 60, 120]))
        raw.append(np.cumsum(rng.randn(n)) + 50)
    freqs = [int(rng.choice([1, 12, 24])) for _ in raw]
    t = pa.table(
        {
            "unique_id": pa.array([str(i) for i in range(len(raw))]),
            "freq": pa.array(freqs, type=pa.int64()),
            "y": pa.array([list(map(float, x)) for x in raw],
                          type=pa.list_(pa.float64())),
        }
    )
    fk = FeatureKernels()
    out = fk(t).to_pandas()
    for i, (x, f) in enumerate(zip(raw, freqs)):
        want = compute_features(np.asarray(x, float), f, None, scale=True)
        for k, v in want.items():
            if k in out.columns:
                assert _eq(v, out.iloc[i][k]), (i, k)


def test_default_columns_equal_probe():
    """FeatureKernels() takes the canonical default columns without
    probing; probing the same kernels gives the same columns."""
    from tsfeatures_ray.kernels import DEFAULT_FEATURES
    from tsfeatures_ray.stages.features import DEFAULT_FEATURE_COLS, FeatureKernels

    probed = FeatureKernels(features=[f.__name__ for f in DEFAULT_FEATURES])
    assert FeatureKernels().columns == probed.columns == DEFAULT_FEATURE_COLS


def test_short_series_batch_is_quiet():
    """0-, 1-, 2- and 5-point series (the 1d tier's median length is 1;
    a single demand run) run through every kernel of ALL_FEATURES --
    FeatureKernels, scaled and unscaled, and compute_features, at freq 1
    and 12 -- without a RuntimeWarning, and scalets gives the same bits
    x.std(ddof=1) would."""
    import pyarrow as pa

    from tsfeatures_ray.kernels import ALL_FEATURES, compute_features
    from tsfeatures_ray.stages.features import FeatureKernels

    ys = [[], [1.0], [-2.5], [2.0, 3.0], [4.0, 4.0], [0.0, 3.0, 4.0, 0.0, 0.0],
          [1.0, 0.0, 2.0, 0.0, 5.0], [7.0, 7.0, 7.0, 7.0, 7.0]]
    rows = [(y, f) for f in (1, 12) for y in ys]
    t = pa.table({
        "unique_id": [str(i) for i in range(len(rows))],
        "freq": pa.array([f for _, f in rows], pa.int64()),
        "y": pa.array([y for y, _ in rows], pa.list_(pa.float64())),
    })
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (True, False):
            out = FeatureKernels(features=list(ALL_FEATURES), scale=scale)(t)
            assert out.num_rows == len(rows)
        for y, f in rows:
            compute_features(np.asarray(y, float), f, list(ALL_FEATURES.values()))
    for y in ys:
        x = np.asarray(y, float)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = (x - x.mean()) / x.std(ddof=1)
        assert np.array_equal(scalets(x).view(np.uint64), want.view(np.uint64)), y


def test_guerrero_is_quiet():
    """guerrero on sparse series (one-point and all-NaN splits at every
    golden-section step) raises no RuntimeWarning."""
    from tsfeatures_ray.kernels import guerrero

    rng = np.random.RandomState(9)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for n, f in [(0, 1), (1, 1), (2, 1), (5, 1), (40, 1), (60, 24), (200, 60), (120, 12)]:
            x = np.where(rng.rand(n) < 0.7, 0.0, rng.poisson(3, n)).astype(float)
            if n > 10:
                x[n // 3] = np.nan
            guerrero(x, f)
    assert len(caught) == 0, {str(w.message) for w in caught}


def _oracle_pool(size=2000, seed=2026):
    """A fixed ragged pool: lengths 0-700, a third of them 0-3 points;
    freq 1/4/12/24/60; constant, all-zero, NaN, +-inf, count-like,
    seasonal and wide-magnitude lanes."""
    rng = np.random.RandomState(seed)
    ys, fs = [], []
    for _ in range(size):
        r = rng.rand()
        n = int(rng.randint(0, 4) if r < 0.35 else rng.randint(4, 60) if r < 0.7 else rng.randint(60, 701))
        kind = rng.randint(8)
        if kind == 0:
            x = np.full(n, float(rng.randn() * 5))
        elif kind == 1:
            x = np.zeros(n)
        elif kind in (2, 3):
            x = np.cumsum(rng.randn(n))
            if n:
                x[rng.randint(n)] = np.nan if kind == 2 else rng.choice([np.inf, -np.inf])
        elif kind == 4:
            x = rng.poisson(0.7, n).astype(float)
        elif kind == 5:
            x = 100 + np.cumsum(rng.randn(n)) + 5 * np.sin(2 * np.pi * np.arange(n) / 12)
        elif kind == 6:
            x = rng.randn(n) * 10 ** rng.uniform(-6, 6) + rng.uniform(-1e3, 1e3)
        else:
            x = np.round(rng.randn(n) * 3)
        ys.append(x)
        fs.append(int(rng.choice([1, 4, 12, 24, 60])))
    return ys, fs


def test_equal_length_batch_forms_equal_row_oracles():
    """scale_lanes and the batch forms of crossing_points, entropy,
    flat_spots, series_length and unitroot_kpss give the bits of the
    per-series forms they replaced, raw and scaled, on the oracle pool."""
    from tsfeatures_ray.kernels import ALL_FEATURES, scale_lanes

    ys, fs = _oracle_pool()
    off, raw = B._ragged(ys)
    scaled = scale_lanes(off, raw)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for i, y in enumerate(ys):
            assert _same(scaled[off[i]:off[i + 1]], O.scalets(y)), i
    for v in (raw, scaled):
        for name, oracle in O.ROW_ORACLES.items():
            got = ALL_FEATURES[name].batch(off, v, np.array(fs))[name]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                want = [oracle(v[off[i]:off[i + 1]], fs[i])[name] for i in range(len(ys))]
            assert _same(got, want), name


@pytest.mark.parametrize("scale", [True, False])
def test_feature_kernels_equal_row_oracles(scale):
    """FeatureKernels() over the oracle pool in 1024-row batches equals,
    column by column and bit for bit, the per-series path it replaced:
    the moved scalets, then each default kernel's dict (the moved
    per-series form where there is one, else its 1-lane call) merged
    first-wins."""
    from collections import ChainMap

    import pyarrow as pa

    from tsfeatures_ray.kernels import DEFAULT_FEATURES
    from tsfeatures_ray.stages.features import FeatureKernels

    ys, fs = _oracle_pool()
    t = pa.table({"unique_id": [str(i) for i in range(len(ys))], "freq": pa.array(fs, pa.int64()),
                  "y": pa.array([y.tolist() for y in ys], pa.list_(pa.float64()))})
    fk = FeatureKernels(scale=scale)
    out = pa.concat_tables([fk(t.slice(o, 1024)) for o in range(0, t.num_rows, 1024)])
    want = {c: np.full(len(ys), np.nan) for c in fk.columns}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for i, (y, f) in enumerate(zip(ys, fs)):
            x = O.scalets(y) if scale else y
            row = ChainMap(*[O.ROW_ORACLES.get(k.__name__, k)(x, f) for k in DEFAULT_FEATURES])
            for c, v in row.items():
                want[c][i] = v
    for c in fk.columns:
        assert _same(out[c].to_numpy(), want[c]), c


def test_long_equal_length_groups_stay_small():
    """64 equal-length lanes of 20,000 points run in groups of at most
    _GROUP_POINTS values: each rowwise batch form peaks (tracemalloc)
    below half the input's size and the batch scaling below 1.5 times it
    (its output is the input's size), with the per-series bits."""
    import tracemalloc

    from tsfeatures_ray.kernels import ALL_FEATURES, scale_lanes

    R, n = 64, 20_000
    v = np.round(np.random.RandomState(0).randn(R * n) * 3, 1)
    off = np.arange(R + 1, dtype=np.int64) * n
    fs = np.ones(R, np.int64)

    def peak(fn):
        tracemalloc.start()
        try:
            return fn(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    scaled, p = peak(lambda: scale_lanes(off, v))
    assert p < 1.5 * v.nbytes, p
    assert all(_same(scaled[off[i]:off[i + 1]], O.scalets(v[off[i]:off[i + 1]])) for i in range(R))
    for name, oracle in O.ROW_ORACLES.items():
        got, p = peak(lambda: ALL_FEATURES[name].batch(off, v, fs)[name])
        assert p < 0.5 * v.nbytes, (name, p)
        assert _same(got, [oracle(v[off[i]:off[i + 1]], 1)[name] for i in range(R)]), name


def test_arch_stat_keeps_reference_keywords():
    """arch_stat(x, freq=1, lags=12, demean=True), as in the reference:
    lags and demean reach the least-squares fit, by keyword or position."""
    import inspect

    from tsfeatures_ray.kernels import arch_stat
    from tsfeatures_ray.kernels.simple import arch_stat_lanes

    assert list(inspect.signature(arch_stat).parameters) == ["x", "freq", "lags", "demean"]
    x = np.sin(np.arange(60.0)) ** 2 + np.random.RandomState(1).rand(60)
    off = np.array([0, 60])
    for lags, demean in ((12, True), (6, False), (3, True)):
        want = float(arch_stat_lanes(off, x, lags, demean)[0])
        assert arch_stat(x, 1, lags=lags, demean=demean) == {"arch_lm": want}
        assert arch_stat(x, 1, lags, demean) == {"arch_lm": want}
    assert arch_stat(x)["arch_lm"] != arch_stat(x, lags=6)["arch_lm"]


def test_default_kernels_never_run_per_row(monkeypatch):
    """With the per-row adapter refusing every kernel, FeatureKernels()
    still runs: each default kernel is one batch-form call per batch."""
    import pyarrow as pa

    from tsfeatures_ray.stages import features

    def refuse(f):
        raise AssertionError(f"{f.__name__} would run per series")

    monkeypatch.setattr(features, "per_row", refuse)
    t = pa.table({"unique_id": ["a", "b", "c"], "freq": pa.array([1, 12, 4], pa.int64()),
                  "y": pa.array([[1.0], [], np.sin(np.arange(40.0)).tolist()],
                                pa.list_(pa.float64()))})
    assert features.FeatureKernels()(t).num_rows == 3
    with pytest.raises(AssertionError, match="statistics"):
        features.FeatureKernels(features=["statistics"])


def test_giant_series_routed_and_correct(ray_session):
    """A 100x-length outlier (2000 points among 20-point series) runs in
    an ordinary batch of features_over_packed's single dispatch path and
    its feature row matches the per-series kernels (VERDICT r3 ask #4).
    No series here was ever routed to a pool of its own: the removed
    auto giant cut had a floor of 50 000 points."""
    import ray.data as rd

    from tsfeatures_ray.kernels import compute_features
    from tsfeatures_ray.stages.features import features_over_packed

    rng = np.random.RandomState(11)
    lens = [20] * 200 + [2000]  # giant = 100x typical
    rows = []
    for i, n in enumerate(lens):
        rows.append(
            {
                "unique_id": f"s{i}",
                "freq": 24,
                "n_buckets": n,
                "y": list(np.cumsum(rng.randn(n)) + 10.0),
            }
        )
    ds = rd.from_pandas(__import__("pandas").DataFrame(rows))
    out = features_over_packed(ds, concurrency=4).to_pandas()
    assert len(out) == len(lens)
    giant = out[out.unique_id == f"s{len(lens)-1}"].iloc[0]
    want = compute_features(
        np.asarray(rows[-1]["y"], float), 24, None, scale=True
    )
    for k, v in want.items():
        if k in out.columns:
            assert _eq(v, giant[k]), k


# ---------------------------------------------------------------------------
# 5. building the step loops
# ---------------------------------------------------------------------------

def _src_copy(tmp_path, tag=""):
    src = tmp_path / "_steps.c"
    with open(SRC) as f:
        src.write_text(f.read() + tag)
    return str(src)


def test_build_flags_cache_and_rebuild_on_edit(tmp_path, monkeypatch):
    src, cache = _src_copy(tmp_path), str(tmp_path / "cache")
    cmds = []
    real_run = subprocess.run

    def spy(cmd, **kw):
        cmds.append(cmd)
        return real_run(cmd, **kw)

    monkeypatch.setattr(B.subprocess, "run", spy)
    lib = B._build(src, cache)
    assert len(cmds) == 1
    assert "-ffp-contract=off" in cmds[0]
    assert not any(c == "-ffast-math" or c.startswith("-march") for c in cmds[0])
    assert B._build(src, cache) == lib and len(cmds) == 1  # cached
    with open(src, "a") as f:
        f.write("\n/* edited */\n")
    lib2 = B._build(src, cache)
    assert lib2 != lib and len(cmds) == 2
    ctypes.CDLL(lib2).holt_sse  # noqa: B018 -- loads and exports the loops
    assert sorted(os.listdir(cache)) == sorted(os.path.basename(p) for p in (lib, lib2))


_RACER = """
import ctypes, sys, time
import numpy as np
from tsfeatures_ray.kernels import _batch as B
while time.time() < float(sys.argv[3]):
    time.sleep(0.001)
steps = B._bind(ctypes.CDLL(B._build(sys.argv[1], sys.argv[2])))
y = np.array([1.0, 2.0, 4.0])
off, lanes, sse = np.array([0, 3]), np.array([0]), np.empty((1, 1))
steps.holt_sse(1, 1, lanes, off, y, *(np.full((1, 1), v) for v in (0.5, 0.2, 1.0, 0.5)), sse)
print(repr(float(sse[0, 0])))
"""


def test_concurrent_builds_both_load(tmp_path):
    src, cache = _src_copy(tmp_path, f"\n/* {time.time()} */\n"), str(tmp_path / "cache")
    start = str(time.time() + 3.0)
    env = dict(os.environ, PYTHONPATH=ROOT + os.pathsep + os.environ.get("PYTHONPATH", ""))
    procs = [subprocess.Popen([sys.executable, "-c", _RACER, src, cache, start],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              cwd=ROOT, env=env) for _ in range(2)]
    outs = [p.communicate(timeout=120) for p in procs]
    assert [p.returncode for p in procs] == [0, 0], [e for _, e in outs]
    want = B._holt_sse(np.array([0]), np.array([0, 3]), np.array([1.0, 2.0, 4.0]),
                       *(np.full((1, 1), v) for v in (0.5, 0.2, 1.0, 0.5)))
    assert [float(o) for o, _ in outs] == [float(want[0, 0])] * 2
    assert len(os.listdir(cache)) == 1  # one library, no temporary left over


def test_missing_compiler_raises_import_error(tmp_path, monkeypatch):
    monkeypatch.setattr(B.shutil, "which", lambda *a, **k: None)
    assert B._compiler() is None
    with pytest.raises(ImportError, match="needs a C compiler"):
        B._build(_src_copy(tmp_path), str(tmp_path / "cache"))


# ---------------------------------------------------------------------------
# 6. STL
# ---------------------------------------------------------------------------

def _stl_cases():
    """(x, m): USAccDeaths; the perfbench panel shape (m = 12, n 150-260);
    m in {2, 4, 24, 60} at n = 2m and 2m + 1 (every cycle-subseries
    shorter than the seasonal span) and longer (body on the symmetric
    grid); a NaN and a constant lane."""
    from tsfeatures_ray.kernels.golden import USAccDeaths

    rng = np.random.RandomState(12)
    cases = [(np.array(USAccDeaths, float), 12)]
    for n in (150, 173, 199, 226, 260):
        t = np.arange(n)
        cases.append((100 + np.cumsum(rng.randn(n)) + 8 * np.sin(2 * np.pi * t / 12), 12))
    for m in (2, 4, 24, 60):
        for n in (2 * m, 2 * m + 1, 15 * m + 1):
            cases.append((np.cumsum(rng.randn(n)) + 3 * np.cos(2 * np.pi * np.arange(n) / m), m))
    nan = np.cumsum(rng.randn(40))
    nan[17] = np.nan
    cases += [(nan, 4), (np.full(30, 2.5), 12)]
    return cases


def _stl_spans(m, ns=13):
    from tsfeatures_ray.kernels.stl import _next_odd_gt

    return _next_odd_gt(1.5 * m / (1.0 - 1.5 / ns)), _next_odd_gt(float(m))


def test_stl_fit_equals_python_port():
    """One stl_fit call over every case (one lane each) gives the bits of
    the Python-float port of its loop, lane by lane."""
    from tsfeatures_ray.kernels.stl import stl_fit

    cases = _stl_cases()
    off, y = B._ragged([x for x, _ in cases])
    trend, season = stl_fit(off, y, [m for _, m in cases])
    for i, (x, m) in enumerate(cases):
        tr, se = trend[off[i]:off[i + 1]], season[off[i]:off[i + 1]]
        want_tr, want_se = O.stl_fit_port(x, m, 13, *_stl_spans(m))
        assert _same(tr, want_tr) and _same(se, want_se), (len(x), m)


def test_stl_matches_numpy_oracle():
    """The compiled STL equals the numpy STL it replaced to rounding:
    rtol 1e-12, plus an absolute floor of 1e-12 x max|x| for components
    that cross zero (the sums run in a different order)."""
    from tsfeatures_ray.kernels.stl import stl_decompose

    for x, m in _stl_cases():
        got = stl_decompose(x, m)
        want = O.stl_decompose_numpy(x, m)
        atol = 1e-12 * np.nanmax(np.abs(x))
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=atol, err_msg=f"n={len(x)} m={m}")


def test_stl_features_match_numpy_oracle():
    """stl_features over the compiled STL equals the per-series tail over
    the numpy STL: rtol 1e-9 (absolute floor 1e-12), peak/trough exact.
    At n = 2m STL reproduces the series, so both remainders are rounding
    noise: there the remainder's own statistics (spike, e_acf1, e_acf10)
    are noise on both sides and only the remainder's size is compared.
    The NaN and constant lanes are left out: the numpy tail's OLS
    rejects a non-finite trend."""
    from tsfeatures_ray.kernels.stl import stl_decompose, stl_features_batch

    cases = [(scalets(x), m) for x, m in _stl_cases() if np.isfinite(x).all() and np.ptp(x) > 0]
    got = stl_features_batch(*B._ragged([x for x, _ in cases]), [m for _, m in cases])
    for i, (x, m) in enumerate(cases):
        trend, season, resid = O.stl_decompose_numpy(x, m)
        want = O.stl_row_numpy(x, m, (trend, season))
        noise = 1e-12 * np.abs(x).max()
        if np.abs(resid).max() < noise:
            assert np.abs(stl_decompose(x, m)[2]).max() < noise, i
            want = {k: v for k, v in want.items() if k not in ("spike", "e_acf1", "e_acf10")}
        for k, v in want.items():
            if k in ("peak", "trough"):
                assert _eq(got[k][i], v), (i, k)
            else:
                np.testing.assert_allclose(got[k][i], v, rtol=1e-9, atol=1e-12,
                                           err_msg=f"case {i} {k}")


@pytest.mark.parametrize("seasonal", [12, 2, 1, 0, -13, 14])
def test_stl_decompose_rejects_even_or_small_seasonal(seasonal):
    from tsfeatures_ray.kernels.stl import stl_decompose

    x = np.cumsum(np.random.RandomState(0).randn(48))
    with pytest.raises(ValueError, match="seasonal"):
        stl_decompose(x, 12, seasonal=seasonal)


@pytest.mark.parametrize("n", [6, 7, 50, 500])
def test_supersmoother_interpolation_keeps_the_loop_bits(n):
    from tsfeatures_ray.kernels.stl import supersmoother_fit

    rng = np.random.RandomState(n)
    for y in (np.cumsum(rng.randn(n)), rng.randn(n) + np.sin(np.arange(n) / 4.0)):
        assert _same(supersmoother_fit(y), O.supersmoother_fit_loop(y))




# ---------------------------------------------------------------------------
# 7. primitives
# ---------------------------------------------------------------------------

def _designs(seed):
    """Ragged least-squares lanes: tall, square, wide, empty, a zero
    column, a column repeating an earlier one, a constant regressor next
    to the intercept, ill-conditioned powers."""
    rng = np.random.RandomState(seed)
    lanes = []
    for m, q in [(30, 3), (8, 8), (5, 9), (0, 2), (1, 2), (40, 13), (12, 1)]:
        lanes.append(rng.randn(m, q) * rng.uniform(0.1, 10.0, q))
    X = rng.randn(25, 4)
    X[:, 2] = 0.0
    lanes.append(X)
    X = rng.randn(20, 4)
    X[:, 3] = 2.0 * X[:, 1]
    lanes.append(X)
    lanes.append(np.column_stack([np.ones(9), np.full(9, 3.0)]))
    z = rng.randn(60)
    lanes.append(np.column_stack([np.ones(60), z, z**2, z**3]))
    ys = [rng.randn(len(X)) for X in lanes]
    roff = B._offsets([len(y) for y in ys])
    p = np.array([X.shape[1] for X in lanes])
    Xf = np.concatenate([X.ravel() for X in lanes])
    return lanes, ys, roff, p, Xf, np.concatenate(ys)


def test_lsq_equals_python_port():
    lanes, ys, roff, p, X, y = _designs(0)
    coef, rss, resid = B.lsq(roff, p, X, y)
    w_coef, w_rss, w_resid = O.lsq_port(roff, p, X.tolist(), y.tolist())
    assert _same(coef, w_coef) and _same(rss, w_rss) and _same(resid, w_resid)


def test_lsq_is_minimum_norm_least_squares():
    """Coefficients and residuals of np.linalg.lstsq (the minimum-norm
    solution) to rounding, rank-deficient and wide lanes included; rss
    holds every prefix model's residual sum of squares, and an exact fit
    leaves residuals of exactly 0."""
    lanes, ys, roff, p, X, y = _designs(1)
    coef, rss, resid = B.lsq(roff, p, X, y)
    coff = B._offsets(p)
    for i, (Xi, yi) in enumerate(zip(lanes, ys)):
        c = coef[coff[i]:coff[i + 1]]
        e = resid[roff[i]:roff[i + 1]]
        if len(yi) == 0:
            assert not c.any() and not rss[coff[i]:coff[i + 1]].any()
            continue
        want = np.linalg.lstsq(Xi, yi, rcond=None)[0]
        np.testing.assert_allclose(c, want, rtol=1e-9, atol=1e-12, err_msg=str(i))
        np.testing.assert_allclose(e, yi - Xi @ want, rtol=1e-9, atol=1e-12, err_msg=str(i))
        for k in range(Xi.shape[1]):
            sub = np.linalg.lstsq(Xi[:, :k + 1], yi, rcond=None)[0]
            r = yi - Xi[:, :k + 1] @ sub
            np.testing.assert_allclose(rss[coff[i] + k], r @ r, rtol=1e-9, atol=1e-20)
        if np.linalg.matrix_rank(Xi) == len(yi):
            assert not e.any(), i


def test_acovf_equals_python_port_and_numpy():
    """acovf / pacf per lane: the bits of the Python-float port; the
    numpy acovf_biased / pacf_ldb they replaced to rounding."""
    rng = np.random.RandomState(3)
    xs = [np.cumsum(rng.randn(n)) for n in (0, 1, 2, 5, 12, 40, 200)]
    xs.append(np.full(9, 1.5))
    off, v = B._ragged(xs)
    nlag = np.array([3, 2, 4, 4, 5, 12, 24, 4])
    for demean in (True, False):
        ac, pc = B.acovf(off, v, nlag, demean=demean, pacf=True)
        for i, x in enumerate(xs):
            w_ac, w_pc = O.acovf_port(x, int(nlag[i]), demean)
            assert _same(ac[i, :nlag[i] + 1], w_ac) and _same(pc[i, :nlag[i] + 1], w_pc), i
            assert np.isnan(ac[i, nlag[i] + 1:]).all()
    ac, pc = B.acovf(off, v, nlag, pacf=True)
    for i, x in enumerate(xs[:-1]):
        k = min(int(nlag[i]), len(x) - 1)
        if k < 0:
            continue
        np.testing.assert_allclose(ac[i, :k + 1], O.acovf_biased(x, k), rtol=1e-12)
        if nlag[i] < len(x):
            np.testing.assert_allclose(pc[i, :nlag[i] + 1], O.pacf_ldb(x, int(nlag[i])),
                                       rtol=1e-9, atol=1e-12)


def _nm_cases():
    """(kind, lanes, off, v, x0, step, max_iter, m, l0, b0, s0, numpy obj)
    for Holt, Holt-Winters (m = 4) and GARCH, from the starts the fits use
    and from scattered ones (some outside the region)."""
    pool = _series_pool(21) + _series_pool(22, 3, lengths=(600,))
    rng = np.random.RandomState(5)
    off, y = B._ragged(pool)
    S = len(pool)
    lanes = np.arange(S)
    l0, b0 = B.level_trend(off, y)
    a = rng.uniform(0.0, 1.0, S)
    holt_x0 = np.column_stack([a, a * rng.uniform(0.0, 1.2, S), l0, b0])

    def holt_obj(P, idx):
        a, b = P[..., 0], P[..., 1]
        valid = (a > 1e-6) & (a < 1 - 1e-6) & (b > 1e-6) & (b <= a)
        return np.where(valid, B._holt_sse(idx, off, y, a, b, P[..., 2], P[..., 3]), O._PENALTY)

    hw_pool = [x for x in pool if len(x) >= 8]
    hoff, hy = B._ragged(hw_pool)
    hl0, hb0, hs0 = B.seasonal_heuristic(hoff, hy, 4)
    H = len(hw_pool)
    a = rng.uniform(0.0, 1.0, H)
    hw_x0 = np.column_stack([a, a * rng.uniform(0.0, 1.2, H), (1 - a) * rng.uniform(0, 1.2, H)])

    def hw_obj(P, idx):
        a, b, g = P[..., 0], P[..., 1], P[..., 2]
        valid = ((a > 1e-6) & (a < 1 - 1e-6) & (b > 1e-6) & (b <= a)
                 & (g > 1e-6) & (g <= 1.0 - a))
        sse = B._hw_sse(idx, hoff, hy, 4, a, b, g, hl0, hb0, hs0)
        return np.where(valid, sse, O._PENALTY)

    e2 = y * y
    bc = np.array([float(np.mean(v[:20] ** 2)) if len(v) else 1.0 for v in pool])
    garch_x0 = np.column_stack([bc * rng.uniform(0.01, 0.3, S), rng.uniform(0, 0.3, S),
                                rng.uniform(0.5, 0.95, S)])

    def garch_obj(P, idx):
        return _garch_nll(idx, off, e2, P[..., 0], P[..., 1], P[..., 2], bc)

    return [
        (0, lanes, off, y, holt_x0, 0.02, 100, 0, None, None, None, holt_obj),
        (1, np.arange(H), hoff, hy, hw_x0, 0.03, 50, 4, hl0, hb0, hs0, hw_obj),
        (2, lanes, off, e2, garch_x0, 0.2, 60, 0, bc, None, None, garch_obj),
    ]


@pytest.mark.parametrize("case", [0, 1, 2], ids=["holt", "hw", "garch"])
def test_nelder_mead_equals_numpy_driver(case):
    """The compiled per-lane Nelder-Mead lands on the numpy driver's
    point and value bit for bit from equal starts (GARCH with libm log in
    both), though it evaluates the expansion and contraction points only
    when they are read."""
    kind, lanes, off, v, x0, step, it, m, l0, b0, s0, obj = _nm_cases()[case]
    got_x, got_f = B.nelder_mead(kind, lanes, off, v, x0, step, it, m=m, l0=l0, b0=b0, s0=s0)
    want_x, want_f = O.nelder_mead_batch(obj, x0, step=step, max_iter=it)
    assert _same(got_x, want_x) and _same(got_f, want_f)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 50, 2000, 2001, 2600])
def test_hurst_range_equals_numpy(n):
    """hurst_rs gives the numpy R/S inputs bit for bit: the brute force
    up to 2,000 points, the upper envelope beyond."""
    rng = np.random.RandomState(n)
    x = scalets(np.cumsum(rng.randn(n))) if n > 1 else rng.randn(n)
    r, s = np.empty(n), np.empty(n)
    B._STEPS.hurst_rs(1, np.array([0, n]), B._f64(x), r, s)
    w_r, w_s = O.hurst_rs_numpy(x)
    assert _same(r, w_r) and _same(s, w_s)


def test_tiled_stats_keep_the_tile_loop_bits():
    """lumpiness / stability over (rows, tiles, width) arrays equal the
    per-tile loop they replaced, bit for bit (NaN and constant tiles
    included)."""
    from tsfeatures_ray.kernels.simple import lumpiness_batch, stability_batch

    rng = np.random.RandomState(6)
    xs, fs = [], []
    for _ in range(300):
        n = int(rng.randint(0, 300))
        x = rng.randn(n) * 10 ** rng.uniform(-3, 3)
        if rng.rand() < 0.1 and n:
            x[rng.randint(n)] = np.nan
        if rng.rand() < 0.05:
            x[:] = 2.0
        xs.append(x)
        fs.append(int(rng.choice([1, 4, 7, 12])))
    off, v = B._ragged(xs)
    lump, stab = lumpiness_batch(off, v, fs)["lumpiness"], stability_batch(off, v, fs)["stability"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for i, (x, f) in enumerate(zip(xs, fs)):
            assert _same(lump[i], O.tiled_stat_loop(x, f, lambda s: np.nanvar(s, ddof=1))), i
            assert _same(stab[i], O.tiled_stat_loop(x, f, np.nanmean)), i


def test_batch_kernels_match_numpy_kernels():
    """On non-degenerate series (n >= 40, no exact fits) every moved
    kernel equals the numpy kernel it replaced to rounding, and the
    heuristics their np.linalg / np.convolve versions."""
    from tsfeatures_ray.kernels import simple
    from tsfeatures_ray.kernels.het import ar_by_aic_resid

    rng = np.random.RandomState(8)
    xs = [scalets(np.cumsum(rng.randn(n)) + 3 * np.sin(np.arange(n) / 2.0))
          for n in rng.randint(40, 400, 40)]
    fs = [int(f) for f in rng.choice([1, 4, 12], 40)]
    pairs = [(simple.acf_features_batch, O.acf_features_numpy),
             (simple.pacf_features_batch, O.pacf_features_numpy),
             (simple.arch_stat_batch, O.arch_stat_numpy),
             (simple.nonlinearity_batch, O.nonlinearity_numpy),
             (simple.unitroot_pp_batch, O.unitroot_pp_numpy),
             (simple.hurst_batch, O.hurst_numpy)]
    for batch, numpy_kernel in pairs:
        got = batch(*B._ragged(xs), fs)
        for i, (x, f) in enumerate(zip(xs, fs)):
            for k, v in numpy_kernel(x, f).items():
                np.testing.assert_allclose(got[k][i], v, rtol=1e-9, atol=1e-14,
                                           err_msg=f"{batch.__name__} {i} {k}")
    off, v = B._ragged(xs)
    woff, wht, ok = ar_by_aic_resid(off, v)
    assert ok.all()
    for i, x in enumerate(xs):
        np.testing.assert_allclose(wht[woff[i]:woff[i + 1]], O.ar_by_aic_resid(x),
                                   rtol=1e-9, atol=1e-12)
        l0, b0 = O.heuristic_level_trend(x)
        np.testing.assert_allclose(B.level_trend(*B._ragged([x])), ([l0], [b0]), rtol=1e-12)
        for m in (4, 12):
            got = B.seasonal_heuristic(*B._ragged([x]), m)
            for g, w in zip(got, O.heuristic_seasonal(x, m)):
                np.testing.assert_allclose(np.ravel(g), np.ravel(w), rtol=1e-9, atol=1e-13)


def test_constant_series_does_not_abort_the_batch():
    """A constant series (all NaN once scaled) of >= 4 points at freq 1
    or >= 2m at freq m gets the reference's NaN STL row -- nperiods and
    seasonal_period only -- and leaves the other rows of its batch as
    they are alone; no warning either way."""
    import pyarrow as pa

    from tsfeatures_ray.kernels import compute_features
    from tsfeatures_ray.stages.features import FeatureKernels

    sine = np.sin(np.arange(60) / 2.0) + np.arange(60) * 0.05
    rows = [(np.full(30, 7.0), 12), (sine, 12), (np.full(8, 5.0), 1), (sine[:40], 1)]
    t = pa.table({"unique_id": [str(i) for i in range(len(rows))],
                  "freq": pa.array([f for _, f in rows], pa.int64()),
                  "y": pa.array([x.tolist() for x, _ in rows], pa.list_(pa.float64()))})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = FeatureKernels()(t).to_pandas()
        alone = [FeatureKernels()(t.slice(i, 1)).to_pandas() for i in range(len(rows))]
        scalar = [compute_features(x, f) for x, f in rows]
    stl_nan = ["trend", "spike", "linearity", "curvature", "e_acf1", "e_acf10"]
    for i, (x, f) in enumerate(rows):
        for k in out.columns[1:]:
            assert _eq(out[k][i], alone[i][k][0]), (i, k)
        for k, v in scalar[i].items():
            assert _eq(out[k][i], v), (i, k)
        if np.ptp(x) == 0:
            assert out["nperiods"][i] == float(f > 1) and out["seasonal_period"][i] == f
            assert np.isnan(out.loc[i, stl_nan].astype(float)).all()
        else:
            assert np.isfinite(out.loc[i, stl_nan].astype(float)).all()


# ---------------------------------------------------------------------------
# 8. portability
# ---------------------------------------------------------------------------

_CORETYPE_PROBE = """
import hashlib
import numpy as np
import pyarrow as pa
from tsfeatures_ray.stages.features import FeatureKernels
rng = np.random.RandomState(5)
ys, fs = [], []
for i, n in enumerate([0, 1, 2, 3, 5, 9, 17, 30, 48, 75, 120, 200, 333, 600] * 2):
    ys.append(np.cumsum(rng.randn(n)) + 4 * np.sin(np.arange(n) / 1.9))
    fs.append([1, 4, 12, 24][i % 4])
ys += [np.full(50, 3.0), np.r_[np.cumsum(rng.randn(20)), np.nan, rng.randn(30)]]
fs += [12, 4]
t = pa.table({"unique_id": [str(i) for i in range(len(ys))], "freq": pa.array(fs, pa.int64()),
              "y": pa.array([y.tolist() for y in ys], pa.list_(pa.float64()))})
out = FeatureKernels()(t)
h = hashlib.sha256()
for c in out.column_names[1:]:
    h.update(out[c].to_numpy().tobytes())
print(h.hexdigest())
"""


def test_feature_kernels_same_bytes_under_every_openblas_coretype():
    """No default kernel calls BLAS, so the core type OpenBLAS picks for
    the host cannot change a feature's bits: FeatureKernels() gives the
    same bytes on a ragged pool (lengths 0-600, freq 1/4/12/24, a
    constant and a NaN lane) with OPENBLAS_CORETYPE unset, Prescott,
    Haswell and SkylakeX, and the recorded-fixture test passes under
    each."""
    digests = {}
    for core in (None, "Prescott", "Haswell", "SkylakeX"):
        env = dict(os.environ, PYTHONPATH=ROOT + os.pathsep + os.environ.get("PYTHONPATH", ""))
        env.pop("OPENBLAS_CORETYPE", None)
        if core:
            env["OPENBLAS_CORETYPE"] = core
        r = subprocess.run([sys.executable, "-c", _CORETYPE_PROBE], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=600)
        assert r.returncode == 0, r.stderr
        digests[core] = r.stdout.strip()
        r = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                            "tests/test_recorded_fixture.py"], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=900)
        assert r.returncode == 0, (core, r.stdout[-3000:])
    assert len(set(digests.values())) == 1, digests


def test_kernels_have_no_blas_calls():
    """AST guard: no ``@``, np.dot, np.correlate, np.convolve or
    np.linalg anywhere in kernels/ -- every sum over a series stays in a
    fixed-order loop."""
    import ast

    bad = ("dot", "correlate", "convolve", "linalg")
    found = []
    kdir = os.path.dirname(B.__file__)
    for name in sorted(os.listdir(kdir)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(kdir, name)) as f:
            tree = ast.parse(f.read())
        for node in ast.walk(tree):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append(f"{name}: @ at line {node.lineno}")
            elif isinstance(node, ast.Attribute) and node.attr in bad:
                found.append(f"{name}: .{node.attr} at line {node.lineno}")
            elif isinstance(node, ast.alias) and node.name.split(".")[-1] in bad:
                found.append(f"{name}: import {node.name} at line {node.lineno}")
    assert not found, found
