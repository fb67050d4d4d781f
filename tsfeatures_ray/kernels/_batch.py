"""Cross-series (lane-batched) implementations of the optimizer-backed
kernels -- Holt, Holt-Winters and the GARCH(1,1) stage of heterogeneity
-- the build and binding of the compiled loops (``_steps.c``) every
batch kernel shares: the step loops, the per-lane Nelder-Mead, least
squares (``lsq``), autocovariance with Levinson-Durbin (``acovf``), the
Hurst rescaled range and the STL decomposition -- and the kernel
protocol's adapters ``rowwise``, ``scalar_of`` and ``per_row``.

A kernel's cost in numpy is per-CALL interpreter overhead, not
arithmetic. So all eligible series of a batch run as one set of *lanes*
over the ragged series (offsets + values; no padded matrix): the grids
evaluate every lane's candidates in one call into a step loop, and the
Nelder-Mead polish runs every lane's simplex in one C call against the
same objective loops. Lanes are split only where the math requires it:
Holt-Winters by seasonal period m.

Correctness contract -- LANE INDEPENDENCE: every operation is
elementwise across lanes (no reductions over the lane axis) and each C
statement keeps a fixed operation order (built with -ffp-contract=off,
no -ffast-math, no -march=native; sums run left to right). A series
therefore produces bit-identical results no matter which -- or how many
-- other series share its batch, and no result depends on the BLAS
build or its core type: no kernel calls BLAS. tests/test_batch_kernels.py
pins this, and pins each compiled loop bit-for-bit against the numpy
loops and Python-float ports kept in tests/_step_oracles.py. GARCH's
log-likelihood takes libm ``log`` on every lane.

The scalar kernels in ets.py / het.py / stl.py / simple.py are
``scalar_of`` 1-lane calls of their batch forms, so there is exactly ONE
implementation of each kernel.

Reference semantics preserved: holt_parameters <- reference
tsfeatures.py:340-368, hw_parameters <- :392-423, heterogeneity
<- :278-338 (same NaN gates, parameter regions and output names).
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
import types

import numpy as np


# ---------------------------------------------------------------------------
# the compiled step loops
# ---------------------------------------------------------------------------

_HERE = os.path.dirname(os.path.abspath(__file__))
# -ffp-contract=off: no fused multiply-add (numpy rounds the multiply and
# the add separately); no -ffast-math, no -march=native: results must not
# depend on the build host. -O1: the library builds on every fresh
# checkout, and -O2/-O3 triple the build (~0.5 -> ~1.5 s) to save a few
# percent of kernel time
_FLAGS = ["-O1", "-shared", "-fPIC", "-ffp-contract=off"]


def _compiler() -> list[str] | None:
    """The interpreter's C compiler command (sysconfig ``CC``), else ``cc``."""
    for cmd in (shlex.split(sysconfig.get_config_var("CC") or ""), ["cc"]):
        if cmd and shutil.which(cmd[0]):
            return cmd
    return None


def _build(src: str = os.path.join(_HERE, "_steps.c"),
           cache: str = os.path.join(_HERE, "__pycache__")) -> str:
    """Path of the shared library built from ``src``, compiled once per
    (compiler, flags, source) hash into ``cache``. Each builder writes a
    temporary file and renames it into place, so processes racing to
    build all load a complete library."""
    cc = _compiler()
    if cc is None:
        raise ImportError(
            "tsfeatures_ray.kernels needs a C compiler to build _steps.c, "
            "and none was found (tried sysconfig CC and cc)"
        )
    with open(src, "rb") as f:
        code = f.read()
    key = hashlib.sha256(" ".join(cc + _FLAGS).encode() + b"\0" + code).hexdigest()
    lib = os.path.join(cache, f"_steps-{key[:16]}.so")
    if not os.path.exists(lib):
        os.makedirs(cache, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
        os.close(fd)
        try:
            r = subprocess.run([*cc, *_FLAGS, "-x", "c", "-o", tmp, "-", "-lm"],
                               input=code, capture_output=True)
            if r.returncode:
                raise ImportError(f"building {src} failed:\n{r.stderr.decode()}")
            os.replace(tmp, lib)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return lib


# one code per argument: i int64, d double; l / f / u a C-contiguous
# int64 / float64 / uint8 array, passed as its data pointer (None: NULL)
_SIGS = {
    "holt_sse": "iillffffff",
    "hw_sse": "iiillffffffff",
    "garch_nll": "iillffffff",
    "garch_mu": "illffffffffu",
    "nelder_mead": "iillfifffdiddff",
    "lag_design": "ilflff",
    "seg_sum": "ilff",
    "seg_ksum": "ilff",
    "lsq": "illfffff",
    "qr_q": "iliff",
    "acovf": "ilfliiff",
    "hurst_rs": "ilfff",
    "stl_fit": "ilflillff",
}
_CTYPES = {"i": ctypes.c_int64, "d": ctypes.c_double}
_ARRAYS = {"l": np.int64, "f": np.float64, "u": np.uint8}


def _loop(f, sig: str):
    """Checked Python callable for the C function ``f`` of signature ``sig``."""
    f.restype = ctypes.c_int
    f.argtypes = [_CTYPES.get(c, ctypes.c_void_p) for c in sig]
    arrays = [(i, np.dtype(_ARRAYS[c])) for i, c in enumerate(sig) if c in _ARRAYS]

    def call(*args) -> None:
        if len(args) != len(sig):
            raise TypeError(f"{f.__name__}: takes {len(sig)} arguments")
        ptrs = list(args)  # ``args`` keeps every array alive for the call
        for i, dt in arrays:
            v = args[i]
            if v is None:
                continue
            if v.dtype != dt or not v.flags.c_contiguous:
                raise TypeError(f"{f.__name__}: argument {i} must be C-contiguous {dt}")
            ptrs[i] = v.ctypes.data
        if f(*ptrs):
            raise MemoryError(f"{f.__name__}: scratch allocation failed")

    return call


def _bind(lib):
    """The step loops of a built library, by name."""
    return types.SimpleNamespace(**{n: _loop(getattr(lib, n), s) for n, s in _SIGS.items()})


_STEPS = _bind(ctypes.CDLL(_build()))


def _f64(v, shape=None) -> np.ndarray:
    """C-contiguous float64 (broadcast to ``shape`` if given)."""
    v = np.asarray(v)
    if shape is not None and v.shape != shape:
        v = np.broadcast_to(v, shape)
    return np.ascontiguousarray(v, dtype=np.float64)


def _i64(v) -> np.ndarray:
    """C-contiguous int64."""
    return np.ascontiguousarray(v, dtype=np.int64)


def _offsets(counts) -> np.ndarray:
    """Lane offsets (int64, one more than lanes) of the given lane lengths."""
    off = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=off[1:])
    return off


def _ragged(ys: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(offsets, values): lane i is values[offsets[i]:offsets[i + 1]]."""
    return _offsets([len(y) for y in ys]), _f64(np.concatenate(ys) if ys else np.empty(0))


_GROUP_POINTS = 1 << 16  # values per length group: bounds a group's temporaries


def length_groups(off):
    """(lanes, index) per group of equal-length lanes of the ragged batch
    ``off`` (split so a group holds at most _GROUP_POINTS values, or one
    lane): its lanes and the (lanes, n) index of their values. A
    reduction along axis 1 of v[index] gives each lane the bits of the
    same reduction over its 1-D slice."""
    n = np.diff(off)
    order = np.argsort(n, kind="stable")
    cuts = (np.flatnonzero(np.diff(n[order])) + 1).tolist()
    for a, b in zip([0, *cuts], [*cuts, len(n)] if len(n) else []):
        k = int(n[order[a]])
        step = max(1, _GROUP_POINTS // max(k, 1))
        for c in range(a, b, step):
            lanes = order[c : min(c + step, b)]
            yield lanes, off[lanes][:, None] + np.arange(k)


def _columns(L, parts) -> dict:
    """{column: (L,) array} of (lanes, {column: values}) parts, NaN-filled."""
    cols = {}
    for lanes, out in parts:
        for k, col in out.items():
            if k not in cols:
                cols[k] = np.full(L, np.nan)
            cols[k][lanes] = col
    return cols


def rowwise(fn):
    """The batch form ``(off, v, freqs) -> {column: array}`` of ``fn(a)``,
    a kernel written along axis 1 of an (R, n) array of equal-length
    series: one call per length."""
    @functools.wraps(fn)
    def batch(off, v, freqs):
        return _columns(len(off) - 1, ((lanes, fn(v[idx])) for lanes, idx in length_groups(off)))

    return batch


def per_row(f):
    """The batch form of a kernel that has only the scalar contract: f on
    each series in turn. A key f leaves out for a series is NaN there."""
    def batch(off, v, freqs):
        return _columns(len(off) - 1, ((i, f(v[off[i]:off[i + 1]], int(freqs[i])))
                                       for i in range(len(off) - 1)))

    return batch


def scalar_of(batch, seasonal=()):
    """Decorator: the stub becomes the reference contract ``f(x, freq=1)
    -> {key: float}`` of the batch form ``batch`` (``f.batch``), a 1-lane
    call that leaves the ``seasonal`` keys out at freq <= 1; arguments
    after freq go to the batch form. The stub gives the name, signature
    and docstring."""
    def wrap(stub):
        @functools.wraps(stub)
        def f(x, freq=1, *args, **kw):
            x = _f64(x)
            out = batch(_offsets([len(x)]), x, np.array([freq], dtype=np.int64), *args, **kw)
            return {k: float(v[0]) for k, v in out.items() if freq > 1 or k not in seasonal}

        f.batch = batch
        return f

    return wrap


def _seg_sum(off, v) -> np.ndarray:
    """Per-lane sums of (off, v), left to right (0 for an empty lane)."""
    out = np.empty(len(off) - 1)
    _STEPS.seg_sum(len(out), _i64(off), _f64(v), out)
    return out


def _seg_all_finite(off, v) -> np.ndarray:
    """Per-lane: every value finite (True for an empty lane)."""
    return _seg_sum(off, (~np.isfinite(v)).astype(float)) == 0


def _ragged_diff(off, v) -> tuple[np.ndarray, np.ndarray]:
    """np.diff of every lane: (offsets, values) of the n - 1 differences."""
    keep = np.ones(max(len(v) - 1, 0), dtype=bool)
    cut = off[1:-1]
    keep[cut[(cut >= 1) & (cut < len(v))] - 1] = False
    return _offsets(np.maximum(np.diff(off) - 1, 0)), (v[1:] - v[:-1])[keep]


def _gather(starts, counts, v) -> tuple[np.ndarray, np.ndarray]:
    """(offsets, values) of the slices v[starts[i] : starts[i] + counts[i]]."""
    goff = _offsets(counts)
    return goff, v[np.repeat(np.asarray(starts) - goff[:-1], counts) + np.arange(goff[-1])]


def _heads(off, v, k) -> tuple[np.ndarray, np.ndarray]:
    """The first k[i] values of every lane, as (offsets, values)."""
    return _gather(off[:-1], k, v)


def _take(off, v, lanes) -> tuple[np.ndarray, np.ndarray]:
    """The lanes ``lanes`` of (off, v), as (offsets, values)."""
    return _gather(off[lanes], off[lanes + 1] - off[lanes], v)


def _extrema(off, v) -> tuple[np.ndarray, np.ndarray]:
    """Per-lane (min, max) of (off, v); NaN for an empty lane."""
    n = np.diff(off)
    lo, hi = np.full(len(n), np.nan), np.full(len(n), np.nan)
    nz = n > 0
    if nz.any():
        lo[nz] = np.minimum.reduceat(v, off[:-1][nz])
        hi[nz] = np.maximum.reduceat(v, off[:-1][nz])
    return lo, hi


def _lag_design(off, v, lags):
    """Autoregression of each lane on its first lags[i] lags (_steps.c
    lag_design): rows t = lags[i]..n-1 with response v_t and row-major
    design [1, v_{t-1}, ..., v_{t-lags[i]}]. Returns (row offsets,
    columns per lane, X, y)."""
    lags = np.ascontiguousarray(lags, dtype=np.int64)
    rows = np.maximum(np.diff(off) - lags, 0)
    roff = _offsets(rows)
    X, y = np.empty(int((rows * (lags + 1)).sum())), np.empty(roff[-1])
    _STEPS.lag_design(len(lags), _i64(off), _f64(v), lags, X, y)
    return roff, lags + 1, X, y


# ---------------------------------------------------------------------------
# the compiled primitives
# ---------------------------------------------------------------------------

def lsq(roff, p, X, y):
    """Minimum-norm least squares per lane (_steps.c lsq): lane i regresses
    y[roff[i]:roff[i + 1]] on p[i] columns, its design the next row-major
    block of X. Returns (coef, rss, resid): coefficients and prefix
    residual sums of squares (rss[k]: the fit on columns 0..k), p[i] per
    lane one after another, and the residuals at the rows of y."""
    p = np.ascontiguousarray(p, dtype=np.int64)
    coef, rss = np.empty(int(p.sum())), np.empty(int(p.sum()))
    resid = np.empty(len(y))
    _STEPS.lsq(len(p), _i64(roff), p, _f64(X), _f64(y), coef, rss, resid)
    return coef, rss, resid


def acovf(off, v, nlag, demean: bool = True, pacf: bool = False):
    """Biased autocovariance (sum_t d_t d_{t+k} / n, d demeaned or raw) of
    every lane at lags 0..nlag[i] as an (L, max nlag + 1) array, NaN past
    a lane's lags or length; with ``pacf`` also the Levinson-Durbin
    partial autocorrelations (NaN rows where nlag[i] >= n)."""
    nlag = np.ascontiguousarray(nlag, dtype=np.int64)
    K = int(nlag.max()) if len(nlag) else 0
    ac = np.empty((len(nlag), K + 1))
    pac = np.empty((len(nlag), K + 1)) if pacf else None
    _STEPS.acovf(len(nlag), _i64(off), _f64(v), nlag, K, int(demean), ac, pac)
    return (ac, pac) if pacf else ac


def nelder_mead(kind: int, lanes, off, v, x0, step: float, max_iter: int,
                m: int = 0, l0=None, b0=None, s0=None):
    """Nelder-Mead of every lane i in C (_steps.c nelder_mead) over the
    objective ``kind`` (0 Holt, 1 Holt-Winters with period m, 2 GARCH) on
    the series lanes[i] of (off, v), from the (L, params) starts x0 with
    the numpy driver's rules (xtol 1e-6, ftol 1e-10). l0 / b0 / s0 are
    indexed by lane (GARCH: l0 = backcasts). Returns (x_best, f_best)."""
    x = _f64(x0).copy()
    f = np.empty(len(x))
    one = np.zeros(1)
    _STEPS.nelder_mead(kind, len(x), _i64(lanes), off, v, m,
                       one if l0 is None else _f64(l0), one if b0 is None else _f64(b0),
                       one if s0 is None else _f64(s0), step, max_iter, 1e-6, 1e-10, x, f)
    return x, f


# ---------------------------------------------------------------------------
# Holt (additive trend) -- reference tsfeatures.py:340-368
# ---------------------------------------------------------------------------

def level_trend(off, v) -> tuple[np.ndarray, np.ndarray]:
    """Heuristic initial level and trend per lane: the least-squares line
    through its first min(10, n) observations; NaN where those are not
    all finite."""
    k = np.minimum(np.diff(off), 10)
    hoff, h = _heads(off, v, k)
    t = np.arange(len(h)) - np.repeat(hoff[:-1], k)
    coef, _, _ = lsq(hoff, np.full(len(k), 2), np.column_stack([np.ones(len(h)), t]).ravel(), h)
    l0, b0 = coef[0::2].copy(), coef[1::2].copy()
    bad = ~_seg_all_finite(hoff, h)
    l0[bad] = b0[bad] = np.nan
    return l0, b0


def _holt_sse(lanes, off, y, a, b, l, bb) -> np.ndarray:
    """SSE of additive Holt for (L, K) candidates (alpha, beta, initial
    level, initial trend) on the series ``lanes`` of (off, y)."""
    shape = np.shape(a)
    sse = np.empty(shape)
    _STEPS.holt_sse(*shape, lanes, off, y,
         *(_f64(v, shape) for v in (a, b, l, bb)), sse)
    return sse


def _holt_fit(off, y) -> tuple[np.ndarray, np.ndarray]:
    """Grid + zoom + Nelder-Mead Holt fit of every lane of (off, y).
    Returns (alpha, beta) arrays in lane order."""
    S = len(off) - 1
    lanes = np.arange(S)
    l0, b0 = level_trend(off, y)

    # round 1: common coarse grid (13 alphas x 9 beta fractions)
    a_grid = np.linspace(0.02, 0.98, 13)
    f_grid = np.linspace(0.02, 0.98, 9)
    A, F = np.meshgrid(a_grid, f_grid, indexing="ij")
    alphas = _f64(A.ravel(), (S, A.size))
    betas = _f64((A * F).ravel(), (S, A.size))
    keep = np.ones(alphas.shape, dtype=bool)
    a_c = b_c = None
    for _ in range(3):
        sse = _holt_sse(lanes, off, y, alphas, betas, l0[:, None], b0[:, None])
        sse = np.where(np.isfinite(sse), sse, np.inf)
        sse = np.where(keep, sse, np.inf)
        i = np.argmin(sse, axis=1)
        # all-excluded/all-inf guard: fall back to the first KEPT
        # candidate (what argmin over the compacted per-series array does)
        no_min = ~np.isfinite(np.take_along_axis(sse, i[:, None], 1)[:, 0])
        if no_min.any():
            i = np.where(no_min, np.argmax(keep, axis=1), i)
        a_c = np.take_along_axis(alphas, i[:, None], 1)[:, 0]
        b_c = np.take_along_axis(betas, i[:, None], 1)[:, 0]
        amax = np.max(np.where(keep, alphas, -np.inf), axis=1)
        amin = np.min(np.where(keep, alphas, np.inf), axis=1)
        span_a = (amax - amin) * 0.15
        a_g = np.clip(
            np.linspace(a_c - span_a, a_c + span_a, 7), 1e-4, 1 - 1e-4
        ).T  # (S, 7)
        b_g = np.clip(
            np.linspace(b_c - span_a, b_c + span_a, 7), 1e-4, 1 - 1e-4
        ).T
        # meshgrid 'ij' ravel order: k = i*7 + j
        alphas = np.repeat(a_g, 7, axis=1)  # (S, 49)
        betas = np.tile(b_g, (1, 7))
        keep = betas <= alphas

    x0 = np.column_stack([a_c, b_c, l0, b0])
    p, _ = nelder_mead(0, lanes, off, y, x0, step=0.02, max_iter=100)
    # lanes whose init heuristic failed (non-finite level/trend): NaN
    bad = ~(np.isfinite(l0) & np.isfinite(b0))
    return np.where(bad, np.nan, p[:, 0]), np.where(bad, np.nan, p[:, 1])


def _fit_lanes(off, v) -> np.ndarray:
    """Lanes the smoothing fits run on (the reference's gates): at least
    5 points, all finite, not constant."""
    lo, hi = _extrema(off, v)
    return np.flatnonzero((np.diff(off) >= 5) & _seg_all_finite(off, v) & (lo != hi))


def holt_parameters_batch(off, v, freqs) -> dict[str, np.ndarray]:
    """Batched holt_parameters: one (alpha, beta) row per series; NaN
    rows for the reference's gates (n<5, non-finite, constant)."""
    S = len(off) - 1
    alpha = np.full(S, np.nan)
    beta = np.full(S, np.nan)
    lanes = _fit_lanes(off, v)
    if len(lanes):
        alpha[lanes], beta[lanes] = _holt_fit(*_take(off, v, lanes))
    return {"alpha": alpha, "beta": beta}


# ---------------------------------------------------------------------------
# Holt-Winters (additive) -- reference tsfeatures.py:392-423
# ---------------------------------------------------------------------------

def _hw_sse(lanes, off, y, m, a, b, g, l0, b0, s0) -> np.ndarray:
    """HW SSE with period m for (L, K) candidates (alpha, beta, gamma)
    on the series ``lanes`` of (off, y); initial level/trend (S,) and
    seasonal state (S, m) per series. Standard additive recursion: the
    level update uses (1-a)*(l+b) -- the seasonal term belongs in the
    forecast only."""
    shape = np.shape(a)
    sse = np.empty(shape)
    _STEPS.hw_sse(*shape, m, lanes, off, y,
         *(_f64(v, shape) for v in (a, b, g)), l0, b0, s0, sse)
    return sse


def seasonal_heuristic(off, v, m: int):
    """Hyndman-style initial states of every lane (n >= 2m) at period m:
    the centred moving average of window m (2 x m for even m) over the
    first min(5, n // m) cycles detrends them; the per-phase means of
    that, less their mean, are the seasonal indices (sum 0); level and
    trend are ``level_trend`` of the seasonally adjusted series. The
    moving average sums its terms left to right. Returns (l0, b0, s0)."""
    n = np.diff(off)
    S = len(n)
    s0 = np.zeros((S, m))
    cyc = np.minimum(5, n // m)
    if m % 2 == 0:
        kernel = np.concatenate([[0.5], np.ones(m - 1), [0.5]]) / m
    else:
        kernel = np.ones(m) / m
    for c in np.unique(cyc):  # every lane of a cycle count at once
        rows = np.flatnonzero(cyc == c)
        yy = v[off[rows][:, None] + np.arange(c * m)]  # (R, c m)
        w = c * m - len(kernel) + 1
        trend = kernel[-1] * yy[:, :w]
        for j in range(1, len(kernel)):  # np.convolve's kernel, reversed
            trend = trend + kernel[-1 - j] * yy[:, j:j + w]
        pad = (c * m - w) // 2
        detr = yy[:, pad:pad + w] - trend
        phase = np.arange(pad, pad + w) % m
        for j in range(m):
            vals = detr[:, phase == j]
            if vals.shape[1]:
                s0[rows, j] = vals.mean(axis=1)
        s0[rows] -= s0[rows].mean(axis=1, keepdims=True)
    phase = np.arange(len(v)) - np.repeat(off[:-1], n)
    adj = v - s0[np.repeat(np.arange(S), n), phase % m]
    l0, b0 = level_trend(off, adj)
    return l0, b0, s0


def _hw_fit(off, y, m: int):
    """Grid + one zoom round + Nelder-Mead HW fit with period m of every
    lane of (off, y). Returns (alpha, beta, gamma) in lane order."""
    S = len(off) - 1
    lanes = np.arange(S)
    l0, b0, s0 = seasonal_heuristic(off, y, m)

    a_g = np.linspace(0.05, 0.95, 7)
    bf_g = np.array([0.05, 0.3, 0.9])
    gf_g = np.array([0.05, 0.3, 0.9])
    A, BF, GF = np.meshgrid(a_g, bf_g, gf_g, indexing="ij")
    al1 = A.ravel()
    be1 = (A * BF).ravel()
    ga1 = ((1.0 - A) * GF).ravel()
    grid = (S, al1.size)
    sse = _hw_sse(lanes, off, y, m, _f64(al1, grid), be1, ga1, l0, b0, s0)
    sse = np.where(np.isfinite(sse), sse, np.inf)
    i = np.argmin(sse, axis=1)
    a_c = al1[i]
    b_c = be1[i]
    g_c = ga1[i]

    # zoom: per-lane local 5x5x5 grid, constraint-masked
    a_g2 = np.clip(np.linspace(a_c - 0.1, a_c + 0.1, 5), 1e-4, 1 - 1e-4).T
    b_g2 = np.clip(np.linspace(b_c - 0.1, b_c + 0.1, 5), 1e-4, 1 - 1e-4).T
    g_g2 = np.clip(np.linspace(g_c - 0.1, g_c + 0.1, 5), 1e-4, 1 - 1e-4).T
    # meshgrid 'ij' ravel order: k = i*25 + j*5 + l
    A2 = np.repeat(a_g2, 25, axis=1)  # (S, 125)
    B2 = np.tile(np.repeat(b_g2, 5, axis=1), (1, 5))
    G2 = np.tile(g_g2, (1, 25))
    keep = (B2 <= A2) & (G2 <= 1.0 - A2)
    any_keep = keep.any(axis=1)
    sse = _hw_sse(lanes, off, y, m, A2, B2, G2, l0, b0, s0)
    sse = np.where(np.isfinite(sse), sse, np.inf)
    sse = np.where(keep, sse, np.inf)
    i = np.argmin(sse, axis=1)
    no_min = ~np.isfinite(np.take_along_axis(sse, i[:, None], 1)[:, 0])
    if no_min.any():
        i = np.where(no_min, np.argmax(keep, axis=1), i)
    # lanes with an empty constraint set keep the round-1 winner
    pick = any_keep & ~no_min
    a_c = np.where(pick, np.take_along_axis(A2, i[:, None], 1)[:, 0], a_c)
    b_c = np.where(pick, np.take_along_axis(B2, i[:, None], 1)[:, 0], b_c)
    g_c = np.where(pick, np.take_along_axis(G2, i[:, None], 1)[:, 0], g_c)

    x0 = np.column_stack([a_c, b_c, g_c])
    p, _ = nelder_mead(1, lanes, off, y, x0, step=0.03, max_iter=50,
                       m=m, l0=l0, b0=b0, s0=s0)
    bad = ~(np.isfinite(l0) & np.isfinite(b0))
    return tuple(np.where(bad, np.nan, p[:, j]) for j in range(3))


def hw_parameters_batch(off, v, freqs) -> dict[str, np.ndarray]:
    """Batched hw_parameters: lanes split by seasonal period m only."""
    n = np.diff(off)
    names = ("hw_alpha", "hw_beta", "hw_gamma")
    out = {k: np.full(len(n), np.nan) for k in names}
    ms = np.asarray(freqs, dtype=np.int64)
    lanes = _fit_lanes(off, v)
    lanes = lanes[(ms[lanes] >= 2) & (n[lanes] >= 2 * ms[lanes])]
    for m in np.unique(ms[lanes]):
        sel = lanes[ms[lanes] == m]
        for k, col in zip(names, _hw_fit(*_take(off, v, sel), int(m))):
            out[k][sel] = col
    return out


# ---------------------------------------------------------------------------
# GARCH(1,1) mean residual (heterogeneity stage 2) -- het.py semantics
# ---------------------------------------------------------------------------

def _garch_mu(off, x, mu0: np.ndarray, var0: np.ndarray) -> np.ndarray:
    """Two-round profile-likelihood mu fit: Nelder-Mead over (omega, a,
    b) with mu fixed, then the closed-form 1/sigma^2-weighted mu update;
    lanes that hit an invalid fit keep their last good mu."""
    ns = np.diff(off)
    S = len(ns)
    mu = mu0.copy()
    q = np.column_stack([var0 * 0.1, np.full(S, 0.1), np.full(S, 0.8)])
    active = np.ones(S, dtype=bool)
    tau = np.minimum(75, ns)
    toff, _ = _heads(off, x, tau)
    # the normalized weights 0.94^j / sum, for every window length
    wt = np.concatenate([w / w.sum() for w in (0.94 ** np.arange(t) for t in range(1, 76))])
    w = _gather(_offsets(np.arange(1, 76))[tau - 1], tau, wt)[1]
    for _ in range(2):
        if not active.any():
            break
        e2 = (x - np.repeat(mu, ns)) ** 2
        # exponentially weighted mean of the first tau squared residuals
        backcast = _seg_sum(toff, w * _heads(off, e2, tau)[1])
        act = np.flatnonzero(active)
        q[act], _ = nelder_mead(2, act, off, e2, q[act], step=0.2, max_iter=60, l0=backcast)
        omega, a, b = (_f64(q[:, j]) for j in range(3))
        active &= (omega > 0) & (a >= 0) & (b >= 0) & (a + b < 0.9999)
        act = np.flatnonzero(active)
        if not len(act):
            break
        # sigma2 path + closed-form weighted mu
        inv = np.empty(len(act))
        wx = np.empty(len(act))
        ok = np.empty(len(act), dtype=np.uint8)
        with np.errstate(all="ignore"):
            _STEPS.garch_mu(len(act), act, off, x, e2, omega[act], a[act],
                            b[act], backcast, inv, wx, ok)
            ok = ok.astype(bool)
            upd = ok & np.isfinite(wx) & (inv > 0)
            mu[act[upd]] = wx[upd] / inv[upd]
        active[act] = ok
    return mu


def garch_mean_resid_batch(off, x):
    """The GARCH(1,1) constant-mean residual x - mu (the arch package's
    ``.resid``) of every lane of (off, x): mu by Gaussian MLE, profile
    likelihood -- Nelder-Mead over (omega, a, b) with mu fixed, then the
    closed-form 1/sigma^2-weighted mu. Returns (x - mu per value, ok per
    lane), ok False at the gates where the reference's fit fails (n < 10,
    zero variance)."""
    n = np.diff(off)
    with np.errstate(all="ignore"):
        mu = _seg_sum(off, x) / n
        d = x - np.repeat(mu, n)
        var0 = _seg_sum(off, d * d) / n
    ok = (n >= 10) & (var0 > 0)
    lanes = np.flatnonzero(ok)
    if len(lanes):
        mu[lanes] = _garch_mu(*_take(off, x, lanes), mu[lanes], var0[lanes])
    return x - np.repeat(mu, n), ok
