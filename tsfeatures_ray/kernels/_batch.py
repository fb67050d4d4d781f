"""Cross-series (lane-batched) implementations of the optimizer-backed
kernels -- Holt, Holt-Winters and the GARCH(1,1) stage of heterogeneity
-- and the build and binding of the compiled step loops they share with
the STL decomposition (stl.py calls ``stl_fit`` once per batch).

These kernels are where feature CPU goes, and the cost of a numpy
time-step loop is per-CALL interpreter overhead, not arithmetic. So all
eligible series of a batch run as one set of *lanes*: the grids and the
batched Nelder-Mead below evaluate every lane's candidates together, and
each objective evaluation is ONE call into a compiled step loop
(``_steps.c``) that walks every lane x candidate recursion over the
ragged series (offsets + values; no padded matrix). Lanes are split only
where the math requires it: Holt-Winters by seasonal period m.

Correctness contract -- LANE INDEPENDENCE: every operation is
elementwise across lanes (no reductions over the lane axis) and each C
statement keeps the operation order of the numpy expression it replaced
(built with -ffp-contract=off, no -ffast-math, no -march=native). A
series therefore produces bit-identical results no matter which -- or
how many -- other series share its batch, which keeps feature outputs
deterministic across block layouts, CPU counts and runs.
tests/test_batch_kernels.py pins this, and pins the C loops bit-for-bit
against the numpy step loops and per-series Python-float fits they
replaced. (STL's sums replaced BLAS dot products, whose order depends on
the OpenBLAS core type; its loop runs them left to right and is pinned
against a Python-float port of itself and, to rounding, the numpy STL.)

GARCH log rule: lanes under _LIBM_LOG_N points take ``np.log`` over the
variance path in numpy; longer lanes call libm ``log`` in C (what
``math.log`` calls). numpy's SIMD log and libm's differ in the last bits
of some values, and this split is the one the outputs were recorded with.

The scalar kernels in ets.py / het.py / stl.py are 1-lane calls of the
batched path, so there is exactly ONE implementation of each optimizer
and of the decomposition.

Reference semantics preserved: holt_parameters <- reference
tsfeatures.py:340-368, hw_parameters <- :392-423, heterogeneity
<- :278-338 (same NaN gates, parameter regions and output names).
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
import types

import numpy as np

_PENALTY = 1e12
_LIBM_LOG_N = 512  # the GARCH log rule (module docstring)
_L2PI = math.log(2 * math.pi)

# ---------------------------------------------------------------------------
# the compiled step loops
# ---------------------------------------------------------------------------

_HERE = os.path.dirname(os.path.abspath(__file__))
# -ffp-contract=off: no fused multiply-add (numpy rounds the multiply and
# the add separately); no -ffast-math, no -march=native: results must not
# depend on the build host
_FLAGS = ["-O2", "-shared", "-fPIC", "-ffp-contract=off"]


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
# int64 / float64 / uint8 array, passed as its data pointer
_SIGS = {
    "holt_sse": "iillffffff",
    "hw_sse": "iiillffffffff",
    "garch_var": "iillfffffif",
    "garch_ll": "iillfffffifdf",
    "garch_mu": "illffffffffu",
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


def _ragged(ys: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(offsets, values): lane i is values[offsets[i]:offsets[i + 1]]."""
    off = np.zeros(len(ys) + 1, dtype=np.int64)
    np.cumsum([len(y) for y in ys], out=off[1:])
    return off, _f64(np.concatenate(ys) if ys else np.empty(0))


# ---------------------------------------------------------------------------
# batched Nelder-Mead
# ---------------------------------------------------------------------------

def nelder_mead_batch(
    obj,
    x0: np.ndarray,
    step: float = 0.1,
    max_iter: int = 400,
    xtol: float = 1e-6,
    ftol: float = 1e-10,
) -> tuple[np.ndarray, np.ndarray]:
    """Minimize S independent objectives with the standard Nelder-Mead
    rules per lane (simplex construction, stable sort order, branch
    rules, convergence test, first-minimum selection). ``obj(P, idx) ->
    (M, K)`` evaluates K candidate points per lane for the M lanes
    selected by ``idx`` (ascending; converged lanes drop out).
    Returns (x_best (S, n), f_best (S,))."""
    x0 = np.asarray(x0, dtype=float)
    S, n = x0.shape
    sim = np.repeat(x0[:, None, :], n + 1, axis=1)
    for i in range(n):
        xi = sim[:, i + 1, i]
        sim[:, i + 1, i] = np.where(
            xi == 0.0, xi + step, xi + step * np.maximum(np.abs(xi), 1.0)
        )
    idx = np.arange(S)
    fs = obj(sim, idx)
    final_sim = sim.copy()
    final_fs = fs.copy()

    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    for _ in range(max_iter):
        if len(idx) == 0:
            break
        order = np.argsort(fs, axis=1, kind="stable")
        rows = np.arange(len(idx))[:, None]
        sim = sim[rows, order]
        fs = fs[rows, order]
        spread = np.max(np.abs(sim[:, 1:, :] - sim[:, :1, :]), axis=(1, 2))
        conv = (spread < xtol) & (np.abs(fs[:, -1] - fs[:, 0]) < ftol)
        if conv.any():
            done = idx[conv]
            final_sim[done] = sim[conv]
            final_fs[done] = fs[conv]
            keep = ~conv
            sim, fs, idx = sim[keep], fs[keep], idx[keep]
            if len(idx) == 0:
                break
        # sequential-sum centroid of the n best points
        centroid = sim[:, 0, :].copy()
        for j in range(1, n):
            centroid += sim[:, j, :]
        centroid /= n
        worst = sim[:, -1, :]
        xr = centroid + alpha * (centroid - worst)
        xe = centroid + gamma * (centroid - worst)
        xc = centroid + rho * (worst - centroid)
        # one stacked 3-candidate eval: a step loop costs per call, not
        # per candidate, so (xr, xe, xc) together cost barely more than xr
        cand = np.empty((len(idx), 3, n))
        cand[:, 0], cand[:, 1], cand[:, 2] = xr, xe, xc
        fvals = obj(cand, idx)
        fr, fe, fc = fvals[:, 0], fvals[:, 1], fvals[:, 2]
        fs0, fs_sw, fs_last = fs[:, 0], fs[:, -2], fs[:, -1]
        case2 = fr < fs0
        case1 = (fs0 <= fr) & (fr < fs_sw)
        case3 = ~(case1 | case2)
        use_xe = case2 & (fe < fr)
        use_xc = case3 & (fc < fs_last)
        shrink = case3 & ~use_xc
        newpt = np.where(use_xe[:, None], xe, xr)
        newf = np.where(use_xe, fe, fr)
        newpt = np.where(use_xc[:, None], xc, newpt)
        newf = np.where(use_xc, fc, newf)
        repl = ~shrink
        sim[repl, -1, :] = newpt[repl]
        fs[repl, -1] = newf[repl]
        if shrink.any():
            shr = sim[:, :1, :] + sigma * (sim[:, 1:, :] - sim[:, :1, :])
            fshr = obj(shr, idx)
            sim[shrink, 1:, :] = shr[shrink]
            fs[shrink, 1:] = fshr[shrink]
    if len(idx):
        final_sim[idx] = sim
        final_fs[idx] = fs
    k = np.argmin(final_fs, axis=1)
    rows = np.arange(S)
    return final_sim[rows, k], final_fs[rows, k]


# ---------------------------------------------------------------------------
# Holt (additive trend) -- reference tsfeatures.py:340-368
# ---------------------------------------------------------------------------

def _heuristic_level_trend_each(ys: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """OLS line through the first min(10, n) observations, per series
    (same np.linalg.lstsq call as the per-series kernel always made)."""
    l0 = np.full(len(ys), np.nan)
    b0 = np.full(len(ys), np.nan)
    for i, y in enumerate(ys):
        k = min(10, len(y))
        t = np.arange(k, dtype=float)
        A = np.column_stack([np.ones(k), t])
        try:
            coef, _, _, _ = np.linalg.lstsq(A, y[:k], rcond=None)
            l0[i], b0[i] = float(coef[0]), float(coef[1])
        except Exception:
            pass  # lane stays NaN -> NaN outputs
    return l0, b0


def _holt_sse(lanes, off, y, a, b, l, bb) -> np.ndarray:
    """SSE of additive Holt for (L, K) candidates (alpha, beta, initial
    level, initial trend) on the series ``lanes`` of (off, y)."""
    shape = np.shape(a)
    sse = np.empty(shape)
    _STEPS.holt_sse(*shape, lanes, off, y,
         *(_f64(v, shape) for v in (a, b, l, bb)), sse)
    return sse


def _holt_fit(ys: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Grid + zoom + Nelder-Mead Holt fit, one lane per series.
    Returns (alpha, beta) arrays in input order."""
    off, y = _ragged(ys)
    S = len(ys)
    lanes = np.arange(S)
    l0, b0 = _heuristic_level_trend_each(ys)

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

    def obj(P: np.ndarray, idx: np.ndarray) -> np.ndarray:
        a, b = P[..., 0], P[..., 1]
        valid = (a > 1e-6) & (a < 1 - 1e-6) & (b > 1e-6) & (b <= a)
        sse = _holt_sse(idx, off, y, a, b, P[..., 2], P[..., 3])
        return np.where(valid, sse, _PENALTY)

    x0 = np.column_stack([a_c, b_c, l0, b0])
    p, _ = nelder_mead_batch(obj, x0, step=0.02, max_iter=100)
    # lanes whose init heuristic failed (non-finite level/trend): NaN
    bad = ~(np.isfinite(l0) & np.isfinite(b0))
    return np.where(bad, np.nan, p[:, 0]), np.where(bad, np.nan, p[:, 1])


def holt_parameters_batch(
    ys: list[np.ndarray], freqs=None
) -> dict[str, np.ndarray]:
    """Batched holt_parameters: one (alpha, beta) row per series; NaN
    rows for the reference's gates (n<5, non-finite, constant)."""
    S = len(ys)
    alpha = np.full(S, np.nan)
    beta = np.full(S, np.nan)
    lanes = np.flatnonzero(
        [
            len(y) >= 5 and bool(np.all(np.isfinite(y))) and float(np.std(y)) != 0.0
            for y in ys
        ]
    )
    if len(lanes):
        alpha[lanes], beta[lanes] = _holt_fit([ys[i] for i in lanes])
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


def _heuristic_seasonal_each(ys, m):
    from .ets import _heuristic_seasonal

    l0 = np.full(len(ys), np.nan)
    b0 = np.full(len(ys), np.nan)
    s0 = np.zeros((len(ys), m))
    for i, y in enumerate(ys):
        try:
            l0[i], b0[i], s0[i] = _heuristic_seasonal(y, m)
        except Exception:
            pass  # lane stays NaN -> NaN outputs
    return l0, b0, s0


def _hw_fit(ys: list[np.ndarray], m: int):
    """Grid + one zoom round + Nelder-Mead HW fit with period m, one
    lane per series. Returns (alpha, beta, gamma) in input order."""
    off, y = _ragged(ys)
    S = len(ys)
    lanes = np.arange(S)
    l0, b0, s0 = _heuristic_seasonal_each(ys, m)

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

    def obj(P: np.ndarray, idx: np.ndarray) -> np.ndarray:
        a, b, g = P[..., 0], P[..., 1], P[..., 2]
        valid = (
            (a > 1e-6) & (a < 1 - 1e-6)
            & (b > 1e-6) & (b <= a)
            & (g > 1e-6) & (g <= 1.0 - a)
        )
        sse = _hw_sse(idx, off, y, m, a, b, g, l0, b0, s0)
        return np.where(valid, sse, _PENALTY)

    x0 = np.column_stack([a_c, b_c, g_c])
    p, _ = nelder_mead_batch(obj, x0, step=0.03, max_iter=50)
    bad = ~(np.isfinite(l0) & np.isfinite(b0))
    return tuple(np.where(bad, np.nan, p[:, j]) for j in range(3))


def hw_parameters_batch(
    ys: list[np.ndarray], freqs: np.ndarray
) -> dict[str, np.ndarray]:
    """Batched hw_parameters: lanes split by seasonal period m only."""
    S = len(ys)
    names = ("hw_alpha", "hw_beta", "hw_gamma")
    out = {k: np.full(S, np.nan) for k in names}
    ms = np.asarray(freqs, dtype=int)
    lanes = np.flatnonzero(
        [
            int(ms[i]) >= 2
            and len(y) >= 2 * int(ms[i])
            and len(y) >= 5
            and bool(np.all(np.isfinite(y)))
            and float(np.std(y)) != 0.0
            for i, y in enumerate(ys)
        ]
    )
    for m in np.unique(ms[lanes]):
        sel = lanes[ms[lanes] == m]
        for k, v in zip(names, _hw_fit([ys[i] for i in sel], int(m))):
            out[k][sel] = v
    return out


# ---------------------------------------------------------------------------
# GARCH(1,1) mean residual (heterogeneity stage 2) -- het.py semantics
# ---------------------------------------------------------------------------

def _garch_nll(lanes, off, e2, omega, a, b, backcast) -> np.ndarray:
    """Gaussian NLL for (L, K) candidates (omega, a, b) on the squared
    residual series ``lanes`` of (off, e2): 0.5 * sum_t ((l2pi + log s_t)
    + e2_t / s_t); invalid parameters, s_t <= 0 or a non-finite sum ->
    penalty."""
    shape = np.shape(omega)
    n = off[lanes + 1] - off[lanes]
    buf = np.empty(shape[1] * int(n[n < _LIBM_LOG_N].sum()))
    args = (*shape, lanes, off, e2, *(_f64(v, shape) for v in (omega, a, b)),
            backcast, _LIBM_LOG_N)
    ll = np.empty(shape)
    with np.errstate(all="ignore"):
        _STEPS.garch_var(*args, buf)
        np.log(buf, out=buf)
        _STEPS.garch_ll(*args, buf, _L2PI, ll)
        valid = (omega > 0) & (a >= 0) & (b >= 0) & (a + b < 0.9999)
        half = 0.5 * ll
    return np.where(valid & np.isfinite(half), half, _PENALTY)


def _garch_mu(xs: list[np.ndarray], mu0: np.ndarray,
              var0: np.ndarray) -> np.ndarray:
    """Two-round profile-likelihood mu fit: NM over (omega, a, b) with
    mu fixed, then the closed-form 1/sigma^2-weighted mu update; lanes
    that hit an invalid fit keep their last good mu."""
    off, x = _ragged(xs)
    ns = np.diff(off)
    S = len(xs)
    mu = mu0.copy()
    q = np.column_stack([var0 * 0.1, np.full(S, 0.1), np.full(S, 0.8)])
    active = np.ones(S, dtype=bool)
    weights: dict = {}
    for _ in range(2):
        if not active.any():
            break
        e2 = (x - np.repeat(mu, ns)) ** 2
        backcast = np.empty(S)
        for i in range(S):
            tau = min(75, int(ns[i]))
            if tau not in weights:
                w = 0.94 ** np.arange(tau)
                weights[tau] = w / w.sum()
            # np.sum over the elementwise product, NOT np.dot: BLAS ddot
            # is pointer-alignment-dependent, so its last bits would
            # depend on where the lane sits in the batch
            backcast[i] = float(np.sum(weights[tau] * e2[off[i]:off[i] + tau]))

        act = np.flatnonzero(active)

        def obj(P: np.ndarray, idx: np.ndarray) -> np.ndarray:
            return _garch_nll(act[idx], off, e2, P[..., 0], P[..., 1],
                              P[..., 2], backcast)

        q[act], _ = nelder_mead_batch(obj, q[act], step=0.2, max_iter=60)
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


def garch_mean_resid_batch(xs: list[np.ndarray]) -> list:
    """Batched het._garch11_mean_resid: fit GARCH(1,1) mu per lane and
    return per-series (x - mu); None marks the gates the per-series
    kernel expresses by raising (n < 10, zero variance)."""
    mus = np.array([float(np.mean(x)) if len(x) else np.nan for x in xs])
    var0 = np.array([float(np.var(x)) if len(x) else 0.0 for x in xs])
    ok = [len(x) >= 10 and v > 0 for x, v in zip(xs, var0)]
    lanes = np.flatnonzero(ok)
    if len(lanes):
        mus[lanes] = _garch_mu([xs[i] for i in lanes], mus[lanes], var0[lanes])
    return [(x - mu) if good else None for x, mu, good in zip(xs, mus, ok)]
