"""Test oracles for the compiled loops (tsfeatures_ray/kernels/_steps.c).

These are the implementations the C loops replaced, kept verbatim so the
tests can pin the C results bit-for-bit against them (or, where sums
moved from BLAS to a fixed left-to-right order, to rounding), plus
Python-float ports of the newer loops, statement by statement:

- the numpy time-step loops over length-sorted, zero-padded, time-major
  lanes (``_holt_sse_prefix``, ``_hw_sse_prefix``, ``_garch_nll_prefix``
  and ``garch_mu_terms_prefix``, the closed-form mean-update loop);
- the numpy batched Nelder-Mead driver (``nelder_mead_batch``), which
  the compiled per-lane ``nelder_mead`` matches bit for bit from equal
  starts, and the per-series Python-float fits (``holt_fit_single``,
  ``hw_fit_single``, ``garch_mu_single``) with their scalar Nelder-Mead
  (``nelder_mead``) and SSE helpers;
- the numpy primitives the compiled ``lsq`` / ``acovf`` replaced
  (``ols_fit``, ``ols_r2``, ``embed``, ``acovf_biased``, ``acf``,
  ``pacf_ldb``), the AR-by-AIC whitening with its lstsq fallback
  (``ar_by_aic_resid``), the lstsq level-trend heuristic
  (``heuristic_level_trend``) and the np.convolve seasonal heuristic
  (``heuristic_seasonal``), the per-series acf/pacf/arch/nonlinearity/
  unitroot_pp/hurst kernels and STL tail (``*_numpy``, ``stl_row_numpy``)
  and the per-tile lumpiness/stability loop (``tiled_stat_loop``);
- Python-float ports of ``lsq`` (``lsq_port``) and ``acovf``
  (``acovf_port``) and the numpy R/S range of ``hurst_rs``
  (``hurst_rs_numpy``, with the Python upper envelope beyond 2,000
  points);
- the numpy STL (``stl_decompose_numpy`` over ``_loess_grid``,
  ``_loess_fixed_window``, ``_loess_at`` and ``_moving_average``), which
  the compiled ``stl_fit`` matches to rounding, a Python-float port of
  ``stl_fit`` (``stl_fit_port``), and SuperSmoother's per-point span
  interpolation loop (``supersmoother_fit_loop``);
- the per-series forms of the kernels that became axis-1 batch forms
  over equal-length lanes -- ``scalets`` (with 1-D ``periodogram_psd``),
  ``crossing_points``, ``entropy``, ``flat_spots``, ``series_length``
  and ``unitroot_kpss`` -- which the batch forms match bit for bit
  (``ROW_ORACLES``).

GARCH's log-likelihood takes libm ``log`` (``math.log``) on every lane.
The retired rule -- numpy's CPU-dispatched ``np.log`` below LIBM_LOG_N
points -- survives only as ``_garch_nll_prefix``'s default ``log``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from math import log

import numpy as np

from tsfeatures_ray.kernels._batch import _ragged, level_trend, seasonal_heuristic
from tsfeatures_ray.kernels.stl import _fixed_smooth, _linear_smooth_cv, _next_odd_gt

LIBM_LOG_N = 512
_PENALTY = 1e12  # an objective's out-of-region value (_steps.c PENALTY)


def _heuristic_level_trend_each(ys):
    """The engine's level/trend heuristic, per series."""
    return level_trend(*_ragged(list(ys)))


def _heuristic_seasonal_each(ys, m):
    """The engine's seasonal heuristic, per series."""
    return seasonal_heuristic(*_ragged(list(ys)), m)


def pad_sorted_time_major(ys):
    """(order, yT, cnt) for the *_prefix loops: series sorted by length
    (desc, stable), zero-padded, time-major; cnt[t] = lanes alive at t."""
    order, y, _, cnt = _pad_sorted(ys)
    return order, np.ascontiguousarray(y.T), cnt


def garch_mu_terms_prefix(x_pad, e2, cnt, omega, a, b, backcast):
    """The numpy mean-update loop: (inv_sum, wx_sum, sig_ok) per lane
    over length-sorted padded lanes (one candidate per lane)."""
    S = len(backcast)
    s_prev = backcast.copy()
    prev = backcast.copy()
    sig_ok = np.ones(S, dtype=bool)
    inv_sum = np.zeros(S)
    wx_sum = np.zeros(S)
    with np.errstate(all="ignore"):
        for t in range(x_pad.shape[1]):
            c = int(cnt[t])
            if c == 0:
                break
            s_new = omega[:c] + a[:c] * prev[:c] + b[:c] * s_prev[:c]
            sig_ok[:c] &= (s_new > 0) & np.isfinite(s_new)
            w_t = 1.0 / s_new
            inv_sum[:c] += w_t
            wx_sum[:c] += w_t * x_pad[:c, t]
            s_prev[:c] = s_new
            prev[:c] = e2[:c, t]
    return inv_sum, wx_sum, sig_ok


def nelder_mead(
    f,
    x0: np.ndarray,
    step: float = 0.1,
    max_iter: int = 400,
    xtol: float = 1e-6,
    ftol: float = 1e-10,
) -> tuple[np.ndarray, float]:
    """Minimize f: R^n -> R starting at x0. Returns (x_best, f_best)."""
    x0l = [float(v) for v in np.asarray(x0, dtype=float)]
    n = len(x0l)

    def call(p: list[float]) -> float:
        return float(f(np.asarray(p)))

    sim = [x0l]
    for i in range(n):
        p = list(x0l)
        p[i] += step if p[i] == 0 else step * max(abs(p[i]), 1.0)
        sim.append(p)
    fs = [call(p) for p in sim]

    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    for _ in range(max_iter):
        order = sorted(range(n + 1), key=fs.__getitem__)
        sim = [sim[i] for i in order]
        fs = [fs[i] for i in order]
        best, worst = sim[0], sim[-1]
        spread = max(
            abs(sim[j][i] - best[i]) for j in range(1, n + 1) for i in range(n)
        )
        if spread < xtol and abs(fs[-1] - fs[0]) < ftol:
            break
        centroid = [
            sum(sim[j][i] for j in range(n)) / n for i in range(n)
        ]
        xr = [centroid[i] + alpha * (centroid[i] - worst[i]) for i in range(n)]
        fr = call(xr)
        if fs[0] <= fr < fs[-2]:
            sim[-1], fs[-1] = xr, fr
        elif fr < fs[0]:
            xe = [centroid[i] + gamma * (centroid[i] - worst[i]) for i in range(n)]
            fe = call(xe)
            if fe < fr:
                sim[-1], fs[-1] = xe, fe
            else:
                sim[-1], fs[-1] = xr, fr
        else:
            xc = [centroid[i] + rho * (worst[i] - centroid[i]) for i in range(n)]
            fc = call(xc)
            if fc < fs[-1]:
                sim[-1], fs[-1] = xc, fc
            else:
                for j in range(1, n + 1):
                    sim[j] = [
                        best[i] + sigma * (sim[j][i] - best[i]) for i in range(n)
                    ]
                    fs[j] = call(sim[j])
    k = min(range(n + 1), key=fs.__getitem__)
    return np.asarray(sim[k]), float(fs[k])


def _holt_sse_fast(alpha: float, beta: float, l: float, b: float, y) -> float:
    """SSE of additive Holt: l_t = alpha*y_t + (1-alpha)(l+b);
    b_t = beta*(l_t - l_{t-1}) + (1-beta)*b_{t-1}.
    ``y`` should be a Python list (plain-float arithmetic is ~5x faster
    than numpy scalar indexing in this sequential loop)."""
    sse = 0.0
    one_a = 1.0 - alpha
    one_b = 1.0 - beta
    for v in y:
        f = l + b
        e = v - f
        sse += e * e
        l_new = alpha * v + one_a * f
        b = beta * (l_new - l) + one_b * b
        l = l_new
    return sse


def _holt_sse_grid(alphas: np.ndarray, betas: np.ndarray, l0: float, b0: float,
                   y: np.ndarray) -> np.ndarray:
    """Vectorized Holt SSE over K candidate (alpha, beta) pairs at once:
    the time recursion stays sequential but each step is a K-wide numpy
    op, so a whole grid costs ~one scalar pass."""
    K = len(alphas)
    l = np.full(K, l0)
    b = np.full(K, b0)
    sse = np.zeros(K)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(len(y)):
            f = l + b
            e = y[t] - f
            sse += e * e
            l_new = alphas * y[t] + (1.0 - alphas) * f
            b = betas * (l_new - l) + (1.0 - betas) * b
            l = l_new
    return np.where(np.isfinite(sse), sse, np.inf)


def _hw_sse_fast(
    alpha: float, beta: float, gamma: float, l: float, b: float, s, y
) -> float:
    """Scalar HW SSE; ``s``/``y`` as Python lists for loop speed."""
    m = len(s)
    s = list(s)
    sse = 0.0
    one_a = 1.0 - alpha
    one_b = 1.0 - beta
    one_g = 1.0 - gamma
    j = 0
    for v in y:
        si = s[j]
        f = l + b + si
        e = v - f
        sse += e * e
        l_new = alpha * (v - si) + one_a * (l + b)
        b = beta * (l_new - l) + one_b * b
        s[j] = gamma * (v - l_new) + one_g * si
        l = l_new
        j += 1
        if j == m:
            j = 0
    return sse


def _hw_sse_grid(alphas, betas, gammas, l0: float, b0: float, s0: np.ndarray,
                 y: np.ndarray) -> np.ndarray:
    """Vectorized HW SSE over K candidate (alpha, beta, gamma) triples:
    per-candidate seasonal state is a (K, m) matrix, each time step is a
    K-wide numpy op."""
    K = len(alphas)
    m = len(s0)
    s = np.tile(s0, (K, 1))
    l = np.full(K, l0)
    b = np.full(K, b0)
    sse = np.zeros(K)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(len(y)):
            j = t % m
            si = s[:, j]
            f = l + b + si
            e = y[t] - f
            sse += e * e
            # standard additive-HW level update (same objective as
            # _hw_sse_fast): (1-a)*(l+b) -- the seasonal term belongs in
            # the forecast, not the level recursion
            l_new = alphas * (y[t] - si) + (1.0 - alphas) * (l + b)
            b = betas * (l_new - l) + (1.0 - betas) * b
            s[:, j] = gammas * (y[t] - l_new) + (1.0 - gammas) * si
            l = l_new
    return np.where(np.isfinite(sse), sse, np.inf)


def _writable(arr, shape):
    """Broadcast to ``shape`` into a fresh writable buffer (never
    aliases the input -- ascontiguousarray would return read-only
    broadcast views unchanged when shapes already match)."""
    out = np.empty(shape)
    out[...] = arr
    return out


def _pad_sorted(ys: list[np.ndarray]):
    """Sort series by length (desc, stable), pad to (S, T), and return
    (order, y_pad, ns_desc, cnt) where cnt[t] = lanes alive at step t
    (a prefix, by construction)."""
    lens = np.array([len(y) for y in ys], dtype=np.int64)
    order = np.argsort(-lens, kind="stable")
    ns = lens[order]
    T = int(ns[0]) if len(ns) else 0
    y = np.zeros((len(ys), T))
    for row, i in enumerate(order):
        y[row, : lens[i]] = ys[i]
    # count of lanes with n >= t+1 for each step t
    cnt = np.searchsorted(-ns, -(np.arange(T) + 1), side="right")
    return order, y, ns, cnt


def _holt_sse_prefix(a, b, l, bb, yT, cnt) -> np.ndarray:
    """SSE of additive Holt for (S, K) candidate lanes over
    length-desc-sorted padded series yT (T, S -- time-major, so each
    step reads a contiguous row): step t touches only the alive prefix
    [:cnt[t]]. All per-step arithmetic runs through preallocated
    scratch (out=), so the T-loop allocates nothing and stays
    cache-resident; the operation ORDER matches the plain expression
    form bit-for-bit."""
    S, K = a.shape
    sse = np.zeros((S, K))
    l_cur = _writable(l, (S, K))
    b_cur = _writable(bb, (S, K))
    one_a = 1.0 - a  # loop-invariant (the per-series kernel hoists too)
    one_b = 1.0 - b
    f = np.empty((S, K))
    e = np.empty((S, K))
    t1 = np.empty((S, K))
    t2 = np.empty((S, K))
    with np.errstate(all="ignore"):
        for t in range(yT.shape[0]):
            c = int(cnt[t])
            if c == 0:
                break
            v = yT[t, :c, None]
            fc, ec, t1c, t2c = f[:c], e[:c], t1[:c], t2[:c]
            lc, tc = l_cur[:c], b_cur[:c]
            np.add(lc, tc, out=fc)                      # f = l + b
            np.subtract(v, fc, out=ec)                  # e = v - f
            np.multiply(ec, ec, out=t1c)
            np.add(sse[:c], t1c, out=sse[:c])           # sse += e*e
            np.multiply(a[:c], v, out=t1c)
            np.multiply(one_a[:c], fc, out=t2c)
            np.add(t1c, t2c, out=t1c)                   # l_new = a*v+(1-a)*f
            np.subtract(t1c, lc, out=t2c)
            np.multiply(b[:c], t2c, out=t2c)
            np.multiply(one_b[:c], tc, out=ec)
            np.add(t2c, ec, out=b_cur[:c])              # b = b*(ln-l)+(1-b)*b
            l_cur[:c] = t1c
    return sse


def _hw_sse_prefix(a, b, g, l0, b0, s0, yT, cnt, m) -> np.ndarray:
    """HW SSE for (S, K) lanes over time-major yT (T, S); seasonal state
    laid out (m, S, K) so the per-step slice s[j][:c] is contiguous.
    Standard additive recursion: level update uses (1-a)*(l+b) -- the
    seasonal term belongs in the forecast only. Preallocated scratch;
    op order matches the plain expression form bit-for-bit."""
    S, K = a.shape
    s = np.ascontiguousarray(
        np.broadcast_to(s0.T[:, :, None], (m, S, K))
    )  # (m, S, K)
    l_cur = _writable(l0[:, None], (S, K))
    b_cur = _writable(b0[:, None], (S, K))
    sse = np.zeros((S, K))
    one_a = 1.0 - a
    one_b = 1.0 - b
    one_g = 1.0 - g
    f = np.empty((S, K))
    e = np.empty((S, K))
    t1 = np.empty((S, K))
    t2 = np.empty((S, K))
    t3 = np.empty((S, K))
    with np.errstate(all="ignore"):
        for t in range(yT.shape[0]):
            c = int(cnt[t])
            if c == 0:
                break
            j = t % m
            v = yT[t, :c, None]
            si = s[j][:c]
            lc, tc = l_cur[:c], b_cur[:c]
            fc, ec, t1c, t2c, t3c = f[:c], e[:c], t1[:c], t2[:c], t3[:c]
            np.add(lc, tc, out=t3c)                      # l + b
            np.add(t3c, si, out=fc)                      # f = l + b + s
            np.subtract(v, fc, out=ec)                   # e = v - f
            np.multiply(ec, ec, out=t1c)
            np.add(sse[:c], t1c, out=sse[:c])            # sse += e*e
            np.subtract(v, si, out=t1c)
            np.multiply(a[:c], t1c, out=t1c)
            np.multiply(one_a[:c], t3c, out=t2c)
            np.add(t1c, t2c, out=t1c)                    # l_new
            np.subtract(t1c, lc, out=t2c)
            np.multiply(b[:c], t2c, out=t2c)
            np.multiply(one_b[:c], tc, out=t3c)
            np.add(t2c, t3c, out=b_cur[:c])              # b update
            np.subtract(v, t1c, out=t2c)
            np.multiply(g[:c], t2c, out=t2c)
            np.multiply(one_g[:c], si, out=t3c)
            np.add(t2c, t3c, out=s[j][:c])               # s update
            l_cur[:c] = t1c
    return sse


def _garch_nll_prefix(omega, a, b, e2T, cnt, backcast, log=np.log) -> np.ndarray:
    """Gaussian NLL for (S, K) candidate lanes over time-major,
    length-desc-sorted padded e2T (T, S). Same recursion and summation
    order as the original per-series nll ((l2pi + log(s)) + e2t/s);
    s<=0 -> penalty. Preallocated scratch; op order matches the plain
    expression form bit-for-bit."""

    l2pi = math.log(2 * math.pi)
    S, K = omega.shape
    s = _writable(backcast[:, None], (S, K))
    prev = _writable(backcast[:, None], (S, K))
    ll = np.zeros((S, K))
    bad = np.zeros((S, K), dtype=bool)
    t1 = np.empty((S, K))
    t2 = np.empty((S, K))
    t3 = np.empty((S, K))
    with np.errstate(all="ignore"):
        for t in range(e2T.shape[0]):
            c = int(cnt[t])
            if c == 0:
                break
            e2t = e2T[t, :c, None]
            sc, pc = s[:c], prev[:c]
            t1c, t2c, t3c = t1[:c], t2[:c], t3[:c]
            np.multiply(a[:c], pc, out=t1c)
            np.add(omega[:c], t1c, out=t1c)
            np.multiply(b[:c], sc, out=t2c)
            np.add(t1c, t2c, out=t1c)                   # s_new
            bad[:c] |= t1c <= 0
            t2c[...] = log(t1c)
            np.add(l2pi, t2c, out=t2c)                  # l2pi + log(s)
            np.divide(e2t, t1c, out=t3c)                # e2t / s
            np.add(t2c, t3c, out=t2c)
            np.add(ll[:c], t2c, out=ll[:c])             # ll += ...
            s[:c] = t1c
            prev[:c] = e2t
    valid = (omega > 0) & (a >= 0) & (b >= 0) & (a + b < 0.9999)
    half = 0.5 * ll
    res = np.where(np.isfinite(half), half, _PENALTY)
    return np.where(valid & ~bad, res, _PENALTY)


def holt_fit_single(y: np.ndarray) -> tuple[float, float]:
    """Per-series Holt fit: the same grid/zoom (vectorized over
    candidates) + the scalar Nelder-Mead with a Python-float SSE loop."""
    l0_a, b0_a = _heuristic_level_trend_each([y])
    l0, b0 = float(l0_a[0]), float(b0_a[0])
    if not (np.isfinite(l0) and np.isfinite(b0)):
        return np.nan, np.nan
    a_grid = np.linspace(0.02, 0.98, 13)
    f_grid = np.linspace(0.02, 0.98, 9)
    A, F = np.meshgrid(a_grid, f_grid, indexing="ij")
    alphas, betas = A.ravel(), (A * F).ravel()
    a_c = b_c = None
    for _ in range(3):
        sse = _holt_sse_grid(alphas, betas, l0, b0, y)
        i = int(np.argmin(sse))
        a_c, b_c = alphas[i], betas[i]
        span_a = (alphas.max() - alphas.min()) * 0.15
        a_g = np.clip(np.linspace(a_c - span_a, a_c + span_a, 7), 1e-4, 1 - 1e-4)
        b_g = np.clip(np.linspace(b_c - span_a, b_c + span_a, 7), 1e-4, 1 - 1e-4)
        A2, B2 = np.meshgrid(a_g, b_g, indexing="ij")
        keep = B2 <= A2
        alphas, betas = A2[keep], B2[keep]
    y_list = y.tolist()

    def obj(p: np.ndarray) -> float:
        a, b, l, bb = p
        if not (1e-6 < a < 1 - 1e-6) or not (1e-6 < b <= a):
            return _PENALTY
        return _holt_sse_fast(float(a), float(b), float(l), float(bb), y_list)

    p, _ = nelder_mead(obj, np.array([a_c, b_c, l0, b0]), step=0.02, max_iter=100)
    return float(p[0]), float(p[1])


def hw_fit_single(y: np.ndarray, m: int) -> tuple[float, float, float]:
    """Per-series HW fit: the same grid/zoom semantics (corrected level
    recursion, round-1-winner fallback when the zoom constraint set is
    empty or all-inf) + the scalar Nelder-Mead with a Python-float SSE
    loop."""
    l0_a, b0_a, s0_a = _heuristic_seasonal_each([y], m)
    l0, b0, s0 = float(l0_a[0]), float(b0_a[0]), s0_a[0]
    if not (np.isfinite(l0) and np.isfinite(b0)):
        return np.nan, np.nan, np.nan
    a_g = np.linspace(0.05, 0.95, 7)
    bf_g = np.array([0.05, 0.3, 0.9])
    gf_g = np.array([0.05, 0.3, 0.9])
    A, BF, GF = np.meshgrid(a_g, bf_g, gf_g, indexing="ij")
    al1, be1, ga1 = A.ravel(), (A * BF).ravel(), ((1.0 - A) * GF).ravel()
    sse = _hw_sse_grid(al1, be1, ga1, l0, b0, s0, y)
    i = int(np.argmin(sse))
    a_c, b_c, g_c = al1[i], be1[i], ga1[i]
    a_g2 = np.clip(np.linspace(a_c - 0.1, a_c + 0.1, 5), 1e-4, 1 - 1e-4)
    b_g2 = np.clip(np.linspace(b_c - 0.1, b_c + 0.1, 5), 1e-4, 1 - 1e-4)
    g_g2 = np.clip(np.linspace(g_c - 0.1, g_c + 0.1, 5), 1e-4, 1 - 1e-4)
    A2, B2, G2 = np.meshgrid(a_g2, b_g2, g_g2, indexing="ij")
    keep = (B2 <= A2) & (G2 <= 1.0 - A2)
    if keep.any():
        al2, be2, ga2 = A2[keep], B2[keep], G2[keep]
        sse = _hw_sse_grid(al2, be2, ga2, l0, b0, s0, y)
        j = int(np.argmin(sse))
        # all-inf zoom keeps the round-1 winner (cohort 'pick' semantics)
        if np.isfinite(sse[j]):
            a_c, b_c, g_c = al2[j], be2[j], ga2[j]
    y_list = y.tolist()
    s0_list = s0.tolist()

    def obj(p: np.ndarray) -> float:
        a, b, g = p
        if (
            not (1e-6 < a < 1 - 1e-6)
            or not (1e-6 < b <= a)
            or not (1e-6 < g <= 1.0 - a)
        ):
            return _PENALTY
        return _hw_sse_fast(float(a), float(b), float(g), l0, b0, s0_list, y_list)

    p, _ = nelder_mead(obj, np.array([a_c, b_c, g_c]), step=0.03, max_iter=50)
    return float(p[0]), float(p[1]), float(p[2])


def garch_mu_single(x: np.ndarray, mu: float, var0: float) -> float:
    """Per-series two-round GARCH(1,1) mu fit: the NLL is a Python-float
    loop with math.log (libm), the backcast a left-to-right sum."""
    n = len(x)
    l2pi = math.log(2 * math.pi)
    tau = min(75, n)
    w = 0.94 ** np.arange(tau)
    w /= w.sum()
    q = np.array([var0 * 0.1, 0.1, 0.8])
    with np.errstate(all="ignore"):
        return _garch_mu_single_rounds(x, mu, q, w, tau, l2pi)


def _garch_mu_single_rounds(x, mu, q, w, tau, l2pi):
    n = len(x)
    for _ in range(2):
        e2 = (x - mu) ** 2
        backcast = 0.0
        for v in (w * e2[:tau]).tolist():
            backcast = backcast + v
        e2l = e2.tolist()

        def nll(p: np.ndarray) -> float:
            omega, a, b = float(p[0]), float(p[1]), float(p[2])
            if not (omega > 0 and a >= 0 and b >= 0 and a + b < 0.9999):
                return _PENALTY
            s_t = backcast
            prev = backcast
            ll = 0.0
            for e2t in e2l:
                s_t = (omega + a * prev) + b * s_t
                if s_t <= 0:
                    return _PENALTY
                ll += (l2pi + math.log(s_t)) + e2t / s_t
                prev = e2t
            half = 0.5 * ll
            return half if math.isfinite(half) else _PENALTY

        q, _ = nelder_mead(nll, q, step=0.2, max_iter=60)
        omega, a, b = float(q[0]), float(q[1]), float(q[2])
        if not (omega > 0 and a >= 0 and b >= 0 and a + b < 0.9999):
            break
        s_prev = backcast
        prev = backcast
        inv_sum = 0.0
        wx_sum = 0.0
        sig_ok = True
        for t in range(n):
            s_new = (omega + a * prev) + b * s_prev
            if not (s_new > 0 and math.isfinite(s_new)):
                sig_ok = False
            w_t = 1.0 / s_new
            inv_sum += w_t
            wx_sum += w_t * float(x[t])
            s_prev = s_new
            prev = float(e2[t])
        if not sig_ok:
            break
        if math.isfinite(wx_sum) and inv_sum > 0:
            mu = wx_sum / inv_sum
    return mu


# ---------------------------------------------------------------------------
# STL: the numpy loess the compiled stl_fit replaced, and the pre-vectorized
# SuperSmoother
# ---------------------------------------------------------------------------

def _loess_grid(y: np.ndarray, q: int) -> np.ndarray:
    """Loess (degree 1) evaluated at every observed position 0..n-1.

    Fast path for the regular grid: with an ODD window q <= n, every
    interior position has the same symmetric distance pattern, so the
    tricube-weighted local-linear fit reduces to one fixed-kernel
    correlation (the slope term vanishes at the window center). Edge
    positions (and q > n) fall back to the general evaluator.
    """
    n = len(y)
    if q > n or q % 2 == 0 or n < 3:
        return _loess_at(y, q, np.arange(n, dtype=float))
    h = (q - 1) // 2
    if h == 0:
        return y.astype(float).copy()
    d = np.abs(np.arange(-h, h + 1, dtype=float))
    w = np.clip((1.0 - (d / h) ** 3) ** 3, 0.0, None) if h > 0 else np.ones(1)
    w = w / w.sum()
    out = np.empty(n)
    interior = np.correlate(y, w[::-1], mode="valid")  # length n - q + 1
    out[h : n - h] = interior
    # edges: every position < h shares the window [0, q) (the q nearest
    # points pin to the boundary), so both edges vectorize over a fixed
    # window just like the interior
    out[:h] = _loess_fixed_window(y[:q], np.arange(h, dtype=float), 0.0)
    out[n - h :] = _loess_fixed_window(
        y[n - q :], np.arange(n - h, n, dtype=float), float(n - q)
    )
    return out


def _loess_fixed_window(
    ywin: np.ndarray, eval_pos: np.ndarray, win_start: float
) -> np.ndarray:
    """Loess (degree 1, tricube) of a FIXED window of points at positions
    win_start..win_start+len(ywin)-1, evaluated at ``eval_pos`` --
    vectorized across eval positions."""
    qn = len(ywin)
    pos = win_start + np.arange(qn, dtype=float)
    d = np.abs(pos[None, :] - eval_pos[:, None])
    dmax = d.max(axis=1)
    dmax = np.where(dmax <= 0, 1.0, dmax)
    w = np.clip(1.0 - (d / dmax[:, None]) ** 3, 0.0, None) ** 3
    sw = w.sum(axis=1)
    w = w / np.where(sw > 0, sw, 1.0)[:, None]
    xbar = w @ pos
    ybar = w @ ywin
    dev = pos[None, :] - xbar[:, None]
    ssx = (w * dev**2).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = (w * dev * ywin[None, :]).sum(axis=1) / ssx
    lin = ybar + slope * (eval_pos - xbar)
    use_lin = np.sqrt(np.maximum(ssx, 0.0)) > 1e-3 * np.maximum(dmax, 1.0)
    return np.where(use_lin & np.isfinite(lin), lin, ybar)


def _loess_at(y: np.ndarray, q: int, eval_pos: np.ndarray) -> np.ndarray:
    """Loess (degree 1) of y (observed at positions 0..n-1) evaluated at
    ``eval_pos`` (may include -1 / n for STL cycle-subseries extension).

    Window = q nearest observed points; when q > n all points are used
    and the max distance is inflated by (q - n) / 2 (Cleveland's rule).
    """
    n = len(y)
    pos = np.arange(n, dtype=float)
    out = np.empty(len(eval_pos))
    qq = min(q, n)
    if q >= n and n >= 1:
        # window == all points for every eval position: fully vectorized
        # across eval positions (the common case for short STL
        # cycle-subseries, where q=13 exceeds the subseries length)
        ep = np.asarray(eval_pos, dtype=float)
        d = np.abs(pos[None, :] - ep[:, None])
        dmax = d.max(axis=1) + (q - n) / 2.0
        dmax = np.where(dmax <= 0, 1.0, dmax)
        w = np.clip(1.0 - (d / dmax[:, None]) ** 3, 0.0, None) ** 3
        sw = w.sum(axis=1)
        w = w / np.where(sw > 0, sw, 1.0)[:, None]
        xbar = w @ pos
        ybar = w @ y
        dev = pos[None, :] - xbar[:, None]
        ssx = (w * dev**2).sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = (w * dev * y[None, :]).sum(axis=1) / ssx
        lin = ybar + slope * (ep - xbar)
        use_lin = np.sqrt(np.maximum(ssx, 0.0)) > 1e-3 * np.maximum(dmax, 1.0)
        return np.where(use_lin & np.isfinite(lin), lin, ybar)
    for k, xe in enumerate(eval_pos):
        # nearest-q contiguous window around xe
        lo = int(np.clip(round(xe) - (qq - 1) // 2, 0, n - qq))
        # shift window so it truly holds the q nearest points
        while lo > 0 and xe - pos[lo - 1] < pos[lo + qq - 1] - xe:
            lo -= 1
        while lo + qq < n and pos[lo + qq] - xe < xe - pos[lo]:
            lo += 1
        w_pos = pos[lo : lo + qq]
        w_y = y[lo : lo + qq]
        d = np.abs(w_pos - xe)
        dmax = d.max()
        if q > n:
            dmax += (q - n) / 2.0
        if dmax <= 0:
            out[k] = w_y.mean()
            continue
        w = (1.0 - (d / dmax) ** 3) ** 3
        w = np.clip(w, 0.0, None)
        sw = w.sum()
        if sw <= 0:
            out[k] = w_y.mean()
            continue
        w /= sw
        xbar = np.dot(w, w_pos)
        ybar = np.dot(w, w_y)
        ssx = np.dot(w, (w_pos - xbar) ** 2)
        if np.sqrt(ssx) > 1e-3 * max(dmax, 1.0):
            slope = np.dot(w, (w_pos - xbar) * w_y) / ssx
            out[k] = ybar + slope * (xe - xbar)
        else:
            out[k] = ybar
    return out


def _moving_average(x: np.ndarray, w: int) -> np.ndarray:
    c = np.concatenate([[0.0], np.cumsum(x)])
    return (c[w:] - c[:-w]) / w


def stl_decompose_numpy(x: np.ndarray, period: int, seasonal: int = 13):
    """The numpy STL inner loop stl_fit replaced. Returns (trend,
    seasonal_component, resid)."""
    y = np.asarray(x, dtype=float)
    n = len(y)
    m = int(period)
    if m < 2:
        raise ValueError("period must be >= 2")
    if n < 2 * m:
        raise ValueError("series must span at least 2 periods")
    n_s = seasonal
    n_t = _next_odd_gt(1.5 * m / (1.0 - 1.5 / n_s))
    n_l = _next_odd_gt(float(m))

    trend = np.zeros(n)
    season = np.zeros(n)
    for _ in range(2):  # inner iterations (non-robust default)
        detrended = y - trend
        # cycle-subseries smoothing, extended one period each side
        C = np.empty(n + 2 * m)
        for k in range(m):
            sub = detrended[k::m]
            n_k = len(sub)
            if n_s < n_k:
                # body via the vectorized grid smoother; the two
                # extension points use the boundary-pinned fixed windows
                qn = n_s
                sm = np.concatenate(
                    [
                        _loess_fixed_window(sub[:qn], np.array([-1.0]), 0.0),
                        _loess_grid(sub, n_s),
                        _loess_fixed_window(
                            sub[n_k - qn :], np.array([float(n_k)]), float(n_k - qn)
                        ),
                    ]
                )
            else:
                eval_pos = np.arange(-1, n_k + 1, dtype=float)
                sm = _loess_at(sub, n_s, eval_pos)
            # positions in C: index k + m*(j+1) corresponds to sub[j];
            # extension j=-1 -> index k, j=n_k -> index k + m*(n_k+1)
            idxs = k + m * np.arange(0, n_k + 2)
            keep = idxs < len(C)
            C[idxs[keep]] = sm[: keep.sum()]
        # low-pass filter: MA(m) x2, MA(3), then loess(n_l)
        L = _moving_average(_moving_average(_moving_average(C, m), m), 3)
        L = _loess_grid(L, n_l)
        season = C[m : n + m] - L
        deseason = y - season
        trend = _loess_grid(deseason, n_t)
    resid = y - trend - season
    return trend, season, resid


def supersmoother_fit_loop(y: np.ndarray) -> np.ndarray:
    """supersmoother_fit with its per-point span interpolation loop."""
    y = np.asarray(y, dtype=float)
    n = len(y)
    spans = np.array([0.05, 0.2, 0.5])
    if n < 6:
        # degenerate: fall back to the global line
        _, resid, fitted = ols_fit(np.arange(n, dtype=float), y)
        return fitted
    fits, cvs = [], []
    for s in spans:
        f, cv = _linear_smooth_cv(y, s)
        fits.append(f)
        cvs.append(_fixed_smooth(cv, 0.2))  # smooth |cv resid| at midrange
    fits = np.array(fits)
    cvs = np.array(cvs)
    best = np.argmin(cvs, axis=0)
    span_best = spans[best]
    span_sm = _fixed_smooth(span_best, 0.2)
    span_sm = np.clip(span_sm, spans[0], spans[-1])
    # interpolate between the bracketing primary fits
    out = np.empty(n)
    for i in range(n):
        s = span_sm[i]
        jhi = int(np.searchsorted(spans, s))
        if jhi == 0:
            out[i] = fits[0, i]
        elif jhi >= len(spans):
            out[i] = fits[-1, i]
        else:
            jlo = jhi - 1
            frac = (s - spans[jlo]) / (spans[jhi] - spans[jlo])
            out[i] = fits[jlo, i] * (1 - frac) + fits[jhi, i] * frac
    return _fixed_smooth(out, 0.05)


# ---------------------------------------------------------------------------
# STL: a Python-float port of _steps.c stl_fit, statement by statement
# ---------------------------------------------------------------------------

def _loess_at_port(yw, q, x0, e, pad):
    w = [abs((x0 + float(j)) - e) for j in range(q)]
    dmax = 0.0
    for d in w:
        dmax = d if d > dmax else dmax
    dmax = dmax + pad
    if dmax <= 0.0:
        dmax = 1.0
    sw = 0.0
    for j in range(q):
        u = w[j] / dmax
        t = 1.0 - u * u * u
        t = t if t > 0.0 else 0.0
        w[j] = t * t * t
        sw = sw + w[j]
    if not sw > 0.0:
        sw = 1.0
    xbar = ybar = ssx = sxy = 0.0
    for j in range(q):
        w[j] = w[j] / sw
        xbar = xbar + w[j] * (x0 + float(j))
        ybar = ybar + w[j] * yw[j]
    for j in range(q):
        dev = (x0 + float(j)) - xbar
        ssx = ssx + w[j] * (dev * dev)
        sxy = sxy + w[j] * dev * yw[j]
    if math.sqrt(ssx if ssx > 0.0 else 0.0) > 1e-3 * (dmax if dmax > 1.0 else 1.0):
        lin = ybar + sxy / ssx * (e - xbar)  # ssx > 0 here
        if math.isfinite(lin):
            return lin
    return ybar


def _loess_grid_port(y, q):
    n = len(y)
    if q > n:
        return [_loess_at_port(y, n, 0.0, float(i), float(q - n) / 2.0) for i in range(n)]
    h = (q - 1) // 2
    w = []
    sw = 0.0
    for j in range(q):
        u = abs(float(j - h)) / float(h)
        t = 1.0 - u * u * u
        w.append(t * t * t)
        sw = sw + w[j]
    w = [wj / sw for wj in w]
    out = [0.0] * n
    for i in range(h, n - h):
        s = 0.0
        for j in range(q):
            s = s + w[j] * y[i - h + j]
        out[i] = s
    for i in range(h):
        out[i] = _loess_at_port(y[:q], q, 0.0, float(i), 0.0)
        out[n - h + i] = _loess_at_port(y[n - q:], q, float(n - q), float(n - h + i), 0.0)
    return out


def _moving_average_port(x, k):
    cs = [0.0, x[0]]
    for v in x[1:]:
        cs.append(cs[-1] + v)
    return [(cs[j + k] - cs[j]) / float(k) for j in range(len(x) - k + 1)]


def stl_fit_port(y, m, ns, nt, nl):
    """(trend, season) lists for one lane, in stl_fit's operation order."""
    y = [float(v) for v in y]
    n = len(y)
    tr = [0.0] * n
    se = [0.0] * n
    for _ in range(2):
        c = [0.0] * (n + 2 * m)
        for k in range(m):
            sub = [y[i] - tr[i] for i in range(k, n, m)]
            nk = len(sub)
            if ns < nk:
                sm = ([_loess_at_port(sub, ns, 0.0, -1.0, 0.0)]
                      + _loess_grid_port(sub, ns)
                      + [_loess_at_port(sub[nk - ns:], ns, float(nk - ns), float(nk), 0.0)])
            else:
                sm = [_loess_at_port(sub, nk, 0.0, float(j), float(ns - nk) / 2.0)
                      for j in range(-1, nk + 1)]
            for j, v in enumerate(sm):
                c[k + m * j] = v
        low = _moving_average_port(_moving_average_port(_moving_average_port(c, m), m), 3)
        low = _loess_grid_port(low, nl)
        se = [c[m + j] - low[j] for j in range(n)]
        tr = _loess_grid_port([y[j] - se[j] for j in range(n)], nt)
    return tr, se


# ---------------------------------------------------------------------------
# the numpy paths the compiled primitives replaced
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


def heuristic_level_trend(y: np.ndarray) -> tuple[float, float]:
    """OLS line through the first min(10, n) observations."""
    k = min(10, len(y))
    t = np.arange(k, dtype=float)
    A = np.column_stack([np.ones(k), t])
    coef, _, _, _ = np.linalg.lstsq(A, y[:k], rcond=None)
    return float(coef[0]), float(coef[1])



def heuristic_seasonal(y: np.ndarray, m: int) -> tuple[float, float, np.ndarray]:
    """Hyndman-style heuristic: centered-MA detrend over the first cycles ->
    seasonal indices (sum 0); level/trend line from the adjusted series."""
    n = len(y)
    ncycles = min(5, n // m)
    yy = y[: ncycles * m]
    # centered moving average of window m
    if m % 2 == 0:
        kernel = np.concatenate([[0.5], np.ones(m - 1), [0.5]]) / m
    else:
        kernel = np.ones(m) / m
    trend = np.convolve(yy, kernel, mode="valid")
    pad = (len(yy) - len(trend)) // 2
    detr = yy[pad : pad + len(trend)] - trend
    idx = (np.arange(pad, pad + len(trend))) % m
    s = np.zeros(m)
    for j in range(m):
        vals = detr[idx == j]
        s[j] = vals.mean() if len(vals) else 0.0
    s -= s.mean()
    adj = y - s[np.arange(n) % m]
    l0, b0 = heuristic_level_trend(adj)
    return l0, b0, s



def embed(x: np.ndarray, p: int) -> np.ndarray:
    """R-style embedding matrix (reference utils.py:45-62).

    Row i = [x[i+p-1], x[i+p-2], ..., x[i]]; shape (n-p+1, p).
    """
    x = np.asarray(x)
    out = np.empty((len(x) - p + 1, p), dtype=x.dtype)
    for k in range(p):
        out[:, k] = x[p - 1 - k : len(x) - k]
    return out


def poly_numpy(x: np.ndarray, p: int) -> np.ndarray:
    """Orthogonal polynomials of degree 1..p via QR (reference utils.py:25-43)."""
    X = np.transpose(np.vstack([x.astype(float) ** k for k in range(p + 1)]))
    return np.linalg.qr(X)[0][:, 1:]


def acovf_biased(x: np.ndarray, nlags: int) -> np.ndarray:
    """Biased sample autocovariance gamma_0..gamma_nlags (divide by n).

    Matches statsmodels acovf(adjusted=False) which underlies
    acf(fft=False) and pacf(method='ldb').
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    xm = x - (x.mean() if n else 0.0)  # empty: no lags (and no warning)
    nlags = min(nlags, n - 1)
    # FFT-free direct computation (vectorized dot per lag; nlags is small)
    out = np.empty(nlags + 1)
    for k in range(nlags + 1):
        out[k] = np.dot(xm[: n - k], xm[k:]) / n
    return out


def acf(x: np.ndarray, nlags: int) -> np.ndarray:
    """Autocorrelation function, statsmodels ``acf(x, nlags, fft=False)``.

    Returns array of length min(nlags, n-1)+1 with acf[0] == 1.
    """
    acov = acovf_biased(x, nlags)
    with np.errstate(divide="ignore", invalid="ignore"):
        return acov / acov[0]


def pacf_ldb(x: np.ndarray, nlags: int) -> np.ndarray:
    """Partial ACF via Levinson-Durbin on biased autocovariance.

    Matches statsmodels ``pacf(x, nlags=nlags, method='ldb')``
    (reference tsfeatures.py:535, 548, 557). Returns length nlags+1,
    pacf[0] == 1. Raises on degenerate (zero-variance) input like the
    statsmodels recursion would produce inf/nan.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    if nlags >= n:
        raise ValueError("nlags must be < len(x)")
    acov = acovf_biased(x, nlags)
    pacf = np.empty(nlags + 1)
    pacf[0] = 1.0
    phi = np.zeros((nlags + 1, nlags + 1))
    sig = np.zeros(nlags + 1)
    if nlags >= 1:
        with np.errstate(divide="ignore", invalid="ignore"):
            phi[1, 1] = acov[1] / acov[0]
        sig[1] = acov[0] - phi[1, 1] * acov[1]
        pacf[1] = phi[1, 1]
    for k in range(2, nlags + 1):
        with np.errstate(divide="ignore", invalid="ignore"):
            phi[k, k] = (acov[k] - np.dot(phi[1:k, k - 1], acov[1:k][::-1])) / sig[k - 1]
        for j in range(1, k):
            phi[j, k] = phi[j, k - 1] - phi[k, k] * phi[k - j, k - 1]
        sig[k] = sig[k - 1] * (1.0 - phi[k, k] ** 2)
        pacf[k] = phi[k, k]
    return pacf


def ols_fit(X: np.ndarray, y: np.ndarray, add_intercept: bool = True):
    """OLS via lstsq. Returns (params, resid, fitted).

    With ``add_intercept`` the intercept is the FIRST parameter,
    matching statsmodels ``add_constant`` + ``OLS`` ordering.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if add_intercept:
        X = np.column_stack([np.ones(len(X)), X])
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        # fail fast (callers' except->NaN paths); avoids LAPACK stderr noise
        raise ValueError("non-finite values in OLS input")
    params, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
    fitted = X @ params
    return params, y - fitted, fitted


def ols_r2(X: np.ndarray, y: np.ndarray) -> float:
    """R^2 of OLS with intercept (sklearn LinearRegression().score)."""
    _, resid, _ = ols_fit(X, y, add_intercept=True)
    ssr = float(np.sum(resid**2))
    sst = float(np.sum((y - y.mean()) ** 2))
    if sst == 0.0:
        # sklearn returns 1.0 when the model is perfect, 0.0-ish otherwise;
        # for constant y with perfect fit r2 = 1. Mirror sklearn behavior.
        return 1.0 if ssr < 1e-12 else 0.0
    return 1.0 - ssr / sst


def ar_by_aic_resid(x: np.ndarray) -> np.ndarray:
    """Whiten x with an AR(p) model, p chosen by AIC (trend='c').

    Lag selection via ONE reduced QR of the full-maxlag design matrix:
    the candidate models are nested (columns [const, lag1..lagk] are a
    prefix of [const, lag1..lagmaxlag]), so RSS_k = ||y||^2 - sum_{j<=k}
    (q_j.y)^2 gives every candidate's sigma^2 from a single
    factorization instead of maxlag separate lstsq solves (the AR stage
    was the heterogeneity kernel's second-largest cost). Ties/guards
    mirror the loop form: strict-improvement argmin, sigma2<=0 skipped,
    non-finite falls back to the per-lag lstsq path."""
    n = len(x)
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite input")
    maxlag = int(min(n - 1, np.floor(10 * np.log10(n)))) if n else 0
    if maxlag < 1:
        raise ValueError("series too short for AR fit")
    # candidate fits share the sample conditioned at maxlag
    mat = embed(x, maxlag + 1)  # rows: [x_t, x_{t-1}, ..., x_{t-maxlag}]
    y = mat[:, 0]
    nobs = len(y)
    lag = None
    if nobs > maxlag + 1:  # QR prefix-RSS needs a tall design matrix
        try:
            X = np.column_stack([np.ones(nobs), mat[:, 1:]])
            q, _ = np.linalg.qr(X, mode="reduced")
            qty = q.T @ y
            rss = float(y @ y) - np.cumsum(qty**2)
            sigma2 = rss[1:] / nobs  # candidate k uses columns 0..k
            # ||y||^2 - cumsum can cancel to a small NEGATIVE value for
            # near-perfectly-fitting lags; the lstsq path would compute a
            # tiny positive sigma2 and could select such a candidate, so
            # a negative rss must route to the fallback loop rather than
            # silently excluding the candidate via aic=inf
            if np.any(sigma2 < 0):
                sigma2 = np.array([np.nan])  # force the lstsq fallback
            if np.all(np.isfinite(sigma2)):
                with np.errstate(divide="ignore", invalid="ignore"):
                    aic = np.log(sigma2) + 2.0 * (np.arange(1, maxlag + 1) + 1) / nobs
                aic = np.where(sigma2 > 0, aic, np.inf)
                k = int(np.argmin(aic))
                lag = k + 1 if np.isfinite(aic[k]) else 1
        except np.linalg.LinAlgError:
            pass
    if lag is None:  # degenerate design: per-lag lstsq fallback
        best = (np.inf, 1)
        for cand in range(1, maxlag + 1):
            X = np.column_stack([np.ones(nobs), mat[:, 1 : cand + 1]])
            params, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
            resid = y - X @ params
            s2 = float(np.sum(resid**2)) / nobs
            if s2 <= 0:
                continue
            a = np.log(s2) + 2.0 * (cand + 1) / nobs
            if a < best[0]:
                best = (a, cand)
        lag = best[1]
    # refit the winner on its own full conditional sample
    mat = embed(x, lag + 1)
    y = mat[:, 0]
    X = np.column_stack([np.ones(len(y)), mat[:, 1 : lag + 1]])
    params, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
    return y - X @ params


def acf_features_numpy(x: np.ndarray, freq: int = 1) -> dict:
    """Autocorrelation features (reference tsfeatures.py:35-101)."""
    x = np.asarray(x, dtype=float)
    m = freq
    size_x = len(x)

    try:
        acfx = acf(x, nlags=max(m, 10))
    except Exception:
        acfx = np.array([np.nan])
    if size_x > 10:
        acfdiff1x = acf(np.diff(x, n=1), nlags=10)
    else:
        acfdiff1x = np.array([np.nan] * 2)
    if size_x > 11:
        acfdiff2x = acf(np.diff(x, n=2), nlags=10)
    else:
        acfdiff2x = np.array([np.nan] * 2)

    try:
        acf_1 = acfx[1]
    except IndexError:
        acf_1 = np.nan
    sum_of_sq_acf10 = float(np.sum(acfx[1:11] ** 2)) if size_x > 10 else np.nan
    diff1_acf1 = acfdiff1x[1] if len(acfdiff1x) > 1 else np.nan
    diff1_acf10 = float(np.sum(acfdiff1x[1:11] ** 2)) if size_x > 10 else np.nan
    diff2_acf1 = acfdiff2x[1] if len(acfdiff2x) > 1 else np.nan
    diff2_acf10 = float(np.sum(acfdiff2x[1:11] ** 2)) if size_x > 11 else np.nan

    output = {
        "x_acf1": float(acf_1),
        "x_acf10": sum_of_sq_acf10,
        "diff1_acf1": float(diff1_acf1),
        "diff1_acf10": diff1_acf10,
        "diff2_acf1": float(diff2_acf1),
        "diff2_acf10": diff2_acf10,
    }
    if m > 1:
        output["seas_acf1"] = float(acfx[m]) if len(acfx) > m else np.nan
    return output


def arch_stat_numpy(x: np.ndarray, freq: int = 1, lags: int = 12, demean: bool = True) -> dict:
    """R^2 of x_t^2 on its first 12 lags (reference tsfeatures.py:103-134)."""
    x = np.asarray(x, dtype=float)
    if len(x) <= lags + 1:
        return {"arch_lm": np.nan}
    if demean:
        x = x - np.mean(x)
    mat = embed(x**2, lags + 1)
    X = mat[:, 1:]
    y = mat[:, 0]
    try:
        r_squared = ols_r2(X, y)
    except Exception:
        r_squared = np.nan
    return {"arch_lm": float(r_squared)}


class _UpperEnvelope:
    """Upper envelope of lines f_j(m) = y[j] - t[j]*m added with strictly
    DECREASING slopes (-t[j]); queries at arbitrary m in O(log n).

    Hull lines are kept in addition order; consecutive breakpoints
    bps[k] = intersection(hull[k], hull[k+1]) are non-increasing, so the
    winner at m is the first hull line whose breakpoint is <= m.
    """

    __slots__ = ("y", "t", "hull", "negbps")

    def __init__(self, y, t):
        self.y, self.t = y, t
        self.hull: list[int] = []
        self.negbps: list[float] = []  # negated breakpoints, increasing

    def _inter(self, a: int, b: int) -> float:
        return (self.y[b] - self.y[a]) / (self.t[b] - self.t[a])

    def add(self, j: int) -> None:
        hull, negbps = self.hull, self.negbps
        while hull:
            x_new = self._inter(hull[-1], j)
            # hull[-1] wins only on [x_prev_pair, +inf) vs its neighbor
            # and on [x_new, +inf) vs j; empty interval -> pop
            if negbps and -x_new <= negbps[-1]:
                hull.pop()
                negbps.pop()
                continue
            negbps.append(-x_new)
            break
        self.hull.append(j)

    def query(self, m: float) -> float:
        k = bisect_left(self.negbps, -m)
        j = self.hull[k]
        return self.y[j] - self.t[j] * m


def _prefix_ptp_envelope(y: np.ndarray, t: np.ndarray, mean_t: np.ndarray) -> np.ndarray:
    """r_t[i] = max_{j<=i}(y[j]-t[j]*m_i) - min_{j<=i}(y[j]-t[j]*m_i) in
    O(n log n). min via negation: min f = -max(-y[j] - t[j]*(-m))."""
    n = len(y)
    yl = y.tolist()
    tl = t.tolist()
    yneg = (-y).tolist()
    env_max = _UpperEnvelope(yl, tl)
    env_min = _UpperEnvelope(yneg, tl)
    ml = mean_t.tolist()
    r = np.empty(n)
    for i in range(n):
        env_max.add(i)
        env_min.add(i)
        m = ml[i]
        r[i] = env_max.query(m) + env_min.query(-m)
    return r


def hurst_numpy(x: np.ndarray, freq: int = 1) -> dict:
    """Rescaled-range Hurst exponent (reference tsfeatures.py:370-390,
    utils.py:131-162).

    Vectorized: s_t via prefix sums (identical values to the reference's
    per-prefix loop); r_t via chunked broadcasting (O(n^2) work like the
    reference, but NumPy-vectorized; memory bounded by the chunk size).
    """
    x = np.asarray(x, dtype=float)
    try:
        n = x.size
        t = np.arange(1, n + 1, dtype=float)
        y = x.cumsum()
        mean_t = y / t
        with np.errstate(invalid="ignore", divide="ignore"):
            s_t = np.sqrt(np.maximum(np.cumsum(x**2) / t - mean_t**2, 0.0))
            if n <= 2000:
                r_t = np.empty(n)
                chunk = max(1, int(2_000_000 // max(n, 1)))
                for lo in range(0, n, chunk):
                    hi = min(lo + chunk, n)
                    idx = np.arange(lo, hi)
                    # dev[i, j] = y[j] - (j+1) * mean_t[i]; ptp of each
                    # row's prefix j <= i via running cummax/cummin and
                    # the diagonal entry
                    dev = y[None, :hi] - t[None, :hi] * mean_t[idx, None]
                    cmax = np.maximum.accumulate(dev, axis=1)
                    cmin = np.minimum.accumulate(dev, axis=1)
                    r_t[lo:hi] = (
                        cmax[np.arange(hi - lo), idx] - cmin[np.arange(hi - lo), idx]
                    )
            else:
                # O(n log n): dev_j(m) = y[j] - t_j*m is a line in m; the
                # prefix max/min over j <= i is an upper/lower envelope of
                # lines added in strictly decreasing slope order (slope
                # -t_j), queried at m_i. The envelope evaluates the SAME
                # expression y[j] - t_j*m as the brute force, so values
                # are bit-identical. (SURVEY.md §2.1 row 11.)
                r_t = _prefix_ptp_envelope(y, t, mean_t)
            r_s = np.log(r_t / s_t)[1:]
        logt = np.log(t)[1:]
        if not np.all(np.isfinite(r_s)):
            # reference: lstsq on nan/inf raises -> except -> nan
            raise FloatingPointError("non-finite R/S")
        a = np.column_stack((logt, np.ones(logt.size)))
        h, _ = np.linalg.lstsq(a, r_s, rcond=-1)[0]
        h = float(h)
    except Exception:
        h = np.nan
    return {"hurst": h}


def tiled_stat_loop(x: np.ndarray, freq: int, stat) -> float:
    """Shared tiling for lumpiness/stability (reference tsfeatures.py:448-479,
    614-645): floor(n/width) full tiles, trailing remainder dropped."""
    width = 10 if freq == 1 else freq
    nr = len(x)
    nsegs = int(nr / width)
    if nr < 2 * width:
        return 0.0
    vals = [stat(x[i * width : (i + 1) * width]) for i in range(nsegs)]
    return float(np.nanvar(vals, ddof=1))


def nonlinearity_numpy(x: np.ndarray, freq: int = 1) -> dict:
    """Terasvirta neural-network test (reference tsfeatures.py:481-503,
    utils.py:68-129; lag=1, scale=True)."""
    x = np.asarray(x, dtype=float)
    try:
        z = scalets(x)
        size_x = len(z)
        ymat = embed(z, 2)
        X = ymat[:, 1:]
        yv = ymat[:, 0]
        _, u, _ = ols_fit(X, yv, add_intercept=True)
        ssr0 = float((u**2).sum())
        x1 = X[:, 0]
        X_nn = np.column_stack([x1, x1**2, x1**3])
        _, v, _ = ols_fit(X_nn, u, add_intercept=True)
        ssr = float((v**2).sum())
        stat = size_x * log(ssr0 / ssr)
        test = 10.0 * stat / size_x
    except Exception:
        test = np.nan
    return {"nonlinearity": float(test)}


def pacf_features_numpy(x: np.ndarray, freq: int = 1) -> dict:
    """Partial autocorrelation features (reference tsfeatures.py:505-576).

    statsmodels pacf raises when nlags >= n // 2; we replicate that gate
    so short seasonal series degrade to NaN exactly like the reference.
    """
    x = np.asarray(x, dtype=float)
    m = freq
    nlags_ = max(m, 5)

    def _pacf(arr: np.ndarray, nlags: int) -> np.ndarray:
        if nlags >= len(arr) // 2:
            raise ValueError("nlags must be < 50% of sample size")
        return pacf_ldb(arr, nlags)

    if len(x) > 1:
        try:
            pacfx = _pacf(x, nlags_)
        except Exception:
            pacfx = np.array(np.nan)
    else:
        pacfx = np.array(np.nan)

    if len(x) > 5 and not np.all(np.isnan(pacfx)):
        pacf_5 = float(np.sum(pacfx[1:6] ** 2))
    else:
        pacf_5 = np.nan

    if len(x) > 6:
        try:
            diff1_pacf = _pacf(np.diff(x, n=1), 5)[1:6]
            diff1_pacf_5 = float(np.sum(diff1_pacf**2))
        except Exception:
            diff1_pacf_5 = np.nan
    else:
        diff1_pacf_5 = np.nan

    if len(x) > 7:
        try:
            diff2_pacf = _pacf(np.diff(x, n=2), 5)[1:6]
            diff2_pacf_5 = float(np.sum(diff2_pacf**2))
        except Exception:
            diff2_pacf_5 = np.nan
    else:
        diff2_pacf_5 = np.nan

    output = {
        "x_pacf5": pacf_5,
        "diff1x_pacf5": diff1_pacf_5,
        "diff2x_pacf5": diff2_pacf_5,
    }
    if m > 1:
        try:
            output["seas_pacf"] = float(pacfx[m]) if pacfx.ndim and len(pacfx) > m else np.nan
        except Exception:
            output["seas_pacf"] = np.nan
    return output


def unitroot_pp_numpy(x: np.ndarray, freq: int = 1) -> dict:
    """Phillips-Perron rho statistic (reference tsfeatures.py:818-838,
    utils.py:164-213, ported to pure NumPy)."""
    x = np.asarray(x, dtype=float)
    try:
        n = len(x)
        lmax = int(4 * (n / 100) ** 0.25)
        y, y_l1 = x[1:], x[: n - 1]
        n -= 1
        if n < 1:
            raise ValueError("series too short")
        params, res, _ = ols_fit(y_l1, y, add_intercept=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            s = 1.0 / (n * np.sum(res**2))
            myybar = (1.0 / n**2) * float(((y - y.mean()) ** 2).sum())
            coprods = np.array(
                [float(np.sum(res[i + 1 :] * res[: n - i - 1])) for i in range(lmax)]
            )
            weights = 1.0 - (np.arange(lmax) + 1.0) / (lmax + 1.0)
            sig = s + (2.0 / n) * float((weights * coprods).sum())
            lambda_ = 0.5 * (sig - s)
            alpha = params[1]
            test_stat = n * (alpha - 1.0) - lambda_ / myybar
        test_stat = float(test_stat)
    except Exception:
        test_stat = np.nan
    return {"unitroot_pp": test_stat}


def stl_row_numpy(x: np.ndarray, m: int, dec) -> dict:
    """stl_features of one series given its STL (trend, seasonal
    component), or None where STL could not run; a row that cannot be
    computed holds only nperiods and seasonal_period."""
    head = {"nperiods": float(m > 1), "seasonal_period": float(m)}
    if m > 1:
        if dec is None:
            return head
        trend0, seasonal = dec
        remainder = x - trend0 - seasonal
    else:
        try:
            if len(x) < 4:
                raise ValueError("too short for supersmoother")
            trend0 = supersmoother_fit(x)
        except Exception:
            return head
        remainder = x - trend0
        seasonal = np.zeros(len(x))

    deseason = x - seasonal
    n = len(x)
    varx = np.nanvar(x, ddof=1)
    vare = np.nanvar(remainder, ddof=1)
    vardeseason = np.nanvar(deseason, ddof=1)

    if varx < np.finfo(float).eps:
        trend_strength = 0.0
    elif vardeseason / varx < 1e-10:
        trend_strength = 0.0
    else:
        trend_strength = max(0.0, min(1.0, 1.0 - vare / vardeseason))

    if m > 1:
        denom = np.nanvar(remainder + seasonal, ddof=1)
        if varx < np.finfo(float).eps or denom < np.finfo(float).eps:
            season_strength = 0.0
        else:
            season_strength = max(0.0, min(1.0, 1.0 - vare / denom))
        peak = (int(np.argmax(seasonal)) + 1) % m
        peak = m if peak == 0 else peak
        trough = (int(np.argmin(seasonal)) + 1) % m
        trough = m if trough == 0 else trough

    d = (remainder - np.nanmean(remainder)) ** 2
    varloo = (vare * (n - 1) - d) / (n - 2)
    spike = float(np.nanvar(varloo, ddof=1))

    time = np.arange(n) + 1
    poly_m = poly_numpy(time, 2)
    coefs, _, _ = ols_fit(poly_m, trend0, add_intercept=True)
    linearity = float(coefs[1]) if len(coefs) > 1 else np.nan
    curvature = float(-coefs[2]) if len(coefs) > 2 else np.nan

    acfremainder = acf_features_numpy(remainder, m)
    output = {
        **head,
        "trend": float(trend_strength),
        "spike": spike,
        "linearity": linearity,
        "curvature": curvature,
        "e_acf1": acfremainder["x_acf1"],
        "e_acf10": acfremainder["x_acf10"],
    }
    if m > 1:
        output["seasonal_strength"] = float(season_strength)
        output["peak"] = float(peak)
        output["trough"] = float(trough)
    return output


# ---------------------------------------------------------------------------
# Python-float ports of _steps.c lsq and acovf, and the numpy R/S range
# ---------------------------------------------------------------------------

def _lsq1_port(m, q, X, y, want_q=False):
    """lsq1 for one lane, statement by statement: (coef, rss, resid, Q
    columns or None)."""
    w = q + 1
    a = [[float(X[t][k]) for k in range(q)] + [float(y[t])] for t in range(m)]
    cmax = 0.0
    for k in range(q):
        ss = 0.0
        for t in range(m):
            ss = ss + a[t][k] * a[t][k]
        cmax = math.sqrt(ss) if math.sqrt(ss) > cmax else cmax
    tol = 2.220446049250313e-16 * float(max(m, q)) * cmax
    piv, dep, tau, r = [], [], [], 0
    for k in range(q):
        alpha = a[r][k] if r < m else 0.0
        xs = 0.0
        for t in range(r + 1, m):
            xs = xs + a[t][k] * a[t][k]
        norm = math.sqrt(alpha * alpha + xs)
        if r >= m or not norm > tol:
            dep.append((k, r))
            continue
        tau.append(0.0)
        if xs > 0.0:
            beta = -norm if alpha >= 0.0 else norm
            sc = 1.0 / (alpha - beta)
            tau[r] = (beta - alpha) / beta
            for t in range(r + 1, m):
                a[t][k] = a[t][k] * sc
            a[r][k] = beta
            wk = {j: a[r][j] for j in range(k + 1, w)}
            for t in range(r + 1, m):
                for j in range(k + 1, w):
                    wk[j] = wk[j] + a[t][k] * a[t][j]
            for j in range(k + 1, w):
                wk[j] = -tau[r] * wk[j]
                a[r][j] = a[r][j] + wk[j]
            for t in range(r + 1, m):
                for j in range(k + 1, w):
                    a[t][j] = a[t][j] + a[t][k] * wk[j]
        piv.append(k)
        r += 1
    b = [a[t][q] for t in range(m)]
    tail = []
    for s_ in range(r + 1):
        ss = 0.0
        for t in range(s_, m):
            ss = ss + b[t] * b[t]
        tail.append(ss)
    rss, coef, s_ = [], [0.0] * q, 0
    for k in range(q):
        s_ += s_ < r and piv[s_] == k
        rss.append(tail[s_])
    for s_ in range(r - 1, -1, -1):
        v = b[s_]
        for u in range(s_ + 1, r):
            v = v - a[s_][piv[u]] * coef[piv[u]]
        coef[piv[s_]] = v / a[s_][piv[s_]]
    if dep and r:
        d = len(dep)
        M = [[0.0] * d for _ in range(r + d)]
        for e, (j, rj) in enumerate(dep):
            wv = [0.0] * r
            for s_ in range(r - 1, -1, -1):
                v = a[s_][j] if s_ < rj else 0.0
                for u in range(s_ + 1, r):
                    v = v - a[s_][piv[u]] * wv[u]
                wv[s_] = v / a[s_][piv[s_]]
            for s_ in range(r):
                M[s_][e] = wv[s_]
            M[r + e][e] = 1.0
        rhs = [coef[piv[s_]] for s_ in range(r)] + [0.0] * d
        x2 = _lsq1_port(r + d, d, M, rhs)[0]
        for s_ in range(r):
            v = coef[piv[s_]]
            for e in range(d):
                v = v - M[s_][e] * x2[e]
            coef[piv[s_]] = v
        for e, (j, _) in enumerate(dep):
            coef[j] = x2[e]

    def apply_q(vec, upto):
        for s_ in range(upto - 1, -1, -1):
            if tau[s_] == 0.0:
                continue
            u = vec[s_]
            for t in range(s_ + 1, m):
                u = u + a[t][piv[s_]] * vec[t]
            u = -tau[s_] * u
            vec[s_] = vec[s_] + u
            for t in range(s_ + 1, m):
                vec[t] = vec[t] + a[t][piv[s_]] * u
        return vec

    resid = apply_q([0.0] * r + b[r:], r)
    cols = [apply_q([1.0 if t == s_ else 0.0 for t in range(m)], s_ + 1)
            for s_ in range(r)] if want_q else None
    return coef, rss, resid, cols


def lsq_port(roff, p, X, y):
    """_batch.lsq in Python floats: (coef, rss, resid) as flat lists."""
    coef, rss, resid, at = [], [], [], 0
    for i in range(len(p)):
        m, q = int(roff[i + 1] - roff[i]), int(p[i])
        Xi = [X[at + t * q: at + (t + 1) * q] for t in range(m)]
        c, r_, e, _ = _lsq1_port(m, q, Xi, y[roff[i]:roff[i + 1]])
        coef += c
        rss += r_
        resid += e
        at += m * q
    return coef, rss, resid


def acovf_port(x, nlag, demean=True):
    """_steps.c acovf for one lane in Python floats: (acov, pacf) lists of
    nlag + 1 (NaN past the lane)."""
    x = [float(v) for v in x]
    n = len(x)
    mean = 0.0
    if demean and n:
        for v in x:
            mean = mean + v
        mean = mean / float(n)
    d = [v - mean for v in x]
    ac = []
    for k in range(nlag + 1):
        if k >= n:
            ac.append(math.nan)
            continue
        s = 0.0
        for t in range(n - k):
            s = s + d[t] * d[t + k]
        ac.append(s / float(n))
    pc = [math.nan] * (nlag + 1)
    if nlag < n:
        phi = [[0.0] * (nlag + 1) for _ in range(nlag + 1)]
        sig = [0.0] * (nlag + 1)
        pc[0] = 1.0

        def div(u, v):
            return u / v if v else (math.nan if u == 0 or u != u else math.copysign(math.inf, u) * math.copysign(1.0, v))

        if nlag >= 1:
            phi[1][1] = div(ac[1], ac[0])
            sig[1] = ac[0] - phi[1][1] * ac[1]
            pc[1] = phi[1][1]
        for k in range(2, nlag + 1):
            s = 0.0
            for j in range(1, k):
                s = s + phi[j][k - 1] * ac[k - j]
            pkk = div(ac[k] - s, sig[k - 1])
            phi[k][k] = pkk
            for j in range(1, k):
                phi[j][k] = phi[j][k - 1] - pkk * phi[k - j][k - 1]
            sig[k] = sig[k - 1] * (1.0 - pkk * pkk)
            pc[k] = pkk
    return ac, pc


def hurst_rs_numpy(x):
    """The R/S inputs of the numpy hurst: (r_t, s_t) by the chunked brute
    force up to 2,000 points and the Python upper envelope beyond."""
    x = np.asarray(x, dtype=float)
    n = x.size
    t = np.arange(1, n + 1, dtype=float)
    y = x.cumsum()
    mean_t = y / t
    with np.errstate(invalid="ignore", divide="ignore"):
        s_t = np.sqrt(np.maximum(np.cumsum(x**2) / t - mean_t**2, 0.0))
        if n > 2000:
            return _prefix_ptp_envelope(y, t, mean_t), s_t
        dev = y[None, :] - t[None, :] * mean_t[:, None]
        cmax = np.maximum.accumulate(dev, axis=1)
        cmin = np.minimum.accumulate(dev, axis=1)
        return np.diagonal(cmax) - np.diagonal(cmin), s_t


# ---------------------------------------------------------------------------
# per-series kernels the equal-length batch forms replaced
# ---------------------------------------------------------------------------

def scalets(x: np.ndarray) -> np.ndarray:
    """Mean-std scale with ddof=1 (reference utils.py:19-23). Below two
    points, or for a constant series, the ddof=1 spread gives 0/0 and the
    result is NaN -- the same bits ``x.std(ddof=1)`` gives, without its
    RuntimeWarnings."""
    with np.errstate(all="ignore"):
        if len(x) >= 2:
            return (x - x.mean()) / x.std(ddof=1)
        # x.std(ddof=1)'s own steps: mean, squared deviations, / (n - 1)
        d = x - np.add.reduce(x) / len(x)
        return d / np.sqrt(np.add.reduce(d * d) / 0)


def periodogram_psd(x: np.ndarray) -> np.ndarray:
    """One-sided periodogram PSD, scipy.signal.periodogram defaults.

    Matches ``periodogram(x, fs=1.0)``: boxcar window, constant detrend,
    density scaling, one-sided with doubling of non-DC/non-Nyquist bins.
    Used by the spectral entropy kernel (antropy spectral_entropy with
    method='fft'; reference tsfeatures.py:197).
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    xd = x - (x.mean() if n else 0.0)  # detrend='constant'; empty: rfft raises
    spec = np.abs(np.fft.rfft(xd)) ** 2 / n  # fs = 1.0
    if n % 2 == 0:
        spec[1:-1] *= 2.0
    else:
        spec[1:] *= 2.0
    return spec


def crossing_points(x: np.ndarray, freq: int = 1) -> dict:
    """Number of median crossings (reference tsfeatures.py:156-178)."""
    x = np.asarray(x, dtype=float)
    midline = np.median(x) if len(x) else np.nan  # empty: no crossings
    ab = x <= midline
    p1, p2 = ab[:-1], ab[1:]
    cross = (p1 & (~p2)) | (p2 & (~p1))
    return {"crossing_points": float(cross.sum())}


def entropy(x: np.ndarray, freq: int = 1) -> dict:
    """Normalized spectral entropy (reference tsfeatures.py:180-201).

    Reimplements antropy.spectral_entropy(x, sf=1, method='fft',
    normalize=True): one-sided periodogram (constant detrend) ->
    Shannon entropy in bits / log2(#bins).
    """
    x = np.asarray(x, dtype=float)
    try:
        with np.errstate(divide="ignore", invalid="ignore"):
            psd = periodogram_psd(x)
            psd_norm = psd / psd.sum()
            se = -np.multiply(psd_norm, np.log2(psd_norm)).sum()
            se /= np.log2(psd_norm.size)
        se = float(se)
    except Exception:
        se = np.nan
    return {"entropy": se}


def flat_spots(x: np.ndarray, freq: int = 1) -> dict:
    """Max run length after 10-bin discretization (reference tsfeatures.py:203-225).

    Replicates pandas.cut(x, bins=10, include_lowest=True) bin-edge
    semantics: equal-width edges over [min, max], lowest edge padded by
    0.1% of the range so the minimum falls in bin 0; right-closed bins.
    """
    x = np.asarray(x, dtype=float)
    try:
        if len(x) == 0 or not np.all(np.isfinite(x)):
            return {"flat_spots": np.nan}
        mn, mx = x.min(), x.max()
        if mn == mx:
            adj = abs(mn) * 0.001 if mn != 0 else 0.001
            edges = np.linspace(mn - adj, mx + adj, 11)
        else:
            edges = np.linspace(mn, mx, 11)
            edges[0] -= (mx - mn) * 0.001
        cutx = np.searchsorted(edges, x, side="left") - 1
    except Exception:
        return {"flat_spots": np.nan}
    # run-length encode, take the max run
    change = np.flatnonzero(np.diff(cutx) != 0)
    bounds = np.concatenate([[-1], change, [len(cutx) - 1]])
    rlex = int(np.diff(bounds).max())
    return {"flat_spots": float(rlex)}


def series_length(x: np.ndarray, freq: int = 1) -> dict:
    """len(x) (reference tsfeatures.py:578-594)."""
    return {"series_length": float(len(x))}


def unitroot_kpss(x: np.ndarray, freq: int = 1) -> dict:
    """KPSS level statistic (reference tsfeatures.py:793-816).

    Reimplements statsmodels kpss(x, regression='c', nlags=l): demeaned
    residuals, Bartlett long-run variance, eta / s^2.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    nlags = int(4 * (n / 100) ** 0.25)
    try:
        if nlags >= n:
            raise ValueError("lags must be < number of observations")
        resids = x - x.mean()
        s = np.cumsum(resids)
        eta = float(np.sum(s**2)) / n**2
        s2 = float(np.sum(resids**2)) / n
        for i in range(1, nlags + 1):
            w = 1.0 - i / (nlags + 1.0)
            s2 += (2.0 / n) * w * float(np.sum(resids[i:] * resids[:-i]))
        with np.errstate(divide="ignore", invalid="ignore"):
            stat = eta / s2
        stat = float(stat)
    except Exception:
        stat = np.nan
    return {"unitroot_kpss": stat}


ROW_ORACLES = {f.__name__: f for f in (crossing_points, entropy, flat_spots, series_length,
                                       unitroot_kpss)}
