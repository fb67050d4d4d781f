"""Test oracles for the compiled step loops (tsfeatures_ray/kernels/_steps.c).

These are the implementations the C loops replaced, kept verbatim so the
tests can pin the C results bit-for-bit against them:

- the numpy time-step loops over length-sorted, zero-padded, time-major
  lanes (``_holt_sse_prefix``, ``_hw_sse_prefix``, ``_garch_nll_prefix``
  and ``garch_mu_terms_prefix``, the closed-form mean-update loop);
- the per-series Python-float fits (``holt_fit_single``,
  ``hw_fit_single``, ``garch_mu_single``) with their scalar Nelder-Mead
  (``nelder_mead``) and SSE helpers (``_holt_sse_fast``/``_grid``,
  ``_hw_sse_fast``/``_grid``);
- the numpy STL (``stl_decompose_numpy`` over ``_loess_grid``,
  ``_loess_fixed_window``, ``_loess_at`` and ``_moving_average``), which
  the compiled ``stl_fit`` matches to rounding (its sums run left to
  right instead of through BLAS), and SuperSmoother's per-point span
  interpolation loop (``supersmoother_fit_loop``).

Long GARCH series (n >= LIBM_LOG_N) use ``math.log`` (libm); shorter ones
use ``np.log``: the GARCH log rule the engine follows.
"""

from __future__ import annotations

import math

import numpy as np

from tsfeatures_ray.kernels._batch import (
    _PENALTY,
    _heuristic_level_trend_each,
    _heuristic_seasonal_each,
)
from tsfeatures_ray.kernels._math import ols_fit
from tsfeatures_ray.kernels.stl import _fixed_smooth, _linear_smooth_cv, _next_odd_gt

LIBM_LOG_N = 512


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


def _garch_nll_prefix(omega, a, b, e2T, cnt, backcast) -> np.ndarray:
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
            np.log(t1c, out=t2c)
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
    loop with scalar np.log (bit-equal to np.log(array)[i], unlike
    math.log) below LIBM_LOG_N points and math.log from there on."""
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
        # np.sum of the product (not np.dot: BLAS ddot is alignment-dependent)
        backcast = float(np.sum(w * e2[:tau]))
        e2l = e2.tolist()

        def nll(p: np.ndarray) -> float:
            omega, a, b = float(p[0]), float(p[1]), float(p[2])
            if not (omega > 0 and a >= 0 and b >= 0 and a + b < 0.9999):
                return _PENALTY
            s_t = backcast
            prev = backcast
            ll = 0.0
            bad = False
            for e2t in e2l:
                s_t = (omega + a * prev) + b * s_t
                if s_t <= 0:
                    bad = True
                ll += (l2pi + float(np.log(s_t))) + e2t / s_t
                prev = e2t
            half = 0.5 * ll
            if not math.isfinite(half) or bad:
                return _PENALTY
            return half

        if n >= LIBM_LOG_N:
            # the GARCH log rule: libm log from LIBM_LOG_N points on
            ml = math.log

            def nll_fast(p: np.ndarray) -> float:
                omega, a, b = float(p[0]), float(p[1]), float(p[2])
                if not (omega > 0 and a >= 0 and b >= 0 and a + b < 0.9999):
                    return _PENALTY
                s_t = backcast
                prev = backcast
                ll = 0.0
                bad = False
                for e2t in e2l:
                    s_t = (omega + a * prev) + b * s_t
                    if s_t <= 0:
                        bad = True
                        break
                    ll += (l2pi + ml(s_t)) + e2t / s_t
                    prev = e2t
                half = 0.5 * ll
                if bad or not math.isfinite(half):
                    return _PENALTY
                return half

            q, _ = nelder_mead(nll_fast, q, step=0.2, max_iter=60)
        else:
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
