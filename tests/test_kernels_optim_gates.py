"""Falsifiable gates for the optimizer/spectral kernels the driver's
oracle cannot check (VERDICT r01 item 9): each test pins the kernel to a
brute-force or analytic ground truth computed independently of the
kernel's own optimizer.

- entropy: Parseval identity of the periodogram + analytic extremes
  (single-bin sinusoid -> ~0; white noise -> ~1).
- guerrero: golden-section minimum can never be worse than a dense
  lambda grid scan of the SAME objective.
- holt/hw_parameters: the fitted parameters' SSE can never be worse
  than a dense parameter-grid scan with the same initial states.
"""

import numpy as np
import pytest

from tsfeatures_ray.kernels._math import periodogram_psd
from tsfeatures_ray.kernels.simple import _guerrero_search, _lambda_coef_var, entropy, guerrero


def test_periodogram_parseval():
    rng = np.random.RandomState(11)
    for n in (17, 64, 255, 1024):
        x = rng.randn(n) * 3 + 5
        psd = periodogram_psd(x)
        xd = x - x.mean()
        # one-sided density periodogram at fs=1: sum(psd) == sum(xd^2)
        assert np.isclose(psd.sum(), (xd**2).sum(), rtol=1e-10)


def test_entropy_analytic_extremes():
    n = 4096
    t = np.arange(n)
    # leakage-free sinusoid: all power in one frequency bin -> entropy ~ 0
    pure = np.sin(2 * np.pi * 8 * t / n)
    assert entropy(pure)["entropy"] < 0.05
    # iid gaussian: each periodogram bin is ~exponential, so the expected
    # normalized spectral entropy is the ANALYTIC finite-sample value
    # (ln N - (1 - gamma)) / ln N with N = n/2 + 1 bins, NOT 1.0
    rng = np.random.RandomState(7)
    vals = np.array([entropy(rng.randn(n))["entropy"] for _ in range(5)])
    nbins = n // 2 + 1
    expected = (np.log(nbins) - (1.0 - 0.5772156649)) / np.log(nbins)
    assert abs(vals.mean() - expected) < 0.01, (vals.mean(), expected)
    # and noise must always carry more spectral entropy than the tone
    assert vals.min() > entropy(pure)["entropy"] + 0.5


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_guerrero_no_worse_than_dense_grid(seed):
    rng = np.random.RandomState(seed)
    n, freq = 96, 12
    x = 50 + np.cumsum(rng.randn(n)) + 10 * np.sin(np.arange(n) / 6.0)
    x = np.abs(x) + 1.0  # Box-Cox domain
    got = guerrero(x, freq)["guerrero"]
    lams = np.arange(-1.0, 2.0 + 1e-9, 0.001)
    grid = np.array([_lambda_coef_var(lam, x=x, period=freq) for lam in lams])
    grid_min = np.nanmin(grid)
    # golden-section over the same objective: at least as good as the
    # 1e-3 grid (up to the grid's own resolution error)
    assert got <= grid_min + 1e-4
    assert abs(got - grid_min) < 1e-2


@pytest.mark.parametrize("n", [0, 1, 2, 200])
def test_guerrero_freq1_shortcut_equals_search(n):
    """At freq 1 guerrero answers without the golden-section search (1.0
    for a constant series, else NaN); that answer equals the search's,
    for a random, a constant and a NaN-holding series of n points."""
    rng = np.random.RandomState(n)
    holed = rng.poisson(3, n).astype(float)
    holed[: n // 2] = np.nan
    for x in (rng.poisson(3, n).astype(float) + 1.0, np.full(n, 4.0), holed):
        got = guerrero(x, 1)["guerrero"]
        want = _guerrero_search(x, 1, -1, 2)
        assert got == want or (np.isnan(got) and np.isnan(want)), (n, x[:5], got, want)


def _holt_resid(alpha: float, beta: float, l: float, b: float, y: np.ndarray):
    """Residual VECTOR of the same additive-Holt recursion the kernel
    minimizes (independent reimplementation for the gate)."""
    out = np.empty(len(y))
    for t, v in enumerate(y):
        f = l + b
        out[t] = v - f
        l_new = alpha * v + (1.0 - alpha) * f
        b = beta * (l_new - l) + (1.0 - beta) * b
        l = l_new
    return out


def _holt_state_opt_sse(alpha: float, beta: float, y: np.ndarray) -> float:
    """Exact SSE minimized over the initial states (l0, b0): the Holt
    residuals are AFFINE in the initial states, so the optimum is a
    2-parameter least squares -- no iterative optimizer involved."""
    c = _holt_resid(alpha, beta, 0.0, 0.0, y)
    p = _holt_resid(alpha, beta, 1.0, 0.0, y) - c
    q = _holt_resid(alpha, beta, 0.0, 1.0, y) - c
    A = np.column_stack([p, q])
    coef, _, _, _ = np.linalg.lstsq(A, -c, rcond=None)
    r = c + A @ coef
    return float(r @ r)


@pytest.mark.parametrize("seed", [3, 4])
def test_holt_fit_no_worse_than_dense_grid(seed):
    """The kernel optimizes (alpha, beta) JOINTLY with the initial
    states, so the fair brute-force bound evaluates every candidate --
    grid points and the kernel's answer alike -- at its exactly
    state-optimal SSE (closed-form least squares)."""
    from tsfeatures_ray.kernels.ets import holt_parameters

    rng = np.random.RandomState(seed)
    n = 80
    y = 10 + 0.3 * np.arange(n) + np.cumsum(rng.randn(n) * 0.5)
    p = holt_parameters(y)
    assert np.isfinite(p["alpha"]) and np.isfinite(p["beta"])
    fit_sse = _holt_state_opt_sse(p["alpha"], p["beta"], y)
    grid_min = min(
        _holt_state_opt_sse(a, b, y)
        for a in np.linspace(0.02, 0.98, 25)
        for b in np.linspace(0.02, 0.98, 25)
        if b <= a
    )
    assert fit_sse <= grid_min * (1.0 + 2e-2)


@pytest.mark.parametrize("seed", [5, 6])
def test_hw_fit_no_worse_than_dense_grid(seed):
    from _step_oracles import _hw_sse_fast, _hw_sse_grid

    from tsfeatures_ray.kernels.ets import _heuristic_seasonal, hw_parameters

    rng = np.random.RandomState(seed)
    n, m = 96, 12
    season = 5 * np.sin(2 * np.pi * np.arange(n) / m)
    y = 30 + 0.2 * np.arange(n) + season + rng.randn(n)
    p = hw_parameters(y, m)
    assert np.isfinite(p["hw_alpha"])
    l0, b0, s0 = _heuristic_seasonal(y, m)
    fit_sse = _hw_sse_fast(
        p["hw_alpha"], p["hw_beta"], p["hw_gamma"], l0, b0, s0.tolist(), y.tolist()
    )
    a = np.linspace(0.02, 0.98, 12)
    b = np.linspace(0.02, 0.98, 12)
    g = np.linspace(0.02, 0.98, 12)
    A, B, G = np.meshgrid(a, b, g, indexing="ij")
    keep = (B <= A) & (G <= 1.0 - A)
    grid_min = _hw_sse_grid(
        A[keep], B[keep], G[keep], l0, b0, s0, y
    ).min()
    assert fit_sse <= grid_min * (1.0 + 1e-6)


def test_stl_recovers_noiseless_components():
    """Falsifiable STL gate: on a NOISELESS additive series (linear
    trend + exact-periodic seasonal) the decomposition must attribute
    essentially all variance -- trend and seasonal_strength near 1,
    remainder tiny relative to the components, and linearity carrying
    the trend's sign."""
    from tsfeatures_ray.kernels.stl import stl_decompose, stl_features

    m = 12
    t = np.arange(144, dtype=float)
    seasonal = np.tile(np.sin(2 * np.pi * np.arange(m) / m) * 5.0, 12)
    x = 0.3 * t + seasonal
    out = stl_features(x, m)
    assert out["seasonal_strength"] > 0.95
    assert out["trend"] > 0.95
    assert out["nperiods"] == 1.0 and out["seasonal_period"] == m
    assert out["linearity"] > 0  # rising trend
    trend_c, seas_c, resid = stl_decompose(x, m, 13)
    assert np.var(resid) < 0.01 * np.var(x)
    # the recovered seasonal must correlate strongly with the truth
    cc = np.corrcoef(seas_c, seasonal)[0, 1]
    assert cc > 0.99
