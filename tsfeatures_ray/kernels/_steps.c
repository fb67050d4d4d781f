/* Lane-major step loops for the optimizer-backed kernels (_batch.py)
 * and the STL decomposition (stl.py).
 *
 * Every loop evaluates L lanes x K candidates. Row i of each (L, K)
 * candidate array belongs to lane lane[i], whose series is the ragged
 * slice v[off[lane[i]] : off[lane[i] + 1]]; per-lane arrays (initial
 * states, backcasts) are indexed by lane[i] as well. Time runs outside,
 * candidates inside, so each step is K independent recursions.
 *
 * Each statement keeps the operation order of the numpy expression it
 * replaces, and the file is built with -ffp-contract=off (no fused
 * multiply-add) and without -ffast-math, so every value is the same
 * IEEE double that numpy's elementwise ufuncs produce. STL's loess sums
 * replaced BLAS dot products: they run left to right, a fixed order on
 * every host. A lane reads nothing of any other lane: results do not
 * depend on batch composition.
 *
 * Scratch state is malloc'd per call; a function returns -1 when that
 * fails and 0 otherwise.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* Additive Holt SSE. l, b: initial level/trend per candidate (L, K). */
int holt_sse(int64_t L, int64_t K, const int64_t *lane, const int64_t *off,
             const double *y, const double *a, const double *b,
             const double *l0, const double *b0, double *sse)
{
    double *st = malloc(2 * K * sizeof(double));
    if (!st)
        return -1;
    double *l = st, *t = st + K;
    for (int64_t i = 0; i < L; i++) {
        const double *v = y + off[lane[i]];
        int64_t n = off[lane[i] + 1] - off[lane[i]];
        const double *ai = a + i * K, *bi = b + i * K;
        double *s = sse + i * K;
        for (int64_t k = 0; k < K; k++) {
            l[k] = l0[i * K + k];
            t[k] = b0[i * K + k];
            s[k] = 0.0;
        }
        for (int64_t j = 0; j < n; j++) {
            double vj = v[j];
            for (int64_t k = 0; k < K; k++) {
                double f = l[k] + t[k];
                double e = vj - f;
                s[k] = s[k] + e * e;
                double ln = ai[k] * vj + (1.0 - ai[k]) * f;
                t[k] = bi[k] * (ln - l[k]) + (1.0 - bi[k]) * t[k];
                l[k] = ln;
            }
        }
    }
    free(st);
    return 0;
}

/* Additive Holt-Winters SSE with period m. l0, b0: per lane; s0: (lanes, m). */
int hw_sse(int64_t L, int64_t K, int64_t m, const int64_t *lane,
           const int64_t *off, const double *y, const double *a,
           const double *b, const double *g, const double *l0,
           const double *b0, const double *s0, double *sse)
{
    double *st = malloc((2 + m) * K * sizeof(double));
    if (!st)
        return -1;
    double *l = st, *t = st + K, *seas = st + 2 * K; /* seas: (m, K) */
    for (int64_t i = 0; i < L; i++) {
        int64_t p = lane[i];
        const double *v = y + off[p];
        int64_t n = off[p + 1] - off[p];
        const double *ai = a + i * K, *bi = b + i * K, *gi = g + i * K;
        double *s = sse + i * K;
        for (int64_t k = 0; k < K; k++) {
            l[k] = l0[p];
            t[k] = b0[p];
            s[k] = 0.0;
            for (int64_t j = 0; j < m; j++)
                seas[j * K + k] = s0[p * m + j];
        }
        for (int64_t j = 0; j < n; j++) {
            double vj = v[j];
            double *sj = seas + (j % m) * K;
            for (int64_t k = 0; k < K; k++) {
                double si = sj[k];
                double lb = l[k] + t[k];
                double e = vj - (lb + si);
                s[k] = s[k] + e * e;
                double ln = ai[k] * (vj - si) + (1.0 - ai[k]) * lb;
                t[k] = bi[k] * (ln - l[k]) + (1.0 - bi[k]) * t[k];
                sj[k] = gi[k] * (vj - ln) + (1.0 - gi[k]) * si;
                l[k] = ln;
            }
        }
    }
    free(st);
    return 0;
}

/* GARCH(1,1) variance path s_t = (omega + a*e2_{t-1}) + b*s_{t-1}, both
 * started at the lane's backcast, written (n, K) per lane into buf for
 * the lanes shorter than logn, one after another; longer lanes are
 * skipped. */
int garch_var(int64_t L, int64_t K, const int64_t *lane, const int64_t *off,
              const double *e2, const double *om, const double *a,
              const double *b, const double *backcast, int64_t logn,
              double *buf)
{
    for (int64_t i = 0; i < L; i++) {
        int64_t p = lane[i];
        int64_t n = off[p + 1] - off[p];
        if (n >= logn)
            continue;
        const double *x = e2 + off[p];
        for (int64_t k = 0; k < K; k++) {
            double s = backcast[p], prev = backcast[p];
            for (int64_t j = 0; j < n; j++) {
                s = (om[i * K + k] + a[i * K + k] * prev) + b[i * K + k] * s;
                buf[j * K + k] = s;
                prev = x[j];
            }
        }
        buf += n * K;
    }
    return 0;
}

/* GARCH(1,1) Gaussian log-likelihood sum, sum_t (l2pi + log s_t) + e2_t / s_t,
 * over the same variance path. Lanes shorter than logn read log s_t from
 * lg (garch_var's layout, logged by the caller); longer lanes call libm
 * log. ll is NaN where any s_t <= 0. */
int garch_ll(int64_t L, int64_t K, const int64_t *lane, const int64_t *off,
             const double *e2, const double *om, const double *a,
             const double *b, const double *backcast, int64_t logn,
             const double *lg, double l2pi, double *ll)
{
    for (int64_t i = 0; i < L; i++) {
        int64_t p = lane[i];
        int64_t n = off[p + 1] - off[p];
        const double *x = e2 + off[p];
        for (int64_t k = 0; k < K; k++) {
            double s = backcast[p], prev = backcast[p], acc = 0.0;
            int bad = 0;
            for (int64_t j = 0; j < n; j++) {
                s = (om[i * K + k] + a[i * K + k] * prev) + b[i * K + k] * s;
                bad |= s <= 0;
                double lgs = n < logn ? lg[j * K + k] : log(s);
                acc = acc + ((l2pi + lgs) + x[j] / s);
                prev = x[j];
            }
            ll[i * K + k] = bad ? NAN : acc;
        }
        if (n < logn)
            lg += n * K;
    }
    return 0;
}

/* Closed-form GARCH mean update terms along the fitted variance path:
 * inv = sum_t 1/s_t, wx = sum_t x_t/s_t, ok = every s_t finite and > 0.
 * One candidate per lane. */
int garch_mu(int64_t L, const int64_t *lane, const int64_t *off,
             const double *x, const double *e2, const double *om,
             const double *a, const double *b, const double *backcast,
             double *inv, double *wx, uint8_t *ok)
{
    for (int64_t i = 0; i < L; i++) {
        int64_t p = lane[i];
        int64_t n = off[p + 1] - off[p];
        double s = backcast[p], prev = backcast[p], si = 0.0, sw = 0.0;
        int good = 1;
        for (int64_t j = off[p]; j < off[p] + n; j++) {
            s = (om[i] + a[i] * prev) + b[i] * s;
            good &= s > 0 && isfinite(s);
            double w = 1.0 / s;
            si = si + w;
            sw = sw + w * x[j];
            prev = e2[j];
        }
        inv[i] = si;
        wx[i] = sw;
        ok[i] = good;
    }
    return 0;
}

/* ---- STL (stl.py): the non-robust inner loop, lane by lane ---- */

/* Tricube loess (degree 1) of the window yw[0..q) at positions x0,
 * x0 + 1, ..., evaluated at e; the largest distance is inflated by pad.
 * The local line falls back to the weighted mean where it is
 * ill-conditioned or not finite. w: q doubles of scratch. */
static double loess_at(const double *yw, int64_t q, double x0, double e,
                       double pad, double *w)
{
    double dmax = 0.0, sw = 0.0, xbar = 0.0, ybar = 0.0, ssx = 0.0, sxy = 0.0;
    for (int64_t j = 0; j < q; j++) {
        w[j] = fabs((x0 + (double)j) - e);
        dmax = w[j] > dmax ? w[j] : dmax;
    }
    dmax = dmax + pad;
    if (dmax <= 0.0)
        dmax = 1.0;
    for (int64_t j = 0; j < q; j++) {
        double u = w[j] / dmax, t = 1.0 - u * u * u;
        t = t > 0.0 ? t : 0.0;
        w[j] = t * t * t;
        sw = sw + w[j];
    }
    if (!(sw > 0.0))
        sw = 1.0;
    for (int64_t j = 0; j < q; j++) {
        w[j] = w[j] / sw;
        xbar = xbar + w[j] * (x0 + (double)j);
        ybar = ybar + w[j] * yw[j];
    }
    for (int64_t j = 0; j < q; j++) {
        double dev = (x0 + (double)j) - xbar;
        ssx = ssx + w[j] * (dev * dev);
        sxy = sxy + w[j] * dev * yw[j];
    }
    double lin = ybar + sxy / ssx * (e - xbar);
    int use_lin = sqrt(ssx > 0.0 ? ssx : 0.0) > 1e-3 * (dmax > 1.0 ? dmax : 1.0);
    return use_lin && isfinite(lin) ? lin : ybar;
}

/* Loess (degree 1, odd span q >= 3) of y[0..n) at positions 0..n-1.
 * q > n: every position fits all n points, distances inflated by
 * (q - n) / 2. Otherwise every interior position has the same symmetric
 * window, so its fit is one weighted mean with fixed tricube weights
 * (the slope term vanishes at the centre), and the h = (q - 1) / 2
 * positions at each end fit the window pinned to that end. w: max(q, n)
 * doubles of scratch. */
static void loess_grid(const double *y, int64_t n, int64_t q, double *w,
                       double *out)
{
    if (q > n) {
        for (int64_t i = 0; i < n; i++)
            out[i] = loess_at(y, n, 0.0, (double)i, (double)(q - n) / 2.0, w);
        return;
    }
    int64_t h = (q - 1) / 2;
    double sw = 0.0;
    for (int64_t j = 0; j < q; j++) {
        double u = fabs((double)(j - h)) / (double)h, t = 1.0 - u * u * u;
        w[j] = t * t * t;
        sw = sw + w[j];
    }
    for (int64_t j = 0; j < q; j++)
        w[j] = w[j] / sw;
    for (int64_t i = h; i < n - h; i++) {
        double s = 0.0;
        for (int64_t j = 0; j < q; j++)
            s = s + w[j] * y[i - h + j];
        out[i] = s;
    }
    for (int64_t i = 0; i < h; i++) {
        out[i] = loess_at(y, q, 0.0, (double)i, 0.0, w);
        out[n - h + i] = loess_at(y + n - q, q, (double)(n - q),
                                  (double)(n - h + i), 0.0, w);
    }
}

/* Moving average of width k over x[0..n) through the running sum cs
 * (n + 1 doubles); returns the n - k + 1 points written to out. */
static int64_t moving_average(const double *x, int64_t n, int64_t k,
                              double *cs, double *out)
{
    cs[0] = 0.0;
    cs[1] = x[0];
    for (int64_t j = 1; j < n; j++)
        cs[j + 1] = cs[j] + x[j];
    for (int64_t j = 0; j + k <= n; j++)
        out[j] = (cs[j + k] - cs[j]) / (double)k;
    return n - k + 1;
}

/* STL, two inner passes, no robustness weights. Lane i is the series
 * v[off[i] : off[i + 1]] with period m[i] (n >= 2 m), trend span nt[i]
 * and low-pass span nl[i]; every lane uses seasonal span ns (odd, >= 3).
 * Writes the lane's trend and seasonal component at the same offsets. */
int stl_fit(int64_t L, const int64_t *off, const double *v, const int64_t *m,
            int64_t ns, const int64_t *nt, const int64_t *nl, double *trend,
            double *season)
{
    int64_t cap = ns; /* per buffer: the widest n + 2m + 1, or ns */
    for (int64_t i = 0; i < L; i++) {
        int64_t c = off[i + 1] - off[i] + 2 * m[i] + 1;
        cap = c > cap ? c : cap;
    }
    double *buf = malloc(5 * cap * sizeof(double));
    if (!buf)
        return -1;
    double *w = buf, *sub = buf + cap, *a = buf + 2 * cap, *c = buf + 3 * cap,
           *cs = buf + 4 * cap;
    for (int64_t i = 0; i < L; i++) {
        const double *y = v + off[i];
        int64_t n = off[i + 1] - off[i], p = m[i];
        double *tr = trend + off[i], *se = season + off[i];
        for (int64_t j = 0; j < n; j++)
            tr[j] = 0.0;
        for (int pass = 0; pass < 2; pass++) {
            /* cycle-subseries k smoothed at -1..nk: c[k + p * (j + 1)] */
            for (int64_t k = 0; k < p; k++) {
                int64_t nk = (n - k + p - 1) / p;
                double *ck = c + k;
                for (int64_t j = 0; j < nk; j++)
                    sub[j] = y[k + j * p] - tr[k + j * p];
                if (ns < nk) {
                    ck[0] = loess_at(sub, ns, 0.0, -1.0, 0.0, w);
                    loess_grid(sub, nk, ns, w, a);
                    for (int64_t j = 0; j < nk; j++)
                        ck[p * (j + 1)] = a[j];
                    ck[p * (nk + 1)] = loess_at(sub + nk - ns, ns, (double)(nk - ns),
                                                (double)nk, 0.0, w);
                } else {
                    for (int64_t j = -1; j <= nk; j++)
                        ck[p * (j + 1)] = loess_at(sub, nk, 0.0, (double)j,
                                                   (double)(ns - nk) / 2.0, w);
                }
            }
            /* low-pass MA(p), MA(p), MA(3): n + 2p -> n points, then loess */
            int64_t len = moving_average(c, n + 2 * p, p, cs, a);
            len = moving_average(a, len, p, cs, sub);
            moving_average(sub, len, 3, cs, a);
            loess_grid(a, n, nl[i], w, sub);
            for (int64_t j = 0; j < n; j++) {
                se[j] = c[p + j] - sub[j];
                a[j] = y[j] - se[j];
            }
            loess_grid(a, n, nt[i], w, tr);
        }
    }
    free(buf);
    return 0;
}
