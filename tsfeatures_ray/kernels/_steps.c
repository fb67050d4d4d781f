/* Lane-major loops of the batch kernels (_batch.py): the Holt,
 * Holt-Winters and GARCH(1,1) objective loops and a Nelder-Mead over
 * them, least squares (Householder QR), autocovariance with the
 * Levinson-Durbin recursion, the Hurst rescaled range, the STL
 * decomposition (stl.py) and the rollups' compensated segment sums
 * (stages/segments.py).
 *
 * The objective loops evaluate L rows x K candidates. Row i of each
 * (L, K) candidate array belongs to lane lane[i], whose series is the
 * ragged slice v[off[lane[i]] : off[lane[i] + 1]]; per-lane arrays
 * (initial states, backcasts) are indexed by lane[i] as well. Time runs
 * outside, candidates inside, so each step is K independent recursions.
 *
 * Each statement keeps one fixed operation order (the numpy expression
 * it replaced, where there was one), and the file is built with
 * -ffp-contract=off (no fused multiply-add) and without -ffast-math, so
 * every value is the same IEEE double on every host; every sum runs left
 * to right, a fixed order, where BLAS's order depends on its core type. A
 * lane reads nothing of any other lane: results do not depend on batch
 * composition.
 *
 * Scratch state is malloc'd per call; a function returns -1 when that
 * fails and 0 otherwise.
 */
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define PENALTY 1e12                     /* an objective's out-of-region value */
#define L2PI 1.8378770664093453          /* log(2 pi), math.log(2 * math.pi) */

/* Additive Holt SSE. l0, b0: initial level/trend per candidate (L, K). */
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

/* GARCH(1,1) Gaussian negative log-likelihood of one candidate (omega, a,
 * b) on the squared residuals x[0..n) with backcast bc:
 * 0.5 * sum_t ((l2pi + log s_t) + x_t / s_t), s_t = (omega + a*x_{t-1}) +
 * b*s_{t-1}, both started at bc; libm log. Outside the stationary region,
 * where any s_t <= 0, or where the sum is not finite: the penalty. */
static double garch1(const double *x, int64_t n, double om, double a, double b,
                     double bc)
{
    if (!(om > 0 && a >= 0 && b >= 0 && a + b < 0.9999))
        return PENALTY;
    double s = bc, prev = bc, acc = 0.0;
    for (int64_t j = 0; j < n; j++) {
        s = (om + a * prev) + b * s;
        if (s <= 0)
            return PENALTY;
        acc = acc + ((L2PI + log(s)) + x[j] / s);
        prev = x[j];
    }
    double half = 0.5 * acc;
    return isfinite(half) ? half : PENALTY;
}

/* garch1 for (L, K) candidates; lane i's squared residuals are
 * e2[off[lane[i]] : off[lane[i] + 1]], its backcast backcast[lane[i]]. */
int garch_nll(int64_t L, int64_t K, const int64_t *lane, const int64_t *off,
              const double *e2, const double *om, const double *a,
              const double *b, const double *backcast, double *nll)
{
    for (int64_t i = 0; i < L; i++) {
        int64_t p = lane[i];
        for (int64_t k = 0; k < K; k++)
            nll[i * K + k] = garch1(e2 + off[p], off[p + 1] - off[p], om[i * K + k],
                                    a[i * K + k], b[i * K + k], backcast[p]);
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

/* ---- Nelder-Mead over the objective loops, lane by lane ---- */

/* The three objectives, one candidate at a time, each in the operation
 * order of its (L, K) loop above (Holt and Holt-Winters as their own
 * loops: through holt_sse / hw_sse at K = 1 a polish costs about a third
 * more). */
typedef struct {
    int64_t kind;               /* 0 Holt (a, b, l0, b0), 1 HW (a, b, g), 2 GARCH */
    const double *v;            /* the lane's series (GARCH: squared residuals) */
    int64_t n, m;               /* length; HW period */
    double l0, b0;              /* HW initial level/trend; GARCH: l0 = backcast */
    const double *s0;           /* HW initial seasonal state (m) */
    double *seas;               /* HW scratch (m) */
} objective;

static double holt1(const double *v, int64_t n, const double *p)
{
    double a = p[0], b = p[1], l = p[2], t = p[3], s = 0.0;
    if (!(a > 1e-6 && a < 1 - 1e-6 && b > 1e-6 && b <= a))
        return PENALTY;
    for (int64_t j = 0; j < n; j++) {
        double f = l + t;
        double e = v[j] - f;
        s = s + e * e;
        double ln = a * v[j] + (1.0 - a) * f;
        t = b * (ln - l) + (1.0 - b) * t;
        l = ln;
    }
    return s;
}

static double hw1(const objective *o, const double *p)
{
    double a = p[0], b = p[1], g = p[2], l = o->l0, t = o->b0, s = 0.0;
    if (!(a > 1e-6 && a < 1 - 1e-6 && b > 1e-6 && b <= a && g > 1e-6 && g <= 1.0 - a))
        return PENALTY;
    memcpy(o->seas, o->s0, o->m * sizeof(double));
    for (int64_t j = 0, jm = 0; j < o->n; j++, jm = jm + 1 == o->m ? 0 : jm + 1) {
        double vj = o->v[j], *sj = o->seas + jm, si = *sj;
        double lb = l + t;
        double e = vj - (lb + si);
        s = s + e * e;
        double ln = a * (vj - si) + (1.0 - a) * lb;
        t = b * (ln - l) + (1.0 - b) * t;
        *sj = g * (vj - ln) + (1.0 - g) * si;
        l = ln;
    }
    return s;
}

static double objective_at(const objective *o, const double *p)
{
    if (o->kind == 0)
        return holt1(o->v, o->n, p);
    if (o->kind == 1)
        return hw1(o, p);
    return garch1(o->v, o->n, p[0], p[1], p[2], o->l0);
}

/* numpy's float order: NaN after every number */
static int before(double a, double b)
{
    return a < b || (isnan(b) && !isnan(a));
}

#define NM_MAXP 4

/* Nelder-Mead (reflection 1, expansion 2, contraction 0.5, shrink 0.5) of
 * one lane from x (np params), in place; returns the best value. The
 * rules are the numpy driver's (tests/_step_oracles.py
 * nelder_mead_batch): simplex steps of step * max(|x_i|, 1) (step at 0),
 * stable sort with NaN last, convergence when the largest coordinate
 * spread is < xtol and |f_worst - f_best| < ftol, the first minimum
 * (np.argmin) wins. The expansion and contraction points are evaluated
 * only on the branch that reads them. */
static double nm1(const objective *o, double *x, int64_t np_, double step,
                  int64_t max_iter, double xtol, double ftol)
{
    double sim[NM_MAXP + 1][NM_MAXP], fs[NM_MAXP + 1], c[NM_MAXP], xr[NM_MAXP],
        xe[NM_MAXP], xc[NM_MAXP], tmp[NM_MAXP + 1][NM_MAXP], ftmp[NM_MAXP + 1];
    int64_t n = np_, ord[NM_MAXP + 1];
    for (int64_t j = 0; j <= n; j++)
        memcpy(sim[j], x, n * sizeof(double));
    for (int64_t i = 0; i < n; i++) {
        double xi = sim[i + 1][i], ax = fabs(xi); /* np.maximum: NaN wins */
        ax = (ax >= 1.0 || isnan(ax)) ? ax : 1.0;
        sim[i + 1][i] = xi == 0.0 ? xi + step : xi + step * ax;
    }
    for (int64_t j = 0; j <= n; j++)
        fs[j] = objective_at(o, sim[j]);
    for (int64_t it = 0; it < max_iter; it++) {
        for (int64_t j = 0; j <= n; j++) { /* stable insertion sort */
            int64_t k = j;
            while (k > 0 && before(fs[j], fs[ord[k - 1]])) {
                ord[k] = ord[k - 1];
                k--;
            }
            ord[k] = j;
        }
        for (int64_t j = 0; j <= n; j++) {
            memcpy(tmp[j], sim[ord[j]], n * sizeof(double));
            ftmp[j] = fs[ord[j]];
        }
        memcpy(sim, tmp, sizeof(sim));
        memcpy(fs, ftmp, sizeof(fs));
        double spread = -INFINITY; /* np.max: NaN wins */
        for (int64_t j = 1; j <= n; j++)
            for (int64_t i = 0; i < n; i++) {
                double d = fabs(sim[j][i] - sim[0][i]);
                spread = (isnan(spread) || d <= spread) ? spread : d;
            }
        if (spread < xtol && fabs(fs[n] - fs[0]) < ftol)
            break;
        for (int64_t i = 0; i < n; i++) {
            c[i] = sim[0][i];
            for (int64_t j = 1; j < n; j++)
                c[i] += sim[j][i];
            c[i] /= (double)n;
            xr[i] = c[i] + 1.0 * (c[i] - sim[n][i]);
        }
        double fr = objective_at(o, xr), *np = xr, nf = fr;
        if (fr < fs[0]) {
            for (int64_t i = 0; i < n; i++)
                xe[i] = c[i] + 2.0 * (c[i] - sim[n][i]);
            double fe = objective_at(o, xe);
            if (fe < fr) {
                np = xe;
                nf = fe;
            }
        } else if (!(fr < fs[n - 1])) {
            for (int64_t i = 0; i < n; i++)
                xc[i] = c[i] + 0.5 * (sim[n][i] - c[i]);
            double fc = objective_at(o, xc);
            if (fc < fs[n]) {
                np = xc;
                nf = fc;
            } else {
                np = NULL;
            }
        }
        if (np) {
            memcpy(sim[n], np, n * sizeof(double));
            fs[n] = nf;
        } else { /* shrink toward the best point */
            for (int64_t j = 1; j <= n; j++) {
                for (int64_t i = 0; i < n; i++)
                    sim[j][i] = sim[0][i] + 0.5 * (sim[j][i] - sim[0][i]);
                fs[j] = objective_at(o, sim[j]);
            }
        }
    }
    int64_t k = 0; /* np.argmin: the first NaN, else the first minimum */
    for (int64_t j = 1; j <= n && !isnan(fs[k]); j++)
        if (isnan(fs[j]) || fs[j] < fs[k])
            k = j;
    memcpy(x, sim[k], n * sizeof(double));
    return fs[k];
}

/* Nelder-Mead per lane i over objective kind (0 Holt: 4 parameters; 1
 * Holt-Winters with period m: 3; 2 GARCH(1,1): 3) on the series
 * v[off[lane[i]] : off[lane[i] + 1]]. x: (L, np) starts, overwritten with
 * the minimizers; f: (L,) minima. l0, b0, s0 (lanes, m) are per lane
 * index lane[i] (GARCH: l0 holds the backcasts; Holt reads none). */
int nelder_mead(int64_t kind, int64_t L, const int64_t *lane,
                const int64_t *off, const double *v, int64_t m,
                const double *l0, const double *b0, const double *s0,
                double step, int64_t max_iter, double xtol, double ftol,
                double *x, double *f)
{
    int64_t np_ = kind == 0 ? 4 : 3;
    double *seas = malloc((m > 0 ? m : 1) * sizeof(double));
    if (!seas)
        return -1;
    for (int64_t i = 0; i < L; i++) {
        int64_t p = lane[i];
        objective o = {kind, v + off[p], off[p + 1] - off[p], m,
                       kind ? l0[p] : 0.0, kind == 1 ? b0[p] : 0.0,
                       kind == 1 ? s0 + p * m : NULL, seas};
        f[i] = nm1(&o, x + i * np_, np_, step, max_iter, xtol, ftol);
    }
    free(seas);
    return 0;
}

/* ---- least squares and autocovariance over ragged lanes ---- */

/* b <- H_0 H_1 ... H_{r-1} b for the reflections of lsq1 (reflector s in
 * column piv[s] below row s of the row-major a, w columns wide; scaled
 * by tau[s]), in reverse order */
static void apply_q(const double *a, int64_t w, const int64_t *piv,
                    const double *tau, int64_t r, int64_t m, double *b)
{
    for (int64_t s = r - 1; s >= 0; s--) {
        const double *v = a + piv[s];
        double u = b[s];
        if (tau[s] == 0.0)
            continue;
        for (int64_t t = s + 1; t < m; t++)
            u = u + v[t * w] * b[t];
        u = -tau[s] * u;
        b[s] = b[s] + u;
        for (int64_t t = s + 1; t < m; t++)
            b[t] = b[t] + v[t * w] * u;
    }
}

/* Minimum-norm least squares of y (m rows) on the q columns of the
 * row-major X by Householder QR without pivoting (LAPACK's reflector:
 * beta = -sign(alpha) * norm, tau = (beta - alpha) / beta, v = x / (alpha
 * - beta)). A column whose part orthogonal to the columns before it has
 * norm <= eps * max(m, q) * (largest column norm) depends on them; with
 * such columns (a rank-deficient or wide design) the coefficients are the
 * least-squares solution of least norm: the independent part u = R11^-1
 * Q1'y less W x2, W = R11^-1 R12, where x2 solves the full-rank
 * least-squares problem [W; I] x2 ~ [u; 0]. Writes q coefficients, the q
 * prefix residual sums of squares (rss[k]: the fit on columns 0..k, the
 * sum of the last m - rank(0..k) entries of Q'y squared) and the m
 * residuals Q [0; Q2'y] (rss and resid may be NULL); qcols, if not NULL,
 * gets the first rank columns of Q (m each, one after another). Every sum
 * runs left to right over the rows; a reflection updates every later
 * column (and y, the last column of the working copy) row by row. Returns
 * -1 when scratch allocation fails. */
static int lsq1(int64_t m, int64_t q, const double *X, const double *y,
                double *coef, double *rss, double *resid, double *qcols)
{
    int64_t w = q + 1; /* working copy [X | y], row-major */
    double *a = malloc((m * w + 3 * q + 2 + m) * sizeof(double));
    int64_t *piv = malloc((2 * q + 1) * sizeof(int64_t));
    if (!a || !piv) {
        free(a);
        free(piv);
        return -1;
    }
    double *tau = a + m * w, *tail = tau + q, *wk = tail + q + 1, *b = wk + q + 1;
    double cmax = 0.0;
    int64_t *dep = piv + q, r = 0, d = 0;
    for (int64_t t = 0; t < m; t++) {
        memcpy(a + t * w, X + t * q, q * sizeof(double));
        a[t * w + q] = y[t];
    }
    for (int64_t k = 0; k < q; k++) {
        double ss = 0.0;
        for (int64_t t = 0; t < m; t++)
            ss = ss + a[t * w + k] * a[t * w + k];
        cmax = sqrt(ss) > cmax ? sqrt(ss) : cmax;
    }
    double tol = DBL_EPSILON * (double)(m > q ? m : q) * cmax;
    for (int64_t k = 0; k < q; k++) {
        double alpha = r < m ? a[r * w + k] : 0.0, xs = 0.0;
        for (int64_t t = r + 1; t < m; t++)
            xs = xs + a[t * w + k] * a[t * w + k];
        double norm = sqrt(alpha * alpha + xs);
        if (r >= m || !(norm > tol)) {
            dep[d++] = k | (r << 32); /* column, and the rows above it */
            continue;
        }
        tau[r] = 0.0;
        if (xs > 0.0) {
            double beta = alpha >= 0.0 ? -norm : norm, sc = 1.0 / (alpha - beta);
            tau[r] = (beta - alpha) / beta;
            for (int64_t t = r + 1; t < m; t++)
                a[t * w + k] = a[t * w + k] * sc;
            a[r * w + k] = beta;
            /* wk[j] = a[r][j] + sum_t v_t a[t][j], j > k, then the update */
            for (int64_t j = k + 1; j < w; j++)
                wk[j] = a[r * w + j];
            for (int64_t t = r + 1; t < m; t++) {
                double vt = a[t * w + k];
                for (int64_t j = k + 1; j < w; j++)
                    wk[j] = wk[j] + vt * a[t * w + j];
            }
            for (int64_t j = k + 1; j < w; j++) {
                wk[j] = -tau[r] * wk[j];
                a[r * w + j] = a[r * w + j] + wk[j];
            }
            for (int64_t t = r + 1; t < m; t++) {
                double vt = a[t * w + k];
                for (int64_t j = k + 1; j < w; j++)
                    a[t * w + j] = a[t * w + j] + vt * wk[j];
            }
        }
        piv[r++] = k;
    }
    for (int64_t t = 0; t < m; t++)
        b[t] = a[t * w + q];
    for (int64_t s = 0; s <= r; s++) { /* tail[s]: sum of b[s..m)^2 */
        double ss = 0.0;
        for (int64_t t = s; t < m; t++)
            ss = ss + b[t] * b[t];
        tail[s] = ss;
    }
    for (int64_t k = 0, s = 0; k < q; k++) {
        s += s < r && piv[s] == k;
        if (rss)
            rss[k] = tail[s];
        coef[k] = 0.0;
    }
    /* u = R11^-1 c into the accepted columns' coefficients */
    for (int64_t s = r - 1; s >= 0; s--) {
        double v = b[s];
        for (int64_t u = s + 1; u < r; u++)
            v = v - a[s * w + piv[u]] * coef[piv[u]];
        coef[piv[s]] = v / a[s * w + piv[s]];
    }
    int rc = 0;
    if (d && r) {
        /* [W; I] (r + d rows, d columns, row-major), rhs [u; 0] */
        int64_t mm = r + d;
        double *M = calloc(mm * d + mm + r + d, sizeof(double));
        if (!M) {
            rc = -1;
        } else {
            double *rhs = M + mm * d, *wv = rhs + mm, *x2 = wv + r;
            for (int64_t e = 0; e < d; e++) {
                int64_t j = dep[e] & 0xffffffff, rj = dep[e] >> 32;
                for (int64_t s = r - 1; s >= 0; s--) {
                    double v = s < rj ? a[s * w + j] : 0.0;
                    for (int64_t u = s + 1; u < r; u++)
                        v = v - a[s * w + piv[u]] * wv[u];
                    wv[s] = v / a[s * w + piv[s]];
                }
                for (int64_t s = 0; s < r; s++)
                    M[s * d + e] = wv[s];
                M[(r + e) * d + e] = 1.0;
            }
            for (int64_t s = 0; s < r; s++)
                rhs[s] = coef[piv[s]];
            rc = lsq1(mm, d, M, rhs, x2, NULL, NULL, NULL);
            for (int64_t s = 0; s < r && !rc; s++) {
                double v = coef[piv[s]];
                for (int64_t e = 0; e < d; e++)
                    v = v - M[s * d + e] * x2[e];
                coef[piv[s]] = v;
            }
            for (int64_t e = 0; e < d && !rc; e++)
                coef[dep[e] & 0xffffffff] = x2[e];
            free(M);
        }
    }
    if (resid) { /* Q [0; Q2'y] */
        for (int64_t s = 0; s < r; s++)
            b[s] = 0.0;
        apply_q(a, w, piv, tau, r, m, b);
        memcpy(resid, b, m * sizeof(double));
    }
    for (int64_t s = 0; qcols && s < r; s++) { /* Q e_s */
        double *col = qcols + s * m;
        for (int64_t t = 0; t < m; t++)
            col[t] = t == s ? 1.0 : 0.0;
        apply_q(a, w, piv, tau, s + 1, m, col);
    }
    free(a);
    free(piv);
    return rc;
}

/* Per-lane sums of v[off[i] : off[i + 1]], left to right (0 if empty). */
int seg_sum(int64_t L, const int64_t *off, const double *v, double *out)
{
    for (int64_t i = 0; i < L; i++) {
        double s = 0.0;
        for (int64_t t = off[i]; t < off[i + 1]; t++)
            s = s + v[t];
        out[i] = s;
    }
    return 0;
}

/* Per-segment compensated sums of v[off[i] : off[i + 1]], the loop of
 * pandas' groupby sum (group_sum in pandas/_libs/groupby.pyx), so the
 * bits equal it: NaN terms are skipped, the Kahan compensation is reset
 * to 0 when it turns NaN (an infinite term), and an empty or all-NaN
 * segment sums to 0. */
int seg_ksum(int64_t L, const int64_t *off, const double *v, double *out)
{
    for (int64_t i = 0; i < L; i++) {
        double s = 0.0, c = 0.0;
        for (int64_t t = off[i]; t < off[i + 1]; t++) {
            double x = v[t];
            if (x != x)
                continue;
            double y = x - c;
            double u = s + y;
            c = u - s - y;
            if (c != c)
                c = 0.0;
            s = u;
        }
        out[i] = s;
    }
    return 0;
}

/* The autoregression of each lane v[off[i] : off[i + 1]] on its first
 * lags[i] lags: for t = lags[i]..n-1, the response v_t into y and the row
 * [1, v_{t-1}, ..., v_{t-lags[i]}] into X, lanes one after another. */
int lag_design(int64_t L, const int64_t *off, const double *v, const int64_t *lags,
               double *X, double *y)
{
    for (int64_t i = 0; i < L; i++)
        for (int64_t t = off[i] + lags[i]; t < off[i + 1]; t++) {
            *y++ = v[t];
            *X++ = 1.0;
            for (int64_t j = 1; j <= lags[i]; j++)
                *X++ = v[t - j];
        }
    return 0;
}

/* lsq1 lane by lane: lane i has the rows roff[i]..roff[i + 1] of y and
 * p[i] columns, its design the next (rows x p[i]) row-major block of X;
 * coefficients and prefix RSS go one lane after another (p[i] each) into
 * coef and rss, residuals to the rows of y in resid. */
int lsq(int64_t L, const int64_t *roff, const int64_t *p, const double *X,
        const double *y, double *coef, double *rss, double *resid)
{
    for (int64_t i = 0; i < L; i++) {
        int64_t m = roff[i + 1] - roff[i];
        if (lsq1(m, p[i], X, y + roff[i], coef, rss, resid + roff[i], NULL))
            return -1;
        X += m * p[i];
        coef += p[i];
        rss += p[i];
    }
    return 0;
}

/* Per lane i: the first q columns of Q in the Householder QR of its
 * (rows roff[i]..roff[i + 1]) x q row-major design, the next block of X
 * (full column rank), written row-major at the same rows of Q. */
int qr_q(int64_t L, const int64_t *roff, int64_t q, const double *X, double *Q)
{
    for (int64_t i = 0; i < L; i++) {
        int64_t m = roff[i + 1] - roff[i];
        double *buf = calloc(m + q + m * q, sizeof(double)), *cols = buf + m + q;
        if (!buf || lsq1(m, q, X + roff[i] * q, buf, buf + m, NULL, NULL, cols)) {
            free(buf);
            return -1;
        }
        for (int64_t t = 0; t < m; t++)
            for (int64_t k = 0; k < q; k++)
                Q[(roff[i] + t) * q + k] = cols[k * m + t];
        free(buf);
    }
    return 0;
}

/* Autocovariance of each lane x[off[i] : off[i + 1]] (n points) at lags
 * 0..nlag[i], divided by n: acov[i * (K + 1) + k] = sum_t d_t d_{t+k} / n
 * with d = x - mean(x) when demean (else d = x); lags >= n (and past
 * nlag[i]) are NaN. pac, if not NULL, gets the partial autocorrelations
 * at the same places: the Levinson-Durbin recursion on acov, NaN for a
 * lane with nlag[i] >= n. Every sum runs left to right. */
int acovf(int64_t L, const int64_t *off, const double *x, const int64_t *nlag,
          int64_t K, int64_t demean, double *acov, double *pac)
{
    int64_t cap = 1;
    for (int64_t i = 0; i < L; i++)
        cap = off[i + 1] - off[i] > cap ? off[i + 1] - off[i] : cap;
    double *d = malloc((cap + (K + 1) * (K + 2)) * sizeof(double));
    if (!d)
        return -1;
    double *phi = d + cap, *sig = phi + (K + 1) * (K + 1); /* phi[j][k] at j*(K+1)+k */
    for (int64_t i = 0; i < L; i++) {
        int64_t n = off[i + 1] - off[i], nl = nlag[i];
        const double *xi = x + off[i];
        double *ac = acov + i * (K + 1), mean = 0.0;
        if (demean && n > 0) {
            for (int64_t t = 0; t < n; t++)
                mean = mean + xi[t];
            mean = mean / (double)n;
        }
        for (int64_t t = 0; t < n; t++)
            d[t] = xi[t] - mean;
        for (int64_t k = 0; k <= K; k++) {
            double s = 0.0;
            if (k > nl || k >= n) {
                ac[k] = NAN;
                continue;
            }
            for (int64_t t = 0; t + k < n; t++)
                s = s + d[t] * d[t + k];
            ac[k] = s / (double)n;
        }
        if (!pac)
            continue;
        double *pc = pac + i * (K + 1);
        for (int64_t k = 0; k <= K; k++)
            pc[k] = NAN;
        if (nl >= n)
            continue;
        pc[0] = 1.0;
        if (nl >= 1) {
            phi[1 * (K + 1) + 1] = ac[1] / ac[0];
            sig[1] = ac[0] - phi[1 * (K + 1) + 1] * ac[1];
            pc[1] = phi[1 * (K + 1) + 1];
        }
        for (int64_t k = 2; k <= nl; k++) {
            double s = 0.0;
            for (int64_t j = 1; j < k; j++)
                s = s + phi[j * (K + 1) + k - 1] * ac[k - j];
            double pkk = (ac[k] - s) / sig[k - 1];
            phi[k * (K + 1) + k] = pkk;
            for (int64_t j = 1; j < k; j++)
                phi[j * (K + 1) + k] = phi[j * (K + 1) + k - 1] - pkk * phi[(k - j) * (K + 1) + k - 1];
            sig[k] = sig[k - 1] * (1.0 - pkk * pkk);
            pc[k] = pkk;
        }
    }
    free(d);
    return 0;
}

/* ---- the rescaled range of the Hurst exponent ---- */

/* max over j <= i of d_j = y[j] - t_j * mq, with np.maximum's NaN rule */
#define NANMAX(a, b) (isnan(a) || isnan(b) ? NAN : ((b) > (a) ? (b) : (a)))
#define NANMIN(a, b) (isnan(a) || isnan(b) ? NAN : ((b) < (a) ? (b) : (a)))

/* Upper envelope of the lines f_j(q) = y[j] - t_j q, added with strictly
 * decreasing slopes; hull[0..h) in addition order, nbp[k] = -(the q where
 * hull[k] and hull[k + 1] meet), increasing. */
static void env_add(const double *y, const double *t, int64_t *hull, double *nbp,
                    int64_t *h, int64_t j)
{
    while (*h) {
        int64_t a = hull[*h - 1];
        double xn = (y[j] - y[a]) / (t[j] - t[a]);
        if (*h > 1 && -xn <= nbp[*h - 2]) {
            (*h)--;
            continue;
        }
        if (*h > 0)
            nbp[*h - 1] = -xn;
        break;
    }
    hull[(*h)++] = j;
}

static double env_query(const double *y, const double *t, const int64_t *hull,
                        const double *nbp, int64_t h, double q)
{
    int64_t lo = 0, hi = h - 1; /* first k with nbp[k] >= -q (bisect_left) */
    while (lo < hi) {
        int64_t mid = (lo + hi) / 2;
        if (nbp[mid] < -q)
            lo = mid + 1;
        else
            hi = mid;
    }
    return y[hull[lo]] - t[hull[lo]] * q;
}

/* Per lane x[off[i] : off[i + 1]] with t = 1..n, cumulative sum y and
 * running mean q_i = y_i / t_i: the running standard deviation
 * s[i] = sqrt(max(sum_{j<=i} x_j^2 / t_i - q_i^2, 0)) and the range
 * r[i] = max_{j<=i} (y_j - t_j q_i) - min_{j<=i} (y_j - t_j q_i), at the
 * lane's offsets. Up to HURST_SCAN_N points the range is the direct
 * O(n^2) max and min; longer lanes query the upper envelopes of those
 * lines, which evaluate the same expression at the winning j. */
#define HURST_SCAN_N 2000

int hurst_rs(int64_t L, const int64_t *off, const double *x, double *r, double *s)
{
    int64_t cap = 1;
    for (int64_t i = 0; i < L; i++)
        cap = off[i + 1] - off[i] > cap ? off[i + 1] - off[i] : cap;
    double *buf = malloc(6 * cap * sizeof(double));
    int64_t *hulls = malloc(2 * cap * sizeof(int64_t));
    if (!buf || !hulls) {
        free(buf);
        free(hulls);
        return -1;
    }
    double *y = buf, *t = buf + cap, *q = buf + 2 * cap, *yn = buf + 3 * cap,
           *nbp = buf + 4 * cap, *nbn = buf + 5 * cap;
    for (int64_t i = 0; i < L; i++) {
        int64_t n = off[i + 1] - off[i], hp = 0, hn = 0;
        const double *xi = x + off[i];
        double *ri = r + off[i], *si = s + off[i], cy = 0.0, cq = 0.0;
        for (int64_t j = 0; j < n; j++) {
            t[j] = (double)(j + 1);
            cy = j ? cy + xi[j] : xi[j];
            cq = j ? cq + xi[j] * xi[j] : xi[j] * xi[j];
            y[j] = cy;
            yn[j] = -cy;
            q[j] = cy / t[j];
            double v = cq / t[j] - q[j] * q[j];
            si[j] = sqrt(v > 0.0 || isnan(v) ? v : 0.0);
        }
        for (int64_t j = 0; j < n; j++) {
            if (n <= HURST_SCAN_N) {
                double mx = y[0] - t[0] * q[j], mn = mx;
                for (int64_t u = 1; u <= j; u++) {
                    double d = y[u] - t[u] * q[j];
                    mx = NANMAX(mx, d);
                    mn = NANMIN(mn, d);
                }
                ri[j] = mx - mn;
            } else {
                env_add(y, t, hulls, nbp, &hp, j);
                env_add(yn, t, hulls + cap, nbn, &hn, j);
                ri[j] = env_query(y, t, hulls, nbp, hp, q[j])
                        + env_query(yn, t, hulls + cap, nbn, hn, -q[j]);
            }
        }
    }
    free(buf);
    free(hulls);
    return 0;
}
