/* Lane-major step loops for the optimizer-backed kernels (_batch.py).
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
 * IEEE double that numpy's elementwise ufuncs produce. A lane reads
 * nothing of any other lane: results do not depend on batch composition.
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
