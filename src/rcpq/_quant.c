/* Compiled fast paths of the quantize side and of training, AVX2: the LDP
 * encoder behind rcpq.ldp.fake_quant, its backward pass behind
 * rcpq.ldp.grads, and the uniform scorer of the clip candidates in
 * rcpq.calib.grid_search_clip, which writes each candidate's float64 error
 * or that error cast to float32 as numpy's plain cast rounds it.
 *
 * Each does the IEEE double operations of its numpy reference in the same
 * order, and each operation rounds once: the library is built with
 * -ffp-contract=off, so no multiply and add fuse into an FMA. All require
 * an AVX2 CPU (rcpq_has_avx2) and take whole blocks only: the LDP entries
 * groups of a multiple of 4 values, the scorer groups of a multiple of 8
 * finite values. The backward pass also takes finite values only, and
 * says where it meets others. ldp.py and calib.py run their numpy
 * references everywhere else (rcpq._native.covering holds the block sizes).
 * Neither LDP entry takes an exp: the callers pass the sigmoids of the
 * logits as numpy computes them, whose bits depend on numpy's SIMD dispatch.
 */
#include <immintrin.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

#define RINT (_MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC)

int rcpq_has_avx2(void)
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2");
}

/* The LDP encoder, one pass per group.
 *
 * Per group of gsize doubles x, as the numpy reference in ldp.py
 * (_fake_quant_numpy, through derive_grids):
 *   mn, mx   the group's min and max, a NaN of the group if it holds one;
 *   the thresholds t and levels of the split sigmoids a and b, as
 *            p2 = (1 - a) * b, p3 = (1 - a) * (1 - b), t1 = a / 2,
 *            t2 = t1 + (a + p2) / 2, t3 = t2 + (p2 + p3) / 2,
 *            levels = {0, (t1 + t2) / 2, (t2 + t3) / 2, 1};
 *   lo = s_lo * mn, span = s_hi * mx - lo, table[k] = lo + span * levels[k];
 *   v = (x - lo) / span, clipped to [0, 1], a NaN kept as np.clip keeps it;
 *   code = #{k : t[k] <= v}, and values = table[code].
 * So codes, values and table equal the reference's bit for bit. Where a
 * group's min or max is a zero, numpy may return either sign; no output
 * depends on it: lo + span * level and the compares come out the same for
 * +0 and -0. A NaN is kept, unlike in the clip scorer, because training
 * needs it: a diverged train_toy student's weights hold NaNs, and its
 * values must too, so that its loss is NaN and training raises
 * TrainingFailureError. Where a group holds NaNs of different bit
 * patterns, numpy does not say which one its min returns; this takes the
 * first, so only those NaN values' payloads may differ.
 *
 * x: (groups, gsize); sig: (4, groups), the sigmoids of the lo, hi, split1
 * and split2 logits; codes: (groups, gsize); values: (groups, gsize), or
 * NULL for codes alone. Requires gsize a multiple of 4, at least 4. Returns
 * -1, or the first group whose span <= 0; that group and the groups after
 * it are then left unset.
 */

/* SPREAD[m]: byte j is bit j of the 4-bit compare mask m. */
static const uint32_t SPREAD[16] = {
    0x00000000, 0x00000001, 0x00000100, 0x00000101, 0x00010000, 0x00010001, 0x00010100, 0x00010101,
    0x01000000, 0x01000001, 0x01000100, 0x01000101, 0x01010000, 0x01010001, 0x01010100, 0x01010101,
};

/* The min and max of n values, n a multiple of 4, or the first NaN among them for both. */
__attribute__((target("avx2"))) static void min_max(const double *x, int64_t n, double *mn, double *mx)
{
    __m256d lo = _mm256_set1_pd(x[0]), hi = lo, nan = _mm256_setzero_pd();
    for (int64_t i = 0; i < n; i += 4) {
        __m256d v = _mm256_loadu_pd(x + i);
        lo = _mm256_min_pd(lo, v);
        hi = _mm256_max_pd(hi, v);
        nan = _mm256_or_pd(nan, _mm256_cmp_pd(v, v, _CMP_UNORD_Q));
    }
    double l[4], h[4];
    _mm256_storeu_pd(l, lo);
    _mm256_storeu_pd(h, hi);
    double a = l[0], b = h[0];
    for (int k = 1; k < 4; k++) {
        a = l[k] < a ? l[k] : a;
        b = h[k] > b ? h[k] : b;
    }
    if (!_mm256_testz_pd(nan, nan)) {
        int64_t i = 0;
        while (x[i] == x[i])
            i++;
        a = b = x[i];
    }
    *mn = a;
    *mx = b;
}

__attribute__((target("avx2"))) int64_t rcpq_ldp_encode(const double *x, int64_t groups, int64_t gsize,
                                                        const double *sig, uint8_t *codes, double *values)
{
    const __m256d zero = _mm256_setzero_pd(), one = _mm256_set1_pd(1.0);
    const __m256i one64 = _mm256_set1_epi64x(1);
    for (int64_t g = 0; g < groups; g++) {
        const double *xg = x + g * gsize;
        double mn, mx;
        min_max(xg, gsize, &mn, &mx);
        const double lo = sig[g] * mn;
        const double span = sig[groups + g] * mx - lo;
        if (span <= 0.0)
            return g;
        const double a = sig[2 * groups + g], b = sig[3 * groups + g];
        const double p2 = (1.0 - a) * b, p3 = (1.0 - a) * (1.0 - b);
        const double t1 = a / 2.0, t2 = t1 + (a + p2) / 2.0, t3 = t2 + (p2 + p3) / 2.0;
        const double levels[4] = {0.0, (t1 + t2) / 2.0, (t2 + t3) / 2.0, 1.0};
        double table[4];
        for (int k = 0; k < 4; k++)
            table[k] = lo + span * levels[k];
        /* table as eight 32-bit halves: code c's double is halves 2c and 2c + 1 */
        const __m256i tab = _mm256_castpd_si256(_mm256_loadu_pd(table));
        const __m256d lo4 = _mm256_set1_pd(lo), span4 = _mm256_set1_pd(span);
        const __m256d tv1 = _mm256_set1_pd(t1), tv2 = _mm256_set1_pd(t2), tv3 = _mm256_set1_pd(t3);
        uint8_t *cg = codes + g * gsize;
        double *vg = values ? values + g * gsize : NULL;
        for (int64_t i = 0; i < gsize; i += 4) {
            __m256d v = _mm256_div_pd(_mm256_sub_pd(_mm256_loadu_pd(xg + i), lo4), span4);
            /* max and min return their second operand when either is NaN */
            v = _mm256_min_pd(one, _mm256_max_pd(zero, v));
            __m256d m0 = _mm256_cmp_pd(v, tv1, _CMP_GE_OQ), m1 = _mm256_cmp_pd(v, tv2, _CMP_GE_OQ),
                    m2 = _mm256_cmp_pd(v, tv3, _CMP_GE_OQ);
            uint32_t c4 = SPREAD[_mm256_movemask_pd(m0)] + SPREAD[_mm256_movemask_pd(m1)] +
                          SPREAD[_mm256_movemask_pd(m2)];
            memcpy(cg + i, &c4, 4); /* little-endian: byte j is element i + j */
            if (vg) {
                /* each mask lane is 0 or -1, so the code is minus their sum */
                __m256i c = _mm256_sub_epi64(_mm256_setzero_si256(), _mm256_castpd_si256(m0));
                c = _mm256_sub_epi64(_mm256_sub_epi64(c, _mm256_castpd_si256(m1)), _mm256_castpd_si256(m2));
                __m256i half = _mm256_slli_epi64(c, 1);
                __m256i idx = _mm256_or_si256(half, _mm256_slli_epi64(_mm256_add_epi64(half, one64), 32));
                _mm256_storeu_pd(vg + i, _mm256_castsi256_pd(_mm256_permutevar8x32_epi32(tab, idx)));
            }
        }
    }
    return -1;
}

/* The LDP backward pass, one pass per group.
 *
 * Per group of gsize doubles x, with upstream gradients up and the forward
 * pass's codes, as the numpy reference in ldp.py (_grads_numpy):
 *   mn, mx   the group's min and max;
 *   lo = s_lo * mn, span = s_hi * mx - lo, hi = lo + span;
 *   level[c] and its split1 and split2 derivatives d1[c] and d2[c], from
 *            the split sigmoids a and b with the reference's expressions;
 *   terms    (u * c_lo) * (1 - level[c]), (u * c_hi) * level[c],
 *            (u * span) * d1[c] and (u * span) * d2[c] per value, where
 *            c_lo = (s_lo * (1 - s_lo)) * mn and c_hi = (s_hi * (1 - s_hi)) * mx;
 *   d_logits each row of terms summed as numpy's terms.sum(axis=-1) sums it
 *            (pairwise4, below): numpy's pairwise sum, then the reduce's
 *            identity 0.0 added;
 *   d_group  u where lo <= x <= hi, else 0.0.
 * So every output equals the reference's bit for bit. Where a group's min or
 * max is a zero, numpy may return either sign; no output depends on it: hi
 * is span, the compares are the same for +0 and -0, and the zero terms it
 * signs sum to zeros that the identity makes +0.
 *
 * x, up: (groups, gsize); sig: (4, groups), the sigmoids of the lo, hi,
 * split1 and split2 logits; codes: (groups, gsize); d_group: (groups,
 * gsize); d_logits: (4, groups), a row per logit. Requires gsize a
 * multiple of 4, at least 4. Returns -1 when every output is written, and
 * -2 at the first group that holds a value of x or up, or a sigmoid, that
 * is not finite, so that the caller runs the reference, as a NaN payload
 * could take a different way through these operations. Else it returns
 * 2 * g + 1 for the first group g that holds a code above 3, or, where no
 * group does, 2 * g for the first group whose span <= 0. Outputs are then
 * left partly unset.
 */

/* One group's backward: its chain factors, and its tables by code. */
struct backward {
    const double *up;
    const uint8_t *codes;
    double c_lo, c_hi, span;
    double table[4][4]; /* 1 - level, level, d1, d2 */
};

/* The four terms of value i */
static inline void terms(const struct backward *k, int64_t i, double t[4])
{
    const int c = k->codes[i];
    const double u = k->up[i], us = u * k->span;
    t[0] = u * k->c_lo * k->table[0][c];
    t[1] = u * k->c_hi * k->table[1][c];
    t[2] = us * k->table[2][c];
    t[3] = us * k->table[3][c];
}

/* Each row of terms over values i0 .. i0 + n - 1 summed in the order of
 * numpy's pairwise sum (pairwise_sum in numpy/_core/src/umath/loops_utils.h.src),
 * which np.add.reduce runs on each contiguous row:
 *   n < 8         start at -0.0 and add in order;
 *   8 <= n <= 128 eight accumulators r[j] over terms j, j + 8, ..., up to
 *                 n - n % 8, then ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)),
 *                 then the rest added in order;
 *   n > 128       the sums of the first n2 = n / 2 - (n / 2) % 8 terms and of
 *                 the rest, added.
 * Starting every accumulator at -0.0 gives both short branches: -0.0 + t is t.
 */
static void pairwise4(const struct backward *k, int64_t i0, int64_t n, double sum[4])
{
    if (n > 128) {
        int64_t n2 = n / 2;
        n2 -= n2 % 8;
        double rest[4];
        pairwise4(k, i0, n2, sum);
        pairwise4(k, i0 + n2, n - n2, rest);
        for (int r = 0; r < 4; r++)
            sum[r] += rest[r];
        return;
    }
    double acc[4][8], t[4];
    for (int r = 0; r < 4; r++)
        for (int j = 0; j < 8; j++)
            acc[r][j] = -0.0;
    int64_t i = 0;
    for (; i + 8 <= n; i += 8)
        for (int j = 0; j < 8; j++) {
            terms(k, i0 + i + j, t);
            for (int r = 0; r < 4; r++)
                acc[r][j] += t[r];
        }
    for (int r = 0; r < 4; r++) {
        const double *a = acc[r];
        sum[r] = ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7]));
    }
    for (; i < n; i++) {
        terms(k, i0 + i, t);
        for (int r = 0; r < 4; r++)
            sum[r] += t[r];
    }
}

__attribute__((target("avx2"))) int64_t rcpq_ldp_grads(const double *x, int64_t groups, int64_t gsize,
                                                       const double *sig, const uint8_t *codes,
                                                       const double *up, double *d_group, double *d_logits)
{
    int64_t bad_range = -1;
    for (int64_t g = 0; g < groups; g++) {
        const double *xg = x + g * gsize, *ug = up + g * gsize;
        const uint8_t *cg = codes + g * gsize;
        const double s_lo = sig[g], s_hi = sig[groups + g], a = sig[2 * groups + g], b = sig[3 * groups + g];
        unsigned seen = 0;
        int finite = isfinite(s_lo) && isfinite(s_hi) && isfinite(a) && isfinite(b);
        for (int64_t i = 0; i < gsize; i++) {
            seen |= cg[i];
            finite &= isfinite(xg[i]) && isfinite(ug[i]);
        }
        if (seen > 3)
            return 2 * g + 1;
        if (!finite)
            return -2;
        if (bad_range >= 0)
            continue; /* only a stray code or a non-finite value can change the outcome */
        double mn, mx;
        min_max(xg, gsize, &mn, &mx);
        const double lo = s_lo * mn;
        const double span = s_hi * mx - lo;
        if (span <= 0.0) {
            bad_range = g;
            continue;
        }
        const double hi = lo + span;
        const double na = 1.0 - a, nab = na * b, da = a * na, nadb = na * (b * (1.0 - b));
        const double l1 = (3.0 * a + nab) / 4.0, l2 = a + nab / 2.0 + na / 4.0;
        const struct backward k = {
            ug, cg, s_lo * (1.0 - s_lo) * mn, s_hi * (1.0 - s_hi) * mx, span,
            {{1.0, 1.0 - l1, 1.0 - l2, 0.0},
             {0.0, l1, l2, 1.0},
             {0.0, da * (3.0 - b) / 4.0, da * (3.0 - 2.0 * b) / 4.0, 0.0},
             {0.0, nadb / 4.0, nadb / 2.0, 0.0}},
        };
        double sum[4];
        pairwise4(&k, 0, gsize, sum);
        for (int r = 0; r < 4; r++)
            d_logits[r * groups + g] = sum[r] + 0.0; /* the reduce's identity: a -0 sum becomes +0 */
        double *dg = d_group + g * gsize;
        for (int64_t i = 0; i < gsize; i++)
            dg[i] = xg[i] >= lo && xg[i] <= hi ? ug[i] : 0.0;
    }
    return bad_range < 0 ? -1 : 2 * bad_range;
}

/* The uniform scorer: each clip candidate's 2-bit quantization error.
 *
 * For one group g and each clip candidate p, as the numpy reference in
 * calib.py (np.clip, then uniform.asym_quant_dequant, then the subtraction):
 *   c = min(max(g, lo[p]), hi[p]), so hi[p] where lo[p] > hi[p], as np.clip;
 *   mn, mx   the min and max of c; span = mx - mn
 *            (clipping is monotone: they are g's min and max, clipped);
 *   step = span / 3, zero = -rint(mn / span);
 *   q = rint(c / step) + zero, clipped to [0, 3];
 *   deq = (q - zero) * step, or c itself where !(span > 0);
 *   err = deq - c.
 * rint rounds half to even, as np.round does. g's min and max come from the
 * caller, as numpy's min and max give them, and numpy's clip, min and max
 * return either sign of equal zeros, varying with an element's place in
 * their SIMD loops; so the C side and the reference may see zeros of
 * different signs in c, mn and zero. err depends on none of those signs.
 * They reach err only through deq - c at deq = 0, and deq is never -0: that
 * needs a clipped q of -0 with zero = +0, but q is -0 only when
 * rint(c / step) and zero are both -0. So err equals the reference's bit
 * for bit, and span does up to the sign of a zero span. The search sends
 * finite values only: it rejects an inf or NaN weight before it scores a
 * group.
 *
 * Two output modes, in the same pass per candidate:
 *   float64   err: (cands, gsize), the errors above;
 *   float32   (err NULL) e: (cands, gsize), float32(err), rounded as
 *             numpy's cast to float32 rounds it, so e equals numpy's bit
 *             for bit; n: (cands,), the float32 sum of e's squares, each
 *             square rounded to float, summed in this kernel's own lane
 *             order; and span: (cands,), the spans above.
 * Each candidate is computed on its own, so a call on a subset of the
 * candidates writes the same bits for them as a call on all of them.
 *
 * g: (gsize,), finite, gsize a multiple of 8, at least 8; g_mn, g_mx: g's
 * min and max; lo, hi: (cands,), finite; span is left alone in float64
 * mode, and may be NULL there. Returns 0.
 */

/* np.clip of one value */
static double clip(double x, double l, double h)
{
    x = x > l ? x : l;
    return x < h ? x : h;
}

/* One candidate's clip bounds and quantizer, broadcast. */
struct quantizer {
    __m256d l, h, step, z;
    int quantize; /* span > 0, else deq = c */
};

/* err of the 4 values at x */
__attribute__((target("avx2"))) static inline __m256d err4(const struct quantizer *k, const double *x)
{
    const __m256d c = _mm256_min_pd(k->h, _mm256_max_pd(k->l, _mm256_loadu_pd(x)));
    __m256d deq = c;
    if (k->quantize) {
        __m256d q = _mm256_add_pd(_mm256_round_pd(_mm256_div_pd(c, k->step), RINT), k->z);
        q = _mm256_min_pd(_mm256_set1_pd(3.0), _mm256_max_pd(_mm256_setzero_pd(), q));
        deq = _mm256_mul_pd(_mm256_sub_pd(q, k->z), k->step);
    }
    return _mm256_sub_pd(deq, c);
}

/* float32(err) of the 8 values at x */
__attribute__((target("avx2"))) static inline __m256 err8f(const struct quantizer *k, const double *x)
{
    return _mm256_set_m128(_mm256_cvtpd_ps(err4(k, x + 4)), _mm256_cvtpd_ps(err4(k, x)));
}

__attribute__((target("avx2"))) int64_t rcpq_clip_errors(const double *g, int64_t gsize, double g_mn, double g_mx,
                                                         const double *lo, const double *hi, int64_t cands,
                                                         double *err, float *e, float *n, double *span)
{
    for (int64_t p = 0; p < cands; p++) {
        const double l = lo[p], h = hi[p];
        /* clipping is monotone, so the clipped group's min and max are the clipped min and max */
        const double mn = clip(g_mn, l, h), s = clip(g_mx, l, h) - mn;
        const double z = -_mm_cvtsd_f64(_mm_round_sd(_mm_setzero_pd(), _mm_set_sd(mn / s), RINT));
        const struct quantizer k = {_mm256_set1_pd(l), _mm256_set1_pd(h), _mm256_set1_pd(s / 3.0),
                                    _mm256_set1_pd(z), s > 0.0};
        if (err) {
            for (int64_t i = 0; i < gsize; i += 4)
                _mm256_storeu_pd(err + p * gsize + i, err4(&k, g + i));
            continue;
        }
        span[p] = s;
        float *ep = e + p * gsize;
        /* two accumulators, so one sum does not wait on the other */
        __m256 acc0 = _mm256_setzero_ps(), acc1 = _mm256_setzero_ps();
        int64_t i = 0;
        for (; i + 16 <= gsize; i += 16) {
            const __m256 f0 = err8f(&k, g + i), f1 = err8f(&k, g + i + 8);
            _mm256_storeu_ps(ep + i, f0);
            _mm256_storeu_ps(ep + i + 8, f1);
            acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(f0, f0));
            acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(f1, f1));
        }
        if (i < gsize) { /* the last 8 values */
            const __m256 f = err8f(&k, g + i);
            _mm256_storeu_ps(ep + i, f);
            acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(f, f));
        }
        acc0 = _mm256_add_ps(acc0, acc1);
        __m128 q = _mm_add_ps(_mm256_castps256_ps128(acc0), _mm256_extractf128_ps(acc0, 1));
        q = _mm_add_ps(q, _mm_movehl_ps(q, q));
        n[p] = _mm_cvtss_f32(_mm_add_ss(q, _mm_movehdup_ps(q)));
    }
    return 0;
}
